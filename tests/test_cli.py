import ast
import json
import os
import subprocess
import sys
from pathlib import Path

CLI = [sys.executable, "-m", "ringres.cli"]


def run(*argv):
    return subprocess.run(CLI + list(argv), capture_output=True, text=True)


class TestBasicCommands:
    def test_rres(self):
        p = run("rres", "--mod", "12", "3,2,1", "1,0,1")
        assert p.returncode == 0 and p.stdout.strip() == "4"

    def test_res(self):
        p = run("res", "--mod", "4", "1,2,0,1", "2,0,2,1")
        assert p.returncode == 0 and p.stdout.strip() == "1"

    def test_res_ideal(self):
        p = run("res-ideal", "--mod", "4", "1,2,0,1", "2,0,2,1")
        assert p.returncode == 0 and p.stdout.strip() == "1"

    def test_bezout_json_remultiplies(self):
        p = run("bezout", "--mod", "12", "--json", "3,2,1", "1,0,1")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        from ringres import Poly, Zmod

        R = Zmod(12)
        f, g = Poly.from_ints(R, [3, 2, 1]), Poly.from_ints(R, [1, 0, 1])
        u, v = Poly.from_ints(R, out["u"]), Poly.from_ints(R, out["v"])
        assert u * f + v * g == Poly.const(R, R.from_int(out["value"]))
        assert R.ideal_gen(R.from_int(out["value"])) == 4

    def test_divrem(self):
        p = run("divrem", "--mod", "7", "1,0,0,1", "1,1")
        assert p.returncode == 0
        assert p.stdout.strip() == "q=1,6,1 r=0"

    def test_funfactor(self):
        # gap 2; gap 1 in the reversed lift; k = 1 < m
        for f, want in (("1,0,0,1,0,2", "u=1,4,2 monic=1,4,6,1"),
                        ("1,0,1,2", "u=5,2 monic=5,6,1"),
                        ("1,1,2,2", "u=1,0,2 monic=1,1")):
            p = run("funfactor", "--mod", "8", f)
            assert p.returncode == 0
            assert p.stdout.strip() == want

    def test_inv(self):
        p = run("inv", "--mod", "4", "1,2")
        assert p.returncode == 0 and p.stdout.strip() == "1,2"

    def test_howell(self):
        p = run("howell", "--mod", "4", "2,1;2,3")
        assert p.returncode == 0 and p.stdout.strip() == "2,1;0,2"

    def test_sylvester(self):
        p = run("sylvester", "--mod", "7", "1,2,3", "4,5")
        assert p.returncode == 0 and p.stdout.strip() == "3,2,1;5,4,0;0,5,4"

    def test_bivres(self):
        p = run("bivres", "--mod", "35", "1,1;0,1", "2;1")
        assert p.returncode == 0
        # res_y(x*y + x + 1, y + 2) = det [[x, x+1], [1, 2]] = x - 1
        assert p.stdout.strip() == "34,1"

    def test_padic_gcd(self):
        p = run("padic-gcd", "--p", "3", "--prec", "8", "2,3,1", "2,1")
        assert p.returncode == 0
        assert p.stdout.strip() == "gcd=2,1 delta=0"

    def test_nf_norm_and_min(self):
        p = run("nf-norm", "--minpoly", "1,0,1", "--a", "5", "--num", "2,1")
        assert p.returncode == 0 and p.stdout.strip() == "5"
        p = run("nf-min", "--minpoly", "5,0,1", "--a", "2", "--num", "1,1")
        assert p.returncode == 0 and p.stdout.strip() == "2"


class TestExitCodes:
    def test_parse_error_is_2(self):
        assert run("res", "--mod", "12", "3,x,1", "1").returncode == 2

    def test_missing_mod_is_2(self):
        assert run("res", "3,2,1", "1,0,1").returncode == 2

    def test_domain_error_is_2(self):
        # inverting a non-unit polynomial is a domain error, not a crash
        assert run("inv", "--mod", "4", "2,1").returncode == 2

    def test_bad_subcommand_is_2(self):
        assert run("frobnicate").returncode == 2

    def test_composite_p_is_2(self):
        assert run("padic-gcd", "--p", "4", "--prec", "2", "1,1", "1").returncode == 2

    def test_flag_the_subcommand_does_not_read_is_2(self, tmp_path, monkeypatch, capsys):
        from ringres.cli import main

        monkeypatch.chdir(tmp_path)
        for argv in (["res", "--mod", "7", "1,1", "1,2", "--seed", "3", "--out", "zz"],
                     ["padic-gcd", "--p", "3", "--prec", "8", "2,3,1", "2,1", "--out", "zz"],
                     ["selfcheck", "--json"], ["bench", "--json"]):
            assert main(argv) == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err, argv
        assert not (tmp_path / "zz").exists()


class TestSelfcheck:
    def test_selfcheck_passes(self):
        p = run("selfcheck", "--seed", "5")
        assert p.returncode == 0, p.stdout + p.stderr
        assert p.stdout.startswith("PASS")


class TestBench:
    def test_bench_rows_and_out(self, tmp_path, monkeypatch, capsys):
        from ringres import cli

        monkeypatch.setattr(cli, "BENCH_SIZES", (4, 8))
        want = [[alg, d, label] for label in ("prime", "prime-power", "composite")
                for d in ("4", "8") for alg in ("res", "rres")]
        assert cli.main(["bench", "--seed", "3"]) == 0
        printed = capsys.readouterr().out.splitlines()
        path = tmp_path / "sweep.csv"
        assert cli.main(["bench", "--seed", "3", "--out", str(path)]) == 0
        assert capsys.readouterr().out == f"wrote {path}\n"
        for lines in (printed, path.read_text().splitlines()):
            rows = [line.split(",") for line in lines]
            assert rows[0] == ["algorithm", "d", "n-class", "seconds"]
            assert [row[:3] for row in rows[1:]] == want
            assert all(len(row[3].partition(".")[2]) <= 4 for row in rows[1:])

    def test_unwritable_out_is_2_before_timing(self, tmp_path, monkeypatch, capsys):
        from ringres import cli

        def never(*args):
            raise AssertionError("timed a pair before opening --out")

        monkeypatch.setattr(cli, "median_seconds", never)
        path = tmp_path / "missing" / "x.csv"
        assert cli.main(["bench", "--out", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: cannot write --out: ")
        assert str(path) in out.err


class TestNoNumpy:
    def test_runs_without_numpy(self):
        # ringres has no runtime dependency: a plain import leaves numpy
        # unloaded, and with numpy blocked selfcheck and a res over Z/10007
        # at degree 64 still give the expected answers
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        plain = subprocess.run(
            [sys.executable, "-c", "import sys, ringres, ringres.cli; "
             "print('numpy' in sys.modules)"], capture_output=True, text=True, env=env)
        assert plain.returncode == 0 and plain.stdout.strip() == "False", plain.stderr
        script = """
import sys
sys.modules["numpy"] = None
from ringres.cli import main
f = ",".join(str((i * i + 3) % 10007) for i in range(64)) + ",1"
g = ",".join(str((7 * i + 1) ** 3 % 10007) for i in range(65)) + ",1"
sys.exit(main(["selfcheck"]) or main(["res", "--mod", "10007", f, g]))
"""
        p = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert p.returncode == 0, p.stdout + p.stderr
        assert p.stdout.split("\n")[:2] == ["PASS (287 cases)", "4667"], p.stdout


class TestInvariants:
    def test_no_asserts_in_src(self):
        # invariants must survive python -O, which strips assert statements,
        # and raise InvariantError (bad input: ValueError), not AssertionError
        src = Path(__file__).resolve().parent.parent / "src" / "ringres"

        def raises_assertion(n):
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            return isinstance(exc, ast.Name) and exc.id == "AssertionError"

        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)
                     or (isinstance(n, ast.Raise) and n.exc and raises_assertion(n))]
            assert not found, f"{path.name}: assert or AssertionError at lines {found}"

    def test_broken_invariant_is_3(self, monkeypatch, capsys):
        from ringres import Poly
        from ringres.cli import main

        # Truncating every Newton iterate to a constant makes invert_unit's
        # final check v*f == 1 fail.
        monkeypatch.setattr(Poly, "mod_xpow", lambda self, t: Poly(self.ring, self.coeffs[:1]))
        assert main(["inv", "--mod", "8", "1,6"]) == 3
        assert "InvariantError" in capsys.readouterr().err

    def test_bezout_mismatch_is_3(self, monkeypatch, capsys):
        from ringres import Poly, cli, rres_bezout

        def wrong(f, g):
            cert = rres_bezout(f, g)
            return type(cert)(cert.value, cert.u, cert.v + Poly.one(f.ring))

        monkeypatch.setattr(cli, "rres_bezout", wrong)
        assert cli.main(["bezout", "--mod", "12", "3,2,1", "1,0,1"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "InvariantError" in out.err

    def test_fun_factor_mismatch_is_3(self, monkeypatch, capsys):
        from ringres import poly
        from ringres.cli import main

        # a lift that stops before its first step leaves u*gtilde != f: on
        # lists (gap 2), by Newton on the root in the reversed lift (gap 1)
        # and on gtilde's root (k = 1 < m)
        lift = poly._lift
        monkeypatch.setattr(poly, "_lift", lambda G, P, S, rounds: lift(G, P, S, 0))
        for f in ("1,0,0,1,0,2", "1,0,1,2", "3,1,2,2"):
            assert main(["funfactor", "--mod", "8", f]) == 3, f
            out = capsys.readouterr()
            assert out.out == "" and "InvariantError" in out.err, f
        # x + 1 divides 1 + x + 2x^2 + 2x^3: the starting root is exact
        assert main(["funfactor", "--mod", "8", "1,1,2,2"]) == 0
        assert capsys.readouterr().out.strip() == "u=1,0,2 monic=1,1"

    def test_packed_slot_bound_is_3(self, monkeypatch, capsys):
        from ringres import poly
        from ringres.cli import main

        # one byte narrower than the slots the packed Euclidean steps need
        monkeypatch.setattr(poly, "_slot_bytes", lambda n: (2 * n.bit_length() + 9) // 8)
        poly._layout.cache_clear()
        try:
            assert main(["res", "--mod", "1000003", "1,2,3,4,5", "6,7,8,1"]) == 3
        finally:
            poly._layout.cache_clear()
        err = capsys.readouterr().err
        assert "InvariantError" in err and "too narrow" in err
