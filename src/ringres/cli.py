"""Command-line front end.

Polynomials are written as comma-separated decimal coefficients in ascending
degree (``3,2,1`` is x^2 + 2x + 3).  Bivariate polynomials are
semicolon-separated lists of x-polynomials ascending in y; matrices are
semicolon-separated rows.

Exit codes: 0 success, 1 selfcheck failure, 2 parse/usage error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import random
import statistics
import sys
import time

from .ring import GaloisRing, InvariantError, Zmod
from .poly import (
    Poly,
    divrem,
    divrem_primitive,
    fun_factor,
    invert_mod,
    invert_unit,
)
from .linalg import Matrix, det, howell, rres_howell, sylvester
from .resultant import res, res_ideal, rres, rres_bezout
from .bivariate import BiPoly, res_y
from .padic import PadicCtx, padic_gcd
from .numberfield import FieldElem, Ideal2, NumberFieldCtx, ideal_min, ideal_norm

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3


class ParseFailure(ValueError):
    pass


def _parse_ints(text: str, what: str):
    out = []
    for pos, part in enumerate(text.split(",")):
        part = part.strip()
        try:
            out.append(int(part))
        except ValueError:
            raise ParseFailure(
                f"{what}: expected a decimal integer at position {pos}, got {part!r}"
            ) from None
    return out


def _parse_poly(ring, text: str, what: str = "polynomial") -> Poly:
    return Poly.from_ints(ring, _parse_ints(text, what))


def _parse_bipoly(ring, text: str) -> BiPoly:
    rows = [
        _parse_ints(chunk, f"bivariate row {i}")
        for i, chunk in enumerate(text.split(";"))
    ]
    return BiPoly.from_ints(ring, rows)


def _parse_matrix(ring, text: str) -> Matrix:
    rows = [_parse_ints(chunk, f"matrix row {i}") for i, chunk in enumerate(text.split(";"))]
    if len({len(r) for r in rows}) != 1:
        raise ParseFailure("matrix rows must all have the same length")
    return Matrix(ring, rows)


def _fmt_matrix(m: Matrix) -> str:
    return ";".join(",".join(str(c) for c in row) for row in m.rows)


def _emit(args, plain: str, payload: dict):
    print(json.dumps(payload) if args.json else plain)


def _ring(args) -> Zmod:
    if args.mod is None or args.mod < 2:
        raise ParseFailure("--mod n with n >= 2 is required")
    return Zmod(args.mod)


def _cmd_value(fn):
    """The subcommand that prints fn(f, g), a ring element."""
    def cmd(args):
        R = _ring(args)
        v = fn(_parse_poly(R, args.f), _parse_poly(R, args.g))
        _emit(args, str(v), {"value": int(v)})
    return cmd


def cmd_bezout(args):
    R = _ring(args)
    f, g = _parse_poly(R, args.f), _parse_poly(R, args.g)
    cert = rres_bezout(f, g)
    if cert.u * f + cert.v * g != Poly.const(R, cert.value):
        raise InvariantError("certificate check failed: u*f + v*g != r")
    plain = f"r={cert.value} u={cert.u.format()} v={cert.v.format()}"
    _emit(args, plain, {"value": int(cert.value), "u": list(cert.u.coeffs), "v": list(cert.v.coeffs)})


def cmd_divrem(args):
    R = _ring(args)
    f, g = _parse_poly(R, args.f), _parse_poly(R, args.g)
    if not g.is_zero() and R.is_unit(g.lc):
        q, r = divrem(f, g)
    else:
        q, r = divrem_primitive(f, g)
    _emit(args, f"q={q.format()} r={r.format()}",
          {"q": list(q.coeffs), "r": list(r.coeffs)})


def cmd_funfactor(args):
    R = _ring(args)
    fac = fun_factor(_parse_poly(R, args.f))
    _emit(args, f"u={fac.u.format()} monic={fac.gtilde.format()}",
          {"u": list(fac.u.coeffs), "monic": list(fac.gtilde.coeffs)})


def cmd_inv(args):
    R = _ring(args)
    v = invert_unit(_parse_poly(R, args.f))
    _emit(args, v.format(), {"inverse": list(v.coeffs)})


def cmd_invmod(args):
    R = _ring(args)
    v = invert_mod(_parse_poly(R, args.f), _parse_poly(R, args.g))
    _emit(args, v.format(), {"inverse": list(v.coeffs)})


def cmd_howell(args):
    R = _ring(args)
    H = howell(_parse_matrix(R, args.matrix))
    _emit(args, _fmt_matrix(H), {"rows": H.to_lists()})


def cmd_sylvester(args):
    R = _ring(args)
    S = sylvester(_parse_poly(R, args.f), _parse_poly(R, args.g))
    _emit(args, _fmt_matrix(S), {"rows": S.to_lists()})


def cmd_bivres(args):
    R = _ring(args)
    v = res_y(_parse_bipoly(R, args.f), _parse_bipoly(R, args.g))
    _emit(args, v.format(), {"coeffs": list(v.coeffs)})


def cmd_padic_gcd(args):
    if args.p is None or args.prec is None:
        raise ParseFailure("--p and --prec are required")
    ctx = PadicCtx(args.p, args.prec)
    f = _parse_poly(ctx.ring, args.f)
    g = _parse_poly(ctx.ring, args.g)
    out = padic_gcd(ctx, f, g)
    plain = f"gcd={out.value.format()} delta={out.delta}"
    _emit(args, plain, {"gcd": list(out.value.coeffs), "delta": out.delta,
                        "normalized": out.normalized})


def _nf_args(args):
    if args.minpoly is None or args.num is None:
        raise ParseFailure("--minpoly and --num are required")
    ctx = NumberFieldCtx(tuple(_parse_ints(args.minpoly, "--minpoly")),
                         exponent_hint=args.hint)
    alpha = FieldElem(tuple(_parse_ints(args.num, "--num")), args.den)
    if args.a is None or args.a < 1:
        raise ParseFailure("--a with a positive integer is required")
    return ctx, Ideal2(args.a, alpha)


def cmd_nf_norm(args):
    ctx, ideal = _nf_args(args)
    v = ideal_norm(ctx, ideal)
    _emit(args, str(v), {"norm": v})


def cmd_nf_min(args):
    ctx, ideal = _nf_args(args)
    v = ideal_min(ctx, ideal)
    _emit(args, str(v), {"min": v})


# ---------------------------------------------------------------------------
# selfcheck: oracle-equivalence sweeps at fixed seeds, no external deps
# ---------------------------------------------------------------------------

def _selfcheck_cases(seed: int):
    rng = random.Random(seed)
    # resultant vs determinant
    for _ in range(150):
        n = rng.randrange(2, 10**6)
        R = Zmod(n)
        f = Poly.from_ints(R, [rng.randrange(n) for _ in range(rng.randrange(1, 8))])
        g = Poly.from_ints(R, [rng.randrange(n) for _ in range(rng.randrange(1, 8))])
        if f.is_zero() or g.is_zero() or f.degree + g.degree < 1:
            continue
        yield ("res=det", (n, f.coeffs, g.coeffs), res(f, g) == det(sylvester(f, g)))
    # reduced resultant vs Howell oracle, Bezout re-multiplication
    for _ in range(60):
        n = rng.randrange(2, 10**4)
        R = Zmod(n)
        f = Poly.from_ints(R, [rng.randrange(n) for _ in range(rng.randrange(1, 6))])
        g = Poly.from_ints(R, [rng.randrange(n) for _ in range(rng.randrange(1, 6))])
        if f.is_zero() or g.is_zero():
            continue
        r = rres(f, g)
        cert = rres_bezout(f, g)
        ok = (r == rres_howell(f, g)
              and cert.u * f + cert.v * g == Poly.const(R, cert.value)
              and R.ideal_gen(cert.value) == r)
        yield ("rres=howell", (n, f.coeffs, g.coeffs), ok)
    # polynomial products against an inline schoolbook
    def rand_elem(R):
        if isinstance(R, Zmod):
            return rng.randrange(R.n)
        return tuple(rng.randrange(R.pe) for _ in range(R.k))

    for R in (Zmod(2**127 - 1), GaloisRing(3, 20, (2, 2, 1))):
        for _ in range(20):
            a = [rand_elem(R) for _ in range(rng.randrange(1, 40))]
            b = a if rng.random() < 0.25 else [rand_elem(R) for _ in range(rng.randrange(1, 40))]
            slow = [R.zero] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    slow[i + j] = R.add(slow[i + j], R.mul(x, y))
            f = Poly(R, a)
            prod = f * f if b is a else f * Poly(R, b)
            yield ("mul=schoolbook", (str(R), len(a), len(b)), prod == Poly(R, slow))
    # bivariate pointwise specialization against univariate resultants
    for _ in range(20):
        n = rng.choice([12, 27, 35, 100])
        R = Zmod(n)
        f = BiPoly.from_ints(R, [[rng.randrange(n) for _ in range(3)] for _ in range(3)])
        g = BiPoly.from_ints(R, [[rng.randrange(n) for _ in range(3)] for _ in range(2)])
        if f.is_zero() or g.is_zero() or (f.deg_y == 0 and g.deg_y == 0):
            continue
        rxy = res_y(f, g)
        ok = True
        for a in range(min(n, 4)):
            fa, ga = f.eval_x(R, R.from_int(a)), g.eval_x(R, R.from_int(a))
            if fa.degree == f.deg_y and ga.degree == g.deg_y:
                ok = ok and rxy.eval(R.from_int(a)) == res(fa, ga)
        yield ("bivres specialize", (n, f.format(), g.format()), ok)
    # planted p-adic gcds
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        k = rng.randrange(3, 9)
        ctx = PadicCtx(p, k)
        R = ctx.ring
        dd = Poly(R, [rng.randrange(R.n), 1])
        f1 = Poly(R, [rng.randrange(R.n) for _ in range(2)] + [1])
        g1 = Poly(R, [rng.randrange(R.n) for _ in range(2)] + [1])
        Rp = Zmod(p)
        if not Rp.is_unit(res(f1.map_ring(Rp), g1.map_ring(Rp))):
            continue
        f, g = dd * f1, dd * g1
        out, bez = padic_gcd(ctx, f, g), padic_gcd(ctx, f, g, track_bezout=True)
        # a unit chain a -> b -> f1 that stops at the nonzero 1 + p*x, with a
        # divisor lc 1 + p != 1 before the last step: the tracked pair is
        # lifted through a divisor that is not monic
        b = dd * f1 * Poly(R, [1 + p]) + Poly(R, [1, p])
        a = Poly(R, [0, 1]) * b + f1
        stop = padic_gcd(ctx, a, b, track_bezout=True)
        yield ("padic planted", (p, k, dd.coeffs), out.delta == 0 and out.value.coeffs == dd.coeffs
               and (bez.u is None or bez.u * f + bez.v * g == bez.value)
               and stop.u is not None and stop.u * a + stop.v * b == stop.value)
    # number-field fixed cases
    qi = NumberFieldCtx((1, 0, 1))
    q5 = NumberFieldCtx((5, 0, 1))
    yield ("nf Q(i)", None, ideal_norm(qi, Ideal2(5, FieldElem((2, 1)))) == 5
           and ideal_min(qi, Ideal2(5, FieldElem((2, 1)))) == 5)
    yield ("nf Q(sqrt-5)", None, ideal_norm(q5, Ideal2(2, FieldElem((1, 1)))) == 2
           and ideal_min(q5, Ideal2(2, FieldElem((1, 1)))) == 2)


def cmd_selfcheck(args):
    passed = failed = 0
    first_fail = None
    for name, case, ok in _selfcheck_cases(args.seed):
        if ok:
            passed += 1
        else:
            failed += 1
            if first_fail is None:
                first_fail = (name, case)
    if failed:
        print(f"FAIL ({failed} of {passed + failed} cases, seed {args.seed}); "
              f"first failure: {first_fail[0]} {first_fail[1]}")
        return EXIT_SELFCHECK
    print(f"PASS ({passed} cases)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

# The modulus classes of the res/rres timing sweep that `ringres bench` prints
# and acceptance criterion 8 asserts on, all of about 64 bits.
BENCH_MODULI = (
    ("prime", 18446744073709551557),  # largest prime < 2^64
    ("prime-power", 3**40),  # about 2^63.4
    ("composite", 251 * 241 * 239 * 233 * 229 * 227 * 223 * 211),  # 63 bits
)
BENCH_SIZES = (64, 128, 256, 512, 1024)


def bench_pairs(n, d, rng):
    """Three random monic pairs (f, g) of degree d over Z/n, lower
    coefficients rng.randrange(n)."""
    R = Zmod(n)
    return [tuple(Poly(R, [rng.randrange(n) for _ in range(d)] + [1]) for _ in "fg")
            for _ in range(3)]


def median_seconds(fn, pairs) -> float:
    """Median time of fn(f, g) over the pairs: one call's time moves more
    from run to run than the ratios criterion 8 asserts have margin to
    their bounds."""
    samples = []
    for f, g in pairs:
        t0 = time.perf_counter()
        fn(f, g)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def cmd_bench(args):
    # open --out before timing anything, so a bad path costs no sweep
    try:
        out = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as e:
        raise ValueError(f"cannot write --out: {e}") from None
    rng = random.Random(args.seed)
    with out as fh:
        w = csv.writer(fh)
        w.writerow(("algorithm", "d", "n-class", "seconds"))
        for label, n in BENCH_MODULI:
            for d in BENCH_SIZES:
                for alg, fn in (("res", res), ("rres", rres)):
                    w.writerow((alg, d, label, round(median_seconds(fn, bench_pairs(n, d, rng)), 4)))
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ringres", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, *, polys=0, named=(), flags=("mod", "json")):
        sp = sub.add_parser(name)
        if "mod" in flags:
            sp.add_argument("--mod", type=int)
        if "padic" in flags:
            sp.add_argument("--p", type=int)
            sp.add_argument("--prec", type=int)
        if "nf" in flags:
            sp.add_argument("--minpoly")
            sp.add_argument("--a", type=int)
            sp.add_argument("--num")
            sp.add_argument("--den", type=int, default=1)
            sp.add_argument("--hint", type=int, default=1)
        for arg in named:
            sp.add_argument(arg)
        for i in range(polys):
            sp.add_argument("fg"[i] if polys <= 2 else f"p{i}")
        if "json" in flags:
            sp.add_argument("--json", action="store_true")
        if "seed" in flags:
            sp.add_argument("--seed", type=int, default=0)
        if "out" in flags:
            sp.add_argument("--out")
        sp.set_defaults(fn=fn)
        return sp

    add("res", _cmd_value(res), polys=2)
    add("rres", _cmd_value(rres), polys=2)
    add("bezout", cmd_bezout, polys=2)
    add("res-ideal", _cmd_value(res_ideal), polys=2)
    add("divrem", cmd_divrem, polys=2)
    add("funfactor", cmd_funfactor, polys=1)
    add("inv", cmd_inv, polys=1)
    add("invmod", cmd_invmod, polys=2)
    add("howell", cmd_howell, named=("matrix",))
    add("sylvester", cmd_sylvester, polys=2)
    add("bivres", cmd_bivres, polys=2)
    add("padic-gcd", cmd_padic_gcd, polys=2, flags=("padic", "json"))
    add("nf-norm", cmd_nf_norm, flags=("nf", "json"))
    add("nf-min", cmd_nf_min, flags=("nf", "json"))
    add("selfcheck", cmd_selfcheck, flags=("seed",))
    add("bench", cmd_bench, flags=("seed", "out"))
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else EXIT_OK
    try:
        rc = args.fn(args)
        return EXIT_OK if rc is None else rc
    except ParseFailure as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as e:  # internal invariant violations
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
