"""Output checks, run after the timed loop.

Each check returns None when the output is right and a short reason when it
is wrong.  Values come from checks.py, not from the code under test.  Two
checks call ringres again, outside any timing, where no cheap independent
value exists: a certificate value over a local ring is compared with `rres`
(a separate Euclidean implementation), and a Howell form with the Howell
form of a row-mixed copy of its input, which must be the same.
"""
from __future__ import annotations

import importlib.util
import math
import random
from pathlib import Path

import checks as C


class Verifier:
    def __init__(self, rr, root: Path):
        self.rr = rr
        self.root = root
        self._oracle_module = None

    def _oracles(self):
        """tests/oracles.py, imported read-only and only when a check needs it
        (it imports sympy)."""
        if self._oracle_module is None:
            spec = importlib.util.spec_from_file_location(
                "oracles", self.root / "tests" / "oracles.py")
            self._oracle_module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(self._oracle_module)
        return self._oracle_module

    def check(self, call, out):
        return getattr(self, "_" + call.label)(call, out)

    # -- Euclid operations ------------------------------------------------
    @staticmethod
    def _true_res(x):
        if "res" not in x:
            if x["kind"] == "zmod":
                x["res"] = C.zprod_evals(x["g"], x["roots"], x["n"])
            else:
                x["res"] = x["gr"].prod_evals(x["g"], x["roots"])
        return x["res"]

    def _gen(self, x, a):
        if x["kind"] == "zmod":
            return math.gcd(a, x["n"]) % x["n"]
        return x["gr"].ideal_gen(a)

    def _divides(self, x, r, a):
        """Whether a lies in the ideal generated by the canonical r."""
        if x["kind"] == "zmod":
            return a % (r or x["n"]) == 0
        gr = x["gr"]
        return gr.val(r) <= gr.val(a)

    def _res(self, call, out):
        want = self._true_res(call.expect)
        return None if out == want else f"res {out} != prod g(a_i) {want}"

    def _res_ideal(self, call, out):
        want = self._gen(call.expect, self._true_res(call.expect))
        return None if out == want else f"res_ideal {out} != {want}"

    def _rres(self, call, out):
        x = call.expect
        res = self._true_res(x)
        if x["squarefree"]:
            want = self._gen(x, res)
            return None if out == want else f"rres {out} != ideal_gen(res) {want}"
        if out != self._gen(x, out):
            return f"rres {out} is not canonical"
        return None if self._divides(x, out, res) else f"rres {out} does not divide res {res}"

    def _bezout(self, call, out):
        x = call.expect
        f, g = x["f"], x["g"]
        u, v = list(out.u.coeffs), list(out.v.coeffs)
        if x["kind"] == "zmod":
            n = x["n"]
            lhs = C.ztrim(C.zadd(C.zmul(u, f, n), C.zmul(v, g, n), n))
            rhs = C.ztrim([out.value % n])
        else:
            gr = x["gr"]
            lhs = gr.trim(gr.polyadd(gr.polymul(u, f), gr.polymul(v, g)))
            rhs = gr.trim([tuple(out.value)])
        if lhs != rhs:
            return "u*f + v*g != value"
        if x["squarefree"]:
            want = self._gen(x, self._true_res(x))
        else:
            want = self.rr.rres(*call.args)
        got = self._gen(x, out.value)
        return None if got == want else f"ideal_gen(value) {got} != rres {want}"

    # -- applications -----------------------------------------------------
    def _res_y(self, call, out):
        x = call.expect
        n = x["n"]
        fg, gg = x["grids"]
        N, M = len(fg) - 1, len(gg) - 1
        got = list(out.coeffs)
        for c in x["points"]:
            fc = [C.zeval(row, c, n) for row in fg]
            gc = [C.zeval(row, c, n) for row in gg]
            want = C.sylvester_det(fc, gc, N, M, n)
            if C.zeval(got, c, n) != want:
                return f"res_y at x={c}: {C.zeval(got, c, n)} != {want}"
        return None

    def _padic_gcd(self, call, out):
        """The planted gcd, exactly.  A delta > 0 alongside it is a pessimistic
        precision charge, not a wrong value; run reports count it."""
        got = [int(c) for c in out.value.coeffs]
        return None if got == call.expect["h"] else f"padic_gcd != planted gcd (delta {out.delta})"

    def _nf(self, call, out, which):
        x = call.expect
        norm, minimum = self._oracles().ideal_module_oracle(x["minpoly"], x["a"], x["alpha"])
        if (norm, minimum) != (x["a"], x["a"]):
            raise RuntimeError(f"benchmark input is not the planted ideal: {x}")
        want = norm if which == "norm" else minimum
        return None if out == want else f"ideal_{which} {out} != {want}"

    def _nf_norm(self, call, out):
        return self._nf(call, out, "norm")

    def _nf_min(self, call, out):
        return self._nf(call, out, "min")

    def _howell(self, call, out):
        x = call.expect
        n, N = x["n"], len(x["rows"])
        rows = [list(r) for r in out.rows]
        if any(rows[i][j] for i in range(N) for j in range(i)):
            return "howell form is not upper triangular"
        mixed = C.unimodular_mix(x["rows"], n, random.Random(x["mix_seed"]))
        other = self.rr.howell(self.rr.Matrix(self.rr.Zmod(n), mixed))
        return None if out.rows == other.rows else "howell form changed under a unimodular row transform"
