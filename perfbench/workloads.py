"""Seeded inputs for the four benchmark workloads.

A workload is a list of slots: one operation on one modulus with a size
range.  The pool holds rounds of one call per slot, so every prefix of the
pool has the same operation mix.  Sizes follow the same golden-ratio sequence
on every seed, so any prefix covers its range evenly and has the same size
median: cost grows like d^2 or d^3, and a seeded size draw of a few calls per
operation would move the medians more than the program does.  Slot i starts
at the i-th term, so one round mixes small and large sizes.  The
coefficients, roots and matrices are uniform from a generator seeded by
(workload, seed, slot, round, size), so the same seed gives the same inputs.

Every call carries what its check needs; see verify.py.  All of it is built
here, before the timed loop starts.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import checks as C

PHI = (math.sqrt(5) - 1) / 2

P64 = 18446744073709551557                      # largest 64-bit prime
COMPOSITE = 251 * 241 * 239 * 233 * 229 * 227 * 223 * 211   # 63 bits, 8 primes
BEZOUT_MAX_D = 928                              # see slots("small-modulus")
EUCLID = (("res", "res"), ("res_ideal", "res_ideal"), ("rres", "rres"),
          ("bezout", "rres_bezout"))


@dataclass
class Call:
    label: str          # report bucket, e.g. "res" or "nf_norm"
    op: str             # name of the public ringres function
    args: tuple
    expect: dict = field(default_factory=dict)


@dataclass
class Slot:
    label: str
    op: str
    lo: int
    hi: int
    make: object        # (rng, size) -> (args, expect)
    warm: int = 4       # size of the warm-up call
    share: bool = False  # same input as the other slots of its maker, when the size agrees


def _spread(lo, hi, count, start=0):
    return [lo + int((hi - lo + 1) * ((0.5 + i * PHI) % 1.0))
            for i in range(start, start + count)]


# ---------------------------------------------------------------------------
# makers
# ---------------------------------------------------------------------------

def zmod_euclid(rr, n, squarefree):
    """f = prod (x - a_i) with seeded roots, g uniform of the same degree, so
    res(f, g) = prod g(a_i) can be checked without the code under test."""
    R = rr.Zmod(n)

    def make(rng, d):
        roots = [rng.randrange(n) for _ in range(d)]
        f = C.zfrom_roots(roots, n)
        g = [rng.randrange(n) for _ in range(d)] + [rng.randrange(1, n)]
        args = (rr.Poly(R, f), rr.Poly(R, g))
        return args, dict(kind="zmod", n=n, roots=roots, f=f, g=g, squarefree=squarefree)
    return make


def galois_euclid(rr, p, e, k):
    lam = rr.find_irreducible(p, k)
    R = rr.GaloisRing(p, e, lam)
    gr = C.GR(p, e, lam)
    q = gr.q

    def elem(rng):
        return tuple(rng.randrange(q) for _ in range(k))

    def make(rng, d):
        roots = [elem(rng) for _ in range(d)]
        f = gr.from_roots(roots)
        lc = elem(rng)
        while lc == gr.zero():
            lc = elem(rng)
        g = [elem(rng) for _ in range(d)] + [lc]
        args = (rr.Poly(R, f), rr.Poly(R, g))
        return args, dict(kind="gr", gr=gr, roots=roots, f=f, g=g, squarefree=False)
    return make


def padic(rr, p, k):
    """f = h*a, g = h*b with h monic and a, b coprime mod p, so the exact
    gcd is h and no precision is lost.  Half of the cofactors get a
    nilpotent leading coefficient, which sends Euclid through Hensel."""
    q = p ** k
    ctx = rr.PadicCtx(p, k)

    def cofactor(rng, deg):
        lc = p * rng.randrange(1, q // p) if rng.random() < 0.5 else _unit(rng, p, q)
        return [_unit(rng, p, q)] + [rng.randrange(q) for _ in range(deg - 1)] + [lc]

    def make(rng, d):
        dh = max(4, d // 4)
        h = [rng.randrange(q) for _ in range(dh)] + [1]
        while True:
            a = cofactor(rng, d - dh)
            b = cofactor(rng, d - dh - 1 - rng.randrange(4))
            if C.fp_gcd_is_one(a, b, p):
                break
        args = (ctx, ctx.poly(C.zmul(h, a, q)), ctx.poly(C.zmul(h, b, q)))
        return args, dict(h=h)
    return make


def _unit(rng, p, q):
    while True:
        x = rng.randrange(1, q)
        if x % p:
            return x


def numberfield(rr, a_factors, norm_op):
    """Ideal I = prod P_p^e of degree-1 unramified primes, presented as
    (a, alpha) with a = prod p^e and alpha of full degree; norm and minimum
    are both a by construction, and verify.py confirms them with the HNF
    oracle.  The field is Eisenstein at 7, hence irreducible, and squarefree
    mod every p | a, so Z[gamma] is p-maximal there."""
    a = math.prod(p ** e for p, e in a_factors)

    def make(rng, n):
        while True:
            cs = [7 * rng.randrange(-3, 4) for _ in range(n)] + [1]
            if cs[0] % 49 == 0:
                continue
            rho = _simple_root_lift(cs, a_factors)
            if rho is not None:
                break
        while True:
            beta = [rng.randrange(-9, 10) for _ in range(n - 1)]
            delta = [rng.randrange(-2, 3) for _ in range(n)]
            alpha = C.zadd_int(C.mul_int([-rho, 1], beta), [a * c for c in delta])
            alpha = (alpha + [0] * n)[:n]
            N = C.int_norm(cs, alpha)
            if N and all(C.valuation(N, p) == e for p, e in a_factors):
                break
        ctx = rr.NumberFieldCtx(tuple(cs))
        ideal = rr.Ideal2(a, rr.FieldElem(tuple(alpha)))
        return (ctx, ideal), dict(a=a, minpoly=cs, alpha=alpha, norm_op=norm_op)
    return make


def _simple_root_lift(cs, a_factors):
    """rho mod a with f(rho) == 0 mod every p^e, lifted from a simple root
    mod p; None unless f is squarefree mod each p and has a root there."""
    residues = []
    for p, e in a_factors:
        df = [i * c for i, c in enumerate(cs)][1:]
        if not C.fp_gcd_is_one(cs, df, p):
            return None
        root = next((r for r in range(p) if C.zeval([c % p for c in cs], r, p) == 0), None)
        if root is None:
            return None
        q = p ** e
        r = root
        for _ in range(e.bit_length() + 1):
            r = (r - C.zeval([c % q for c in cs], r, q)
                 * pow(C.zeval([c % q for c in df], r, q), -1, q)) % q
        residues.append((r, q))
    rho, m = 0, 1
    for r, q in residues:
        rho = rho + m * ((r - rho) * pow(m, -1, q) % q)
        m *= q
    return rho


def bivariate(rr, n):
    """res_y inputs of y-degree N and x-degree N + 1 for N in [2, 4], so the
    degree bound B = 2N(N + 1) and the cost, which grows like B^3, follow the
    size schedule.  Moduli with prime factors <= B send the interpolation
    into Galois rings."""
    R = rr.Zmod(n)

    def make(rng, N):
        grids = []
        for _ in range(2):
            rows = [[rng.randrange(n) for _ in range(N + 2)] for _ in range(N + 1)]
            rows[-1][-1] = rng.randrange(1, n)
            grids.append(rows)
        args = tuple(rr.BiPoly.from_ints(R, rows) for rows in grids)
        points = [rng.randrange(n) for _ in range(8)]
        return args, dict(n=n, grids=grids, points=points)
    return make


def howell(rr, n):
    R = rr.Zmod(n)

    def make(rng, N):
        rows = [[rng.randrange(n) for _ in range(N)] for _ in range(N)]
        return (rr.Matrix(R, rows),), dict(n=n, rows=rows, mix_seed=rng.random())
    return make


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _euclid_slots(make_by_mod, lo, hi, bezout_hi=None, share=False):
    return [Slot(label, op, lo, bezout_hi if op == "rres_bezout" and bezout_hi else hi, mk,
                 share=share)
            for label, op in EUCLID for mk in make_by_mod]


def slots(rr, workload):
    # Over Z/n with n squarefree a call's cost follows its size, so the four
    # operations share one input per modulus and round: its check value (a
    # product of d evaluations of degree d) and its generation are paid once.
    if workload == "zmod-euclid":
        return _euclid_slots([zmod_euclid(rr, P64, True),
                              zmod_euclid(rr, COMPOSITE, True)], 256, 512, share=True)
    if workload == "local-hensel":
        out = _euclid_slots([zmod_euclid(rr, 3 ** 40, False),
                             zmod_euclid(rr, 2 ** 64, False)], 32, 96)
        out += [Slot("padic_gcd", "padic_gcd", 32, 96, padic(rr, p, k), 16)
                for p, k in ((2, 64), (3, 40), (5, 27))]
        # a = 2^20 stops at degree 9: one ideal_norm at degree 12 took 2.4 s
        # (median of 12 fields) and up to 5 s, at degree 9 at most 1.6 s.
        for factors, top in ((((2, 20),), 9), (((3, 12),), 12), (((2, 10), (3, 10)), 12)):
            out.append(Slot("nf_norm", "ideal_norm", 6, top, numberfield(rr, factors, True), 2))
            out.append(Slot("nf_min", "ideal_min", 6, top, numberfield(rr, factors, False), 2))
        return out
    if workload == "small-modulus":
        # rres_bezout recurses once per Euclid step and raises RecursionError
        # near d = 1000, so its degrees stop at BEZOUT_MAX_D: a workload makes
        # only calls that succeed, so that `failed` shows a regression.
        return _euclid_slots([zmod_euclid(rr, 10007, True),
                              zmod_euclid(rr, 9699690, True)], 512, 1024, BEZOUT_MAX_D,
                             share=True)
    if workload == "galois-bivariate":
        # No 2^64 here: its res_y calls took 0.1-2.7 s at the smallest size
        # (unit inverses run to degree E*d with E = 64), a tail a single run
        # cannot average; local-hensel measures that cliff.
        out = [Slot("res_y", "res_y", 2, 4, bivariate(rr, n), 1) for n in (35, 100, 15120)]
        out += _euclid_slots([galois_euclid(rr, 2, 8, 3), galois_euclid(rr, 3, 20, 2),
                              galois_euclid(rr, 101, 4, 4)], 16, 64)
        out += [Slot("howell", "howell", 24, 64, howell(rr, n)) for n in (2 ** 64, COMPOSITE)]
        return out
    raise KeyError(workload)


WORKLOADS = ("zmod-euclid", "local-hensel", "small-modulus", "galois-bivariate")


def build(rr, workload, seed, rounds):
    """(pool, calls per round): `rounds` rounds of one call per slot.  A
    sharing slot takes the sizes and inputs of its maker's first slot."""
    ss = slots(rr, workload)
    first, made, per_slot = {}, {}, []
    for i, s in enumerate(ss):
        j = first.setdefault(s.make, i) if s.share else i
        col = []
        for r, size in enumerate(_spread(s.lo, s.hi, rounds, start=j)):
            if (j, r, size) not in made:
                rng = random.Random(f"{workload}/{seed}/{j}/{r}/{size}")
                made[j, r, size] = s.make(rng, size)
            col.append((s, *made[j, r, size]))
        per_slot.append(col)
    pool = [Call(s.label, s.op, args, expect)
            for r in range(rounds) for s, args, expect in (col[r] for col in per_slot)]
    return pool, len(ss)


def warmup_calls(rr, workload, seed):
    """One small call per slot, outside the pool, to load every code path."""
    out = []
    for i, s in enumerate(slots(rr, workload)):
        args, _ = s.make(random.Random(f"{workload}/{seed}/warm/{i}"), s.warm)
        out.append(Call(s.label, s.op, args))
    return out
