"""One SHA-256 over the outputs of a seeded corpus of public calls.

    PYTHONPATH=src python3 scripts/outputs_digest.py --seed 1 --calls 100000
    PYTHONPATH=src python3 scripts/outputs_digest.py --corpus res_y --seed 1 --calls 300
    PYTHONPATH=src python3 scripts/outputs_digest.py --corpus inv --seed 1 --calls 20000
    PYTHONPATH=src python3 scripts/outputs_digest.py --corpus long --seed 1 --calls 60
    PYTHONPATH=src python3 scripts/outputs_digest.py --corpus units --seed 1 --calls 2000
    PYTHONPATH=src python3 scripts/outputs_digest.py --corpus long-galois --seed 1 --calls 100
    PYTHONPATH=src python3 scripts/outputs_digest.py --corpus long-small --seed 1 --calls 600
    PYTHONPATH=src python3 scripts/outputs_digest.py --corpus long-7 --seed 1 --calls 100

Call i draws its operation, ring and operands from random.Random(f"{seed}/{i}"):
res, res_ideal, rres and rres_bezout (value, u and v) over Z/n (primes,
prime powers, composites with and without square factors) and over Galois
rings, and padic_gcd (value, delta, normalized, whether u is None and, when
it is not, whether u*f + v*g == value).  Coefficients are biased toward zero
divisors, so Euclidean chains meet nilpotent and splitting leading
coefficients.  Two trees that print the same digest gave the same outputs on
every call; an exception is recorded by its class name.

The res_y corpus draws call i from random.Random(f"{seed}/res_y/{i}"): res_y
over Z/n for n with prime factors below the degree bound (35, 100, 15120, 72,
12), so that the interpolation runs in Galois-ring branches, over a prime and
over 2^64 (y-degrees <= 2 there, its calls are the slowest).  Each
y-coefficient gets its own x-degree, and a fifth of the operands are constant
in y.

The inv corpus draws call i from random.Random(f"{seed}/inv/{i}"): one time in
ten find_irreducible(p, k, s) for p in 2, 3, 5, 7, 101, k <= 6 and a drawn seed
s, otherwise GaloisRing.inv of a random element, a third of them non-units
(times p), over small rings, the benchmark's, the res_y branch rings, GR(2, 64,
5) and two rings whose lam is reducible mod p (zero divisors of valuation 0).

The long corpus draws call i from random.Random(f"{seed}/long/{i}"): res,
res_ideal, rres or rres_bezout on a pair of degrees d and d - 1..3, d in
200..1100, with uniform coefficients over 2^64 - 59, the 63-bit 8-prime
composite 251*241*...*211, 10007, 9699690, 3^40 or 2^64, so that Euclidean chains run hundreds of
division steps in a row (the main corpus stops at degree 26).  Outputs are
recorded by their SHA-256, as the certificates run to megabytes.

The long-small corpus draws call i from random.Random(f"{seed}/long-small/{i}")
as the long corpus does, over moduli whose chains split early or whose
remainders often drop degree: 510510 and 30030 (7 and 6 prime factors below
20), 1001 = 7*11*13, 2^31 - 1, 2 and 3.  Over such moduli a quotient often has
more than two coefficients, and at 510510 and 2^31 - 1 a packed step takes
only 4 of them.

The long-7 corpus draws call i from random.Random(f"{seed}/long-7/{i}") as
the long corpus does, over 1000003, 3^13 and 2^22, whose packed chains have
7-byte slots: the long corpus's 9699690 has 8-byte slots, and the long-small
moduli but 2^31 - 1 (9 bytes) and their prime branches have 2- to 6-byte
ones, so with this corpus long chains run at every slot width that _pack
moves through 8-byte words.

The long-galois corpus draws call i from random.Random(f"{seed}/long-galois/{i}"):
res, res_ideal, rres or rres_bezout on a pair of degrees d and d - 1..3, d in
LONG_GALOIS_DEGREES, with uniform coefficients over GR(2, 8, 3), GR(3, 20, 2)
or GR(101, 4, 4), the benchmark's Galois rings, so that Galois chains run long
runs of division steps between the breaks at nilpotent leading coefficients
(the main corpus stops at degree 10 over Galois rings); three calls in ten
multiply both operands by a common factor of degree 1..3 with coefficients
biased toward p, so that the chain ends at a factor and rres is not 1.
Outputs are recorded by their SHA-256, as in the long corpus.

The units corpus draws call i from random.Random(f"{seed}/units/{i}"):
invert_unit, invert_mod, divrem_primitive or fun_factor over Z/n for prime
powers (3^40, 2^64, 5^7, 7^3) and composites with square factors (72, 360,
2^10 * 3^5, 15120, 5^7 * 7^3), and over the main corpus's Galois rings.  Each
call has a unit of R[x] (a unit times 1 plus a multiple of one nilpotent, so
the nil index runs up to E) of degree up to 40, as the operand to invert or
as the unit factor of the divisor or polynomial to factor; a tenth of the
operands break that shape (a unit higher coefficient, or a zero divisor as a
factor), so the error paths are recorded too.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import random

from ringres import (BiPoly, GaloisRing, PadicCtx, Poly, Zmod, divrem_primitive, find_irreducible,
                     fun_factor, invert_mod, invert_unit, padic_gcd, res, res_ideal, res_y, rres,
                     rres_bezout)

P64 = 18446744073709551557
ZMOD = [  # (n, its prime factors)
    (10007, (10007,)), (P64, (P64,)),
    (3**40, (3,)), (2**64, (2,)), (5**7, (5,)),
    (72, (2, 3)), (360, (2, 3, 5)), (2**10 * 3**5, (2, 3)), (15120, (2, 3, 5, 7)),
    (9699690, (2, 3, 5, 7, 11, 13, 17, 19)), (30, (2, 3, 5)),
]
GALOIS = [(2, 8, 3), (3, 20, 2), (101, 4, 4), (2, 5, 3), (3, 3, 3), (2, 4, 5)]
PADIC = [(3, 40), (2, 64), (5, 6), (2, 10)]
OPS = {"res": res, "res_ideal": res_ideal, "rres": rres}
RES_Y = [  # (n, its prime factors, largest y-degree)
    (35, (5, 7), 4), (100, (2, 5), 4), (15120, (2, 3, 5, 7), 4), (72, (2, 3), 4),
    (12, (2, 3), 4), (10007, (10007,), 4), (2**64, (2,), 2),
]
INV = [  # (p, e, lam): GR(p, e, k) as in GALOIS, and lam reducible mod p
    (p, e, find_irreducible(p, k)) for p, e, k in
    [(2, 3, 2), (3, 2, 2), (5, 1, 2), (7, 2, 1), (2, 8, 3), (3, 20, 2), (101, 4, 4),
     (2, 4, 6), (3, 3, 4), (5, 1, 3), (7, 1, 2), (2, 64, 5)]] + [(2, 3, (1, 0, 1)), (3, 2, (2, 0, 0, 1))]

UNIT_OPS = {"invert_unit": invert_unit, "invert_mod": invert_mod,
            "divrem_primitive": divrem_primitive, "fun_factor": fun_factor}
UNITS = [  # (n, its prime factors)
    (3**40, (3,)), (2**64, (2,)), (5**7, (5,)), (7**3, (7,)),
    (72, (2, 3)), (360, (2, 3, 5)), (2**10 * 3**5, (2, 3)), (15120, (2, 3, 5, 7)),
    (5**7 * 7**3, (5, 7)),
]
LONG_GALOIS = [(2, 8, 3), (3, 20, 2), (101, 4, 4)]
LONG_GALOIS_DEGREES = range(100, 401)
LONG = [P64, 251 * 241 * 239 * 233 * 229 * 227 * 223 * 211, 10007, 9699690, 3**40, 2**64]
LONG_SMALL = [510510, 2**31 - 1, 30030, 2, 3, 7 * 11 * 13]
LONG_7 = [1000003, 3**13, 2**22]


def _elem(rng, R, primes):
    """A coefficient, times a power of a prime factor of the modulus half the time."""
    if R.kind == "galois":
        x = tuple(rng.randrange(R.pe) for _ in range(R.k))
    else:
        x = rng.randrange(R.n)
    if rng.random() < 0.5:
        x = R.mul(x, R.from_int(rng.choice(primes) ** rng.randrange(1, 4)))
    return x


def _poly(rng, R, primes, d):
    return Poly(R, [_elem(rng, R, primes) for _ in range(d)] + [_elem(rng, R, primes)])


def _out(x):
    """Ring elements, polynomials and tuples of them as JSON values."""
    if isinstance(x, Poly):
        return [_out(c) for c in x.coeffs]
    if isinstance(x, tuple):
        return [_out(c) for c in x]
    return x


def call(seed, i):
    """The record of call i: [operation, ring, operands, output]."""
    rng = random.Random(f"{seed}/{i}")
    op = rng.choice(["res", "res_ideal", "rres", "rres_bezout", "padic_gcd"])
    if op == "padic_gcd":
        ctx = PadicCtx(*rng.choice(PADIC))
        R, primes = ctx.ring, (ctx.p,)
        h = _poly(rng, R, primes, rng.randrange(0, 4))
        f, g = (h * _poly(rng, R, primes, rng.randrange(1, 12)) for _ in range(2))
        if f.is_zero() and g.is_zero():
            return [op, str(R), [], "zero"]
        track = rng.random() < 0.5
        try:
            out = padic_gcd(ctx, f, g, track_bezout=track)
            holds = None if out.u is None else out.u * f + out.v * g == out.value
            got = [_out(out.value), out.delta, out.normalized, out.u is None, holds]
        except ArithmeticError as e:
            got = type(e).__name__
        return [op, str(R), [_out(f), _out(g), track], got]
    if rng.random() < 0.3:
        p, e, k = rng.choice(GALOIS)
        R, primes, dmax = GaloisRing(p, e, find_irreducible(p, k)), (p,), 10
    else:
        n, primes = rng.choice(ZMOD)
        R, dmax = Zmod(n), 24
    f, g = (_poly(rng, R, primes, rng.randrange(0, dmax)) for _ in range(2))
    if rng.random() < 0.3:
        h = _poly(rng, R, primes, rng.randrange(1, 4))
        f, g = f * h, g * h
    if f.is_zero() or g.is_zero():
        return [op, str(R), [], "zero"]
    try:
        if op == "rres_bezout":
            c = rres_bezout(f, g)
            got = [_out(c.value), _out(c.u), _out(c.v)]
        else:
            got = _out(OPS[op](f, g))
    except (ArithmeticError, ValueError, RecursionError) as e:
        got = type(e).__name__
    return [op, str(R), [_out(f), _out(g)], got]


def call_res_y(seed, i):
    """The record of res_y call i: [ring, operands, output]."""
    rng = random.Random(f"{seed}/res_y/{i}")
    n, primes, top = rng.choice(RES_Y)
    R = Zmod(n)

    def bipoly():
        dy = 0 if rng.random() < 0.2 else rng.randrange(1, top + 1)
        return BiPoly(R, tuple(_poly(rng, R, primes, rng.randrange(0, 6)) for _ in range(dy + 1)))
    f, g = bipoly(), bipoly()
    try:
        got = _out(res_y(f, g))
    except (ArithmeticError, ValueError) as e:
        got = type(e).__name__
    return [str(R), [_out(f.coeffs), _out(g.coeffs)], got]


def call_inv(seed, i):
    """The record of inv call i: [ring or "find_irreducible", operands, output]."""
    rng = random.Random(f"{seed}/inv/{i}")
    if rng.random() < 0.1:
        args = (rng.choice([2, 3, 5, 7, 101]), rng.randrange(1, 7), rng.randrange(1000))
        return ["find_irreducible", list(args), list(find_irreducible(*args))]
    R = GaloisRing(*rng.choice(INV))
    a = tuple(rng.randrange(R.pe) for _ in range(R.k))
    if rng.random() < 0.3:
        a = R.mul(a, R.from_int(R.p))
    try:
        got = _out(R.inv(a))
    except (ArithmeticError, ValueError) as e:
        got = type(e).__name__
    return [str(R), list(a), got]


def _digest_call(op, R, f, g):
    """[operation, ring, degrees, SHA-256 of the output] of op on f, g."""
    try:
        if op == "rres_bezout":
            c = rres_bezout(f, g)
            got = [_out(c.value), _out(c.u), _out(c.v)]
        else:
            got = _out(OPS[op](f, g))
    except (ArithmeticError, ValueError, RecursionError) as e:
        got = type(e).__name__
    out = hashlib.sha256(json.dumps(got, separators=(",", ":")).encode()).hexdigest()
    return [op, str(R), [f.degree, g.degree], out]


def _long_zmod_call(rng, moduli):
    """_digest_call on a pair of degrees d and d - 1..3, d in 200..1100, with
    uniform coefficients over Z/n for n drawn from moduli."""
    op, n = rng.choice(["res", "res_ideal", "rres", "rres_bezout"]), rng.choice(moduli)
    R, d = Zmod(n), rng.randrange(200, 1101)
    f, g = (Poly(R, [rng.randrange(n) for _ in range(e + 1)]) for e in (d, d - rng.randrange(1, 4)))
    return _digest_call(op, R, f, g)


def call_long(seed, i):
    """The record of long call i: [operation, ring, degrees, SHA-256 of the output]."""
    return _long_zmod_call(random.Random(f"{seed}/long/{i}"), LONG)


def call_long_small(seed, i):
    """The record of long-small call i: [operation, ring, degrees, SHA-256 of the output]."""
    return _long_zmod_call(random.Random(f"{seed}/long-small/{i}"), LONG_SMALL)


def call_long_7(seed, i):
    """The record of long-7 call i: [operation, ring, degrees, SHA-256 of the output]."""
    return _long_zmod_call(random.Random(f"{seed}/long-7/{i}"), LONG_7)


def call_long_galois(seed, i):
    """The record of long-galois call i: [operation, ring, degrees, SHA-256 of the output]."""
    rng = random.Random(f"{seed}/long-galois/{i}")
    op, (p, e, k) = rng.choice(["res", "res_ideal", "rres", "rres_bezout"]), rng.choice(LONG_GALOIS)
    R, d = GaloisRing(p, e, find_irreducible(p, k)), rng.choice(LONG_GALOIS_DEGREES)
    f, g = (Poly(R, [tuple(rng.randrange(R.pe) for _ in range(k)) for _ in range(de + 1)])
            for de in (d, d - rng.randrange(1, 4)))
    if rng.random() < 0.3:
        h = _poly(rng, R, (p,), rng.randrange(1, 4))
        f, g = f * h, g * h
    return _digest_call(op, R, f, g)


def call_units(seed, i):
    """The record of units call i: [operation, ring, operands, output]."""
    rng = random.Random(f"{seed}/units/{i}")
    op = rng.choice(["invert_unit", "invert_mod", "divrem_primitive", "fun_factor"])
    if rng.random() < 0.4:
        p, e, k = rng.choice(GALOIS)
        R, primes = GaloisRing(p, e, find_irreducible(p, k)), (p,)
    else:
        n, primes = rng.choice(UNITS)
        R = Zmod(n)
    rad = R.from_int(math.prod(primes))

    def unit():
        while True:
            x = _elem(rng, R, primes)
            if R.is_unit(x):
                return x

    # u = c*(1 + t*h), t a nilpotent of drawn valuation: u^-1 has up to
    # (j - 1)*deg u + 1 coefficients, j the nil index of t
    m = rng.randrange(1, 41)
    t = R.mul(unit(), R.pow_elem(rad, rng.choice([1, 1, 2, 3])))
    h = [_elem(rng, R, primes) for _ in range(m - 1)] + [unit()]
    u = Poly(R, [unit()]) * (Poly.one(R) + Poly(R, [R.zero] + h).scale(t))
    x = rng.random()
    if x < 0.05:    # a unit higher coefficient: not a unit of R[x]
        u = u + Poly(R, [R.zero] * rng.randrange(1, m + 1) + [unit()])
    elif x < 0.1:   # a zero divisor times u: neither a unit nor primitive
        u = u.scale(R.from_int(rng.choice(primes)))
    if op == "invert_unit":
        args = [u]
    elif op == "invert_mod":
        d = rng.randrange(1, 41)
        args = [u, _poly(rng, R, primes, d - 1) + Poly(R, [R.zero] * d + [unit()])]
    else:
        g = _poly(rng, R, primes, rng.randrange(0, 20))
        g = u * (g + Poly(R, [R.zero] * (g.degree + 1) + [unit()]))
        args = [g] if op == "fun_factor" else [_poly(rng, R, primes, rng.randrange(0, 3 * m + 40)), g]
    try:
        got = UNIT_OPS[op](*args)
        got = _out((got.u, got.gtilde, got.k) if op == "fun_factor" else got)
    except (ArithmeticError, ValueError) as e:
        got = type(e).__name__
    return [op, str(R), [_out(a) for a in args], got]


CORPORA = {"main": call, "res_y": call_res_y, "inv": call_inv, "long": call_long,
           "long-galois": call_long_galois, "long-small": call_long_small, "long-7": call_long_7,
           "units": call_units}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--calls", type=int, default=1000)
    ap.add_argument("--corpus", choices=sorted(CORPORA), default="main")
    args = ap.parse_args(argv)
    h, record = hashlib.sha256(), CORPORA[args.corpus]
    for i in range(args.calls):
        h.update(json.dumps(record(args.seed, i), separators=(",", ":")).encode() + b"\n")
    print(h.hexdigest())


if __name__ == "__main__":
    main()
