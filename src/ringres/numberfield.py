"""Norms and minima of ideals in monogenic number-field orders.

The field is K = Q(gamma) with gamma a root of a monic irreducible integer
polynomial f of degree n.  Elements are represented as g(gamma)/d with g an
integer polynomial of degree < n.  An ideal is given by a two-element normal
presentation I = (a, alpha) with a a positive integer.

Everything is computed through modular resultants: N(alpha) = res(f, d*g)/d^n
(f monic, so the resultant is the product of d*g over the roots of f), taken
over Z/M for a modulus M large enough to recover the needed residue; the
minimum is the positive generator of I intersected with Z, obtained from a
reduced resultant of f and the numerator of alpha.

The order Z[gamma] need not be maximal: `exponent_hint` must be a multiple of
the exponent of the additive group O_K/Z[gamma] (1 when Z[gamma] is maximal);
it widens the working modulus on the general minimum path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ring import Zmod
from .poly import Poly, divrem
from .resultant import res, rres, rres_bezout


class InsufficientHintError(ArithmeticError):
    """The Bezout value vanished at the working modulus; retry with a larger
    exponent_hint (or the presentation is not normal)."""


@dataclass(frozen=True)
class NumberFieldCtx:
    """K = Q[x]/(f) for monic irreducible f of degree >= 2 over Z."""

    minpoly: tuple  # ascending integer coefficients, monic
    exponent_hint: int = 1

    def __post_init__(self):
        cs = tuple(int(c) for c in self.minpoly)
        if len(cs) < 3 or cs[-1] != 1:
            raise ValueError("minimal polynomial must be monic of degree >= 2")
        if self.exponent_hint < 1:
            raise ValueError("exponent_hint must be positive")
        object.__setattr__(self, "minpoly", cs)

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1


@dataclass(frozen=True)
class FieldElem:
    """g(gamma)/den with deg g < [K:Q], reduced to lowest terms."""

    num: tuple  # ascending integer coefficients
    den: int = 1

    def __post_init__(self):
        num = [int(c) for c in self.num]
        while num and num[-1] == 0:
            num.pop()
        den = int(self.den)
        if den == 0:
            raise ValueError("zero denominator")
        if den < 0:
            den, num = -den, [-c for c in num]
        g = math.gcd(den, math.gcd(*num) if num else 0)
        if g > 1:
            den //= g
            num = [c // g for c in num]
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    def is_zero(self) -> bool:
        return not self.num


@dataclass(frozen=True)
class Ideal2:
    """Two-element presentation I = (a, alpha); the normal-presentation
    property is the caller's assertion."""

    a: int
    alpha: FieldElem

    def __post_init__(self):
        if self.a < 1:
            raise ValueError("a must be a positive integer")


def _coprime_part(x: int, a: int) -> int:
    """Largest divisor of x coprime to a."""
    g = math.gcd(x, a)
    while g > 1:
        x //= g
        g = math.gcd(x, a)
    return x


def _a_part(x: int, a: int) -> int:
    """Largest divisor of x all of whose prime factors divide a."""
    return x // _coprime_part(x, a)


def elem_norm_mod(ctx: NumberFieldCtx, alpha: FieldElem, M: int) -> int:
    """N(alpha) mod M for integral N(alpha); ValueError when N(alpha), a
    priori in Z[1/den], is not integral."""
    if M < 2:
        raise ValueError("modulus must be at least 2")
    if alpha.is_zero():
        return 0
    n = ctx.degree
    d = alpha.den
    Mp = M * d**n
    R = Zmod(Mp)
    fbar = Poly.from_ints(R, ctx.minpoly)
    gbar = Poly.from_ints(R, alpha.num)
    r = int(res(fbar, gbar))  # = d^n N(alpha) mod M d^n
    if r % d**n:
        raise ValueError("N(alpha) is not integral")
    return (r // d**n) % M


def ideal_norm(ctx: NumberFieldCtx, I: Ideal2) -> int:
    """N(I) = gcd(a^n, N(alpha)) up to the denominator correction.

    With d = den(alpha) split as d = c*u (c the a-part), only the c-part can
    interfere with a: the norm of num/c mod a^n, computed as res(f, num) mod
    a^n c^n = c^n u^n N(alpha) with c^n divided off, has the same gcd with
    a^n as N(alpha)."""
    n = ctx.degree
    a = I.a
    if a == 1:
        return 1
    if I.alpha.is_zero():
        return a**n
    c = _a_part(I.alpha.den, a)
    try:
        return math.gcd(a**n, elem_norm_mod(ctx, FieldElem(I.alpha.num, c), a**n))
    except ValueError:
        raise InsufficientHintError(
            "norm residue not divisible by the a-part of den^n; "
            "the presentation is not normal for this order"
        ) from None


def ideal_min(ctx: NumberFieldCtx, I: Ideal2) -> int:
    """Smallest positive integer in I (the generator of I intersect Z)."""
    a = I.a
    if a == 1:
        return 1
    alpha = I.alpha
    if alpha.is_zero():
        return a
    n = ctx.degree
    d = alpha.den
    if math.gcd(a, d) == 1 and math.gcd(a, ctx.exponent_hint) == 1:
        # fast path: denominators appearing in the Bezout data stay units
        # mod a, so the reduced resultant over Z/a is exactly I intersect Z.
        R = Zmod(a)
        fbar = Poly.from_ints(R, ctx.minpoly)
        gbar = Poly.from_ints(R, alpha.num).scale(R.inv(d % a))
        r = int(rres(gbar, fbar))
        return math.gcd(r, a) if r else a
    # general path: Bezout identity of f and the numerator of alpha modulo
    # a*e0*d0 with e0, d0 the a-parts of the exponent hint and denominator;
    # alpha^{-1} = (d/r) * v mod f, and min(I) = gcd(a, den(alpha^{-1})).
    e0 = _a_part(ctx.exponent_hint, a)
    d0 = _a_part(d, a)
    q = a * e0 * d0
    R = Zmod(max(q, 2))
    fbar = Poly.from_ints(R, ctx.minpoly)
    gbar = Poly.from_ints(R, alpha.num)
    if gbar.is_zero():
        return a
    cert = rres_bezout(fbar, gbar)
    r = int(cert.value)
    if r == 0:
        raise InsufficientHintError(
            f"Bezout value vanished modulo {q}; increase exponent_hint"
        )
    _, vred = divrem(cert.v.scale(R.from_int(d)), fbar)
    cont = math.gcd(*(int(c) for c in vred.coeffs)) if not vred.is_zero() else 0
    denom = r // math.gcd(r, cont)
    return math.gcd(a, denom)
