"""Fixed-precision p-adic polynomial GCD.

Elements of Z_p are represented at a fixed precision k, i.e. as residues in
Z/p^k.  The GCD algorithm is the Euclidean scheme of `res` and `rres`: each
primitive pair goes through one `poly.UnitChain`, so the recursion depth
follows the content extractions, not the degree.  The chain divides by unit
leading coefficients and splits a divisor whose leading coefficient has
positive valuation into a unit-like part u (constant unit modulo p) times a
monic part by Hensel lifting; the parts are coprime, so the GCD gains the
factor gcd(F, u), taken by the reciprocal reduction
gcd(u, v) = rev(gcd(rev(u), rev(v))).

Precision loss is tracked explicitly: extracting a content p^v from an
operand costs v digits, accumulated in a budget delta.  The returned
polynomial d divides both inputs and lies in their ideal modulo p^(k-delta);
if delta reaches k a `PrecisionError` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import Zmod, is_probable_prime
from .poly import Poly, UnitChain, content, divide_by_scalar, fun_factor, reciprocal


class PrecisionError(ArithmeticError):
    """The accumulated precision loss reached the working precision."""


@dataclass(frozen=True)
class PadicCtx:
    """Z_p at working precision k: elements are residues in Z/p^k."""

    p: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("precision must be at least 1")
        if not is_probable_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def ring(self) -> Zmod:
        return Zmod(self.p**self.k)

    def val(self, r) -> int:
        """Valuation of a residue; an exact-zero residue reports k
        (precision-capped, not a true infinity)."""
        return _val(self.p, int(r) % self.p**self.k or self.p**self.k)

    def poly(self, ints) -> Poly:
        return Poly.from_ints(self.ring, ints)


@dataclass(frozen=True)
class PadicPoly:
    """A polynomial at precision k together with its content valuation."""

    ctx: PadicCtx
    poly: Poly

    @classmethod
    def from_ints(cls, ctx: PadicCtx, ints) -> "PadicPoly":
        return cls(ctx, ctx.poly(ints))

    @property
    def content_val(self) -> int:
        return _content_val(self.ctx.p, self.poly)


def fun_factor_padic(ctx: PadicCtx, f: Poly):
    """f = f1 * f2 with f1 constant-unit modulo p and f2 monic.

    Requires f primitive.  f1 and f2 are coprime: the higher coefficients of
    f1 vanish at precision 1, so res(f1, f2) is a unit."""
    if f.is_zero() or _content_val(ctx.p, f) != 0:
        raise ValueError("fun_factor_padic requires a primitive polynomial")
    fac = fun_factor(f)
    return fac.u, fac.gtilde


@dataclass(frozen=True)
class PadicGcd:
    """GCD result: value holds modulo p^(k - delta); u, v form a Bezout pair
    with u*f + v*g = value when tracking stayed exact, else None."""

    value: Poly
    delta: int
    u: Poly | None
    v: Poly | None
    normalized: bool


def _val(p: int, x: int) -> int:
    """Exponent of p in the positive integer x."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _content_val(p: int, f: Poly) -> int:
    """Valuation of the content of f over Z/p^j; j when f is zero."""
    return _val(p, content(f) or f.ring.n)


def _gcd(ctx: PadicCtx, f: Poly, g: Poly, delta: int, track: bool):
    """Returns (d, delta_out, (u, v) or None): u*f + v*g = d and d | f, g,
    all modulo p^(k - delta_out); the pair is always None when track is off.
    After a content extraction the recursion continues in a ring shrunk by
    the full extracted valuation (so that quantities below the effective
    precision are genuinely zero), but only the unshared part of the content
    is charged to delta."""
    R = f.ring
    one, zero = Poly.const(R, R.one), Poly.zero(R)
    if g.is_zero():
        return f, delta, ((one, zero) if track else None)
    if f.is_zero():
        return g, delta, ((zero, one) if track else None)

    if f.degree < g.degree:
        d, delta, bez = _gcd(ctx, g, f, delta, track)
        return d, delta, ((bez[1], bez[0]) if bez else None)

    if g.degree == 0:
        # gcd with a nonzero constant is a ring gcd of the contents: no
        # precision is lost (the constant is known exactly as a residue).
        vf, vg = _content_val(ctx.p, f), _content_val(ctx.p, g)
        d = Poly.const(R, R.from_int(ctx.p ** min(vf, vg)))
        if track and vg <= vf:
            # p^vg = t * g with t a unit: witness (0, t)
            t = R.inv(R.from_int(int(g.coeffs[0]) // ctx.p**vg))
            return d, delta, (zero, Poly.const(R, t))
        return d, delta, None

    vf, vg = _content_val(ctx.p, f), _content_val(ctx.p, g)
    if vf or vg:
        # The recursion must run at precision prec - max(vf, vg) so that
        # quantities below the effective precision are genuinely zero.  Only
        # the UNSHARED content costs accuracy: the shared factor p^min
        # multiplies straight back onto the result, so the final value is
        # still correct modulo p^(prec - (max - min) - later losses).
        prec = _val(ctx.p, R.n)
        shared = min(vf, vg)
        drop = max(vf, vg)
        delta += drop - shared
        if delta >= ctx.k:
            raise PrecisionError(f"precision loss {delta} >= k = {ctx.k}")
        R2 = Zmod(ctx.p ** (prec - drop))
        f1 = divide_by_scalar(f, R.from_int(ctx.p**vf)).map_ring(R2)
        g1 = divide_by_scalar(g, R.from_int(ctx.p**vg)).map_ring(R2)
        d, delta, bez = _gcd(ctx, f1, g1, delta, track)
        d = d.map_ring(R).scale(R.from_int(ctx.p**shared))
        # u*(f/p^v) + v*(g/p^v) = d' scales to u*f + v*g = p^v d' only when
        # both contents match; otherwise the pair is no longer representable.
        if vf == vg and bez:
            bez = (bez[0].map_ring(R), bez[1].map_ring(R))
        else:
            bez = None
        return d, delta, bez

    # G == u*gtilde at a factorisation step of the chain: u and gtilde are
    # coprime, so gcd(F, G) == gcd(F, u) * gcd(F, gtilde), and the chain
    # goes on with (F, gtilde)
    chain = UnitChain(f, g)
    d, delta, bez = _gcd(ctx, *chain.pair(), delta, track)
    D = one
    for step in chain.steps:
        if len(step) == 6:
            d1, delta = _gcd_unitlike(ctx, chain.ops, step[0], step[1], step[4], delta)
            D = D * d1
    # lift keeps the value: u*f + v*g == d, so (D*u)*f + (D*v)*g == D*d
    if bez:
        bez = tuple(D * x for x in chain.lift(*bez))
    return D * d, delta, bez


def _gcd_unitlike(ctx: PadicCtx, ops, F, df, u: Poly, delta: int):
    """gcd(f, u) for f primitive, packed in ops as F of degree df, and u
    constant-unit modulo p.

    The reciprocal reduction gcd = rev(gcd(rev(a), rev(b))) needs BOTH
    operands to have unit constant terms, so f is first reduced to its own
    unit-like factor f1: powers of x and the monic factor of f are coprime
    to u and contribute nothing.  f1 is that of f's top coefficients alone
    (_Packed.factor with window)."""
    R = u.ring
    one = Poly.const(R, R.one)
    k, _ = ops.top_non_nilpotent(F, df)   # a unit, as f is primitive
    if k == df:
        return one, delta   # f1 is a constant
    f1 = ops.factor(F, df, k, window=True)[0]
    d, delta, _ = _gcd(ctx, reciprocal(f1), reciprocal(u), delta, False)
    return reciprocal(d), delta


def padic_gcd(ctx: PadicCtx, f: Poly, g: Poly, track_bezout: bool = False) -> PadicGcd:
    """GCD of f and g at precision k with explicit precision-loss budget."""
    if f.ring != ctx.ring or g.ring != ctx.ring:
        raise ValueError("operands must live in Z/p^k")
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    d, delta, bez = _gcd(ctx, f, g, 0, track_bezout)
    if delta >= ctx.k:
        raise PrecisionError(f"precision loss {delta} >= k = {ctx.k}")

    # normalize to monic times p^v when the primitive leading coefficient
    # is a unit; otherwise return as computed.
    R = ctx.ring
    vc = _content_val(ctx.p, d)
    prim = divide_by_scalar(d, R.from_int(ctx.p**vc))
    normalized = R.is_unit(prim.lc)
    if normalized:
        scale = R.inv(prim.lc)
        d = prim.scale(scale).scale(R.from_int(ctx.p**vc))
        if bez:
            bez = (bez[0].scale(scale), bez[1].scale(scale))
    u = v = None
    if track_bezout and bez:
        u, v = bez
    return PadicGcd(d, delta, u, v, normalized)
