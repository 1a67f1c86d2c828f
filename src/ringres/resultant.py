"""Resultants, reduced resultants and Bezout certificates.

Euclidean-style algorithms over principal Artinian rings.  One
poly.UnitChain per pass owns the Euclidean steps: it divides by a unit
leading coefficient and replaces a divisor whose leading coefficient is
nilpotent by its monic Hensel factor.  Contents are extracted before each
chain; a step that meets a splitting element (primitive_part, ppa, the first
divisor's factorization) raises NeedsSplitError(element), and each engine
catches it in one place and splits, by CRT, the pair it held before the step.

Conventions:
  * res(f, g) == det(sylvester(f, g)) for all nonzero f, g; swapping the
    arguments multiplies by (-1)^(deg f * deg g).
  * res with a zero operand is 0; res of two nonzero constants is 1
    (empty Sylvester matrix).
  * rres / res_ideal return the canonical generator of the ideal.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ring import InvariantError
from .poly import (NeedsSplitError, Poly, UnitChain, content, divide_by_scalar,
                   divrem, fun_factor, invert_unit, primitive_part, reciprocal,
                   reduce_cofactors, split_crt, top_non_nilpotent)


# ---------------------------------------------------------------------------
# ppa: one content-reduction step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reduced:
    """Rres(f0, g0) = c * Rres_{R/Ann(c)}(f, g) for the pair (f0, g0) given
    to ppa, taken in reverse order when swapped.

    (f0, g0) == (c*f, c*g) when unit is None, else (c*f, unit*g) with unit a
    unit of R[x].
    """
    c: object
    f: Poly
    g: Poly
    unit: Poly | None = None
    swapped: bool = False


def ppa(f: Poly, g: Poly):
    """One primitive-pair reduction step on nonconstant f, g.

    Returns a Reduced, which is Reduced(1, f, g) exactly when both inputs
    are primitive; NeedsSplitError carries the element when a ring split is
    required.
    """
    R = f.ring
    cf, cg = content(f), content(g)
    if R.is_unit(cf) and R.is_unit(cg):
        return Reduced(R.one, f, g)
    if R.is_splitting(cf):
        raise NeedsSplitError(cf)
    if R.is_splitting(cg):
        raise NeedsSplitError(cg)
    if R.is_nilpotent(cf) and R.is_nilpotent(cg):
        d = R.gcd_bezout(cf, cg)[0]
        return Reduced(d, divide_by_scalar(f, d), divide_by_scalar(g, d))
    # exactly one content is nilpotent; arrange it on f
    swapped = not R.is_nilpotent(cf)
    if swapped:
        f, g, cf = g, f, cg
    fac = fun_factor(g)
    if fac.gtilde.degree == 0:
        # g is a unit of R[x], so (f, g) = (1) regardless of f's content
        return Reduced(R.one, f, fac.gtilde, fac.u, swapped)
    return Reduced(cf, divide_by_scalar(f, cf), fac.gtilde, fac.u, swapped)


# ---------------------------------------------------------------------------
# reduced resultant, with or without a Bezout certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RresCertificate:
    value: object
    u: Poly
    v: Poly


def _rres0(f: Poly, bezout: bool):
    """(r, s) with (r) = (f) ∩ R and s*f == r; s is None unless bezout."""
    R = f.ring
    if f.is_zero():
        return R.zero, Poly.zero(R) if bezout else None
    if f.degree == 0:
        return f.coeffs[0], Poly.one(R) if bezout else None

    try:
        c, h = primitive_part(f)
        i, a = top_non_nilpotent(h)
        if R.is_splitting(a):
            raise NeedsSplitError(a)
    except NeedsSplitError as e:
        return split_crt(R, e.element, lambda Rb: _rres0(f.map_ring(Rb), bezout))
    if i > 0:
        # fun_factor(h) has a monic factor of degree i, which blocks constants
        return R.zero, Poly.zero(R) if bezout else None
    return c, invert_unit(h) if bezout else None  # s*f == c*(h^{-1} h) == c


def _rres_const(f: Poly, g: Poly, bezout: bool):
    """_rres for a constant or zero g with deg f >= deg g."""
    R = f.ring
    c = g.coeffs[0] if g.coeffs else R.zero
    if f.degree <= 0:
        r, s, t = R.gcd_bezout(f.coeffs[0] if f.coeffs else R.zero, c)
        if not bezout:
            return r, None, None
        return r, Poly.const(R, s), Poly.const(R, t)
    r0, s0 = _rres0(f.map_ring(R.quotient_by(c)), bezout)
    r0 = R.coerce(r0)
    r, sig, tau = R.gcd_bezout(c, r0)
    if not bezout:
        return r, None, None
    s = s0.map_ring(R)
    P = s * f
    if R.is_zero(c):
        if P != Poly.const(R, r0):
            raise InvariantError("exact contraction witness expected")
        w = Poly.zero(R)
    else:
        w = divide_by_scalar(P - Poly.const(R, r0), c)
    u = s.scale(tau)
    v = Poly.const(R, sig) - w.scale(tau)
    return (r, *reduce_cofactors(f, g, u, v))


def _rres_reduced(f: Poly, g: Poly, red: Reduced, bezout: bool):
    """_rres from ppa(f, g) == red when red.c is not a unit or red.unit is set."""
    R = f.ring
    Rq = R.ann_quotient(red.c)
    r0, u, v = _rres(red.f.map_ring(Rq), red.g.map_ring(Rq), bezout)
    r = R.mul(red.c, R.coerce(r0))
    if not bezout:
        return r, None, None
    u, v = u.map_ring(R), v.map_ring(R)
    if red.unit is not None:
        v = v.scale(red.c) * invert_unit(red.unit)
    if red.swapped:
        u, v = v, u
    return (r, *reduce_cofactors(f, g, u, v))


def _rres(f: Poly, g: Poly, bezout: bool):
    """(r, u, v) with (r) = (f, g) ∩ R and u*f + v*g == r; u, v are None
    unless bezout.

    The Euclidean chain can be as long as the input degree, so it is a loop:
    each pass reduces the contents (ppa) and hands a primitive pair to one
    UnitChain, which divides and factors until it stops; with bezout, the
    chains are kept and the cofactors are lifted back through them in
    reverse.  Splits and quotient-ring recursions stay recursive; their depth
    is bounded by the factor structure of the modulus.
    """
    R = f.ring
    chains = []
    while True:
        swapped = f.degree < g.degree
        if swapped:
            f, g = g, f
        if g.degree <= 0:
            r, u, v = _rres_const(f, g, bezout)
            break
        try:
            red = ppa(f, g)
            primitive = red.unit is None and R.is_unit(red.c)
            if primitive:
                chain = UnitChain(f, g)
        except NeedsSplitError as e:
            r, u, v = split_crt(
                R, e.element, lambda Rb: _rres(f.map_ring(Rb), g.map_ring(Rb), bezout))
            break
        if not primitive:
            r, u, v = _rres_reduced(f, g, red, bezout)
            break
        f, g = chain.pair()
        if bezout:
            chains.append((swapped, chain))
    if swapped:
        u, v = v, u
    for swapped, chain in reversed(chains):
        u, v = chain.lift(u, v)
        if swapped:
            u, v = v, u
    return r, u, v


def rres(f: Poly, g: Poly):
    """Canonical generator of the reduced resultant ideal (f, g) ∩ R."""
    f._check(g)
    return f.ring.ideal_gen(_rres(f, g, bezout=False)[0])


def rres_bezout(f: Poly, g: Poly) -> RresCertificate:
    """Reduced resultant with an exact witness u*f + v*g == value."""
    f._check(g)
    return RresCertificate(*_rres(f, g, bezout=True))


# ---------------------------------------------------------------------------
# resultant
# ---------------------------------------------------------------------------

def res_at_degrees(f: Poly, N: int, g: Poly, M: int, ideal_mode=False):
    """det of the (N+M) x (N+M) Sylvester matrix of f, g taken at the
    *formal* degrees N >= deg f, M >= deg g.

    Leading-coefficient drops change the determinant relative to res(f, g):
    a drop of d in the first argument contributes (-1)^(d*M) * lc(g)^d, a
    drop of e in the second contributes lc(f)^e, and a simultaneous drop
    zeroes the first column, hence the determinant.
    """
    R = f.ring
    if N == 0 and M == 0:
        return R.one
    if M == 0:
        return R.pow_elem(g.coeff(0), N)
    if N == 0:
        return R.pow_elem(f.coeff(0), M)
    d, e = N - f.degree, M - g.degree
    if (d and e) or f.is_zero() or g.is_zero():
        return R.zero
    val = _res(f, g, ideal_mode)
    if d:
        val = R.mul(R.pow_elem(g.lc, d), val)
        return R.neg(val) if (d * M) % 2 else val
    return R.mul(R.pow_elem(f.lc, e), val) if e else val


def _res_unit(top, df, u: Poly, ideal_mode):
    """res(f, u) for a unit u of R[x] and f of degree df, from top, the
    coefficients f_df, f_(df-1), ... down to f_(df - m - deg u^-1) or to
    f_0, m = deg u."""
    R = u.ring
    m, u0 = u.degree, u.coeffs[0]
    if m == 0:
        return R.pow_elem(u0, df)
    if m == 1:
        return _res_linear(R, top, df, u0, u.coeffs[1])
    # With f = x^s*f2, f2(0) != 0: res(x, u) = u0 and, for the reciprocals,
    # res(f2, u) == (-1)^(nm) res(F, U) == res(U, F) == u0^(deg F - deg r)
    # res(U, r) with r = F mod U, so res(f, u) == u0^(df - deg r) res(U, r).
    # u*u^-1 == 1 reverses to U*rev(u^-1) == y^(m + L), L = deg u^-1, so
    # y^(m + L) == 0 modulo U and r is the remainder of F mod y^(m + L): of
    # top, whose entries below f_s are zero.
    U = reciprocal(u)
    r = divrem(Poly(R, top), U)[1]
    if r.is_zero():
        return R.zero
    return R.mul(R.pow_elem(u0, df - r.degree), _res(U, r, ideal_mode))


def _res_linear(R, top, df, u0, u1):
    """res(f, u0 + u1*x) == sum_i f_i * u0^i * (-u1)^(n-i) for f of degree
    n = df and top = f_n, f_(n-1), ...

    Homogeneous Horner from the top: once (-u1)^t is zero, as it is from
    t = j on when u1 is nilpotent, the lower coefficients of f add nothing
    and the sum is u0^(n-t) times the terms read so far.
    """
    b = R.neg(u1)
    t, acc, bp = 0, top[0], R.one
    while t < df:
        bp = R.mul(bp, b)
        if R.is_zero(bp):
            break
        t += 1
        acc = R.add(R.mul(acc, u0), R.mul(top[t], bp))
    return R.mul(acc, R.pow_elem(u0, df - t))


def _res(f: Poly, g: Poly, ideal_mode=False):
    # Iterative main loop: the Euclidean chain can be as long as the input
    # degree, which would overflow Python's recursion limit for large inputs.
    R = f.ring
    acc = R.one
    while True:
        if f.is_zero() or g.is_zero():
            return R.zero
        n, m = f.degree, g.degree
        if n == 0 and m == 0:
            return acc
        if n == 0:
            return R.mul(acc, R.pow_elem(f.coeffs[0], m))
        if m == 0:
            return R.mul(acc, R.pow_elem(g.coeffs[0], n))
        if n == 1 and m == 1:
            return R.mul(acc, R.sub(R.mul(f.coeffs[1], g.coeffs[0]),
                                    R.mul(f.coeffs[0], g.coeffs[1])))
        if m > n:
            f, g = g, f
            n, m = m, n
            if (n * m) % 2:
                acc = R.neg(acc)

        try:
            cf, pf = primitive_part(f)
            cg, pg = primitive_part(g)
            # content extraction: res(c*f, g) = c^deg(g) * res(f, g) (degree kept)
            acc1 = acc if cf == cg == R.one else R.mul(
                acc, R.mul(R.pow_elem(cf, m), R.pow_elem(cg, n)))
            if R.is_zero(acc1):
                return R.zero
            chain = UnitChain(pf, pg)
        except NeedsSplitError as e:
            # each branch keeps the degrees of f and g as formal ones
            return R.mul(acc, split_crt(R, e.element, lambda Rb: res_at_degrees(
                f.map_ring(Rb), n, g.map_ring(Rb), m, ideal_mode)))
        acc = acc1
        for step in chain.steps:
            if len(step) == 6:  # G == u*gtilde: res(F, G) = res(F, u) * res(F, gtilde)
                F, df, _, _, u, j = step    # deg u^-1 <= (j - 1)*deg u
                top = chain.ops.top(F, df, u.degree * j + 1)
                if not (ideal_mode and R.is_unit(top[0])):  # else res(F, u) is a unit
                    acc = R.mul(acc, _res_unit(top, df, u, ideal_mode))
                continue
            n, m, dr, c, _ = step
            if dr < 0:
                return R.zero
            if ideal_mode:  # lc(G) is a unit, so its factor and the sign are too
                continue
            # res(F, G) = (-1)^(n m) lc(G)^(n - deg r) res(G, F mod G)
            acc = R.mul(acc, R.pow_elem(c, n - dr))
            if (n * m) % 2:
                acc = R.neg(acc)
        f, g = chain.pair()


def res(f: Poly, g: Poly):
    """Resultant normalised so that res(f, g) == det(sylvester(f, g))."""
    f._check(g)
    return _res(f, g, ideal_mode=False)


def res_ideal(f: Poly, g: Poly):
    """Canonical generator of the ideal (res(f, g)); skips the unit-side
    resultant whenever the higher-degree operand has an invertible lc, and
    the unit lc powers and signs of the division steps."""
    f._check(g)
    return f.ring.ideal_gen(_res(f, g, ideal_mode=True))
