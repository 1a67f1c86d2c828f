"""Resultants, reduced resultants and Bezout certificates.

Euclidean-style algorithms over principal Artinian rings: non-invertible
leading coefficients are handled by content extraction, Hensel factorization
into unit * monic, and ring splitting with CRT recombination.

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
from .poly import (Poly, UnitChain, content, divide_by_scalar, divrem,
                   fun_factor, invert_unit, reciprocal, split_crt,
                   top_non_nilpotent)


# ---------------------------------------------------------------------------
# ppa: one content-reduction step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitElem:
    element: object


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

    Returns SplitElem(a) when a ring split is required, else a Reduced, which
    is Reduced(1, f, g) exactly when both inputs are primitive.
    """
    R = f.ring
    cf, cg = content(f), content(g)
    if R.is_unit(cf) and R.is_unit(cg):
        return Reduced(R.one, f, g)
    if R.is_splitting(cf):
        return SplitElem(cf)
    if R.is_splitting(cg):
        return SplitElem(cg)
    if R.is_nilpotent(cf) and R.is_nilpotent(cg):
        d = R.gcd_bezout(cf, cg)[0]
        return Reduced(d, divide_by_scalar(f, d), divide_by_scalar(g, d))
    # exactly one content is nilpotent; arrange it on f
    swapped = not R.is_nilpotent(cf)
    if swapped:
        f, g, cf = g, f, cg
    i, a = top_non_nilpotent(g)
    if not R.is_unit(a):
        return SplitElem(a)
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


def _reduce_cofactors(f, g, r, u, v):
    R = f.ring
    if f.degree >= 1 and R.is_unit(f.lc) and v.degree >= f.degree:
        q, v = divrem(v, f)
        u = u + q * g
    elif g.degree >= 1 and R.is_unit(g.lc) and u.degree >= g.degree:
        q, u = divrem(u, g)
        v = v + q * f
    return r, u, v


def _rres0(f: Poly, bezout: bool):
    """(r, s) with (r) = (f) ∩ R and s*f == r; s is None unless bezout."""
    R = f.ring
    if f.is_zero():
        return R.zero, Poly.zero(R) if bezout else None
    if f.degree == 0:
        return f.coeffs[0], Poly.one(R) if bezout else None

    def split(a):
        return split_crt(R, a, lambda Rb: _rres0(f.map_ring(Rb), bezout))

    c = content(f)
    if R.is_splitting(c):
        return split(c)
    if R.is_unit(c):
        c, h = R.one, f
    else:
        h = divide_by_scalar(f, c)
    ch = content(h)
    if R.is_splitting(ch):
        return split(ch)
    i, a = top_non_nilpotent(h)
    if R.is_splitting(a):
        return split(a)
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
    return _reduce_cofactors(f, g, r, u, v)


def _rres_reduced(f: Poly, g: Poly, red: Reduced, bezout: bool):
    """_rres from ppa(f, g) == red when red.c is not a unit or red.unit is set."""
    R = f.ring
    if red.g.degree == 0:
        # g0 == red.unit is a unit of R[x]; its inverse witnesses (1)
        if not bezout:
            return R.one, None, None
        r, u, v = R.one, Poly.zero(R), invert_unit(red.unit)
    else:
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
    return _reduce_cofactors(f, g, r, u, v)


def _rres(f: Poly, g: Poly, bezout: bool):
    """(r, u, v) with (r) = (f, g) ∩ R and u*f + v*g == r; u, v are None
    unless bezout.

    The Euclidean chain can be as long as the input degree, so it is a loop:
    with bezout, each division step is recorded and the cofactors are lifted
    through the steps in reverse.  Runs of divisors with a unit leading
    coefficient go through one UnitChain each.  Splits and quotient-ring
    recursions stay recursive; their depth is bounded by the factor structure
    of the modulus.
    """
    R = f.ring
    steps = []
    while True:
        swapped = f.degree < g.degree
        if swapped:
            f, g = g, f
        if g.degree <= 0:
            r, u, v = _rres_const(f, g, bezout)
            break
        red = ppa(f, g)
        if isinstance(red, Reduced) and (red.unit is not None
                                         or not R.is_unit(red.c)):
            r, u, v = _rres_reduced(f, g, red, bezout)
            break
        a = red.element if isinstance(red, SplitElem) else top_non_nilpotent(g)[1]
        if R.is_splitting(a):
            r, u, v = split_crt(
                R, a, lambda Rb: _rres(f.map_ring(Rb), g.map_ring(Rb), bezout))
            break
        # both primitive with an invertible top coefficient: divide, or
        # replace g by gtilde, which generates the same ideal with f
        if R.is_unit(g.lc):
            step = UnitChain(f, g)
            f, g = step.pair()
        else:
            fac = fun_factor(g)
            step = (f, g, fac.u)
            g = fac.gtilde
        if bezout:
            steps.append((swapped, step))
    if swapped:
        u, v = v, u
    for swapped, step in reversed(steps):
        if isinstance(step, UnitChain):
            u, v = step.lift(u, v)
        else:
            # (u, v) certifies (f, gtilde), g == unit*gtilde
            f, g, unit = step
            r, u, v = _reduce_cofactors(f, g, r, u, v * invert_unit(unit))
        if swapped:
            u, v = v, u
    return r, u, v


def rres(f: Poly, g: Poly):
    """Canonical generator of the reduced resultant ideal (f, g) ∩ R."""
    return f.ring.ideal_gen(_rres(f, g, bezout=False)[0])


def rres_bezout(f: Poly, g: Poly) -> RresCertificate:
    """Reduced resultant with an exact witness u*f + v*g == value."""
    return RresCertificate(*_rres(f, g, bezout=True))


# ---------------------------------------------------------------------------
# resultant
# ---------------------------------------------------------------------------

def _split_res(f: Poly, g: Poly, a, ideal_mode):
    """Split on a; each branch keeps the degrees of f and g as formal ones."""
    return split_crt(f.ring, a, lambda Rb: res_at_degrees(
        f.map_ring(Rb), f.degree, g.map_ring(Rb), g.degree, ideal_mode))


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


def _res_unit(f: Poly, u: Poly, ideal_mode):
    """res(f, u) for a unit u of R[x], via reciprocal reduction."""
    R = f.ring
    if u.degree == 0:
        return R.pow_elem(u.coeffs[0], f.degree)
    if u.degree == 1:
        return _res_linear(f, u.coeffs[0], u.coeffs[1])
    # strip the power of x: res(x, u) = u(0)
    s = next(i for i, c in enumerate(f.coeffs) if not R.is_zero(c))
    acc = R.pow_elem(u.coeffs[0], s)
    f2 = Poly(R, f.coeffs[s:])
    if f2.degree == 0:
        return R.mul(acc, R.pow_elem(f2.coeffs[0], u.degree))
    # res(f2, u) == (-1)^(nm) res(F, U) == res(U, F) for the reciprocals,
    # and res(U, F) == lc(U)^(n - deg r) res(U, r) with r = F mod U.  U is
    # u(0)*y^m modulo the nilpotents, so y^(mE) == 0 modulo U (as in
    # fun_factor) and r is the remainder of F mod y^(mE).
    F, U = reciprocal(f2), reciprocal(u)
    r = divrem(Poly(R, F.coeffs[:u.degree * R.E]), U)[1]
    if r.is_zero():
        return R.zero
    return R.mul(acc, R.mul(R.pow_elem(U.lc, F.degree - r.degree), _res(U, r, ideal_mode)))


def _res_linear(f: Poly, u0, u1):
    """res(f, u0 + u1*x) == sum_i f_i * u0^i * (-u1)^(n-i), n = deg f.

    Homogeneous Horner from the top: once (-u1)^j is zero, as it is from
    j = E on when u1 is nilpotent, the lower coefficients of f add nothing
    and the sum is u0^i times the terms read so far.
    """
    R = f.ring
    b = R.neg(u1)
    i = f.degree
    acc, bp = f.coeffs[i], R.one
    while i > 0:
        bp = R.mul(bp, b)
        if R.is_zero(bp):
            break
        i -= 1
        acc = R.add(R.mul(acc, u0), R.mul(f.coeffs[i], bp))
    return R.mul(acc, R.pow_elem(u0, i))


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

        # content extraction: res(c*f, g) = c^deg(g) * res(f, g) (degree kept)
        for first in (True, False):
            p = f if first else g
            other_deg = g.degree if first else f.degree
            c = content(p)
            if R.is_splitting(c):
                return R.mul(acc, _split_res(f, g, c, ideal_mode))
            if not R.is_unit(c):
                acc = R.mul(acc, R.pow_elem(c, other_deg))
                if R.is_zero(acc):
                    return R.zero
                p = divide_by_scalar(p, c)
                c2 = content(p)
                if R.is_splitting(c2):
                    if first:
                        f = p
                    else:
                        g = p
                    return R.mul(acc, _split_res(f, g, c2, ideal_mode))
                if not R.is_unit(c2):
                    raise InvariantError(
                        "content of the primitive part must be a unit")
            if first:
                f = p
            else:
                g = p
        i, a = top_non_nilpotent(g)
        if R.is_splitting(a):
            return R.mul(acc, _split_res(f, g, a, ideal_mode))
        if i == m:  # invertible leading coefficient: divide while it stays so
            chain = UnitChain(f, g)
            for n, m, dr, c in chain.steps:
                if dr < 0:
                    return R.zero
                # res(f, g) = (-1)^(n m) lc(g)^(n - deg r) res(g, f mod g)
                acc = R.mul(acc, R.pow_elem(c, n - dr))
                if (n * m) % 2:
                    acc = R.neg(acc)
            f, g = chain.pair()
            continue
        # nilpotent leading part: res(f, g) = res(f, u) * res(f, gtilde)
        fac = fun_factor(g)
        if ideal_mode and R.is_unit(f.lc):
            r1 = R.one  # res(f, u) is a unit when lc(f) is invertible
        else:
            r1 = _res_unit(f, fac.u, ideal_mode)
        acc = R.mul(acc, r1)
        g = fac.gtilde


def res(f: Poly, g: Poly):
    """Resultant normalised so that res(f, g) == det(sylvester(f, g))."""
    return _res(f, g, ideal_mode=False)


def res_ideal(f: Poly, g: Poly):
    """Canonical generator of the ideal (res(f, g)); skips the unit-side
    resultant whenever the higher-degree operand has an invertible lc."""
    return f.ring.ideal_gen(_res(f, g, ideal_mode=True))
