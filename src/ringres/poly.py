"""Univariate polynomial arithmetic over the supported rings.

Polynomials are immutable coefficient tuples, ascending by degree, with no
trailing zeros.  The zero polynomial has an empty tuple; its degree is the
sentinel NO_DEGREE = -1, which compares below every true degree (all real
degrees are >= 0) and must not be used arithmetically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .ring import ContextMismatchError, InvariantError, NotUnitError, _divrem_lists, _mul_lists

NO_DEGREE = -1


class NeedsSplitError(ValueError):
    """An operation hit a splitting element; carries the element."""

    def __init__(self, element, message="ring split required"):
        super().__init__(message)
        self.element = element


class NonInvertibleLeadingCoeffError(ValueError):
    """Division requires an invertible leading coefficient."""


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        cs = list(coeffs)
        while cs and ring.is_zero(cs[-1]):
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_ints(cls, ring, ints):
        return cls(ring, [ring.from_int(i) for i in ints])

    @classmethod
    def zero(cls, ring):
        return cls(ring, [])

    @classmethod
    def one(cls, ring):
        return cls(ring, [ring.one])

    @classmethod
    def const(cls, ring, c):
        return cls(ring, [c])

    # -- structure --------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else NO_DEGREE

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        return f"Poly({self.ring}, {list(self.coeffs)})"

    # -- arithmetic -------------------------------------------------------
    def _check(self, other):
        if self.ring != other.ring:
            raise ContextMismatchError("polynomials over different rings")

    def __add__(self, other):
        self._check(other)
        R = self.ring
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = R.add(out[i], c)
        return Poly(R, out)

    def __neg__(self):
        R = self.ring
        return Poly(R, [R.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        self._check(other)
        R = self.ring
        a, b = self.coeffs, other.coeffs
        out = list(a) + [R.zero] * max(0, len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = R.sub(out[i], c)
        return Poly(R, out)

    def __mul__(self, other):
        self._check(other)
        R = self.ring
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(R, [])
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            return Poly(R, [R.mul(a[0], y) for y in b])
        return Poly(R, _ks_mul(R, a, b))

    def scale(self, c):
        R = self.ring
        return Poly(R, [R.mul(x, c) for x in self.coeffs])

    def shift(self, s: int):
        """Multiply by x^s."""
        if self.is_zero() or s == 0:
            return self if s == 0 else self
        return Poly(self.ring, (self.ring.zero,) * s + self.coeffs)

    def mod_xpow(self, t: int):
        return Poly(self.ring, self.coeffs[:t])

    def eval(self, a):
        R = self.ring
        acc = R.zero
        for c in reversed(self.coeffs):
            acc = R.add(R.mul(acc, a), c)
        return acc

    def map_ring(self, ring2):
        return Poly(ring2, [ring2.coerce(c) for c in self.coeffs])

    def format(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(self.ring.format_elem(c) for c in self.coeffs)


def _ks_mul(R, a, b):
    """Coefficients of a*b by Kronecker substitution: pack each operand into
    one int in w-byte slots, multiply once, unpack and reduce each slot.

    Over a Galois ring every coefficient is a polynomial in t of degree < k
    and takes 2k-1 slots, room for its product before reduction mod lam.
    A slot sums at most min(len) * k products of two entries below q, which
    w bytes hold.
    """
    galois = R.kind == "galois"
    k, q = (R.k, R.pe) if galois else (1, R.n)
    w = (min(len(a), len(b)) * k * (q - 1) ** 2).bit_length() // 8 + 1
    if galois:
        pad = bytes(w * (k - 1))

        def pack(cs):
            return int.from_bytes(pad.join(
                b"".join([c.to_bytes(w, "little") for c in x]) for x in cs), "little")
    else:
        def pack(cs):
            return int.from_bytes(
                b"".join([c.to_bytes(w, "little") for c in cs]), "little")

    A = pack(a)
    stride = 2 * k - 1
    slots = (len(a) + len(b) - 1) * stride
    buf = (A * A if a is b else A * pack(b)).to_bytes(slots * w, "little")
    if not galois:
        return [int.from_bytes(buf[i:i + w], "little") % q for i in range(0, slots * w, w)]
    vals = [int.from_bytes(buf[i:i + w], "little") for i in range(0, slots * w, w)]
    return [R.reduce_product(vals[i:i + stride]) for i in range(0, slots, stride)]


# ---------------------------------------------------------------------------
# content / primitivity
# ---------------------------------------------------------------------------

def content(f: Poly):
    """Canonical generator of the coefficient ideal."""
    return f.ring.gcd_many(f.coeffs) if f.coeffs else f.ring.zero


def is_primitive(f: Poly) -> bool:
    return f.ring.is_unit(content(f))


def divide_by_scalar(f: Poly, c):
    """g with c*g == f, coefficient-wise smallest representatives."""
    R = f.ring
    out = []
    for x in f.coeffs:
        q = R.try_divide(x, c)
        if q is None:
            raise ValueError("scalar does not divide all coefficients")
        out.append(q)
    return Poly(R, out)


def top_non_nilpotent(f: Poly):
    """(i, a_i) for the highest-degree non-nilpotent coefficient, or None."""
    R = f.ring
    for i in range(len(f.coeffs) - 1, -1, -1):
        if not R.is_nilpotent(f.coeffs[i]):
            return i, f.coeffs[i]
    return None


def reciprocal(f: Poly) -> Poly:
    """x^deg(f) * f(1/x); requires f != 0."""
    if f.is_zero():
        raise ValueError("reciprocal of the zero polynomial")
    return Poly(f.ring, tuple(reversed(f.coeffs)))


def is_unit_poly(f: Poly) -> bool:
    """Unit of R[x]: invertible constant term, nilpotent higher coefficients."""
    R = f.ring
    if f.is_zero():
        return False
    if not R.is_unit(f.coeffs[0]):
        return False
    return all(R.is_nilpotent(c) for c in f.coeffs[1:])


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

# Largest degree of a divisor or lifted factor that _divrem and _lift handle
# on int lists over Z/n; above it they run on packed divisions.  On a 2-vCPU
# x86 VM (CPython 3.11), over Z/3^40 and Z/2^64: divrem by degree 1-16 is
# faster on lists at dividend degrees 32-512 (best of 5x50 calls; over 3^40,
# 0.32 against 1.23 ms at 512 by 1, 1.41 against 2.22 ms by 16); fun_factor
# (median of 7 inputs per d, m) 1.2 against 2.7 ms at d = 96, m = 2, 21
# against 29 ms at d = 512, m = 16, either way at m = 32, slower from m = 40
# (114 against 75 ms at d = 512, m = 64; 576 against 164 ms at m = 200).
_LIST_DEG_MAX = 16


def divrem(f: Poly, g: Poly):
    """(q, r) with f = q*g + r, deg r < deg g; needs lc(g) invertible."""
    R = f.ring
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if not R.is_unit(g.lc):
        raise NonInvertibleLeadingCoeffError(
            "divrem requires an invertible leading coefficient")
    return _divrem(f, g, R.inv(g.lc))


def _divrem(f: Poly, g: Poly, winv):
    """divrem with winv == lc(g)^-1 given: over Z/n on int lists up to
    deg g == _LIST_DEG_MAX and packed above, row by row over a Galois ring
    or by a constant."""
    R = f.ring
    dg = g.degree
    if f.degree < dg:
        return Poly(R, []), f
    if R.kind == "zmod" and 1 <= dg <= _LIST_DEG_MAX:
        # f == q*(g*winv) + r, so f == (q*winv)*g + r
        n = R.n
        p = g.coeffs if winv == 1 else [c * winv % n for c in g.coeffs]
        q, r = _divrem_lists(f.coeffs, p, n)
        if winv != 1:
            q = [c * winv % n for c in q]
        return Poly(R, q), Poly(R, r)
    if R.kind == "zmod" and dg >= 1:
        P = _Packed(R.n, f.degree + 2)
        q, X, dr, _ = P.divrem(P.pack(f.coeffs), f.degree, P.pack(g.coeffs), dg, winv)
        return Poly(R, q), Poly(R, P.unpack(X, dr + 1))
    rem = list(f.coeffs)
    q = [R.zero] * (f.degree - dg + 1)
    gcs = g.coeffs[:-1]     # row i cancels rem[i], which is not read again
    monic = winv == R.one
    for i in range(f.degree, dg - 1, -1):
        c = rem[i]
        if R.is_zero(c):
            continue
        qc = c if monic else R.mul(c, winv)
        q[i - dg] = qc
        off = i - dg
        for j, gc in enumerate(gcs):
            rem[off + j] = R.sub(rem[off + j], R.mul(qc, gc))
    return Poly(R, q), Poly(R, rem[:dg])


# ---------------------------------------------------------------------------
# Euclidean chains while the divisor's leading coefficient is a unit
# ---------------------------------------------------------------------------

def _slot_bytes(n: int) -> int:
    """Bytes per packed slot over Z/n: room for 2*bits(n) + 10 bits."""
    return (2 * n.bit_length() + 17) // 8


@lru_cache(maxsize=64)
def _layout(n: int):
    """(w, a, h, m, K, OFF slot) of _Packed over Z/n."""
    t = n.bit_length()
    w = _slot_bytes(n)
    L = t - 1 + 4 * w
    big = (n - 1) * (3 * n - 1)     # a coefficient times a reduced slot
    # OFF + big must stay below 2^L, so at most K products per step
    K = ((1 << L) - 1 - big) // n * n // big
    off = -(-K * big // n) * n
    if K < 2 or off < K * big or not big + off < 1 << L <= 1 << 8 * w:
        raise InvariantError(f"{w}-byte packed slots are too narrow for Z/{n}")
    return w, t - 1, 4 * w, (1 << L) // n, K, off


class _Packed:
    """Polynomials over Z/n (n >= 2) packed into one int, one w-byte slot per
    coefficient, ascending, every slot value below 3n.

    A step adds OFF to X and subtracts T, a sum of at most K products of a
    coefficient below n and a slot.  Each OFF slot is a multiple of n at least
    as large as any slot of T, so no slot goes negative or borrows, and every
    slot stays below 2^L, L = bits(n) - 1 + 4w.  The step then reduces every
    slot at once with one Barrett step: with a = bits(n) - 1, h = 4w and
    m = 2^L // n, the estimate ((x >> a) * m) >> h is at most 2 below x // n,
    and both of its factors are below 2^h, so no product spills into the next
    slot.  OFF, the Barrett mask and the all-ones mask are kept for `slots`
    slots and grow on demand, so each chain or division owns its _Packed.
    """

    def __init__(self, n, slots):
        self.n = n
        self.w, self.a, self.h, self.m, self.K, self.off_slot = _layout(n)
        self.b = 8 * self.w
        self.slot_mask = (1 << self.b) - 1
        self._grow(slots)

    def _grow(self, slots):
        self.slots = slots
        rep = int.from_bytes((b"\x01" + bytes(self.w - 1)) * slots, "little")
        self.offs = rep * self.off_slot
        self.mask = rep * ((1 << self.h) - 1)
        self.ones = (1 << (self.b * slots)) - 1

    def pack(self, cs):
        w = self.w
        return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in cs]), "little")

    def unpack(self, X, l):
        """The l slots of X, reduced mod n."""
        w, n = self.w, self.n
        buf = X.to_bytes(l * w, "little")
        return [int.from_bytes(buf[i:i + w], "little") % n for i in range(0, l * w, w)]

    def submul(self, X, l, Q, Y):
        """X - Q*Y on l slots, reduced; Q packs at most K coefficients."""
        if l > self.slots:
            self._grow(2 * l)
        X = X + (self.offs >> (self.b * (self.slots - l))) - Q * Y
        mask = self.mask
        return X - (((((X >> self.a) & mask) * self.m) >> self.h) & mask) * self.n

    def divrem(self, F, df, G, dg, ci):
        """(q, R, deg R, lc R) with F == q*G + R; ci == lc(G)^-1, dg >= 1."""
        n, b, sm, K = self.n, self.b, self.slot_mask, self.K
        if df == dg + 1:
            # the usual step, a quotient of degree 1
            top = F >> (b * (df - 1))
            q1 = (top >> b) * ci % n
            q0 = ((top & sm) - q1 * ((G >> (b * (dg - 1))) & sm)) * ci % n
            q = [q0, q1]
            F = self.submul(F, df + 1, q0 | (q1 << b), G)
            df = dg - 1
            F &= self.ones >> (b * (self.slots - dg))
        else:
            hi = df - dg
            q = [0] * (hi + 1)
            gt = [(G >> (b * (dg - k))) & sm for k in range(min(K, hi + 1, dg + 1))]
        while df >= dg:
            # the top j quotient coefficients, from the top j slots of F
            j = min(K, hi + 1)
            ft = [(F >> (b * (df - k))) & sm for k in range(j)]
            Q = 0
            for k in range(j):
                c = q[hi - k] = ft[k] * ci % n
                Q = (Q << b) | c
                for i in range(k + 1, min(j, k + len(gt))):
                    ft[i] -= c * gt[i - k]
            F = self.submul(F, df + 1, Q << (b * (hi - j + 1)), G)
            df, hi = df - j, hi - j
            F &= self.ones >> (b * (self.slots - df - 1))
        d, c = df, 0
        while d >= 0:
            c = ((F >> (b * d)) & sm) % n
            if c:
                break
            d -= 1
        if d < df:
            F &= self.ones >> (b * (self.slots - d - 1))
        return q, F, d, c

    def cofactor_step(self, U, lu, V, lv, qq):
        """(U - qq*V, its slot count), reduced."""
        l = max(lu, lv + len(qq) - 1)
        for s in range(0, len(qq), self.K):
            U = self.submul(U, l, self.pack(qq[s:s + self.K]) << (self.b * s), V)
        return U, l


class _PolyOps:
    """_Packed's operations on Poly values, for rings with no packed form."""

    def __init__(self, R):
        self.R = R

    def pack(self, cs):
        return Poly(self.R, cs)

    def unpack(self, X, l):
        return X.coeffs

    def divrem(self, F, df, G, dg, ci):
        q, r = _divrem(F, G, ci)
        return q.coeffs, r, r.degree, r.coeffs[-1] if r.coeffs else self.R.zero

    def cofactor_step(self, U, lu, V, lv, qq):
        X = U - V * Poly(self.R, qq)
        return X, len(X.coeffs)


class UnitChain:
    """The Euclidean remainder sequence of f, g run while the divisor's
    leading coefficient is a unit; needs deg f >= deg g >= 1 and lc(g) a unit.

    F_0, G_0 = f, g; step i divides F_i by G_i, F_i == q_i*G_i + G_{i+1}, and
    F_{i+1} = G_i.  A division needs only a unit leading coefficient, so no
    remainder is made monic.  The chain stops at the first G_s that is zero,
    constant or has a non-unit leading coefficient.  Over Z/n the divisions
    run on packed ints (_Packed).

    steps holds (deg F_i, deg G_i, deg G_{i+1}, lc G_i) per division, and
    quots the coefficients of q_i.
    """

    def __init__(self, f: Poly, g: Poly):
        R = self.ring = f.ring
        ops = self.ops = _Packed(R.n, f.degree + 2) if R.kind == "zmod" else _PolyOps(R)
        F, df, G, dg, c = ops.pack(f.coeffs), f.degree, ops.pack(g.coeffs), g.degree, g.lc
        self.steps, self.quots = [], []
        while True:
            q, X, dr, cr = ops.divrem(F, df, G, dg, R.inv(c))
            self.steps.append((df, dg, dr, c))
            self.quots.append(q)
            F, df, G, dg, c = G, dg, X, dr, cr
            if dg <= 0 or not R.is_unit(c):
                break
        self._stop = F, df, G, dg

    def pair(self):
        """(F_s, G_s), where the chain stopped."""
        F, df, G, dg = self._stop
        R, ops = self.ring, self.ops
        return Poly(R, ops.unpack(F, df + 1)), Poly(R, ops.unpack(G, dg + 1))

    def lift(self, u: Poly, v: Poly):
        """Cofactors u', v' with u'*f + v'*g == r from u*F_s + v*G_s == r.

        u*F_s + v*G_s == v*F_{s-1} + (u - q_{s-1}*v)*G_{s-1}, so each step
        back is U, V <- V, U - q_i*V.  With deg v < deg F_s, the cofactors of
        every pair (F_i, G_i) have degrees below deg G_i and deg F_i: lc(F_s)
        is a unit, so u is 0 or deg u < deg G_s, and each step raises the
        degrees by at most deg F_i - deg G_i.  A cofactor reduction modulo
        F_i or G_i, as _rres does after other steps, therefore never applies.
        """
        R, ops = self.ring, self.ops
        U, lu, V, lv = ops.pack(u.coeffs), len(u.coeffs), ops.pack(v.coeffs), len(v.coeffs)
        for (df, dg, *_), qq in zip(reversed(self.steps), reversed(self.quots)):
            U, lu, (V, lv) = V, lv, ops.cofactor_step(U, lu, V, lv, qq)
            if lv > df or lu > dg:
                raise InvariantError("cofactor degrees exceed the chain's")
        return Poly(R, ops.unpack(U, lu)), Poly(R, ops.unpack(V, lv))


# ---------------------------------------------------------------------------
# inversion of unit polynomials
# ---------------------------------------------------------------------------

def _series_inv(h: Poly, t: int) -> Poly:
    """Inverse of h modulo x^t by Newton iteration; h(0) must be a unit."""
    R = h.ring
    v = Poly(R, [R.inv(h.coeffs[0])])
    two = Poly(R, [R.from_int(2)])
    s = 1
    while s < t:
        s = min(2 * s, t)
        v = (v * (two - v * h.mod_xpow(s))).mod_xpow(s)
    return v


def invert_unit(f: Poly) -> Poly:
    """Exact inverse of a unit of R[x] (degree at most E*deg f)."""
    R = f.ring
    if not is_unit_poly(f):
        raise NotUnitError("not a unit of R[x]")
    if f.degree == 0:
        return Poly(R, [R.inv(f.coeffs[0])])
    v = _series_inv(f, R.E * f.degree + 1)
    if v * f != Poly.one(R):
        raise InvariantError("unit inversion failed to converge")
    return v


def invert_mod(u: Poly, f: Poly) -> Poly:
    """Inverse of the unit u in R[x]/(f); lc(f) invertible, deg result < deg f.

    u has an exact inverse in R[x], and its residue mod f is the inverse
    in R[x]/(f).
    """
    R = u.ring
    if not is_unit_poly(u):
        raise NotUnitError("not a unit of R[x]")
    if f.is_zero() or not R.is_unit(f.lc):
        raise NonInvertibleLeadingCoeffError(
            "invert_mod requires an invertible leading coefficient of f")
    return divrem(invert_unit(u), f)[1]


# ---------------------------------------------------------------------------
# fun_factor: f = u * gtilde with u a unit of R[x] and gtilde monic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunFactorization:
    u: Poly
    gtilde: Poly
    k: int


def fun_factor(f: Poly) -> FunFactorization:
    """Hensel-lifted factorization of a primitive f.

    k is the index of the highest non-nilpotent coefficient, which must be
    invertible (otherwise NeedsSplitError carries the splitting element).
    """
    R = f.ring
    if f.is_zero() or not is_primitive(f):
        raise ValueError("fun_factor requires a primitive polynomial")
    top = top_non_nilpotent(f)
    if top is None:
        raise InvariantError("primitive polynomial without a non-nilpotent coefficient")
    k, a = top
    if not R.is_unit(a):
        raise NeedsSplitError(a)
    d = f.degree
    w = R.inv(a)
    if k == d:
        return FunFactorization(Poly(R, [a]), f if a == R.one else f.scale(w), k)
    # f == u * gtilde with u == a modulo the nilpotent coefficients above k.
    # Lift the factor of smaller degree, monic, and divide the other one out:
    # gtilde itself when k < m, else P = rev(u) / u(0) in rev(f) == P * Q,
    # with Q = rev(gtilde) * u(0).
    m = d - k
    rounds = max(1, math.ceil(math.log2(max(2, R.E)))) + 1
    if k < m:
        h = _lift(f, Poly(R, f.coeffs[:k + 1]).scale(w), Poly(R, [w]), rounds)
        g = _divrem(f, h, R.one)[0]
    else:
        G = reciprocal(f)
        P = _lift(G, Poly(R, (R.zero,) * m + (R.one,)),
                  _series_inv(Poly(R, G.coeffs[m:2 * m]), m), rounds)
        Q = _divrem(G, P, R.one)[0]
        c = Q.coeffs[0]
        g = Poly(R, P.coeffs[::-1]).scale(c)
        h = Poly(R, (Q.coeffs + (R.zero,) * (k + 1 - len(Q.coeffs)))[::-1]).scale(R.inv(c))
    if f != g * h:
        raise InvariantError("Hensel lifting failed to converge")
    if not is_unit_poly(g):
        raise InvariantError("unit factor is not a unit of R[x]")
    return FunFactorization(g, h, k)


def _lift(G: Poly, P: Poly, S: Poly, rounds: int) -> Poly:
    """The monic factor of G that P approximates, after at most `rounds`
    quadratic Hensel steps, from G == P*Q0 and S*Q0 == 1 mod P, both modulo
    an ideal J of nilpotents.

    P of degree 1 is lifted by Newton's iteration on its root, P of degree
    at most _LIST_DEG_MAX over Z/n on coefficient lists, any other P on
    Poly divisions.  A step needs only E = G mod P and Q mod P, where
    Q = G quo P, and both come from G mod P^2 == (Q mod P)*P + E: one
    division of G per step, and every other product and remainder lives
    modulo P.  S == Q^-1 mod P.

    When P == y^m, as in fun_factor's reversed lift, every lifted P' is
    y^m modulo J, so y^(mj) == (y^m - P')^j lies in J^j[y] modulo P'.  As
    J^e == 0 for e = R.E, y^(me) == 0 modulo P': G and G mod y^(me+1) have
    the same factor, and only the caller's quotient G quo P reads all of G.
    The i-th round (i >= 1) lifts P' to precision J^(2^i), for which the
    first m*2^i coefficients of G suffice, so it reads no more of them; it
    may stop on E == 0 only when it reads all of G mod y^(me+1).  Any other
    P, as in fun_factor's k < m branch unless x^k divides the starting
    gtilde, is not y^m modulo J: that lift reads all of G every round.
    """
    R = G.ring
    m = P.degree
    if m == 0:
        return P
    cs = G.coeffs
    if all(R.is_zero(c) for c in P.coeffs[:-1]):
        cs = cs[:m * R.E + 1]
        sizes = [min(len(cs), m << i) for i in range(1, rounds + 1)]
    else:
        sizes = [len(cs)] * rounds
    if m == 1:
        return _lift_root(R, cs, R.neg(P.coeffs[0]), sizes)
    if R.kind == "zmod" and m <= _LIST_DEG_MAX:
        S = list(S.coeffs) + [0] * (m - len(S.coeffs))
        return Poly(R, _lift_lists(R.n, cs, list(P.coeffs), S, sizes))
    two = Poly(R, [R.from_int(2)])
    for t in sizes:
        Qr, E = divrem(divrem(Poly(R, cs[:t]), P * P)[1], P)     # Qr == Q mod P
        if E.is_zero() and t == len(cs):
            break
        S = divrem(S * (two - Qr * S), P)[1]
        P = P + divrem(S * E, P)[1]
    return P


def _lift_root(R, G, r, sizes) -> Poly:
    """y - r for the root r of the coefficients G, by Newton steps
    r <- r - G(r)/G'(r) from a root modulo the nilpotents, where G' is a
    unit; step i reads the first sizes[i] coefficients and may stop only
    when it reads all of them.  One Horner pass per step gives G(r) and
    G'(r)."""
    if R.kind == "zmod":
        # on ints rather than _lift_lists at m = 1: the 200 gap-1 lifts of
        # the seed-7 local-hensel pool (2 rounds) take 12 ms here against
        # 23 ms on lists, best of 7 on a 2-vCPU x86 VM (CPython 3.11)
        n = R.n
        for t in sizes:
            h = dh = 0
            for c in G[t - 1::-1]:
                dh = (dh * r + h) % n
                h = (h * r + c) % n
            if not h and t == len(G):
                break
            if math.gcd(dh, n) != 1:
                raise InvariantError("Newton step at a root where G' is not a unit")
            r = (r - h * pow(dh, -1, n)) % n
    else:
        for t in sizes:
            h = dh = R.zero
            for c in G[t - 1::-1]:
                dh = R.add(R.mul(dh, r), h)
                h = R.add(R.mul(h, r), c)
            if R.is_zero(h) and t == len(G):
                break
            if not R.is_unit(dh):
                raise InvariantError("Newton step at a root where G' is not a unit")
            r = R.sub(r, R.mul(h, R.inv(dh)))
    return Poly(R, [R.neg(r), R.one])


def _lift_lists(n, G, P, S, sizes):
    """_lift's quadratic steps on ascending int lists over Z/n; P is monic
    and S has deg P entries.  Step i reads the first sizes[i] entries of G."""
    for t in sizes:
        Qr, E = _divrem_lists(_divrem_lists(G[:t], _mul_lists(P, P, n), n)[1], P, n)
        if not any(E) and t == len(G):
            break
        T = [-c for c in _mul_lists(Qr, S, n)]
        T[0] += 2
        S = _divrem_lists(_mul_lists(S, T, n), P, n)[1]
        P = [(a + b) % n for a, b in zip(P, _divrem_lists(_mul_lists(S, E, n), P, n)[1])] + [1]
    return P


# ---------------------------------------------------------------------------
# division by primitive polynomials (splitting + CRT when needed)
# ---------------------------------------------------------------------------

def crt_poly(R, R1, p1: Poly, R2, p2: Poly) -> Poly:
    width = max(len(p1.coeffs), len(p2.coeffs))
    c1 = p1.coeffs + (R1.zero,) * (width - len(p1.coeffs))
    c2 = p2.coeffs + (R2.zero,) * (width - len(p2.coeffs))
    return Poly(R, R.crt_many(R1, c1, R2, c2))


def split_crt(R, a, fn):
    """fn over both factor rings of R.split(a), recombined by CRT.

    fn returns a ring element, a Poly, None, or a tuple of these.
    """
    R1, R2 = R.split(a)

    def crt(x1, x2):
        if isinstance(x1, tuple):
            return tuple(map(crt, x1, x2))
        if isinstance(x1, Poly):
            return crt_poly(R, R1, x1, R2, x2)
        return None if x1 is None else R.crt(R1, x1, R2, x2)

    return crt(fn(R1), fn(R2))


def divrem_primitive(f: Poly, g: Poly):
    """(q, r) with f = q*g + r, deg r < deg g, for primitive g != 0."""
    R = f.ring
    if g.is_zero() or not is_primitive(g):
        raise ValueError("divisor must be primitive and nonzero")
    if g.degree == 0:
        return f.scale(R.inv(g.coeffs[0])), Poly.zero(R)
    i, a = top_non_nilpotent(g)
    if R.is_unit(a):
        fac = fun_factor(g)
        q0, r = divrem(f, fac.gtilde)
        return q0 * invert_unit(fac.u), r
    # a is splitting: recurse over the factor rings and recombine
    return split_crt(
        R, a, lambda Rb: divrem_primitive(f.map_ring(Rb), g.map_ring(Rb)))
