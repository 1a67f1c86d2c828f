"""Univariate polynomial arithmetic over the supported rings.

Polynomials are immutable coefficient tuples, ascending by degree, with no
trailing zeros.  The zero polynomial has an empty tuple; its degree is the
sentinel NO_DEGREE = -1, which compares below every true degree (all real
degrees are >= 0) and must not be used arithmetically.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

from .ring import ContextMismatchError, InvariantError, NotUnitError, Zmod

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
        return Poly(R, _ks_mul(R, a, b))

    def scale(self, c):
        R = self.ring
        return Poly(R, [R.mul(x, c) for x in self.coeffs])

    def shift(self, s: int):
        """Multiply by x^s, s >= 0."""
        if s < 0:
            raise ValueError("shift needs a non-negative exponent")
        if self.is_zero() or s == 0:
            return self
        return Poly(self.ring, (self.ring.zero,) * s + self.coeffs)

    def mod_xpow(self, t: int):
        """Remainder mod x^t, t >= 0."""
        if t < 0:
            raise ValueError("mod_xpow needs a non-negative exponent")
        return Poly(self.ring, self.coeffs[:t])

    def eval(self, a):
        R = self.ring
        acc = R.zero
        for c in reversed(self.coeffs):
            acc = R.add(R.mul(acc, a), c)
        return acc

    def map_ring(self, ring2):
        if self.ring.kind == ring2.kind == "zmod":
            n = ring2.n
            return Poly(ring2, [c % n for c in self.coeffs])
        return Poly(ring2, [ring2.coerce(c) for c in self.coeffs])

    def format(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(self.ring.format_elem(c) for c in self.coeffs)


def _ks_mul(R, a, b):
    """Coefficients of a*b by Kronecker substitution: pack each operand into
    one int (_pack), multiply once, unpack and reduce each slot."""
    w = _product_width(R, min(len(a), len(b)))
    A = _pack(R, a, w)
    return _unpack_product(R, A * A if a is b else A * _pack(R, b, w), len(a) + len(b) - 1, w)


def _product_width(R, terms):
    """Slot bytes for a sum of at most `terms` products of two packed
    coefficients.  A slot then sums at most terms * k products of two entries
    below q, and over a Galois ring one _fold multiplies that bound by at
    most 1 + (k-1)(q-1)."""
    k, q = (R.k, R.pe) if R.kind == "galois" else (1, R.n)
    return (terms * k * (q - 1) ** 2 * (1 + (k - 1) * (q - 1))).bit_length() // 8 + 1


def _unpack_product(R, X, l, w):
    """The first l coefficients of X, a sum of products of _pack's ints with
    w = _product_width(...) bytes per slot: each block is reduced mod lam
    (one _fold), then each slot mod q."""
    if R.kind == "galois" and R.k > 1:
        X = _fold(X, _fold_rows(R, w), _firsts(R.k, w, l), 8 * w)
    return _unpack(R, X, l, w)


# Shortest Z/n list packed as 8-byte words: pack + unpack took x1.27/0.94/0.79
# the per-slot time at 16/24/32 coefficients, w = 5, x1.23/1.06/1.02, w = 7
# (2-vCPU x86 VM, CPython 3.11, best of 9 repeats).
_WORD_MIN = 24


def _restride(buf, l, v, u):
    """buf's l slots of v bytes as l slots of u bytes, low bytes kept."""
    out = bytearray(l * u)
    for b in range(min(u, v)):
        out[b::u] = buf[b::v]
    return out


def _pack(R, cs, w):
    """cs in one int of w-byte slots, ascending: a slot per coefficient over
    Z/n; over a Galois ring a block of 2k-1 slots, t-coefficient j in slot j,
    slots k..2k-2 zero (room for a product before reduction mod lam).  Z/n
    lists of w <= 8 and _WORD_MIN or more go as 8-byte words cut to w bytes
    (_restride); a Z/n coefficient outside [0, 2^(8w)) raises InvariantError."""
    if R.kind == "zmod":
        l = len(cs)
        try:
            if l < _WORD_MIN or w > 8:
                return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in cs]), "little")
            buf = struct.pack(f"<{l}Q", *cs)
            if not any(buf[b::8] != bytes(l) for b in range(w, 8)):    # the bytes cut off
                return int.from_bytes(_restride(buf, l, 8, w) if w < 8 else buf, "little")
        except (OverflowError, struct.error):
            pass
        raise InvariantError(f"a coefficient does not fit a {w}-byte slot")
    return int.from_bytes(bytes(w * (R.k - 1)).join(
        [b"".join([c.to_bytes(w, "little") for c in x]) for x in cs]), "little")


def _unpack(R, X, l, w):
    """The first l coefficients of _pack's layout in X, every slot reduced;
    over Z/n, _pack's word path in reverse on the lengths it packs."""
    if R.kind == "zmod":
        n, buf = R.n, X.to_bytes(l * w, "little")
        if l < _WORD_MIN or w > 8:
            return [int.from_bytes(buf[i:i + w], "little") % n for i in range(0, l * w, w)]
        return [v % n for v in struct.unpack(f"<{l}Q", _restride(buf, l, w, 8) if w < 8 else buf)]
    q, k, s = R.pe, R.k, (2 * R.k - 1) * w
    buf = X.to_bytes(l * s, "little")
    vals = [int.from_bytes(buf[i:i + w], "little") % q
            for j in range(0, l * s, s) for i in range(j, j + k * w, w)]
    return list(zip(*[iter(vals)] * k))


@lru_cache(maxsize=64)
def _fold_rows(R, w):
    """For j = k..2k-2 over the Galois ring R (k >= 2): t^j mod (lam, p^e),
    entries in [0, p^e), in k w-byte slots, minus t^j in slot j."""
    q, k, lam = R.pe, R.k, R.lam
    row, rows = [-c % q for c in lam[:k]], []   # t^k
    for j in range(k, 2 * k - 1):
        rows.append(_pack(Zmod(q), row, w) - (1 << (8 * w * j)))
        row = [-row[-1] * lam[0] % q] + [(row[i - 1] - row[-1] * lam[i]) % q  # row * t
                                         for i in range(1, k)]
    return rows


def _firsts(k, w, blocks):
    """The mask of slot 0 in each of `blocks` blocks of 2k-1 w-byte slots."""
    return int.from_bytes((b"\xff" * w + bytes((2 * k - 2) * w)) * blocks, "little")


def _fold(X, rows, firsts, b):
    """X reduced mod lam in every block at once (b-bit slots): slot j >= k of
    each block moves onto slots 0..k-1 times t^j mod lam.  A slot gains at
    most k-1 products of a slot and a row entry; as the row entries are
    non-negative and slot j loses exactly its value, no slot borrows."""
    for j, row in enumerate(rows, len(rows) + 1):
        X += ((X >> (b * j)) & firsts) * row
    return X


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


def primitive_part(f: Poly):
    """(c, h) with f == c*h, c the content of f and h primitive; (1, f) when
    f is primitive.  NeedsSplitError carries the content of f or of h when
    it is a splitting element."""
    R = f.ring
    c = content(f)
    if R.is_unit(c):
        return R.one, f
    if R.is_splitting(c):
        raise NeedsSplitError(c)
    h = divide_by_scalar(f, c)
    ch = content(h)
    if R.is_splitting(ch):
        raise NeedsSplitError(ch)
    if not R.is_unit(ch):
        raise InvariantError("content of the primitive part must be a unit")
    return c, h


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


def _mul_lists(a, b, n):
    """Schoolbook product of ascending int lists, one reduction mod n per
    coefficient."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return [z % n for z in out]


def _divrem_lists(a, p, n):
    """(q, r) with a == q*p + r over Z/n for ascending int lists, p monic; r
    has deg p entries, all reduced mod n."""
    m = len(p) - 1
    a = list(a) + [0] * (m - len(a))
    q = [0] * (len(a) - m)
    low = p[:-1]
    for i in range(len(a) - 1, m - 1, -1):
        c = a[i] % n
        if c:
            q[i - m] = c
            for j, y in enumerate(low, i - m):
                a[j] -= c * y
    return q, [x % n for x in a[:m]]


def divrem(f: Poly, g: Poly):
    """(q, r) with f = q*g + r, deg r < deg g; needs lc(g) invertible.

    A constant g is a scale by winv = lc(g)^-1; over Z/n a divisor of
    degree up to _LIST_DEG_MAX divides on int lists; any other divisor, over
    Z/n or a Galois ring, on packed ints (_Packed)."""
    R = f.ring
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if not R.is_unit(g.lc):
        raise NonInvertibleLeadingCoeffError(
            "divrem requires an invertible leading coefficient")
    winv, dg = g.lc if g.lc == R.one else R.inv(g.lc), g.degree
    if f.degree < dg:
        return Poly(R, []), f
    if dg == 0:
        return f.scale(winv), Poly(R, [])
    if R.kind == "zmod" and dg <= _LIST_DEG_MAX:
        # f == q*(g*winv) + r, so f == (q*winv)*g + r
        n = R.n
        p = g.coeffs if winv == 1 else [c * winv % n for c in g.coeffs]
        q, r = _divrem_lists(f.coeffs, p, n)
        if winv != 1:
            q = [c * winv % n for c in q]
        return Poly(R, q), Poly(R, r)
    P = _Packed(R, f.degree + 2)
    q, _, X, dr, _ = P.divrem(P.pack(f.coeffs), f.degree, P.pack(g.coeffs), dg, winv)
    return Poly(R, q), Poly(R, P.unpack(X, dr + 1))


# ---------------------------------------------------------------------------
# Euclidean chains: divisions, and factorisations at nilpotent lc
# ---------------------------------------------------------------------------

def _slot_bytes(n: int) -> int:
    """Bytes per packed slot over Z/n: room for 2*bits(n) + 10 bits."""
    return (2 * n.bit_length() + 17) // 8


@lru_cache(maxsize=64)
def _layout(n: int, k: int):
    """(w, a, h, m, K) of _Packed modulo n, t-degree below k (k == 1 over
    Z/n); the extra bytes for k >= 2 keep K >= 2."""
    t = n.bit_length()
    w = _slot_bytes(n) + (k.bit_length() + 2) // 4
    L = t - 1 + 4 * w
    big = (n - 1) * (3 * n - 1)     # a coefficient times a reduced slot
    # a slot of X + Q*Y sums X's, at most big, and K*k such products
    K = (((1 << L) - 1) // big - 1) // k
    if K < 2 or not (K * k + 1) * big < 1 << L <= 1 << 8 * w:
        raise InvariantError(f"{w}-byte packed slots are too narrow for Z/{n}")
    return w, t - 1, 4 * w, (1 << L) // n, K


class _Packed:
    """Polynomials over Z/n (n >= 2) or GR(p^e, k) (n = p^e) packed into one
    int in _pack's layout of w-byte slots, every slot value below 3n.

    The one update is addmul, X + Q*Y with Q packing reduced coefficients; a
    caller that subtracts packs the negated ones, so no slot goes negative or
    borrows.  K quotient coefficients at a time, a slot of Q*Y sums at most
    K*k products of a t-coefficient below n and a slot below 3n, and K is the
    largest count with X + K*k*(n-1)(3n-1) < 2^L, L = bits(n) - 1 + 4w, for
    X's slots up to (n-1)(3n-1).  The update then reduces every slot at once
    with one Barrett step: with a = bits(n) - 1, h = 4w and m = 2^L // n,
    the estimate ((x >> a) * m) >> h is at most 2 below x // n, and both of
    its factors are below 2^h, so no product spills into the next slot.  For
    k >= 2 one _fold then reduces every block mod lam, leaving slots below
    3n + (k-1)(3n-1)(n-1) < 2^L, and a second Barrett step follows.  The
    masks cover `slots` blocks and grow on demand, so each chain or division
    owns its _Packed.  divrem and lowdiv divide by one quotient solve, solve.
    """

    def __init__(self, R, slots):
        self.R, self.zero, self.one, self.galois = R, R.zero, R.one, R.kind == "galois"
        self.n, self.k = (R.pe, R.k) if self.galois else (R.n, 1)
        self.w, self.a, self.h, self.m, self.K = _layout(self.n, self.k)
        self.b = 8 * self.w
        self.bb = self.b * (2 * self.k - 1)         # bits per block
        self.slot_mask = (1 << self.b) - 1
        self.coeff_mask = (1 << (self.b * self.k)) - 1
        self.q_mask = (1 << (self.bb * self.K)) - 1
        # quotient coefficients per division step: over a Galois ring each
        # costs up to J scalar products, so at most 3 (on fun_factor at
        # d = 100, m = 37 over GR(2,8,3), 2, 3 and 8 all ran 25-27 ms)
        self.J = min(self.K, 3) if self.galois else self.K
        if self.k > 1:
            self.rows = _fold_rows(R, self.w)
        self._grow(slots)

    def _grow(self, slots):
        self.slots = slots
        rep = int.from_bytes((b"\x01" + bytes(self.w - 1)) * (slots * (2 * self.k - 1)), "little")
        self.mask = rep * ((1 << self.h) - 1)
        self.ones = (1 << (self.bb * slots)) - 1
        if self.k > 1:
            self.firsts = _firsts(self.k, self.w, slots)

    def pack(self, cs):
        return _pack(self.R, cs, self.w)

    def negpack(self, cs):
        """pack of the negated coefficients cs, over Z/n by shifts."""
        b, n = self.b, self.n
        if self.galois:
            return self.pack([[-x % n for x in c] for c in cs])
        Q = 0
        for c in reversed(cs):
            Q = (Q << b) | (-c % n)
        return Q

    def unpack(self, X, l):
        return _unpack(self.R, X, l, self.w)

    def _coeff(self, X, i):
        """The reduced coefficient i of X."""
        x = (X >> (self.bb * i)) & self.coeff_mask
        if not self.galois:
            return x % self.n
        sm, n = self.slot_mask, self.n
        return tuple([((x >> s) & sm) % n for s in range(0, self.b * self.k, self.b)])

    def addmul(self, X, l, Q, Y, shift=0):
        """X + (Q << shift)*Y on l blocks, reduced; Q packs reduced
        coefficients, and each K of them take one update."""
        if l > self.slots:
            self._grow(2 * l)
        mask, a, h, m, n = self.mask, self.a, self.h, self.m, self.n
        for i in range(0, Q.bit_length() or 1, self.bb * self.K):
            X += (((Q >> i) & self.q_mask) << (i + shift)) * Y
            X -= (((((X >> a) & mask) * m) >> h) & mask) * n
            if self.k > 1:
                X = _fold(X, self.rows, self.firsts, self.b)
                X -= (((((X >> a) & mask) * m) >> h) & mask) * n
        return X

    def solve(self, ft, gt, ci):
        """The quotient coefficients c_i = (ft_i - sum_{t>=1} c_(i-t)*gt_t)*ci
        of one division step, written over ft and returned: ft holds the
        dividend's coefficients in division order (from the top in divrem,
        from the bottom in lowdiv), gt the divisor's from its pivot gt_0 on
        (all, or at least len(ft)), and ci == gt_0^-1.  Over Z/n both may hold
        unreduced slots; each c_i is reduced when it is solved."""
        j, n = len(ft), self.n
        if self.galois:
            mul, sub, one = self.R.mul, self.R.sub, ci == self.one
            for i in range(j):
                c = ft[i] = ft[i] if one else mul(ft[i], ci)
                for t, y in enumerate(gt[1:j - i], i + 1):
                    ft[t] = sub(ft[t], mul(c, y))
        elif len(gt) == 2:
            # one term per coefficient, as at the usual gap-1 break: the 635
            # gap-1 breaks of the local-hensel seed-1 pool took 114 against
            # 130 us each with the general loop (one run each, 2-vCPU x86 VM)
            c, y = 0, gt[1]
            for i in range(j):
                c = ft[i] = (ft[i] - c * y) * ci % n
        else:
            for i in range(j):
                c = ft[i] = ft[i] * ci % n
                for t, y in enumerate(gt[1:j - i], i + 1):
                    ft[t] -= c * y
        return ft

    def divrem(self, F, df, G, dg, ci):
        """(q, Nq, R, deg R, lc R) with F == q*G + R and Nq packing -q;
        ci == lc(G)^-1, dg >= 1.

        Quotient coefficients come from solve on the top coefficients of F
        and G, J per step; every step updates all of F by one addmul of the
        negated ones."""
        b, sm, bb, J = self.b, self.slot_mask, self.bb, self.J
        q, Nq = [], 0
        gt = [self._coeff(G, dg - i) for i in range(min(J, df - dg + 1, dg + 1))]
        while df >= dg:
            # the top j quotient coefficients, from the top j coefficients of F
            j = min(J, df - dg + 1)
            if self.galois:
                ft = [self._coeff(F, df - i) for i in range(j)]
            else:   # on ints, reduced only when a coefficient is read
                ft = [(F >> (b * (df - i))) & sm for i in range(j)]
            q += self.solve(ft, gt, ci)
            N, lo = self.negpack(q[:-j - 1:-1]), bb * (df - dg - j + 1)
            F, Nq, df = self.addmul(F, df + 1, N, G, lo), Nq | N << lo, df - j
            F &= self.ones >> (bb * (self.slots - df - 1))
        F, l = self.trim(F, df + 1)
        return q[::-1], Nq, F, l - 1, self._coeff(F, l - 1) if l else self.zero

    def lowdiv(self, X, D, ci, nq):
        """(Q, X') with X == Q*D + x^nq * X' and Q packing nq coefficients: X,
        of at most nq + dd blocks, divided from the bottom by D, a list of
        dd + 1 reduced coefficients with ci == D[0]^-1.  J quotient
        coefficients per step, solved by solve from the step's own bottom j
        slots of X; a step adds them times -D, packed once, to the j + dd
        blocks it changes, which it reads from and writes back to X's bytes,
        so a division costs O(deg X) big-int work whatever J is."""
        b, sm, J, s, dd = self.b, self.slot_mask, self.J, self.bb // 8, len(D) - 1
        buf = bytearray(X.to_bytes((nq + dd) * s, "little"))
        N, q = self.negpack(D), []
        for lo in range(0, nq, J):
            j = min(J, nq - lo)
            Y = int.from_bytes(buf[lo * s:(lo + j + dd) * s], "little")
            if self.galois:
                ft = [self._coeff(Y, i) for i in range(j)]
            else:   # on ints, reduced only when a coefficient is read
                ft = [(Y >> (b * i)) & sm for i in range(j)]
            ft = self.solve(ft, D, ci)
            Y = self.addmul(Y, j + dd, self.pack(ft), N)
            buf[lo * s:(lo + j + dd) * s] = Y.to_bytes((j + dd) * s, "little")
            q += ft
        return self.pack(q), int.from_bytes(buf[nq * s:], "little")

    def unitdiv(self, X, l, unit, j):
        """(X', l') with X' == X*unit^-1 of l' coefficients, X of at most l.
        The unit's higher coefficients generate an ideal of nil index j
        (_nil_index), so X' has at most l + (j - 1)*deg unit coefficients: a
        division from the bottom to that many is exact, and checked to be."""
        m, lq = unit.degree, l + (j - 1) * unit.degree
        Q, X = self.lowdiv(X, unit.coeffs, self.R.inv(unit.coeffs[0]), lq)
        if any(c != self.zero for c in self.top(X, m - 1, m)):
            raise InvariantError("unit inversion failed to converge")
        return self.trim(Q, lq)

    def top(self, X, dx, l):
        """The coefficients dx, dx - 1, ... of X, l of them or down to 0."""
        s = max(0, dx + 1 - l)
        return self.unpack(X >> (self.bb * s), dx + 1 - s)[::-1]

    def trim(self, X, l):
        """(X', l') for the first l coefficients of X: l' without the zero top
        ones, X' without the slots above them."""
        while l and self._coeff(X, l - 1) == self.zero:
            l -= 1
        return X & ((1 << (self.bb * l)) - 1), l

    def top_non_nilpotent(self, X, dx):
        """(i, X_i) for the highest non-nilpotent coefficient, (-1, zero) if none."""
        for i in range(dx, -1, -1):
            c = self._coeff(X, i)
            if not self.R.is_nilpotent(c):
                return i, c
        return -1, self.zero

    def factor(self, G, dg, k, window=False):
        """(u, j, gtilde) with G == u*gtilde for G of degree dg whose highest
        non-nilpotent coefficient G_k, k < dg, is a unit: u a unit of R[x] of
        degree m = dg - k, gtilde monic of degree k (packed), and j the index
        of the ideal J of G's top m coefficients (_nil_index), so u^-1 has at
        most (j - 1)*m + 1 coefficients.  With window, gtilde is that of G's
        top m*j + 1 coefficients, which have the same u.

        rev(G) == P*Q with P = rev(u)/u(0) monic of degree m and P == y^m
        modulo J; u's top coefficient u(0)*P(0) is nonzero, as P(0)*Q(0) is
        G's lc.  So y^(mj) == (y^m - P)^j == 0 modulo P: _lift finds P from
        rev(G) mod y^(mj).  G divided by rev(P) from the bottom is then
        u(0)*gtilde, and a zero remainder with u(0) a unit and P nilpotent
        below its top certifies G == u*gtilde.
        """
        R, m = self.R, dg - k
        j = _nil_index(R, [self._coeff(G, i) for i in range(k + 1, dg + 1)])
        W = min(dg + 1, m * j + 1)
        if window:
            G, dg, k = G >> (self.bb * (dg + 1 - W)), W - 1, k - (dg + 1 - W)
        P = _lift(R, self.top(G, dg, W), m, j)
        Q, X = self.lowdiv(G, P[::-1], R.one, k + 1)
        if any(c != self.zero for c in self.top(X, m - 1, m)):
            raise InvariantError("Hensel lifting failed to converge")
        u0 = self._coeff(Q, k)
        if not R.is_unit(u0) or not all(map(R.is_nilpotent, P[:-1])):
            raise InvariantError("unit factor is not a unit of R[x]")
        return (Poly(R, [u0] + [R.mul(u0, c) for c in reversed(P[:-1])]), j,
                self.addmul(0, k + 1, self.pack([R.inv(u0)]), Q))


class UnitChain:
    """The Euclidean remainder sequence of f, g (deg f >= deg g >= 1, g
    primitive), with each divisor of nilpotent leading coefficient replaced
    by its monic factor.

    F_0, G_0 = f, g.  A divisor G_i with a unit leading coefficient divides
    F_i == q_i*G_i + G_{i+1}, and F_{i+1} = G_i; no remainder is made monic.
    A divisor with a nilpotent leading coefficient whose highest
    non-nilpotent coefficient is a unit is factored in place from its top
    slots (_Packed.factor), G_i == u*gtilde with u a unit of R[x] and gtilde
    monic, and gtilde, which generates the same ideal with F_i, divides F_i
    next.  The chain stops at the first G_s that is zero or constant, or
    whose highest non-nilpotent coefficient is missing or not a unit: the
    caller's next pass splits the ring or reduces the content.  Only the
    first divisor raises, NeedsSplitError(x) for a splitting x or ValueError,
    and it is checked on g before anything is packed, so every chain that
    packs takes a step.  Divisions, factorisations and lift run on packed
    ints (_Packed), over Z/n and Galois rings alike, and nothing is unpacked
    before pair().

    Over Z/n a division by a unit lc whose quotient has at most min(K, 5)
    coefficients runs fused in the loop; K, the quotient coefficients one
    packed update takes (4 for 510510 and 2^31 - 1), keeps that update from
    overflowing a slot.  q_i comes from the top slots of F_i and G_i with one
    lc inverse (in closed form for two coefficients, the usual step, else by
    _Packed.solve), and
    G_{i+1} = F_i + (-q_i)*G_i is one update with one Barrett step inline,
    cut down to its top nonzero coefficient.  Over a Galois ring the usual
    step alone runs fused, its update one addmul.  Longer quotients go
    through _Packed.divrem, and nilpotent leading coefficients through
    factor.

    steps holds, in order, (deg F_i, deg G_i, deg G_{i+1}, lc G_i, -q_i) per
    division and (F_i, deg F_i, G_i, deg G_i, u, j) per factorisation, F_i,
    G_i and -q_i packed and j as in _Packed.factor.  res multiplies in
    lc G_i^(deg F_i - deg G_{i+1}) and a sign per division; res_ideal skips
    both, as lc G_i is a unit.
    """

    def __init__(self, f: Poly, g: Poly):
        R = self.ring = f.ring
        if not R.is_unit(g.lc):     # the first divisor, on g before packing
            _, x = top_non_nilpotent(g) or (-1, R.zero)
            if not R.is_unit(x):
                if R.is_splitting(x):
                    raise NeedsSplitError(x)
                raise ValueError("the first divisor must be primitive")
        ops = self.ops = _Packed(R, f.degree + 2)
        F, df, G, dg, c = ops.pack(f.coeffs), f.degree, ops.pack(g.coeffs), g.degree, g.lc
        steps = self.steps = []
        n, b, sm, a, h, m, mask = ops.n, ops.b, ops.slot_mask, ops.a, ops.h, ops.m, ops.mask
        ones, bb, zero, zmod = ops.ones, ops.bb, R.zero, not ops.galois
        top, cap = bb * ops.slots, min(ops.K, 5)
        while dg > 0:
            try:    # pow alone tests c: a gcd test first ran zmod-euclid x1.027 slower
                ci = zmod and df - dg < cap and pow(c, -1, n)
            except ValueError:      # c is a zero divisor
                ci = 0
            if ci:
                if df == dg + 1:
                    T = F >> (b * (df - 1))
                    q1 = (T >> b) * ci % n
                    q0 = ((T & sm) - q1 * ((G >> (b * (dg - 1))) & sm)) * ci % n
                    Nq = (-q0 % n) | ((-q1 % n) << b)
                else:   # the j quotient coefficients from the top j slots of F and of G
                    j, s = df - dg + 1, min(df - dg + 1, dg + 1)
                    T = F >> (b * dg)
                    ft = [(T >> (b * (j - 1 - i))) & sm for i in range(j)]
                    T = G >> (b * (dg + 1 - s))
                    gt = [(T >> (b * (s - 1 - i))) & sm for i in range(s)]
                    Nq = 0  # negpack's loop inlined: as a call it took a Z/2 chain x1.04
                    for q in ops.solve(ft, gt, ci):
                        Nq = (Nq << b) | (-q % n)
                # addmul and divrem's scan for the next nonzero slot, inlined:
                # as two calls per step they took the small-modulus pool x1.11
                # and zmod-euclid x1.08 (seed 1, one process, interleaved)
                X = F + Nq * G
                X -= (((((X >> a) & mask) * m) >> h) & mask) * n
                dr = dg - 1
                while dr >= 0 and not (cr := ((X >> (b * dr)) & sm) % n):
                    dr -= 1
                steps.append((df, dg, dr, c, Nq))
                F, df, G, dg, c = G, dg, X & (ones >> (top - b * (dr + 1))), dr, cr
                continue
            if not R.is_unit(c):
                k, x = ops.top_non_nilpotent(G, dg)
                if not R.is_unit(x):
                    break   # not the first divisor, which was checked above
                u, j, Gt = ops.factor(G, dg, k)
                steps.append((F, df, G, dg, u, j))
                G, dg, c = Gt, k, R.one
                continue
            if df == dg + 1:    # over a Galois ring: Z/n took the branch above
                ci = R.inv(c)
                q1 = R.mul(ops._coeff(F, df), ci)
                q0 = R.mul(R.sub(ops._coeff(F, df - 1), R.mul(q1, ops._coeff(G, dg - 1))), ci)
                Nq = ops.negpack([q0, q1])
                X = ops.addmul(F, df + 1, Nq, G)
                dr = dg - 1
                while dr >= 0 and (cr := ops._coeff(X, dr)) == zero:
                    dr -= 1
                steps.append((df, dg, dr, c, Nq))
                F, df, G, dg, c = G, dg, X & (ones >> (top - bb * (dr + 1))), dr, cr
                continue
            _, Nq, X, dr, cr = ops.divrem(F, df, G, dg, R.inv(c))
            steps.append((df, dg, dr, c, Nq))
            F, df, G, dg, c = G, dg, X, dr, cr
        self._stop = F, df, G, dg

    def pair(self):
        """(F_s, G_s), where the chain stopped."""
        F, df, G, dg = self._stop
        R, ops = self.ring, self.ops
        return Poly(R, ops.unpack(F, df + 1)), Poly(R, ops.unpack(G, dg + 1))

    def lift(self, u: Poly, v: Poly):
        """Cofactors u', v' with u'*f + v'*g == r from u*F_s + v*G_s == r,
        where r is a constant or divides F_s.

        (u, v) is first reduced (reduce_cofactors), so deg v < deg F_s.  Back
        through a division, u*F_{i+1} + v*G_{i+1} == v*F_i + (u - q_i*v)*G_i,
        so U, V <- V, U + (-q_i)*V, -q_i packed in steps; over Z/n that is
        one update inline, as in the fused step, while -q_i fits one.  Back
        through a factorisation G_i == unit*gtilde, V becomes V*unit^-1
        (unitdiv) and then, when lc(F_i) is a unit, V mod F_i, adding the
        quotient times G_i to U, as reduce_cofactors does.  As lc(F_i) is a
        unit for i > 0 and deg r < deg F_i + deg G_i, deg v < deg F_i gives
        deg u < deg G_i: no cofactor outgrows its pair.
        """
        R, ops = self.ring, self.ops
        n, a, h, m, zmod = ops.n, ops.a, ops.h, ops.m, not ops.galois
        u, v = reduce_cofactors(*self.pair(), u, v)
        U, lu, V, lv = ops.pack(u.coeffs), len(u.coeffs), ops.pack(v.coeffs), len(v.coeffs)
        for step in reversed(self.steps):
            if len(step) == 6:
                F, df, G, dg, unit, j = step
                (V, lv), c = ops.unitdiv(V, lv, unit, j), ops._coeff(F, df)
                if lv > df and R.is_unit(c):
                    q, _, V, dr, _ = ops.divrem(V, lv - 1, F, df, R.inv(c))
                    l, lv = max(lu, len(q) + dg), dr + 1
                    U, lu = ops.trim(ops.addmul(U, l, ops.pack(q), G), l)
                continue
            df, dg, _, _, Nq = step
            l = max(lu, lv + df - dg)
            if zmod and df - dg < ops.K and l <= ops.slots:
                # addmul's one update, inlined as in the chain's fused step
                X, mask = U + Nq * V, ops.mask
                X -= (((((X >> a) & mask) * m) >> h) & mask) * n
            else:
                X = ops.addmul(U, l, Nq, V)
            U, lu, V, lv = V, lv, X, l
            if lv > df or lu > dg:
                raise InvariantError("cofactor degrees exceed the chain's")
        return Poly(R, ops.unpack(U, lu)), Poly(R, ops.unpack(V, lv))


def reduce_cofactors(f: Poly, g: Poly, u: Poly, v: Poly):
    """(u', v') with u'*f + v'*g == u*f + v*g: v reduced modulo f when lc(f)
    is a unit, else u modulo g when lc(g) is."""
    R = f.ring
    if f.degree >= 1 and R.is_unit(f.lc) and v.degree >= f.degree:
        q, v = divrem(v, f)
        u = u + q * g
    elif g.degree >= 1 and R.is_unit(g.lc) and u.degree >= g.degree:
        q, u = divrem(u, g)
        v = v + q * f
    return u, v


# ---------------------------------------------------------------------------
# inversion of unit polynomials
# ---------------------------------------------------------------------------

def invert_unit(f: Poly) -> Poly:
    """Exact inverse of a unit of R[x], of degree at most (j - 1)*deg f for
    j the nil index of f's higher coefficients (_nil_index): 1 divided by f
    from the bottom (_Packed.unitdiv), whose zero remainder certifies it."""
    R = f.ring
    if not is_unit_poly(f):
        raise NotUnitError("not a unit of R[x]")
    if f.degree == 0:
        return Poly(R, [R.inv(f.coeffs[0])])
    ops = _Packed(R, f.degree + 2)
    return Poly(R, ops.unpack(*ops.unitdiv(ops.pack([R.one]), 1, f, _nil_index(R, f.coeffs[1:]))))


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
    """Hensel-lifted factorization of a primitive f (_Packed.factor).

    k is the index of the highest non-nilpotent coefficient, which must be
    invertible (otherwise NeedsSplitError carries the splitting element).
    """
    R = f.ring
    if f.is_zero() or not is_primitive(f):
        raise ValueError("fun_factor requires a primitive polynomial")
    k, a = top_non_nilpotent(f)
    if not R.is_unit(a):
        raise NeedsSplitError(a)
    if k == f.degree:
        return FunFactorization(Poly(R, [a]), f if a == R.one else f.scale(R.inv(a)), k)
    ops = _Packed(R, f.degree + 2)
    u, _, g = ops.factor(ops.pack(f.coeffs), f.degree, k)
    return FunFactorization(u, Poly(R, ops.unpack(g, k + 1)), k)


def _nil_index(R, cs):
    """The least j with J^j == 0 for the ideal J of the nilpotents cs (not
    all zero).

    Over Z/n, J is generated by g = gcd(n, cs), so J^j == (g^j) and j is the
    least exponent with g^j == 0 mod n, at most R.E.  As g^j == 0 holds for
    every j from that one on, a binary search finds it in O(log E) pow
    calls.  Over GR(p^e, k), a chain ring, J == (p^v) for the least
    valuation v in cs, so J^j == (p^(vj)) and j == ceil(e / v)."""
    if R.kind == "galois":
        return -(-R.e // min(map(R.val, cs)))
    g, lo, hi = math.gcd(R.n, *cs), 1, R.E
    while lo < hi:
        mid = (lo + hi) // 2
        if pow(g, mid, R.n):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _lift(R, G, m, j):
    """The monic factor P of degree m, as a coefficient list, of G, the
    coefficients of a polynomial in y with G == y^m * Q0 modulo an ideal J
    of nilpotents and Q0(0) a unit, at precision J^j: ceil(log2 j) quadratic
    Hensel steps from P = y^m, the i-th of R to precision J^ceil(j/2^(R-i)).

    P of degree 1 is lifted by Newton's iteration on its root, P of degree
    at most _LIST_DEG_MAX over Z/n on coefficient lists, any other P on
    Poly divisions, which run packed over both ring kinds.  A step needs
    only E = G mod P and Qr = Q mod P, where Q = G quo P, and both come from
    G mod P^2 == Qr*P + E: one division of G per step, and every other
    product and remainder lives modulo P.  Every lifted P is y^m modulo J,
    so y^(ms) lies in J^s modulo P, and a step to precision J^p reads only
    the first m*p coefficients of G.  A step from
    precision J^a to J^p, p <= 2a, is P <- P + (S*E mod P) with S == Q^-1
    mod P at precision J^a: S starts as Q0^-1 mod y^m, 1 divided by Q0 from
    the bottom (_Packed.lowdiv), precise to J, and every later step first
    doubles its precision by S <- S*(2 - Qr*S) mod P.
    """
    rounds = (j - 1).bit_length()
    sizes = [min(len(G), m * -(-j >> (rounds - i))) for i in range(1, rounds + 1)]
    if m == 1:
        return _lift_root(R, G, R.zero, sizes)
    ops = _Packed(R, 2 * m)
    S = ops.unpack(ops.lowdiv(ops.pack([R.one]), G[m:2 * m], R.inv(G[m]), m)[0], m)
    if R.kind == "zmod" and m <= _LIST_DEG_MAX:
        return _lift_lists(R.n, G, [0] * m + [1], S, sizes)
    S, P, two = Poly(R, S), Poly(R, [R.zero] * m + [R.one]), Poly(R, [R.from_int(2)])
    for i, t in enumerate(sizes):
        Qr, E = divrem(divrem(Poly(R, G[:t]), P * P)[1], P)
        if i:
            S = divrem(S * (two - Qr * S), P)[1]
        P = P + divrem(S * E, P)[1]
    return list(P.coeffs)


def _lift_root(R, G, r, sizes):
    """[-r, 1] for the root r of the coefficients G, by Newton steps
    r <- r - G(r)/G'(r) from a root modulo the nilpotents, where G' is a
    unit; step i reads the first sizes[i] coefficients.  One Horner pass
    per step gives G(r) and G'(r)."""
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
            if math.gcd(dh, n) != 1:
                raise InvariantError("Newton step at a root where G' is not a unit")
            r = (r - h * pow(dh, -1, n)) % n
    else:
        for t in sizes:
            h = dh = R.zero
            for c in G[t - 1::-1]:
                dh = R.add(R.mul(dh, r), h)
                h = R.add(R.mul(h, r), c)
            if not R.is_unit(dh):
                raise InvariantError("Newton step at a root where G' is not a unit")
            r = R.sub(r, R.mul(h, R.inv(dh)))
    return [R.neg(r), R.one]


def _lift_lists(n, G, P, S, sizes):
    """_lift's steps on ascending int lists over Z/n; P is monic and S has
    deg P entries.  Step i reads the first sizes[i] entries of G."""
    for i, t in enumerate(sizes):
        Qr, E = _divrem_lists(_divrem_lists(G[:t], _mul_lists(P, P, n), n)[1], P, n)
        if i:
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
    try:
        fac = fun_factor(g)
    except NeedsSplitError as e:
        return split_crt(
            R, e.element, lambda Rb: divrem_primitive(f.map_ring(Rb), g.map_ring(Rb)))
    q0, r = divrem(f, fac.gtilde)
    return q0 * invert_unit(fac.u), r
