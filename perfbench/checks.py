"""Independent arithmetic and output checks for the benchmark.

Nothing here calls ringres arithmetic.  Products use Kronecker substitution
(pack the coefficients into one Python int, multiply once, unpack), ring
values come from plain-int evaluation and a fraction-free integer
determinant, so a defect in the code under test cannot hide itself in its
own check.

Zmod elements are ints in [0, n).  Galois-ring elements are tuples of k ints
in [0, p^e), taken modulo a monic lam(t) of degree k, as ringres stores them.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------

def _pack(vals, width):
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in vals), "little")


def _unpack(x, width, count):
    raw = x.to_bytes(width * count, "little")
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(count)]


def _width(bound):
    return (bound.bit_length() + 8) // 8


# ---------------------------------------------------------------------------
# Z/n
# ---------------------------------------------------------------------------

def zmul(a, b, n):
    """Product of two coefficient lists (ascending) over Z/n."""
    if not a or not b:
        return []
    w = _width(min(len(a), len(b)) * (n - 1) ** 2)
    out = _unpack(_pack(a, w) * _pack(b, w), w, len(a) + len(b) - 1)
    return [c % n for c in out]


def zadd(a, b, n):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % n
    return out


def ztrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def zfrom_roots(roots, n):
    """Coefficients of prod (x - r) over Z/n: blocks of 32 linear factors
    multiplied in directly, then a product tree over the blocks."""
    layer = []
    for i in range(0, len(roots), 32):
        p = [1 % n]
        for r in roots[i:i + 32]:
            p = [(-r * p[0]) % n] + [(p[j - 1] - r * p[j]) % n for j in range(1, len(p))] + [p[-1]]
        layer.append(p)
    while len(layer) > 1:
        nxt = [zmul(layer[i], layer[i + 1], n) for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0] if layer else [1 % n]


def zprod_evals(g, roots, n):
    """prod_i g(roots[i]) over Z/n."""
    if n < 1 << 31:
        x = np.array(roots, dtype=np.int64)
        acc = np.zeros(len(roots), dtype=np.int64)
        for c in reversed(g):
            acc = (acc * x + c) % n
        out = 1 % n
        for v in acc.tolist():
            out = out * v % n
        return out
    acc = [0] * len(roots)
    for c in reversed(g):
        acc = [(s * r + c) % n for s, r in zip(acc, roots)]
    out = 1 % n
    for v in acc:
        out = out * v % n
    return out


def mul_int(a, b):
    """Product of two integer coefficient lists, no reduction."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def zadd_int(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def zeval(g, x, n):
    acc = 0
    for c in reversed(g):
        acc = (acc * x + c) % n
    return acc


# ---------------------------------------------------------------------------
# Galois rings (Z/p^e)[t]/(lam)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GR:
    p: int
    e: int
    lam: tuple

    @property
    def q(self):
        return self.p ** self.e

    @property
    def k(self):
        return len(self.lam) - 1

    def reduce(self, vec):
        """Reduce an int vector (ascending in t, any length) mod (lam, q)."""
        q, k, lam = self.q, self.k, self.lam
        v = list(vec) + [0] * max(0, k - len(vec))
        for i in range(len(v) - 1, k - 1, -1):
            c = v[i] % q
            if c:
                off = i - k
                for j in range(k):
                    v[off + j] -= c * lam[j]
        return tuple(c % q for c in v[:k])

    def mul(self, a, b):
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self.reduce(prod)

    def add(self, a, b):
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1 % self.q,) + (0,) * (self.k - 1)

    def val(self, a):
        """p-adic valuation of an element, e for zero."""
        v = self.e
        for c in a:
            if c:
                w = 0
                while c % self.p == 0:
                    c //= self.p
                    w += 1
                v = min(v, w)
        return v

    def ideal_gen(self, a):
        """Canonical generator p^v of (a), as ringres writes it."""
        v = self.val(a)
        return self.zero() if v >= self.e else (self.p ** v % self.q,) + (0,) * (self.k - 1)

    def polymul(self, a, b):
        """Product of polynomials over the Galois ring (lists of tuples), by
        two-dimensional Kronecker substitution in x and t."""
        if not a or not b:
            return []
        k, K = self.k, 2 * self.k - 1
        w = _width(min(len(a), len(b)) * k * (self.q - 1) ** 2)

        def pack(p):
            flat = []
            for c in p:
                flat.extend(c)
                flat.extend([0] * (K - k))
            return _pack(flat, w)

        m = len(a) + len(b) - 1
        flat = _unpack(pack(a) * pack(b), w, m * K)
        return [self.reduce(flat[i * K:(i + 1) * K]) for i in range(m)]

    def polyadd(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = self.add(out[i], c)
        return out

    def trim(self, a):
        a = list(a)
        z = self.zero()
        while a and a[-1] == z:
            a.pop()
        return a

    def from_roots(self, roots):
        layer = [[tuple((-c) % self.q for c in r), self.one()] for r in roots]
        while len(layer) > 1:
            nxt = [self.polymul(layer[i], layer[i + 1]) for i in range(0, len(layer) - 1, 2)]
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    def prod_evals(self, g, roots):
        out = self.one()
        for r in roots:
            acc = self.zero()
            for c in reversed(g):
                acc = self.add(self.mul(acc, r), c)
            out = self.mul(out, acc)
        return out


# ---------------------------------------------------------------------------
# integer linear algebra and F_p polynomials
# ---------------------------------------------------------------------------

def int_det(rows):
    """Exact determinant of a square integer matrix (fraction-free)."""
    a = [list(r) for r in rows]
    k = len(a)
    sign, prev = 1, 1
    for i in range(k):
        piv = next((r for r in range(i, k) if a[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            sign = -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                a[r][c] = (a[i][i] * a[r][c] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[k - 1][k - 1] if k else 1


def sylvester_det(f, g, N, M, n):
    """det of the Sylvester matrix of f, g (ascending int lists) at formal
    degrees N, M, reduced mod n; the ringres convention res == det(S)."""
    size = N + M
    if size == 0:
        return 1 % n
    fd = [f[i] if i < len(f) else 0 for i in range(N, -1, -1)]
    gd = [g[i] if i < len(g) else 0 for i in range(M, -1, -1)]
    rows = [[0] * i + fd + [0] * (size - N - 1 - i) for i in range(M)]
    rows += [[0] * i + gd + [0] * (size - M - 1 - i) for i in range(N)]
    return int_det(rows) % n


def int_norm(minpoly, alpha):
    """Exact norm of alpha(gamma) in Z[x]/(minpoly), minpoly monic: the
    determinant of multiplication by alpha on the basis 1..gamma^(n-1)."""
    n = len(minpoly) - 1
    cols = []
    cur = list(alpha) + [0] * (n - len(alpha))
    for _ in range(n):
        cols.append(cur)
        nxt = [0] + cur                       # times gamma
        top = nxt.pop()
        cur = [c - top * m for c, m in zip(nxt, minpoly)]
    return int_det([list(r) for r in zip(*cols)])


def fp_gcd_is_one(a, b, p):
    """Whether gcd(a mod p, b mod p) == 1 over F_p (ascending int lists)."""
    a, b = ztrim([c % p for c in a]), ztrim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            off = len(a) - len(b)
            for j, y in enumerate(b):
                a[off + j] = (a[off + j] - c * y) % p
            a = ztrim(a)
        a, b = b, a
    return len(a) == 1


def valuation(x, p):
    if x == 0:
        return math.inf
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def unimodular_mix(rows, n, rng: random.Random):
    """U*M for a seeded unimodular U: row swaps and row additions."""
    rows = [list(r) for r in rows]
    N = len(rows)
    for _ in range(3 * N):
        i, j = rng.sample(range(N), 2)
        if rng.random() < 0.2:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = rng.randrange(n)
            rows[i] = [(x + c * y) % n for x, y in zip(rows[i], rows[j])]
    return rows
