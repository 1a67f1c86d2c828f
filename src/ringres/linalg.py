"""Matrices over Z/nZ: Sylvester matrices, determinants, Howell form.

The determinant (fraction-free Bareiss on an integer lift) and the Howell
strong echelon form are the independent linear-algebra route used to
cross-check the Euclidean resultant algorithms.

The Howell elimination carries rows only, each one packed int.  A caller
that needs the transform appends an identity block to its rows and puts only
the leading columns in echelon form: a pivot row (a | t) then has t*M == a
(Storjohann and Mulders, "Fast algorithms for linear algebra modulo N", ESA
1998).  The tests check it against a list elimination (tests/oracles.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .poly import NonInvertibleLeadingCoeffError, Poly, _Packed
from .ring import InvariantError, Zmod, _ext_gcd, bareiss


@dataclass(frozen=True)
class Matrix:
    ring: Zmod
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows",
                           tuple(tuple(self.ring.coerce(c) for c in row)
                                 for row in self.rows))

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def to_lists(self):
        return [list(r) for r in self.rows]


def sylvester(f: Poly, g: Poly) -> Matrix:
    """S(f, g): deg(g) shifted rows of f (descending), then deg(f) rows of g."""
    if f.is_zero() or g.is_zero():
        raise ValueError("sylvester requires nonzero polynomials")
    n, m = f.degree, g.degree
    if n + m < 1:
        raise ValueError("sylvester requires deg f + deg g >= 1")
    k = n + m
    R = f.ring
    rows = []
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    for i in range(m):
        rows.append([R.zero] * i + fd + [R.zero] * (k - n - 1 - i))
    for i in range(n):
        rows.append([R.zero] * i + gd + [R.zero] * (k - m - 1 - i))
    return Matrix(R, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# determinant: integer lift + fraction-free Bareiss
# ---------------------------------------------------------------------------

def bareiss_det_int(rows) -> int:
    """Exact determinant of a square integer matrix (bareiss, 0x0 -> 1)."""
    a = [list(r) for r in rows]
    return bareiss(a) * a[-1][-1] if a else 1


def det(M: Matrix):
    """Determinant over Z/nZ via the exact integer Bareiss determinant."""
    if M.nrows != M.ncols:
        raise ValueError("determinant of a non-square matrix")
    return bareiss_det_int(M.rows) % M.ring.n


# ---------------------------------------------------------------------------
# Howell (strong echelon) form
# ---------------------------------------------------------------------------

def _unit_scale(n: int, h: int) -> int:
    """Unit u of Z/n with u*h == gcd(h, n) mod n."""
    g = math.gcd(h, n)
    ng = n // g
    w = (h // g) % ng
    u = pow(w, -1, ng)
    while math.gcd(u, n) != 1:
        u += ng
    return u % n


def _howell_core(n: int, rows, width: int):
    """Howell form over Z/n of the first `width` columns of `rows`, entries
    in [0, n): a dict from pivot column to its row.

    Columns from `width` on only ride along in the row operations.  With an
    identity block appended to M's rows, a pivot row (a | t) has t*M == a.

    A row is one int in _Packed(Zmod(n), ncols)'s layout, packed on entry and
    unpacked once for the result.  A row operation, a unimodular 2x2 integer
    transform or a scaling, is one s*X + t*Y (s, t in [0, n)) and one Barrett
    step, which leaves each slot below 3n, so entry j is slot j mod n.
    """
    if n == 1 or not rows:
        return {}
    P, ncols = _Packed(Zmod(n), len(rows[0])), len(rows[0])
    b, sm, a, h, m, mask = P.b, P.slot_mask, P.a, P.h, P.m, P.mask
    pivots = {}

    def insert(X, j=0):
        """Insert X, zero mod n before column j: True if it adds or lowers a pivot."""
        changed = False
        while True:
            while j < width and not (y := ((X >> (b * j)) & sm) % n):
                j += 1
            if j == width:
                return changed
            if j not in pivots:
                pivots[j] = X
                return True
            Y = pivots[j]
            x = ((Y >> (b * j)) & sm) % n
            if y % x == 0:      # cheap path: just eliminate
                X += (n - y // x) * Y
            else:
                g, s, t = _ext_gcd(x, y)
                Z = s % n * Y + t % n * X
                pivots[j] = Z - (((((Z >> a) & mask) * m) >> h) & mask) * n
                X = y // g * Y + (n - x // g) * X
                changed = True
            X -= (((((X >> a) & mask) * m) >> h) & mask) * n
            j += 1      # both updates leave column j of X zero mod n

    for row in rows:
        insert(P.pack(row))
    # a unit pivot in every column, and no columns riding along: the rows
    # span all of (Z/n)^width, whose Howell form is the identity
    if len(pivots) == width == ncols and all(
            math.gcd((Y >> (b * j)) & sm, n) == 1 for j, Y in pivots.items()):
        return {j: [int(i == j) for i in range(width)] for j in pivots}
    # annihilator rows: (n / gcd(n, pivot)) * row re-enters the worklist; a
    # unit pivot's is zero.  Pivot entries only fall and pivots are only
    # added, so a pass that changes neither has stabilised.
    for _ in range(width + 1):
        changed = False
        for j in sorted(pivots):
            Y = pivots[j]
            ann = n // math.gcd(n, (Y >> (b * j)) & sm)
            if ann != n:
                changed |= insert((X := ann * Y) - (((((X >> a) & mask) * m) >> h) & mask) * n, j)
        if not changed:
            break
    else:
        raise InvariantError("howell annihilator pass failed to stabilise")
    # normalise pivots to canonical divisors of n
    for j, Y in pivots.items():
        u = _unit_scale(n, ((Y >> (b * j)) & sm) % n)
        if u != 1:
            pivots[j] = (Y := u * Y) - (((((Y >> a) & mask) * m) >> h) & mask) * n
    # size-reduce entries above each pivot
    order = sorted(pivots)
    for k, j in enumerate(order):
        Y = pivots[j]
        hj = ((Y >> (b * j)) & sm) % n
        for i in order[:k]:
            q = ((pivots[i] >> (b * j)) & sm) % n // hj
            if q:
                X = pivots[i] + (n - q) * Y
                pivots[i] = X - (((((X >> a) & mask) * m) >> h) & mask) * n
    return {j: P.unpack(Y, ncols) for j, Y in pivots.items()}


def howell(M: Matrix) -> Matrix:
    """Canonical Howell form of a square matrix: pivots on the diagonal,
    pivot entries canonical divisors of n, entries above pivots reduced."""
    if M.nrows != M.ncols:
        raise ValueError("howell expects a square matrix")
    pivots, zero = _howell_core(M.ring.n, M.rows, M.ncols), (M.ring.zero,) * M.ncols
    H = object.__new__(Matrix)  # the rows are reduced: no second coercion in __post_init__
    H.__dict__.update(ring=M.ring, rows=tuple(tuple(pivots.get(j, zero)) for j in range(M.ncols)))
    return H


def rres_linalg(f: Poly, g: Poly):
    """Reduced resultant of f, g, one of them with an invertible leading
    coefficient, by the Howell-form oracle rres_howell."""
    R = f.ring
    if f.is_zero() or g.is_zero():
        raise ValueError("rres_linalg requires nonzero polynomials")
    if not (R.is_unit(f.lc) or R.is_unit(g.lc)):
        raise NonInvertibleLeadingCoeffError(
            "rres_linalg requires one invertible leading coefficient")
    return rres_howell(f, g)


def rres_howell(f: Poly, g: Poly):
    """Canonical generator of (f, g) ∩ R for nonzero f, g over Z/n, whatever
    their leading coefficients, from the Howell forms of extended-degree
    Sylvester matrices: rows x^i f and x^i g for i <= D, raising D until the
    generator is stable.  It shares no code with the resultant module, so
    `ringres selfcheck` and the tests check `rres` against it."""
    R = f.ring

    def attempt(D):
        w = D + max(f.degree, g.degree) + 1
        rows = []
        for p in (f, g):
            for i in range(D + 1):
                row = [0] * w
                for j, c in enumerate(p.coeffs):
                    row[w - 1 - (i + j)] = c
                rows.append(row)
        pivots = _howell_core(R.n, rows, w)
        return R.ideal_gen(pivots[w - 1][w - 1] if w - 1 in pivots else 0)

    D = f.degree + g.degree + 1
    prev = attempt(D)
    while True:
        cur = attempt(D + 1)
        if cur == prev:
            return cur
        prev, D = cur, D + 1


# ---------------------------------------------------------------------------
# Bezout certificate for the resultant, by linear algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BezoutCertificate:
    value: object
    u: Poly
    v: Poly


def res_bezout_linalg(f: Poly, g: Poly) -> BezoutCertificate:
    """res(f, g) = det S(f, g) together with u, v such that
    u*f + v*g == res, deg u < deg g, deg v < deg f."""
    R = f.ring
    S = sylvester(f, g)
    r = det(S)
    n, m = f.degree, g.degree
    k = n + m
    # S | I: a pivot row (0, ..., 0, h | t) has t*S = (0, ..., 0, h)
    rows = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(S.rows)]
    w = [0] * k
    if r:
        prow = _howell_core(R.n, rows, k).get(k - 1)
        if prow is None:
            raise InvariantError("resultant certificate: target not in row span")
        c = R.try_divide(r, prow[k - 1])
        if c is None:
            raise InvariantError("resultant certificate: pivot does not divide")
        w = [(c * t) % R.n for t in prow[k:]]
    # row i (i < m) is x^(m-1-i) * f; row m+i is x^(n-1-i) * g
    u = Poly(R, [w[m - 1 - i] for i in range(m)])
    v = Poly(R, [w[m + n - 1 - i] for i in range(n)])
    return BezoutCertificate(r, u, v)
