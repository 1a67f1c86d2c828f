"""Matrices over Z/nZ: Sylvester matrices, determinants, Howell form.

The determinant (fraction-free Bareiss on an integer lift) and the Howell
strong echelon form are the independent linear-algebra route used to
cross-check the Euclidean resultant algorithms.

The Howell elimination carries rows only.  A caller that needs the transform
appends an identity block to its rows and puts only the leading columns in
echelon form: a pivot row (a | t) then has t*M == a (Storjohann and Mulders,
"Fast algorithms for linear algebra modulo N", ESA 1998).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .poly import NonInvertibleLeadingCoeffError, Poly
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
    if ng == 1:
        return 1
    w = (h // g) % ng
    u = pow(w, -1, ng)
    while math.gcd(u, n) != 1:
        u += ng
    return u % n


def _echelon_insert(n, pivots, row, width):
    """Insert a row into the pivot dict keyed by pivot column, looking for
    pivots in the first `width` columns only.

    Eliminates left to right with unimodular 2x2 integer transforms; the
    span over Z/n is preserved exactly.
    """
    while True:
        j = next((c for c in range(width) if row[c]), None)
        if j is None:
            return
        if j not in pivots:
            pivots[j] = row
            return
        prow = pivots[j]
        a, b = prow[j], row[j]
        if b % a == 0:
            # cheap path: just eliminate
            q = b // a
            row = [(y - q * x) % n for x, y in zip(prow, row)]
        else:
            g, s, t = _ext_gcd(a, b)
            pivots[j] = [(s * x + t * y) % n for x, y in zip(prow, row)]
            row = [((b // g) * x - (a // g) * y) % n for x, y in zip(prow, row)]


def _howell_core(n: int, rows, width: int):
    """Howell form over Z/n of the first `width` columns of `rows`: a dict
    from pivot column to its row.

    Columns from `width` on only ride along in the row operations.  With an
    identity block appended to M's rows, a pivot row (a | t) has t*M == a.
    """
    pivots = {}
    for row in rows:
        _echelon_insert(n, pivots, [c % n for c in row], width)
    # a unit pivot in every column, and no columns riding along: the rows
    # span all of (Z/n)^width, whose Howell form is the identity
    if (len(pivots) == width and rows and len(rows[0]) == width
            and all(math.gcd(row[j], n) == 1 for j, row in pivots.items())):
        return {j: [int(i == j) for i in range(width)] for j in pivots}
    # annihilator rows: (n / gcd(n, pivot)) * row re-enters the worklist;
    # pivot ideals only grow, so this stabilises quickly.
    for _ in range(width + 1):
        before = {j: row[:width] for j, row in pivots.items()}
        for j in sorted(pivots):
            row = pivots[j]
            ann = n // math.gcd(n, row[j])
            if ann == 1:
                continue
            arow = [(ann * c) % n for c in row]
            if any(arow[:width]):
                _echelon_insert(n, pivots, arow, width)
        if {j: row[:width] for j, row in pivots.items()} == before:
            break
    else:
        raise InvariantError("howell annihilator pass failed to stabilise")
    # normalise pivots to canonical divisors of n
    for j, row in pivots.items():
        u = _unit_scale(n, row[j])
        if u != 1:
            pivots[j] = [(u * c) % n for c in row]
    # size-reduce entries above each pivot
    for j in sorted(pivots):
        prow = pivots[j]
        h = prow[j]
        for i in sorted(pivots):
            if i >= j:
                break
            q = pivots[i][j] // h
            if q:
                pivots[i] = [(x - q * y) % n for x, y in zip(pivots[i], prow)]
    return pivots


def howell(M: Matrix) -> Matrix:
    """Canonical Howell form of a square matrix: pivots on the diagonal,
    pivot entries canonical divisors of n, entries above pivots reduced."""
    if M.nrows != M.ncols:
        raise ValueError("howell expects a square matrix")
    out = [[M.ring.zero] * M.ncols for _ in range(M.ncols)]
    for j, row in _howell_core(M.ring.n, M.to_lists(), M.ncols).items():
        out[j] = row
    return Matrix(M.ring, tuple(tuple(r) for r in out))


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
