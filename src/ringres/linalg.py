"""Matrices over Z/nZ: Sylvester matrices, determinants, Howell form.

The determinant (fraction-free Bareiss on an integer lift) and the Howell
strong echelon form are the independent linear-algebra route used to
cross-check the Euclidean resultant algorithms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .poly import NonInvertibleLeadingCoeffError, Poly
from .ring import InvariantError, Zmod, _ext_gcd


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
    """Exact determinant of a square integer matrix (Bareiss, 0x0 -> 1)."""
    a = [list(r) for r in rows]
    k = len(a)
    if k == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(k - 1):
        if a[i][i] == 0:
            for r in range(i + 1, k):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[i][i]
        for r in range(i + 1, k):
            arow = a[r]
            irow = a[i]
            ari = arow[i]
            for c in range(i + 1, k):
                arow[c] = (piv * arow[c] - ari * irow[c]) // prev
            arow[i] = 0
        prev = piv
    return sign * a[k - 1][k - 1]


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


def _echelon_insert(n, pivots, row, trans):
    """Insert a row into the pivot dict keyed by pivot column.

    Eliminates left to right with unimodular 2x2 integer transforms; the
    span over Z/n is preserved exactly.
    """
    while True:
        j = next((c for c, v in enumerate(row) if v), None)
        if j is None:
            return
        if j not in pivots:
            pivots[j] = (row, trans)
            return
        prow, ptrans = pivots[j]
        a, b = prow[j], row[j]
        g = math.gcd(a, b)
        if b % a == 0:
            # cheap path: just eliminate
            q = b // a
            row = [(y - q * x) % n for x, y in zip(prow, row)]
            trans = [(y - q * x) % n for x, y in zip(ptrans, trans)]
        else:
            _, s, t = _ext_gcd(a, b)
            new_p = [(s * x + t * y) % n for x, y in zip(prow, row)]
            new_pt = [(s * x + t * y) % n for x, y in zip(ptrans, trans)]
            row = [((b // g) * x - (a // g) * y) % n for x, y in zip(prow, row)]
            trans = [((b // g) * x - (a // g) * y) % n
                     for x, y in zip(ptrans, trans)]
            pivots[j] = (new_p, new_pt)


def _howell_core(ring: Zmod, rows):
    """Howell pipeline on a list of rows; returns (pivots dict, width).

    Each pivot maps column -> (row, transform) with transform rows tracking
    the Z/n combination of the input rows producing each output row.
    """
    n = ring.n
    if not rows:
        return {}, 0
    width = len(rows[0])
    m = len(rows)
    pivots = {}
    for idx, row in enumerate(rows):
        trans = [0] * m
        trans[idx] = 1
        _echelon_insert(n, pivots, [c % n for c in row], trans)
    # annihilator rows: (n / gcd(n, pivot)) * row re-enters the worklist;
    # pivot ideals only grow, so this stabilises quickly.
    for _ in range(width + 1):
        before = {j: tuple(rt[0]) for j, rt in pivots.items()}
        for j in sorted(pivots):
            row, trans = pivots[j]
            ann = n // math.gcd(n, row[j])
            if ann == 1:
                continue
            arow = [(ann * c) % n for c in row]
            if any(arow):
                _echelon_insert(n, pivots, arow,
                                [(ann * c) % n for c in trans])
        if {j: tuple(rt[0]) for j, rt in pivots.items()} == before:
            break
    else:
        raise InvariantError("howell annihilator pass failed to stabilise")
    # normalise pivots to canonical divisors of n
    for j in list(pivots):
        row, trans = pivots[j]
        u = _unit_scale(n, row[j])
        if u != 1:
            row = [(u * c) % n for c in row]
            trans = [(u * c) % n for c in trans]
        pivots[j] = (row, trans)
    # size-reduce entries above each pivot
    for j in sorted(pivots):
        prow, ptrans = pivots[j]
        h = prow[j]
        for i in sorted(pivots):
            if i >= j:
                break
            row, trans = pivots[i]
            q = row[j] // h
            if q:
                row = [(x - q * y) % n for x, y in zip(row, prow)]
                trans = [(x - q * y) % n for x, y in zip(trans, ptrans)]
                pivots[i] = (row, trans)
    return pivots, width


def howell(M: Matrix) -> Matrix:
    """Canonical Howell form of a square matrix: pivots on the diagonal,
    pivot entries canonical divisors of n, entries above pivots reduced."""
    if M.nrows != M.ncols:
        raise ValueError("howell expects a square matrix")
    pivots, width = _howell_core(M.ring, M.to_lists())
    out = [[M.ring.zero] * width for _ in range(width)]
    for j, (row, _) in pivots.items():
        out[j] = [c % M.ring.n for c in row]
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
        md = max(f.degree, g.degree)
        w = D + md + 1
        rows = []
        for p in (f, g):
            for i in range(D + 1):
                row = [0] * w
                for j, c in enumerate(p.coeffs):
                    row[w - 1 - (i + j)] = c
                rows.append(row)
        N = max(w, len(rows))
        pad = N - w
        rows = [[0] * pad + row for row in rows]
        while len(rows) < N:
            rows.append([0] * N)
        H = howell(Matrix(R, rows))
        return R.ideal_gen(H.rows[N - 1][N - 1])

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
    pivots, width = _howell_core(R, S.to_lists())
    target = [R.zero] * (k - 1) + [r]
    w = [R.zero] * k
    nmod = R.n
    for j in range(k):
        if target[j] == 0:
            continue
        if j not in pivots:
            raise InvariantError("resultant certificate: target not in row span")
        prow, ptrans = pivots[j]
        c = R.try_divide(target[j], prow[j])
        if c is None:
            raise InvariantError("resultant certificate: pivot does not divide")
        target = [(x - c * y) % nmod for x, y in zip(target, prow)]
        w = [(x + c * y) % nmod for x, y in zip(w, ptrans)]
    if any(target):
        raise InvariantError("resultant certificate: reduction left a residue")
    # row i (i < m) is x^(m-1-i) * f; row m+i is x^(n-1-i) * g
    u = Poly(R, [w[m - 1 - i] for i in range(m)])
    v = Poly(R, [w[m + n - 1 - i] for i in range(n)])
    return BezoutCertificate(r, u, v)
