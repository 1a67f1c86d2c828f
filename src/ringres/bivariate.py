"""Resultants of bivariate polynomials with respect to y over Z/nZ.

The resultant res_y(f, g) of f, g in (Z/nZ)[x][y] is the determinant of the
y-Sylvester matrix with entries in (Z/nZ)[x]; it is a polynomial in x of
degree at most B = deg_y(g)*deg_x(f) + deg_y(f)*deg_x(g).  We compute it by
evaluating x at B+1 points whose pairwise differences are units, taking the
univariate resultant at each point at the formal degrees deg_y f, deg_y g
(`resultant.res_at_degrees`, which also serves the ring splits of `res`),
and interpolating the results by one O(B^2) Lagrange per branch; f and g
are coerced into each branch ring once.

Z/nZ rarely contains B+1 such points, so n is split into branches: primes
p <= B are trial-divided out of n and each prime-power factor p^e is handled
inside a Galois ring GR(p, e, k) with p^k > B (lifts of distinct residue-field
elements have unit differences); the coprime cofactor m keeps the plain points
0..B.  The branch results are recombined coefficient-wise by CRT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import islice

from .ring import GaloisRing, InvariantError, Zmod, find_irreducible
from .poly import Poly, crt_poly
from .resultant import res_at_degrees


@dataclass(frozen=True)
class BiPoly:
    """Dense bivariate polynomial: a vector of x-polynomials, ascending in y."""

    ring: Zmod
    coeffs: tuple  # tuple[Poly, ...], coeffs[j] multiplies y^j

    def __post_init__(self):
        cs = list(self.coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def from_ints(cls, ring, grid) -> "BiPoly":
        """grid[j] is the ascending coefficient list of the y^j coefficient."""
        return cls(ring, tuple(Poly.from_ints(ring, row) for row in grid))

    @property
    def deg_y(self) -> int:
        return len(self.coeffs) - 1

    @property
    def deg_x(self) -> int:
        return max((c.degree for c in self.coeffs), default=-1)

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval_x(self, ring, a) -> Poly:
        """f(a, y) over `ring`, coercing each x-coefficient into `ring`."""
        return Poly(ring, [c.map_ring(ring).eval(a) for c in self.coeffs])

    def format(self) -> str:
        return ";".join(c.format() for c in self.coeffs) if self.coeffs else "0"


def degree_bound(f: BiPoly, g: BiPoly) -> int:
    """Degree bound B for res_y(f, g) as a polynomial in x."""
    return g.deg_y * f.deg_x + f.deg_y * g.deg_x


@dataclass(frozen=True)
class Branch:
    """One evaluation branch: a ring with B+1 unit-difference points in it.

    `modulus` is the integer factor of n this branch is responsible for.
    """

    ring: object
    modulus: int
    points: tuple


def interpolation_plan(ctx: Zmod, B: int) -> list[Branch]:
    """Branches covering Z/n with B+1 unit-difference evaluation points each.

    Primes p <= B dividing n are pulled out into Galois-ring branches with
    residue field of size p^k > B; the remaining cofactor m > 1 keeps the
    integer points 0..B (their differences are <= B, hence units mod m).
    """
    n = ctx.n
    branches = []
    m = n
    for p in range(2, B + 1):
        if m % p:  # also skips composite p: their prime factors are gone
            continue
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        k = 1
        while p**k <= B:
            k += 1
        gr = GaloisRing(p, e, find_irreducible(p, k))
        branches.append(Branch(gr, p**e, tuple(islice(gr.residue_lifts(), B + 1))))
    if m > 1:
        rm = Zmod(m)
        branches.append(Branch(rm, m, tuple(rm.from_int(i) for i in range(B + 1))))
    return branches


def _interpolate(S, points, values) -> Poly:
    """Unique polynomial p of degree <= B through the B+1 (points[i], values[i]).

    O(B^2) Lagrange (von zur Gathen & Gerhard, Modern Computer Algebra, §5.2):
    p = sum_i w_i M/(x - a_i), w_i = r_i / M'(a_i), M = prod (x - a_i) with
    coefficients m_j.  As M/(x - a) = sum_k x^k sum_{j>k} m_j a^(j-k-1),
    rev(p) = rev(M) * s mod x^(B+1) with s_t = sum_i w_i a_i^t.  Points need
    unit differences."""
    mul, add = S.mul, S.add
    m = [S.one]  # M, descending
    for a in points:
        na = S.neg(a)
        m = [m[0]] + [add(c, mul(na, h)) for c, h in zip(m[1:], m)] + [mul(na, m[-1])]
    ds, pre = [], [S.one]  # M'(a) = prod over b != a of (a - b); prefix products
    for a in points:
        d = S.one
        for b in points:
            if b != a:
                d = mul(d, S.sub(a, b))
        ds.append(d)
        pre.append(mul(pre[-1], d))
    # every 1/M'(a_i) from one S.inv: with t == 1/pre[i+1],
    # 1/M'(a_i) == t*pre[i] and 1/pre[i] == t*M'(a_i)
    w, t = [None] * len(ds), S.inv(pre[-1])
    for i in range(len(ds) - 1, -1, -1):
        w[i] = mul(values[i], mul(t, pre[i]))
        t = mul(t, ds[i])
    s = []
    for _ in points:
        s.append(reduce(add, w))
        w = [mul(v, a) for v, a in zip(w, points)]
    rev_p = Poly(S, m) * Poly(S, s)
    return Poly(S, [rev_p.coeff(u) for u in range(len(points))][::-1])


def res_y(f: BiPoly, g: BiPoly) -> Poly:
    """Resultant of f and g with respect to y, as a polynomial in x."""
    R = f.ring
    if f.is_zero() or g.is_zero():
        return Poly.zero(R)
    N, M = f.deg_y, g.deg_y
    if N == 0 and M == 0:
        return Poly.const(R, R.one)
    B = degree_bound(f, g)
    pieces = []  # (Zmod ring, Poly) per branch
    for br in interpolation_plan(R, B):
        S = br.ring
        fs, gs = ([c.map_ring(S) for c in h.coeffs] for h in (f, g))
        values = [res_at_degrees(Poly(S, [c.eval(a) for c in fs]), N,
                                 Poly(S, [c.eval(a) for c in gs]), M) for a in br.points]
        interp = _interpolate(S, br.points, values)
        if isinstance(S, GaloisRing):
            # base-ring inputs have a resultant in the base ring Z/p^e, so a
            # nonzero higher t-coefficient indicates an internal bug
            if any(x for c in interp.coeffs for x in c[1:]):
                raise InvariantError("resultant left the base ring")
            S = Zmod(br.modulus)
            interp = Poly(S, [c[0] for c in interp.coeffs])
        pieces.append((S, interp))
    ring, acc = pieces[0]
    for ring2, piece in pieces[1:]:
        combined = Zmod(ring.n * ring2.n)
        acc = crt_poly(combined, ring, acc, ring2, piece)
        ring = combined
    if ring.n != R.n:
        raise InvariantError("interpolation branches do not cover the modulus")
    return acc.map_ring(R)
