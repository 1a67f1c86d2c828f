"""Resultants of bivariate polynomials with respect to y over Z/nZ.

The resultant res_y(f, g) of f, g in (Z/nZ)[x][y] is the determinant of the
y-Sylvester matrix with entries in (Z/nZ)[x]; it is a polynomial in x of
degree at most B = deg_y(g)*deg_x(f) + deg_y(f)*deg_x(g).  We compute it by
evaluating x at points whose pairwise differences are units, taking the
univariate resultant at the formal degrees deg_y f, deg_y g
(`resultant.res_at_degrees`, which also serves the ring splits of `res`),
and interpolating the results by Lagrange.

Z/nZ rarely contains B+1 such points, so n is split into branches: primes
p <= B are trial-divided out of n and each prime-power factor p^e is handled
inside a Galois ring GR(p, e, k) (lifts of distinct residue-field elements
have unit differences); the coprime cofactor m keeps the plain points 0..B.
The branch results are recombined coefficient-wise by CRT.

The Frobenius automorphism phi of GR(p, e, k) fixes Z/p^e (Wan, Lectures on
Finite Fields and Galois Rings, 2003, ch. 14), so the resultant at phi(a) is
phi of the resultant at a.  A Galois branch therefore takes its points in
whole phi-orbits a, phi(a), ..., phi^(s-1)(a) and runs one resultant per
orbit.  It takes at least B + 1 + k points, with k the least such that
p^k >= B + 1 + k, so one orbit is spare: if the value of one orbit is wrong,
the interpolant minus the true resultant vanishes at B + 1 or more points
but not on that orbit, so its degree exceeds B and `res_y` raises
InvariantError.  The Z/m points are orbits of size 1, phi the identity.

Everything but the resultants depends only on (n, B, D), D = max(deg_x f,
deg_x g): a bounded cache holds, per branch, the powers a^j (j <= D) of the
orbits' first points and the Lagrange basis over all points as packed ints
(`_BranchPlan`), and the images of phi (`Branch`).  A call evaluates each
x-coefficient at the first points with D + 1 big-int products and
interpolates with one product per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate

from .ring import ContextMismatchError, GaloisRing, InvariantError, Zmod, find_irreducible
from .poly import Poly, _lift_root, _pack, _product_width, _unpack, _unpack_product, crt_poly
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
    """One evaluation branch: a ring with unit-difference points in it.

    `modulus` is the integer factor of n this branch is responsible for.
    The points come in phi-orbits of the sizes in `orbits`: a, phi(a), ...,
    phi^(s-1)(a), then the next orbit.  `images` are _frobenius(ring) over a
    Galois ring and None over Z/m, whose orbits all have size 1."""

    ring: object
    modulus: int
    points: tuple
    orbits: tuple
    images: tuple | None = None


def _frobenius(S: GaloisRing) -> tuple:
    """The images tau^i (i < k) of t^i under the Frobenius automorphism phi
    of S, k >= 2.  tau is the root of lam with tau == t^p (mod p), lifted
    from t^p by Newton steps (_lift_root), each doubling the p-adic
    precision; phi is Z/p^e-linear, so the images fix it."""
    lam = [S.from_int(c) for c in S.lam]
    tp = S.pow_elem((0, 1) + (0,) * (S.k - 2), S.p)
    tau = S.neg(_lift_root(S, lam, tp, [len(lam)] * S.e.bit_length())[0])
    if not S.is_zero(Poly(S, lam).eval(tau)):
        raise InvariantError("Frobenius image of t is not a root of lam")
    images = [S.one]
    while len(images) < S.k:
        images.append(S.mul(images[-1], tau))
    return tuple(images)


def _phi(S: GaloisRing, images, x):
    """phi(x) = sum_i x_i * tau^i, from images = _frobenius(S)."""
    q = S.pe
    return tuple(sum(c * im[j] for c, im in zip(x, images)) % q for j in range(S.k))


def _galois_branch(S: GaloisRing, count: int) -> Branch:
    """Whole phi-orbits of S, at least `count` points, full-size orbits
    first.  Each orbit starts at the first digit lift, in residue_lifts
    order, whose residue lies in a Frobenius orbit of the residue field not
    used before; its size s is that orbit's size."""
    F, p, k, images = GaloisRing(S.p, 1, S.lam), S.p, S.k, _frobenius(S)
    seen, full, small = set(), [], []
    for a in S.residue_lifts():
        if len(full) * k >= count:
            break
        if a in seen:
            continue
        orbit = [a]
        while (b := F.pow_elem(orbit[-1], p)) != a:
            orbit.append(b)
        seen.update(orbit)
        (full if len(orbit) == k else small).append((a, len(orbit)))
    points, orbits = [], []
    for a, s in full + small:
        if len(points) >= count:
            break
        points.append(a)
        for _ in range(s - 1):
            points.append(_phi(S, images, points[-1]))
        orbits.append(s)
    return Branch(S, S.pe, tuple(points), tuple(orbits), images)


def interpolation_plan(ctx: Zmod, B: int) -> list[Branch]:
    """Branches covering Z/n, each with at least B+1 unit-difference points.

    Primes p <= B dividing n are pulled out into Galois-ring branches with
    residue field of size p^k >= B + 1 + k, k least, and at least B + 1 + k
    points in whole phi-orbits; the remaining cofactor m > 1 keeps the
    integer points 0..B (their differences are <= B, hence units mod m), as
    orbits of size 1.
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
        while p**k < B + 1 + k:
            k += 1
        branches.append(_galois_branch(GaloisRing(p, e, find_irreducible(p, k)), B + 1 + k))
    if m > 1:
        rm = Zmod(m)
        branches.append(Branch(rm, m, tuple(rm.from_int(i) for i in range(B + 1)), (1,) * (B + 1)))
    return branches


@dataclass(frozen=True)
class _BranchPlan:
    """A branch's evaluation at the first point of each orbit and its
    interpolation at all l points a_i, on ints in poly._pack's layout of
    w-byte slots.

    powers[j] packs a^j over the first points a, j <= D, so c(a) for each is
    sum_j c_j * powers[j].  basis[i] packs l_i = M/(x - a_i) / M'(a_i),
    M = prod (x - a_i), so the polynomial of degree < l through (a_i, r_i)
    is sum_i r_i * l_i (Lagrange; von zur Gathen & Gerhard, Modern Computer
    Algebra, §5.2; points need unit differences).  Either sum adds at most
    max(l - 1, D) + 1 products, so w = poly._product_width(S, that)."""

    branch: Branch
    w: int
    powers: tuple
    basis: tuple

    def eval(self, c: Poly) -> list:
        """c at each orbit's first point; c has base-ring coefficients and
        degree <= D."""
        S, q = self.branch.ring, self.branch.modulus
        X = sum(x % q * P for x, P in zip(c.coeffs, self.powers))
        return _unpack(S, X, len(self.branch.orbits), self.w)

    def spread(self, values) -> list:
        """The values at every point from those at each orbit's first point:
        phi^i(r) at phi^i(a)."""
        br, out = self.branch, []
        for r, s in zip(values, br.orbits):
            out.append(r)
            for _ in range(s - 1):
                out.append(_phi(br.ring, br.images, out[-1]))
        return out

    def interpolate(self, values) -> Poly:
        """The polynomial of degree < l through every (a_i, values[i])."""
        S, w = self.branch.ring, self.w
        X = sum(_pack(S, [r], w) * L for r, L in zip(values, self.basis))
        return Poly(S, _unpack_product(S, X, len(self.basis), w))


def _branch_plan(br: Branch, D: int) -> _BranchPlan:
    S, points, l = br.ring, br.points, len(br.points)
    firsts = [points[i] for i in accumulate((0,) + br.orbits[:-1])]
    mul, add, w = S.mul, S.add, _product_width(S, max(l - 1, D) + 1)
    rows = [[S.one] * len(firsts), firsts]
    while len(rows) <= D:
        rows.append([mul(x, a) for x, a in zip(rows[-1], firsts)])
    m = [S.one]  # M, descending
    for a in points:
        na = S.neg(a)
        m = [m[0]] + [add(c, mul(na, h)) for c, h in zip(m[1:], m)] + [mul(na, m[-1])]
    quots, ds, pre = [], [], [S.one]
    for a in points:
        quo = [m[0]]  # M/(x - a) by synthetic division, descending
        for c in m[1:-1]:
            quo.append(add(c, mul(a, quo[-1])))
        quots.append(_pack(S, quo[::-1], w))
        ds.append(reduce(mul, [S.sub(a, b) for b in points if b != a], S.one))  # M'(a)
        pre.append(mul(pre[-1], ds[-1]))
    # every 1/M'(a_i) from one S.inv: with t == 1/pre[i+1],
    # 1/M'(a_i) == t*pre[i] and 1/pre[i] == t*M'(a_i)
    basis, t = [None] * l, S.inv(pre[-1])
    for i in range(l - 1, -1, -1):
        X = _pack(S, [mul(t, pre[i])], w) * quots[i]
        basis[i] = _pack(S, _unpack_product(S, X, l, w), w)
        t = mul(t, ds[i])
    return _BranchPlan(br, w, tuple(_pack(S, r, w) for r in rows[:D + 1]), tuple(basis))


# a plan holds l^2 + (D+1)*r packed coefficients per branch (l points, r of
# them first in their orbit), about 187 KB at B = 40, D = 5 over Z/15120,
# so the cache keeps only the latest keys
@lru_cache(maxsize=16)
def _plan(ctx: Zmod, B: int, D: int) -> tuple:
    """The _BranchPlan of every branch of interpolation_plan(ctx, B), for
    x-coefficients of degree <= D."""
    return tuple(_branch_plan(br, D) for br in interpolation_plan(ctx, B))


def res_y(f: BiPoly, g: BiPoly) -> Poly:
    """Resultant of f and g with respect to y, as a polynomial in x."""
    R = f.ring
    if R != g.ring:
        raise ContextMismatchError("bivariate polynomials over different rings")
    if f.is_zero() or g.is_zero():
        return Poly.zero(R)
    N, M = f.deg_y, g.deg_y
    B, pieces = degree_bound(f, g), []  # pieces: (Zmod ring, Poly) per branch
    for bp in _plan(R, B, max(f.deg_x, g.deg_x)):
        S = bp.branch.ring
        fv, gv = ([bp.eval(c) for c in h.coeffs] for h in (f, g))
        values = [res_at_degrees(Poly(S, fa), N, Poly(S, ga), M)
                  for fa, ga in zip(zip(*fv), zip(*gv))]
        interp = bp.interpolate(bp.spread(values))
        if isinstance(S, GaloisRing):
            # base-ring inputs have a resultant in the base ring Z/p^e, and
            # so do phi-consistent values on whole orbits: a nonzero higher
            # t-coefficient indicates a wrong phi or plan
            if any(x for c in interp.coeffs for x in c[1:]):
                raise InvariantError("resultant left the base ring")
            S = Zmod(bp.branch.modulus)
            interp = Poly(S, [c[0] for c in interp.coeffs])
        if interp.degree > B:
            # a wrong value on one orbit, as the module docstring explains
            raise InvariantError("resultant exceeds its degree bound")
        pieces.append((S, interp))
    ring, acc = pieces[0]
    for ring2, piece in pieces[1:]:
        combined = Zmod(ring.n * ring2.n)
        acc = crt_poly(combined, ring, acc, ring2, piece)
        ring = combined
    if ring.n != R.n:
        raise InvariantError("interpolation branches do not cover the modulus")
    return acc.map_ring(R)
