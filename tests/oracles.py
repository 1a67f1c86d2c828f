"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: the Howell
form over Z/n comes from the list elimination howell_lists, one entry at a
time (linalg's runs on packed rows), reduced resultants from its stabilized
extended-degree form (over Galois rings, the chain-ring form of
rres_galois_oracle), bivariate resultants from symbolic cofactor expansion,
their interpolation from the textbook Lagrange formula, irreducibility over
F_p from trial division, determinants over Galois rings from Berkowitz's
division-free algorithm, Galois-ring division from the schoolbook row loop,
divisibility from module membership in howell_lists, and number-field data
from an integer Hermite-normal-form computation on the underlying Z-module.
"""

from __future__ import annotations

import math

import sympy

from ringres import Poly, divrem
# the scalar steps of a Howell elimination: with the same cofactors and unit
# scales, howell_lists and linalg's packed form agree on riding columns too
from ringres.linalg import _unit_scale
from ringres.ring import _ext_gcd

_x = sympy.Symbol("x")


# ---------------------------------------------------------------------------
# Howell form over Z/n: the list elimination
# ---------------------------------------------------------------------------

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


def howell_lists(n: int, rows, width: int):
    """Howell form over Z/n of the first `width` columns of `rows`: a dict
    from pivot column to its row, a list of reduced entries, each row
    operation one list comprehension.

    Columns from `width` on only ride along in the row operations.  With an
    identity block appended to M's rows, a pivot row (a | t) has t*M == a."""
    pivots = {}
    for row in rows:
        _echelon_insert(n, pivots, [c % n for c in row], width)
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
        raise AssertionError("howell annihilator pass failed to stabilise")
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


def rres_howell_oracle(f, g):
    """Canonical generator of (f, g) ∩ R for nonzero f, g over Z/n, from the
    Howell forms (howell_lists) of extended-degree Sylvester matrices: rows
    x^i f and x^i g for i <= D, constant term in the last column, raising D
    until the generator is stable."""
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
        pivots = howell_lists(R.n, rows, w)
        return R.ideal_gen(pivots[w - 1][w - 1] if w - 1 in pivots else 0)

    D = f.degree + g.degree + 1
    prev = attempt(D)
    while True:
        cur = attempt(D + 1)
        if cur == prev:
            return cur
        prev, D = cur, D + 1


# ---------------------------------------------------------------------------
# reduced resultant over a Galois ring: a chain-ring Howell form
# ---------------------------------------------------------------------------

def rres_galois_oracle(f, g):
    """Canonical generator of (f, g) ∩ R for nonzero f, g over GR(p^e, k),
    from the Howell forms of extended-degree Sylvester matrices (rows x^i f
    and x^i g for i <= D, constant term in the last column), raising D until
    the generator is stable, as rres_howell does over Z/n.

    A Galois ring is a chain ring: every element is p^v times a unit.  Each
    column pivots on an entry of least valuation v, which divides every other
    entry of the column; the rows a*pivot that vanish in the column are the
    multiples of p^(e-v)*pivot, so that row joins the rows still to reduce.
    The last column's pivot then generates the span's vectors that are zero
    outside it."""
    R = f.ring

    def attempt(D):
        w = D + max(f.degree, g.degree) + 1
        rows = []
        for h in (f, g):
            for i in range(D + 1):
                row = [R.zero] * w
                for j, c in enumerate(h.coeffs):
                    row[w - 1 - (i + j)] = c
                rows.append(row)
        for col in range(w):
            live = [r for r in rows if not R.is_zero(r[col])]
            piv = min(live, key=lambda r: R.val(r[col]), default=None)
            if piv is None:
                continue
            v = R.val(piv[col])
            pv, ainv = R.p ** v, R.inv(R.unit_part(piv[col]))
            rows = [r for r in rows if r is not piv]
            for r in live:
                if r is not piv:    # r[col] == (r[col] / p^v) * ainv * piv[col]
                    c = R.mul(tuple(x // pv for x in r[col]), ainv)
                    r[col:] = [R.sub(x, R.mul(c, y)) for x, y in zip(r[col:], piv[col:])]
            if v:
                pe_v = R.from_int(R.p ** (R.e - v))
                rows.append([R.mul(pe_v, y) for y in piv])
        return R.ideal_gen(piv[w - 1]) if piv is not None else R.zero

    D = f.degree + g.degree + 1
    prev = attempt(D)
    while True:
        cur = attempt(D + 1)
        if cur == prev:
            return cur
        prev, D = cur, D + 1


# ---------------------------------------------------------------------------
# bivariate: symbolic Sylvester determinant by cofactor expansion
# ---------------------------------------------------------------------------

def sylvester_poly_rows(f, g):
    """y-Sylvester matrix of two BiPolys, entries are Polys in x."""
    R = f.ring
    N, M = f.deg_y, g.deg_y
    size = N + M
    Z = Poly.zero(R)
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    rows = []
    for i in range(M):
        rows.append([Z] * i + fc + [Z] * (size - i - len(fc)))
    for i in range(N):
        rows.append([Z] * i + gc + [Z] * (size - i - len(gc)))
    return rows


def det_cofactor(rows):
    """Determinant by cofactor expansion; entries are Polys."""
    n = len(rows)
    if n == 0:
        return None
    R = rows[0][0].ring
    if n == 1:
        return rows[0][0]
    acc = Poly.zero(R)
    for j in range(n):
        a = rows[0][j]
        if a.is_zero():
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = a * det_cofactor(minor)
        acc = acc - term if j % 2 else acc + term
    return acc


def res_y_oracle(f, g):
    rows = sylvester_poly_rows(f, g)
    if not rows:
        return Poly.const(f.ring, f.ring.one)
    return det_cofactor(rows)


def interpolate_lagrange(S, points, values) -> Poly:
    """Unique polynomial of degree < len(points) through (points[i], values[i]),
    by the textbook Lagrange formula: every numerator is the product of its
    B linear factors, O(B^3) ring operations.  Points need unit differences."""
    acc = Poly.zero(S)
    for i, (ai, ri) in enumerate(zip(points, values)):
        num = Poly.const(S, ri)
        denom = S.one
        for j, aj in enumerate(points):
            if j == i:
                continue
            num = num * Poly(S, [S.neg(aj), S.one])
            denom = S.mul(denom, S.sub(ai, aj))
        acc = acc + num.scale(S.inv(denom))
    return acc


# ---------------------------------------------------------------------------
# determinant over any commutative ring: Berkowitz, division-free
# ---------------------------------------------------------------------------

def berkowitz_det(S, rows):
    """det of a square matrix with entries in the ring S, using only +, -, *
    (Berkowitz, IPL 18, 1984), so it holds over Galois rings, whose zero
    divisors rule out elimination.  The characteristic polynomial of the
    leading (r+1) x (r+1) block is T_r times that of the r x r block, T_r the
    lower-triangular Toeplitz matrix with first column
    (1, -a_rr, -R C, -R A C, ..., -R A^(r-1) C) for A the r x r block, C the
    column above a_rr and R the row left of it; det = (-1)^n c_n."""
    n = len(rows)
    if n == 0:
        return S.one

    def dot(u, v):
        acc = S.zero
        for x, y in zip(u, v):
            acc = S.add(acc, S.mul(x, y))
        return acc

    char = [S.one, S.neg(rows[0][0])]
    for r in range(1, n):
        A = [row[:r] for row in rows[:r]]
        col = [row[r] for row in rows[:r]]
        first = [S.one, S.neg(rows[r][r])]
        for _ in range(r):
            first.append(S.neg(dot(rows[r][:r], col)))
            col = [dot(a, col) for a in A]
        char = [dot(first[i::-1][:len(char)], char[:i + 1]) for i in range(r + 2)]
    return char[n] if n % 2 == 0 else S.neg(char[n])


# ---------------------------------------------------------------------------
# irreducibility over F_p: trial division
# ---------------------------------------------------------------------------

def is_irreducible_trial(lam, p) -> bool:
    """Whether lam, monic with ascending coefficients, is irreducible over
    F_p: schoolbook division by every monic polynomial of degree 1 .. k/2."""
    lam = [c % p for c in lam]
    k = len(lam) - 1
    for d in range(1, k // 2 + 1):
        for idx in range(p ** d):
            div = [idx // p ** i % p for i in range(d)] + [1]
            rem = lam[:]
            for i in range(k - d, -1, -1):
                c = rem[i + d]
                for j in range(d + 1):
                    rem[i + j] = (rem[i + j] - c * div[j]) % p
            if not any(rem[:d]):
                return False
    return k >= 1


# ---------------------------------------------------------------------------
# unit x monic factorization: the forward Hensel lift of the monic factor
# ---------------------------------------------------------------------------

def fun_factor_forward(f: Poly):
    """(u, gtilde, k) with f == u * gtilde, u a unit of R[x], gtilde monic of
    degree k, for f whose top coefficients above a unit a = f_k are nilpotent.

    Lifts the degree-k factor from f == (a * ubar) * (fbar / a) modulo the
    nilpotent coefficients, with Bezout cofactors s, t carried at full degree
    (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 15).
    Returns None when the lift does not reach f within the round bound."""
    R = f.ring
    d = f.degree
    k = max(i for i, c in enumerate(f.coeffs) if not R.is_nilpotent(c))
    a = f.coeffs[k]
    w = R.inv(a)
    if k == d:
        return Poly(R, [a]), f.scale(w), k
    g = Poly(R, (R.one,) + f.coeffs[k + 1:]).scale(a)
    h = Poly(R, f.coeffs[:k + 1]).scale(w)
    s, t, one = Poly(R, [w]), Poly.zero(R), Poly.one(R)
    for _ in range(max(1, math.ceil(math.log2(max(2, R.E)))) + 1):
        e = f - g * h
        if e.is_zero():
            break
        q, r = divrem(s * e, h)
        g = g + t * e + q * g
        h = h + r
        b = s * g + t * h - one
        c, d2 = divrem(s * b, h)
        s = s - d2
        t = t - t * b - c * g
    return (g, h, k) if f == g * h else None


# ---------------------------------------------------------------------------
# divisibility of polynomials over Z/n (module membership via Howell)
# ---------------------------------------------------------------------------

def divides_mod(dpoly: Poly, target: Poly) -> bool:
    """Whether some q in R[x] satisfies dpoly*q = target.

    Over a ring with zero divisors the quotient degree can exceed
    deg(target) - deg(dpoly) (leading terms may cancel), so the stacked-shift
    degree bound is padded by the nilpotency index."""
    R = dpoly.ring
    if dpoly.is_zero():
        return target.is_zero()
    if target.is_zero():
        return True
    D = target.degree + (R.n.bit_length() + 1) * (dpoly.degree + 1)
    w = dpoly.degree + D + 1
    rows = []
    for i in range(D + 1):
        row = [R.zero] * w
        for j, c in enumerate(dpoly.coeffs):
            row[i + j] = c
        rows.append(row)
    H = howell_lists(R.n, rows, w)
    t = list(target.coeffs) + [R.zero] * (w - len(target.coeffs))
    for col in range(w):
        if R.is_zero(t[col]):
            continue
        if col not in H:
            return False
        q = R.try_divide(t[col], H[col][col])
        if q is None:
            return False
        for idx in range(w):
            t[idx] = R.sub(t[idx], R.mul(q, H[col][idx]))
    return all(R.is_zero(c) for c in t)


# ---------------------------------------------------------------------------
# integers: resultants and number-field module data
# ---------------------------------------------------------------------------

def int_resultant(fc, gc) -> int:
    """Resultant of two integer polynomials (ascending coefficients)."""
    f = sympy.Poly(list(reversed(list(fc))), _x)
    g = sympy.Poly(list(reversed(list(gc))), _x)
    return int(sympy.resultant(f.as_expr(), g.as_expr(), _x))


def row_hnf(rows):
    """Row-style Hermite normal form; returns a square upper-triangular
    matrix whose rows span the same lattice (zero rows for missing ranks)."""
    rows = [list(r) for r in rows]
    m = len(rows[0])
    out = []
    for col in range(m):
        piv = None
        for r in rows:
            if r[col]:
                if piv is None:
                    piv = r
                    rows = [z for z in rows if z is not r]
                else:
                    a, b = piv[col], r[col]
                    s, t, g = map(int, sympy.gcdex(a, b))
                    u, v = -(b // g), a // g
                    piv, r[:] = (
                        [s * p + t * q for p, q in zip(piv, r)],
                        [u * p + v * q for p, q in zip(piv, r)],
                    )
        if piv is None:
            out.append([0] * m)
            continue
        if piv[col] < 0:
            piv = [-z for z in piv]
        for o in out:
            if o[col]:
                q = o[col] // piv[col]
                for j in range(m):
                    o[j] -= q * piv[j]
        out.append(piv)
    return out


def poly_mul_mod(u, v, minpoly):
    """Product of integer polynomials reduced modulo a monic minpoly."""
    n = len(minpoly) - 1
    out = [0] * max(len(u) + len(v) - 1, n)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    for i in range(len(out) - 1, n - 1, -1):
        c = out[i]
        if c:
            for j in range(n + 1):
                out[i - n + j] -= c * minpoly[j]
    return out[:n]


def module_hnf(gens, minpoly):
    """HNF of the Z[gamma]-module generated by gens, coordinates ordered
    gamma^(n-1)..gamma^0 so the last diagonal entry generates M ∩ Z."""
    n = len(minpoly) - 1
    rows = []
    for gen in gens:
        cur = (list(gen) + [0] * n)[:n]
        for i in range(n):
            shifted = poly_mul_mod(cur, [0] * i + [1], minpoly)
            rows.append([shifted[n - 1 - j] for j in range(n)])
    return row_hnf(rows)


def ideal_module_oracle(minpoly, a, num):
    """(norm, min) of the module a*Z[gamma] + alpha*Z[gamma], alpha integral."""
    n = len(minpoly) - 1
    H = module_hnf([[a], list(num)], minpoly)
    norm = abs(math.prod(H[i][i] for i in range(n)))
    return norm, abs(H[n - 1][n - 1])


def random_monogenic_field(rng, max_degree=4, coeff_bound=6):
    """Monic irreducible integer polynomial with squarefree discriminant
    (so Z[gamma] is the maximal order), as an ascending coefficient list."""
    while True:
        n = rng.randrange(2, max_degree + 1)
        cs = [rng.randrange(-coeff_bound, coeff_bound + 1) for _ in range(n)] + [1]
        fp = sympy.Poly(list(reversed(cs)), _x)
        if not fp.is_irreducible:
            continue
        disc = sympy.discriminant(fp.as_expr(), _x)
        if disc == 0 or any(e > 1 for e in sympy.factorint(abs(disc)).values()):
            continue
        return cs, int(disc)


def normal_presentation(rng, cs, disc, small_primes=(2, 3, 5, 7, 11, 13)):
    """Random ideal as a product of degree-1 primes, presented normally.

    Returns (a, alpha_coeffs, norm, minimum) with independently known norm
    and minimum, or None when the field has no usable degree-1 primes or no
    alpha with cofactor-norm coprime to a was found."""
    n = len(cs) - 1
    fp = sympy.Poly(list(reversed(cs)), _x)
    primes = []
    for p in small_primes:
        if disc % p == 0:
            continue
        for r0 in sympy.ground_roots(sympy.Poly(fp, _x, modulus=p)):
            primes.append((p, int(r0) % p))
    if not primes:
        return None
    chosen = [rng.choice(primes) for _ in range(rng.randrange(1, 3))]
    gens = [[1]]
    norm = 1
    for p, r0 in chosen:
        gens = [h for g0 in gens for h in ([p * c for c in g0],
                poly_mul_mod((g0 + [0] * n)[:n], [-r0, 1], cs))]
        norm *= p
    H = module_hnf(gens, cs)
    oracle_norm = abs(math.prod(H[i][i] for i in range(n)))
    oracle_min = abs(H[n - 1][n - 1])
    assert oracle_norm == norm
    a = oracle_min
    basis = [[H[i][n - 1 - j] for j in range(n)] for i in range(n)]
    for _ in range(200):
        alpha = [0] * n
        for b in basis:
            c = rng.randrange(-4, 5)
            alpha = [ai + c * bi for ai, bi in zip(alpha, b)]
        if not any(alpha):
            continue
        na = int_resultant(cs, alpha)
        if na and na % norm == 0 and math.gcd(abs(na) // norm, a) == 1:
            return a, alpha, norm, oracle_min
    return None


# ---------------------------------------------------------------------------
# division: the schoolbook row loop
# ---------------------------------------------------------------------------

def divrem_rowwise(f, g):
    """(q, r) with f == q*g + r and deg r < deg g, one ring product and one
    difference per coefficient pair; lc(g) must be a unit."""
    R = f.ring
    winv, dg = R.inv(g.lc), g.degree
    rem = list(f.coeffs)
    q = [R.zero] * max(0, f.degree - dg + 1)
    for i in range(f.degree, dg - 1, -1):
        qc = q[i - dg] = R.mul(rem[i], winv)
        for j, gc in enumerate(g.coeffs):
            rem[i - dg + j] = R.sub(rem[i - dg + j], R.mul(qc, gc))
    return Poly(R, q), Poly(R, rem[:dg])


def lowdiv_rowwise(R, xs, D, nq):
    """(q, rest) with xs == q*D + x^nq * rest, q of nq coefficients: xs (at
    most nq + deg D coefficients) divided by D from the bottom, one row per
    quotient coefficient; D[0] must be a unit."""
    dd, d0inv = len(D) - 1, R.inv(D[0])
    rem, q = list(xs) + [R.zero] * (nq + dd - len(xs)), []
    for i in range(nq):
        c = R.mul(rem[i], d0inv)
        q.append(c)
        for t, y in enumerate(D, i):
            rem[t] = R.sub(rem[t], R.mul(c, y))
    return q, rem[nq:]


# ---------------------------------------------------------------------------
# packed ints: one slot at a time
# ---------------------------------------------------------------------------

def pack_slots(cs, w):
    """The Z/n coefficients cs in one int of w-byte slots, ascending, one
    shift per slot; ValueError on a coefficient that is negative or needs
    more than w bytes."""
    X = 0
    for i, c in enumerate(cs):
        if not 0 <= c < 1 << 8 * w:
            raise ValueError(f"coefficient {i} does not fit {w} bytes")
        X |= c << 8 * w * i
    return X


def unpack_slots(X, l, w, n):
    """The first l w-byte slots of X, ascending, each reduced mod n."""
    mask = (1 << 8 * w) - 1
    return [(X >> 8 * w * i & mask) % n for i in range(l)]
