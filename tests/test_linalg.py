import itertools
import math
import random

import pytest
import sympy

from ringres import linalg
from ringres import (
    Matrix,
    NonInvertibleLeadingCoeffError,
    Poly,
    Zmod,
    bareiss_det_int,
    det,
    howell,
    res_bezout_linalg,
    rres_linalg,
    sylvester,
)

from oracles import berkowitz_det, howell_lists

COMPOSITE = 251 * 241 * 239 * 233 * 229 * 227 * 223 * 211   # 63 bits, 8 primes


def rand_poly(rng, R, max_deg):
    return Poly.from_ints(R, [rng.randrange(R.n) for _ in range(rng.randrange(1, max_deg + 2))])


class TestSylvester:
    def test_shape_and_layout(self):
        R = Zmod(7)
        f = Poly.from_ints(R, [1, 2, 3])  # 3x^2+2x+1
        g = Poly.from_ints(R, [4, 5])  # 5x+4
        S = sylvester(f, g)
        assert S.to_lists() == [
            [3, 2, 1],  # one row of f (deg g = 1)
            [5, 4, 0],  # two rows of g (deg f = 2)
            [0, 5, 4],
        ]


class TestBareiss:
    def test_matches_sympy(self):
        rng = random.Random(3)
        for size in range(0, 6):
            for _ in range(10):
                rows = [[rng.randrange(-50, 50) for _ in range(size)] for _ in range(size)]
                want = int(sympy.Matrix(rows).det()) if size else 1
                assert bareiss_det_int(rows) == want
        # inputs that swap rows or find no pivot, which random dense entries
        # almost never do: permutation matrices (the swap sign), a zero first
        # column, and zero pivots that appear only after elimination, with
        # a nonzero entry below them (a swap) or none (determinant 0)
        cases = [[[int(j == p[i]) for j in range(size)] for i in range(size)]
                 for size in range(1, 5) for p in itertools.permutations(range(size))]
        cases += [[[0, 2], [3, 5]], [[0, 1, 2], [0, 3, 4], [0, 5, 7]],
                  [[1, 2, 3], [2, 4, 5], [3, 7, 1]], [[1, 2, 3], [2, 4, 6], [1, 1, 1]],
                  [[2, 4, 1, 3], [1, 2, 5, 1], [3, 6, 2, 2], [1, 1, 1, 1]]]
        for i in range(30):
            # row 1 starts as a multiple of row 0, so the second pivot is zero;
            # in every other case the last row is a sum of multiples of rows
            # 0 and 1, so the matrix is singular and some column has no pivot
            size = rng.randrange(3, 6)
            rows = [[rng.randrange(-9, 10) for _ in range(size)] for _ in range(size)]
            rows[1][:2] = [rng.randrange(-3, 4) * x for x in rows[0][:2]]
            if i % 2:
                a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
                rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
            cases.append(rows)
        for rows in cases:
            assert bareiss_det_int(rows) == int(sympy.Matrix(rows).det()), rows

    def test_berkowitz_oracle_agrees_over_zmod(self):
        # the division-free oracle that checks res over Galois rings
        rng = random.Random(4)
        for size in range(1, 7):
            for _ in range(20):
                R = Zmod(rng.randrange(2, 1000))
                rows = [[rng.randrange(R.n) for _ in range(size)] for _ in range(size)]
                assert berkowitz_det(R, rows) == det(Matrix(R, rows)), (R.n, rows)

    def test_det_mod(self):
        R = Zmod(4)
        f = Poly.from_ints(R, [1, 2, 0, 1])
        g = Poly.from_ints(R, [2, 0, 2, 1])
        assert det(sylvester(f, g)) == 37 % 4


class TestHowell:
    def test_fixed_prime_square_example(self):
        # [[p,1],[p,1+p]] over Z/p^2 has Howell form [[p,1],[0,p]]
        for p in (2, 3, 5):
            R = Zmod(p * p)
            H = howell(Matrix(R, [[p, 1], [p, 1 + p]]))
            assert H.to_lists() == [[p, 1], [0, p]]

    def test_z4_example(self):
        R = Zmod(4)
        H = howell(Matrix(R, [[2, 1], [2, 3]]))
        assert H.to_lists() == [[2, 1], [0, 2]]

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(2, 200)
            R = Zmod(n)
            size = rng.randrange(1, 5)
            M = Matrix(R, [[rng.randrange(n) for _ in range(size)] for _ in range(size)])
            H = howell(M)
            assert howell(H) == H

    def test_span_preserved(self):
        # every original row reduces to zero against the Howell form
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randrange(2, 200)
            R = Zmod(n)
            size = rng.randrange(1, 5)
            rows = [[rng.randrange(n) for _ in range(size)] for _ in range(size)]
            H = howell(Matrix(R, rows))
            for row in rows:
                t = list(row)
                for col in range(size):
                    if R.is_zero(t[col]):
                        continue
                    piv = H.rows[col][col]
                    q = R.try_divide(t[col], piv) if not R.is_zero(piv) else None
                    assert q is not None, (n, rows, H.to_lists())
                    for j in range(size):
                        t[j] = R.sub(t[j], R.mul(q, H.rows[col][j]))
                assert all(R.is_zero(c) for c in t)

    def test_canonical_under_unimodular_row_mixes(self):
        # the Howell form depends on the row span only, so howell(U*M) ==
        # howell(M) for every unimodular U; each U here is a random product of
        # row swaps, unit scalings and row additions
        rng = random.Random(12)
        for n, primes in ((72, (2, 3)), (9699690, (2, 3, 5, 7)), (2**6, (2,)),
                          (2**64, (2,)), (3**4, (3,)), (3**40, (3,))):
            R = Zmod(n)
            for size in range(1, 9):
                # entries rich in zero divisors, and some dependent rows
                base = [[rng.randrange(n) * rng.choice(primes) ** rng.randrange(4) % n
                         for _ in range(size)] for _ in range(max(1, size - rng.randrange(3)))]
                rows = [[sum(rng.randrange(3) * b[c] for b in base) % n for c in range(size)]
                        for _ in range(size)]
                mixed = [list(r) for r in rows]
                for _ in range(4 * size):
                    i, j = rng.randrange(size), rng.randrange(size)
                    op = rng.randrange(3)
                    if op == 0:
                        mixed[i], mixed[j] = mixed[j], mixed[i]
                    elif op == 1:
                        u = rng.randrange(1, n)
                        while not R.is_unit(u):
                            u = rng.randrange(1, n)
                        mixed[i] = [u * x % n for x in mixed[i]]
                    elif i != j:
                        c = rng.randrange(n)
                        mixed[i] = [(x + c * y) % n for x, y in zip(mixed[i], mixed[j])]
                assert howell(Matrix(R, mixed)) == howell(Matrix(R, rows)), (n, rows, mixed)

    def test_identity_shortcut(self, monkeypatch):
        # a unit pivot in every column makes the Howell form the identity,
        # returned before the annihilator, normalisation and size-reduction
        # passes (which call _unit_scale once per pivot); a non-unit
        # determinant takes them all, and so does a call whose augmented
        # columns ride along, even when its pivots are units
        scaled = []
        unit_scale = linalg._unit_scale
        monkeypatch.setattr(linalg, "_unit_scale", lambda n, h: scaled.append(h) or unit_scale(n, h))
        rng = random.Random(23)
        seen = {True: 0, False: 0}
        for n in (72, 9699690, 2**64):
            R = Zmod(n)
            for size in range(1, 7):
                for _ in range(4):
                    rows = [[rng.randrange(n) for _ in range(size)] for _ in range(size)]
                    if not any(map(any, rows)):
                        continue
                    scaled.clear()
                    H = howell(Matrix(R, rows)).to_lists()
                    unit = math.gcd(det(Matrix(R, rows)), n) == 1
                    seen[unit] += 1
                    identity = [[int(i == j) for j in range(size)] for i in range(size)]
                    assert (H == identity) == unit and (not scaled) == unit, (n, rows, H)
        assert min(seen.values()) >= 10, seen
        R = Zmod(2**64)
        f, g = Poly.from_ints(R, [3, 1, 4, 1]), Poly.from_ints(R, [5, 9, 2])
        scaled.clear()
        cert = res_bezout_linalg(f, g)
        assert R.is_unit(cert.value) and scaled
        assert cert.u * f + cert.v * g == Poly.const(R, cert.value)

    def test_matches_list_oracle(self):
        # the packed elimination against the list one, pivot dict for pivot
        # dict: random, all-(n - 1) and rank-deficient rows, square and with
        # an identity block riding along (as res_bezout_linalg appends), over
        # moduli with 1- to 17-byte slots (2^127 - 1 is wider than a word)
        rng = random.Random(27)
        for n in (2**64, COMPOSITE, 72, 9699690, 3**40, 2, 4, 2**127 - 1):
            for N in (1, 2, 3, 24, 40, 64):
                base = [[rng.randrange(n) for _ in range(N)] for _ in range(max(1, N // 3))]
                cases = [[[rng.randrange(n) for _ in range(N)] for _ in range(N)],
                         [[n - 1] * N for _ in range(N)],
                         [[sum(rng.randrange(3) * r[c] for r in base) % n for c in range(N)]
                          for _ in range(N)]]
                for rows in cases:
                    assert linalg._howell_core(n, rows, N) == howell_lists(n, rows, N), (n, rows)
                    rows = [r + [int(i == j) for j in range(N)] for i, r in enumerate(rows)]
                    assert linalg._howell_core(n, rows, N) == howell_lists(n, rows, N), (n, rows)

    def test_empty_and_zero(self):
        R = Zmod(12)
        assert howell(Matrix(R, ())) == Matrix(R, ())
        assert howell(Matrix(R, [[0]])).to_lists() == [[0]]


class TestLinalgResultants:
    def test_rres_example(self):
        R = Zmod(12)
        f = Poly.from_ints(R, [3, 2, 1])
        g = Poly.from_ints(R, [1, 0, 1])
        assert rres_linalg(f, g) == 4

    def test_rres_requires_invertible_lc(self):
        R = Zmod(12)
        f = Poly.from_ints(R, [1, 2])
        g = Poly.from_ints(R, [1, 4])
        with pytest.raises(NonInvertibleLeadingCoeffError):
            rres_linalg(f, g)

    def test_res_bezout_identity(self):
        # the certificate is the last row of adj(S), so it exists for every
        # pair: zero-divisor leading coefficients on either side and res = 0
        # included
        rng = random.Random(9)
        moduli = [rng.randrange(2, 10**4) for _ in range(30)]
        moduli += [4, 2**5, 2**8, 2**64, 9, 3**4, 3**40, 72]
        seen = {"zd lc f": 0, "zd lc g": 0, "res 0": 0}
        for n in moduli:
            R = Zmod(n)
            zero_divisors = [c for c in range(2, min(n, 300)) if not R.is_unit(c)]
            for case in range(6):
                f, g = rand_poly(rng, R, 5), rand_poly(rng, R, 5)
                if case == 5:
                    # a monic common factor makes res = 0
                    h = Poly.from_ints(R, [rng.randrange(n), 1])
                    f, g = f * h, g * h
                elif zero_divisors and case % 2:
                    f = Poly(R, (*f.coeffs[:-1], rng.choice(zero_divisors)))
                    if case == 3:
                        g = Poly(R, (*g.coeffs[:-1], rng.choice(zero_divisors)))
                if f.is_zero() or g.is_zero() or f.degree + g.degree == 0:
                    continue
                cert = res_bezout_linalg(f, g)
                assert cert.u * f + cert.v * g == Poly.const(R, cert.value), (n, f, g)
                assert cert.value == det(sylvester(f, g))
                assert cert.u.is_zero() or cert.u.degree < g.degree
                assert cert.v.is_zero() or cert.v.degree < f.degree
                seen["zd lc f"] += not R.is_unit(f.lc)
                seen["zd lc g"] += not R.is_unit(g.lc)
                seen["res 0"] += R.is_zero(cert.value)
        assert min(seen.values()) >= 10, seen
