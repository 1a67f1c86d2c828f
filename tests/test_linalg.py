import random

import pytest
import sympy

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

from oracles import berkowitz_det


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
        rng = random.Random(9)
        done = 0
        while done < 60:
            n = rng.randrange(2, 10**4)
            R = Zmod(n)
            f, g = rand_poly(rng, R, 5), rand_poly(rng, R, 5)
            if f.is_zero() or g.is_zero() or f.degree + g.degree == 0:
                continue
            if not (R.is_unit(f.lc) or R.is_unit(g.lc)):
                continue
            try:
                cert = res_bezout_linalg(f, g)
            except AssertionError:
                continue  # inconsistent system for this instance
            assert cert.u * f + cert.v * g == Poly.const(R, cert.value)
            assert cert.value == det(sylvester(f, g))
            done += 1
