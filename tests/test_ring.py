import math

import pytest
from hypothesis import given, settings, strategies as st

from ringres import (
    ContextMismatchError,
    GaloisRing,
    NotSplittingError,
    NotUnitError,
    Zmod,
    find_irreducible,
    parse_ring,
)
from ringres.ring import _fp_is_irreducible

from oracles import is_irreducible_trial

moduli = st.integers(min_value=2, max_value=10**6)


class TestZmod:
    def test_basic_arithmetic(self):
        R = Zmod(12)
        assert R.add(7, 8) == 3
        assert R.mul(7, 8) == 8
        assert R.neg(5) == 7
        assert R.sub(3, 5) == 10
        assert R.pow_elem(5, 2) == 1

    def test_unit_nilpotent_split_classification(self):
        R = Zmod(12)
        assert R.is_unit(5) and not R.is_unit(3)
        assert not R.is_nilpotent(2)  # 2^k never hits 0 mod 12
        assert R.is_splitting(3) and R.is_splitting(4)
        assert not R.is_splitting(5)
        R8 = Zmod(8)
        assert R8.is_nilpotent(2) and not R8.is_splitting(2)

    def test_inv(self):
        R = Zmod(12)
        assert R.mul(R.inv(5), 5) == 1
        with pytest.raises(NotUnitError):
            R.inv(3)

    def test_try_divide(self):
        R = Zmod(12)
        assert R.try_divide(8, 4) == 2
        assert R.mul(R.try_divide(6, 3), 3) == 6
        assert R.try_divide(1, 2) is None

    def test_gcd_bezout_canonical(self):
        R = Zmod(12)
        g, u, v = R.gcd_bezout(8, 6)
        assert g == R.add(R.mul(u, 8), R.mul(v, 6))
        assert g == 2  # canonical divisor of 12

    def test_colon_ideal(self):
        R = Zmod(12)
        assert R.colon(4, 2) == 2  # (4):(2) = (2) in Z/12
        assert R.colon(0, 3) == 4

    def test_split_and_crt_roundtrip(self):
        R = Zmod(12)
        R1, R2 = R.split(4)
        assert {R1.n, R2.n} == {4, 3}
        for a in range(12):
            back = R.crt(R1, a % R1.n, R2, a % R2.n)
            assert back == a

    def test_split_rejects_non_splitting(self):
        with pytest.raises(NotSplittingError):
            Zmod(12).split(5)

    def test_quotients(self):
        R = Zmod(12)
        assert R.ann_quotient(4).n == 3  # 12/gcd(12,4)
        assert R.quotient_by(4).n == 4

    @given(n=moduli, a=st.integers(0, 10**6), b=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_gcd_bezout_identity(self, n, a, b):
        R = Zmod(n)
        a, b = a % n, b % n
        g, u, v = R.gcd_bezout(a, b)
        assert g == R.add(R.mul(u, a), R.mul(v, b))
        assert g == R.ideal_gen(math.gcd(math.gcd(a, b), n))

    @given(n=moduli, a=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_ideal_gen_is_canonical_divisor(self, n, a):
        R = Zmod(n)
        g = R.ideal_gen(a % n)
        assert g == math.gcd(a % n, n) % n

    @given(n=moduli, a=st.integers(0, 10**6), b=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_try_divide_exactness(self, n, a, b):
        R = Zmod(n)
        a, b = a % n, b % n
        q = R.try_divide(a, b)
        if q is not None:
            assert R.mul(q, b) == a


class TestGaloisRing:
    def test_modular_polynomial_multiplication(self):
        gr = GaloisRing(2, 3, (1, 1, 1))  # (Z/8)[t]/(t^2+t+1)
        t = (0, 1)
        assert gr.mul(t, t) == (7, 7)  # t^2 = -t - 1

    def test_derived_constants(self):
        lam = find_irreducible(3, 2)
        R = GaloisRing(3, 20, lam)
        assert (R.k, R.pe) == (2, 3**20)
        # equality and hashing stay on (p, e, lam)
        assert R == GaloisRing(3, 20, lam) and hash(R) == hash(GaloisRing(3, 20, lam))
        assert R != GaloisRing(3, 19, lam)

    def test_locality(self):
        gr = GaloisRing(2, 3, (1, 1, 1))
        for a in [(2, 0), (0, 2), (4, 6)]:
            assert not gr.is_splitting(a)
        with pytest.raises(NotSplittingError):
            gr.split((2, 0))
        with pytest.raises(ContextMismatchError):
            gr.crt(gr, gr.one, gr, gr.one)

    @pytest.mark.parametrize("p, e, k", [(2, 3, 2), (3, 20, 2), (101, 4, 4), (2, 8, 3)])
    def test_pow_elem_square_and_multiply(self, p, e, k, monkeypatch):
        # values as repeated mul; bits(j) - 1 squarings and popcount(j) - 1
        # products, so a^1 costs none and a^2 one
        R = GaloisRing(p, e, find_irreducible(p, k))
        a = tuple((3 * i + p) % R.pe for i in range(1, k + 1))
        want, powers = R.one, []
        for _ in range(65):
            powers.append(want)
            want = R.mul(want, a)
        calls = []
        mul = GaloisRing.mul
        monkeypatch.setattr(GaloisRing, "mul", lambda self, x, y: calls.append(1) or mul(self, x, y))
        for j, want in enumerate(powers):
            calls.clear()
            assert R.pow_elem(a, j) == want, (R, j)
            assert len(calls) == (j.bit_length() + bin(j).count("1") - 2 if j else 0), (R, j)

    def test_val_unit_inverse(self):
        gr = GaloisRing(2, 3, (1, 1, 1))
        a = (3, 2)
        assert gr.val(a) == 0 and gr.is_unit(a)
        assert gr.mul(gr.inv(a), a) == gr.one
        assert gr.val((2, 4)) == 1
        assert gr.val(gr.zero) == 3

    def test_inverse_random(self):
        import random

        rng = random.Random(1)
        gr = GaloisRing(3, 2, find_irreducible(3, 3))
        for _ in range(50):
            a = tuple(rng.randrange(9) for _ in range(3))
            if gr.is_unit(a):
                assert gr.mul(gr.inv(a), a) == gr.one

    @pytest.mark.parametrize("p, e, lam, units", [
        (2, 3, find_irreducible(2, 2), 48), (3, 2, find_irreducible(3, 2), 72),
        (5, 1, find_irreducible(5, 2), 24), (7, 2, (0, 1), 42),
        # lam reducible mod p, (t + 1)^2 and (t - 1)^3: a is a unit iff a(1)
        # is not divisible by p, for half of the 64 and 2/3 of the 729 elements
        (2, 3, (1, 0, 1), 32), (3, 2, (2, 0, 0, 1), 486)])
    def test_inverse_brute_force(self, p, e, lam, units):
        # inv(a) is the one x with a*x == 1 found by trying every x, and
        # NotUnitError when there is none: non-units, and zero divisors of
        # valuation 0 when lam is reducible
        gr = GaloisRing(p, e, lam)
        elems = list(gr.elements())
        found = 0
        for a in elems:
            xs = [x for x in elems if gr.mul(a, x) == gr.one]
            assert len(xs) <= 1
            if xs:
                found += 1
                assert gr.inv(a) == xs[0], a
            else:
                with pytest.raises(NotUnitError):
                    gr.inv(a)
        assert found == units

    @pytest.mark.parametrize("p, e, k", [
        (2, 8, 3), (3, 20, 2), (101, 4, 4),             # the benchmark's rings
        (2, 4, 6), (3, 3, 4), (5, 1, 3), (7, 1, 2),     # res_y branch rings
        (2, 64, 5)])
    def test_inverse_of_random_units(self, p, e, k):
        import random

        rng = random.Random(p * 1000 + e * 10 + k)
        gr = GaloisRing(p, e, find_irreducible(p, k))
        for _ in range(100):
            a = tuple(rng.randrange(gr.pe) for _ in range(k))
            if not gr.is_unit(a):
                with pytest.raises(NotUnitError):
                    gr.inv(a)
                a = gr.add(a, gr.one)       # p divides every coefficient of a, so a unit
            assert gr.mul(gr.inv(a), a) == gr.one
            pa = gr.mul(a, gr.from_int(p))
            with pytest.raises(NotUnitError):
                gr.inv(pa)
        with pytest.raises(NotUnitError):
            gr.inv(gr.zero)

    def test_ideal_gen_and_try_divide(self):
        gr = GaloisRing(2, 3, (1, 1, 1))
        assert gr.ideal_gen((2, 4)) == (2, 0)
        q = gr.try_divide((4, 4), (2, 0))
        assert q is not None and gr.mul(q, (2, 0)) == (4, 4)

    def test_quotients(self):
        gr = GaloisRing(2, 3, (1, 1, 1))
        assert gr.ann_quotient((2, 0)).e == 2
        assert gr.quotient_by((2, 0)).e == 1

    def test_residue_lifts_pairwise_unit_differences(self):
        gr = GaloisRing(2, 2, (1, 1, 1))
        pts = list(gr.residue_lifts())
        assert len(pts) == 4
        # res_y starts each Frobenius orbit of its points at the first lift
        # in this order whose residue is in an orbit not used before, so the
        # base-p digit order (lowest t-coefficient first) is part of the
        # contract
        assert pts == [(0, 0), (1, 0), (0, 1), (1, 1)]
        gr3 = GaloisRing(3, 4, (1, 2, 0, 1))
        assert list(gr3.residue_lifts()) == [
            (i % 3, i // 3 % 3, i // 9) for i in range(27)]
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                assert gr.is_unit(gr.sub(a, b))


def test_find_irreducible_properties():
    for p, k in [(2, 2), (2, 5), (3, 3), (5, 2), (7, 1)]:
        lam = find_irreducible(p, k)
        assert len(lam) == k + 1 and lam[-1] == 1
        assert is_irreducible_trial(lam, p)
        gr = GaloisRing(p, 1, lam)
        # no roots in the prime field when k > 1
        if k > 1:
            for a in range(p):
                acc, pw = 0, 1
                for c in lam:
                    acc = (acc + c * pw) % p
                    pw = pw * a % p
                assert acc != 0


def test_irreducible_matches_trial_division():
    # every monic lam of degree <= 4 over F_2, F_3, F_5 and <= 6 over F_2
    for p, kmax in [(2, 6), (3, 4), (5, 4)]:
        for k in range(1, kmax + 1):
            for idx in range(p ** k):
                lam = [idx // p ** i % p for i in range(k)] + [1]
                assert _fp_is_irreducible(lam, p) == is_irreducible_trial(lam, p), (p, lam)


def test_find_irreducible_pinned():
    # the benchmark's Galois rings and the res_y plans depend on these
    assert {pk: find_irreducible(*pk) for pk in
            [(2, 3), (3, 2), (101, 4), (2, 6), (3, 4), (5, 3), (7, 2)]} == {
        (2, 3): (1, 1, 0, 1), (3, 2): (2, 1, 1), (101, 4): (68, 37, 94, 94, 1),
        (2, 6): (1, 0, 0, 0, 0, 1, 1), (3, 4): (2, 1, 0, 0, 1), (5, 3): (3, 3, 0, 1),
        (7, 2): (6, 3, 1)}


def test_parse_ring():
    assert parse_ring("12") == Zmod(12)
    gr = parse_ring("2^3;2;1,1,1")
    assert isinstance(gr, GaloisRing) and gr.p == 2 and gr.e == 3 and gr.lam == (1, 1, 1)
    # lam = (t+1)^2 mod 2 is not irreducible, and 4 is not prime
    with pytest.raises(ValueError, match="irreducible"):
        parse_ring("2^3;2;1,0,1")
    with pytest.raises(ValueError, match="prime"):
        parse_ring("4^2;1;1,1")
    # built directly, such a ring cannot invert the zero divisor t+1
    with pytest.raises(NotUnitError):
        GaloisRing(2, 3, (1, 0, 1)).inv((1, 1))
