import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ringres import (GaloisRing, Poly, Zmod, det, find_irreducible, res, res_ideal,
                     rres, rres_bezout, sylvester)
from ringres.poly import UnitChain, _Packed, divrem
from ringres.resultant import Reduced, SplitElem, _res_unit, ppa

from oracles import berkowitz_det, rres_howell_oracle

P64 = 18446744073709551557          # largest 64-bit prime
COMPOSITE = 251 * 241 * 239 * 233 * 229 * 227 * 223 * 211
PACKED_MODULI = (2, 10007, 2**25 + 1, 3**40, 2**64, P64, COMPOSITE, 2**127 - 1)


def rand_poly(rng, R, max_deg):
    return Poly.from_ints(R, [rng.randrange(R.n) for _ in range(rng.randrange(1, max_deg + 2))])


class TestFixedExamples:
    def test_rres_z12(self):
        R = Zmod(12)
        assert rres(Poly.from_ints(R, [3, 2, 1]), Poly.from_ints(R, [1, 0, 1])) == 4

    def test_res_z4_matches_determinant(self):
        # The hand-reduction that yields the associate 3 drops the swap signs;
        # the determinant convention gives res = 37 = 1 mod 4 (the two values
        # generate the same ideal, differing by the unit -1).
        R = Zmod(4)
        f = Poly.from_ints(R, [1, 2, 0, 1])
        g = Poly.from_ints(R, [2, 0, 2, 1])
        assert res(f, g) == det(sylvester(f, g)) == 1
        assert R.ideal_gen(res(f, g)) == R.ideal_gen(3)
        assert res(g, f) == 3  # the swap differs by (-1)^(3*3)
        assert res_ideal(f, g) == 1

    def test_res_constant_cases(self):
        R = Zmod(7)
        f = Poly.from_ints(R, [3, 1])
        c = Poly.from_ints(R, [5])
        assert res(f, c) == 5  # c^(deg f)
        assert res(c, f) == 5

    def test_res_linear_difference(self):
        R = Zmod(100)
        f = Poly.from_ints(R, [-3, 1])  # x - 3
        g = Poly.from_ints(R, [-10, 1])  # x - 10
        assert res(f, g) == (3 - 10) % 100

    def test_rres_zero_value(self):
        R = Zmod(4)
        assert rres(Poly.from_ints(R, [1, 0, 1]), Poly.from_ints(R, [2, 2])) == 0

    def test_ppa_reduced_example(self):
        R = Zmod(4)
        f = Poly.from_ints(R, [2, 0, 2])
        g = Poly.from_ints(R, [2, 2])
        out = ppa(f, g)
        assert isinstance(out, Reduced)
        assert out.c == 2
        assert out.f.coeffs == (1, 0, 1) and out.g.coeffs == (1, 1)

    def test_rres_unit_polynomial_partner(self):
        # 3+6x is a unit of (Z/8)[x] (unit constant term, nilpotent above),
        # so the pair generates the whole ring even though g has content 2.
        # The content-extraction shortcut must not fire here.
        R = Zmod(8)
        f = Poly.from_ints(R, [3, 6])
        g = Poly.from_ints(R, [0, 0, 4, 6, 2, 6])
        assert rres(f, g) == 1
        assert rres(g, f) == 1
        cert = rres_bezout(f, g)
        assert cert.u * f + cert.v * g == Poly.const(R, cert.value)
        assert R.ideal_gen(cert.value) == 1

    def test_ppa_splitting_example(self):
        R = Zmod(6)
        f = Poly.from_ints(R, [2, 1])
        g = Poly.from_ints(R, [4, 2])
        out = ppa(f, g)
        assert isinstance(out, (SplitElem, Reduced))
        if isinstance(out, SplitElem):
            assert R.is_splitting(out.element)


class TestAgainstOracles:
    def test_res_equals_det_random(self):
        rng = random.Random(101)
        for _ in range(300):
            n = rng.randrange(2, 10**6)
            R = Zmod(n)
            f, g = rand_poly(rng, R, 6), rand_poly(rng, R, 6)
            if f.is_zero() or g.is_zero():
                continue
            if f.degree + g.degree < 1:
                assert res(f, g) == R.one  # empty Sylvester matrix
                continue
            assert res(f, g) == det(sylvester(f, g)), (n, f.coeffs, g.coeffs)

    def test_rres_equals_howell_oracle_random(self):
        rng = random.Random(102)
        for _ in range(150):
            n = rng.randrange(2, 10**4)
            R = Zmod(n)
            f, g = rand_poly(rng, R, 5), rand_poly(rng, R, 5)
            if f.is_zero() or g.is_zero():
                continue
            assert rres(f, g) == rres_howell_oracle(f, g), (n, f.coeffs, g.coeffs)

    def test_bezout_certificate_random(self):
        rng = random.Random(103)
        for _ in range(150):
            n = rng.randrange(2, 10**4)
            R = Zmod(n)
            f, g = rand_poly(rng, R, 5), rand_poly(rng, R, 5)
            if f.is_zero() or g.is_zero():
                continue
            cert = rres_bezout(f, g)
            assert cert.u * f + cert.v * g == Poly.const(R, cert.value)
            assert R.ideal_gen(cert.value) == rres(f, g)


class TestLongEuclideanChain:
    def test_bezout_certificate_degree_1100(self):
        # The Euclidean chain has about 1100 steps; a certificate must not
        # depend on the interpreter's recursion limit.
        rng = random.Random(108)
        R = Zmod(10007)
        f = Poly.from_ints(R, [rng.randrange(R.n) for _ in range(1100)] + [1])
        g = Poly.from_ints(R, [rng.randrange(R.n) for _ in range(1099)] + [1])
        cert = rres_bezout(f, g)
        assert cert.u * f + cert.v * g == Poly.const(R, cert.value)
        assert R.ideal_gen(cert.value) == rres(f, g)


class TestGaloisRings:
    def rand_elem(self, rng, R):
        x = tuple(rng.randrange(R.pe) for _ in range(R.k))
        if rng.random() < 0.5:  # nilpotent coefficients drive content and Hensel steps
            x = R.mul(x, R.from_int(R.p ** rng.randrange(1, R.e + 1)))
        return x

    def test_rres_and_certificates(self):
        rng = random.Random(109)
        for p, e, k in ((2, 3, 2), (3, 2, 2), (2, 5, 3), (5, 2, 1)):
            R = GaloisRing(p, e, find_irreducible(p, k))
            for _ in range(40):
                f, g = (Poly(R, [self.rand_elem(rng, R)
                                 for _ in range(rng.randrange(1, 8))])
                        for _ in range(2))
                if f.is_zero() or g.is_zero():
                    continue
                cert = rres_bezout(f, g)
                r = rres(f, g)
                assert cert.u * f + cert.v * g == Poly.const(R, cert.value), (R, f, g)
                assert R.ideal_gen(cert.value) == r, (R, f, g)
                assert R.val(r) <= R.val(res(f, g)), (R, f, g)

    def test_res_matches_berkowitz_det(self):
        # the last two are the res_y branch rings of Z/15120 at B = 24
        rng = random.Random(110)
        for p, e, k in ((2, 3, 2), (3, 2, 2), (2, 5, 3), (101, 4, 4), (2, 4, 5), (3, 3, 3)):
            R = GaloisRing(p, e, find_irreducible(p, k))
            done = 0
            while done < 20:
                f, g = (Poly(R, [self.rand_elem(rng, R)
                                 for _ in range(rng.randrange(1, 7))])
                        for _ in range(2))
                if f.is_zero() or g.is_zero() or f.degree + g.degree < 1:
                    continue
                assert res(f, g) == berkowitz_det(R, sylvester(f, g).rows), (R, f, g)
                done += 1


class TestResUnit:
    """_res_unit for a unit u0 + u1*x + ... + um*x^m (closed form at m = 1,
    the truncated reversal above), against det(sylvester)."""

    @pytest.mark.parametrize("R, p", [(Zmod(3**40), 3), (Zmod(2**64), 2),
                                      (GaloisRing(3, 20, find_irreducible(3, 2)), 3),
                                      (Zmod(2**6), 2), (Zmod(3**4), 3),
                                      (GaloisRing(2, 3, find_irreducible(2, 2)), 2)],
                             ids=str)
    def test_matches_sylvester_det(self, R, p):
        galois = isinstance(R, GaloisRing)
        q = R.pe if galois else R.n
        rng = random.Random(f"res_unit/{R}")

        def elem():
            return tuple(rng.randrange(q) for _ in range(R.k)) if galois else rng.randrange(q)

        def nil(v):
            return R.mul(elem(), R.from_int(p**v))

        done = truncated = 0
        while done < 60:
            # u1..um = p^v * c with v = 1..3: (-u1)^j vanishes from j >= e/v
            # on (p^e == 0), below or above deg f; f may have f(0) == 0 or a
            # nilpotent lc.  For m >= 2 on the small rings deg f >= m*E, so
            # the reversal of f is cut to m*E coefficients
            m = 1 + done % 3
            us = [elem()] + [nil(rng.randrange(1, 4)) for _ in range(m)]
            cs = [elem() for _ in range(rng.randrange(2, 17 if galois else 30))]
            if rng.random() < 0.3:
                cs[0] = R.zero
            if rng.random() < 0.3:
                cs[-1] = nil(1)
            f, u = Poly(R, cs), Poly(R, us)
            if not R.is_unit(us[0]) or u.degree != m or f.degree < 1:
                continue
            S = sylvester(f, u)
            want = berkowitz_det(R, S.rows) if galois else det(S)
            assert _res_unit(f, u, False) == want, (f, u)
            done += 1
            truncated += m >= 2 and f.degree - (f.coeffs[0] == R.zero) >= m * R.E
        if R.E <= 6:
            assert truncated >= 10


class TestAlgebraicIdentities:
    def test_swap_sign(self):
        rng = random.Random(104)
        for _ in range(200):
            n = rng.randrange(2, 10**5)
            R = Zmod(n)
            f, g = rand_poly(rng, R, 5), rand_poly(rng, R, 5)
            if f.is_zero() or g.is_zero():
                continue
            r = res(g, f)
            if (f.degree * g.degree) % 2:
                r = R.neg(r)
            assert res(f, g) == r

    def test_multiplicativity(self):
        rng = random.Random(105)
        done = 0
        while done < 200:
            n = rng.randrange(2, 10**5)
            R = Zmod(n)
            f, g, h = (rand_poly(rng, R, 3) for _ in range(3))
            if f.is_zero() or g.is_zero() or h.is_zero():
                continue
            fg = f * g
            if fg.degree != f.degree + g.degree:
                continue  # identity needs additive degrees
            assert res(fg, h) == R.mul(res(f, h), res(g, h))
            done += 1

    def test_content_rule(self):
        rng = random.Random(106)
        done = 0
        while done < 200:
            n = rng.randrange(2, 10**5)
            R = Zmod(n)
            f, g = rand_poly(rng, R, 4), rand_poly(rng, R, 4)
            c = rng.randrange(1, n)
            if f.is_zero() or g.is_zero() or R.is_zero(R.mul(c, g.lc)):
                continue
            assert res(f, g.scale(c)) == R.mul(R.pow_elem(c, f.degree), res(f, g))
            done += 1

    def test_crt_degree_correction(self):
        # project res over Z/n to Z/n1 and compare with the corrected value
        rng = random.Random(107)
        done = 0
        while done < 200:
            n1 = rng.randrange(2, 300)
            n2 = rng.randrange(2, 300)
            import math

            if math.gcd(n1, n2) != 1:
                continue
            R = Zmod(n1 * n2)
            R1 = Zmod(n1)
            f, g = rand_poly(rng, R, 4), rand_poly(rng, R, 4)
            if f.is_zero() or g.is_zero():
                continue
            f1, g1 = f.map_ring(R1), g.map_ring(R1)
            whole = res(f, g) % n1
            if f1.is_zero() or g1.is_zero():
                done += 1
                continue
            d = f.degree - f1.degree
            e = g.degree - g1.degree
            if d and e:
                assert whole == 0
            elif d:
                val = R1.mul(R1.pow_elem(g1.lc, d), res(f1, g1))
                if (d * g.degree) % 2:
                    val = R1.neg(val)
                assert whole == val
            elif e:
                assert whole == R1.mul(R1.pow_elem(f1.lc, e), res(f1, g1))
            else:
                assert whole == res(f1, g1)
            done += 1


def unit(rng, n):
    while True:
        x = rng.randrange(1, n) if n > 2 else 1
        if math.gcd(x, n) == 1:
            return x


def planted_chain(rng, R, degs, bottom_lc=None):
    """(f, g) whose Euclidean remainders have the degrees degs (descending)
    and unit leading coefficients, except that the last one has bottom_lc."""
    n = R.n

    def poly(d, lc):
        return Poly.from_ints(R, [rng.randrange(n) for _ in range(d)] + [lc])

    r = [poly(d, unit(rng, n)) for d in degs[-2:]]
    if bottom_lc is not None:
        r[-1] = poly(degs[-1], bottom_lc)
    for i in range(len(degs) - 2, 0, -1):
        # r_{i-1} = q r_i + r_{i+1}, so r_{i+1} is the remainder of r_{i-1} by r_i
        r.insert(0, poly(degs[i - 1] - degs[i], unit(rng, n)) * r[0] + r[1])
    return r[0], r[1]


def non_unit(n):
    """A non-unit other than 0, or None when Z/n is a field."""
    p = next((p for p in range(2, 10**4) if n % p == 0), n)
    return None if p == n else p


class TestPackedEuclid:
    """Euclidean chains over Z/n whose divisors have unit leading
    coefficients run on packed integers; every result is checked against an
    oracle: res against det(sylvester), rres against the Howell form, and
    every certificate by re-multiplication."""

    def check(self, f, g):
        R = f.ring
        if f.degree + g.degree >= 1:
            assert res(f, g) == det(sylvester(f, g)), (R, f, g)
        r = rres(f, g)
        assert res_ideal(f, g) == R.ideal_gen(res(f, g))
        assert r == rres_howell_oracle(f, g), (R, f, g)
        cert = rres_bezout(f, g)
        assert cert.u * f + cert.v * g == Poly.const(R, cert.value), (R, f, g)
        assert R.ideal_gen(cert.value) == r

    @pytest.mark.parametrize("n", PACKED_MODULI)
    def test_packed_step_at_the_slot_bound(self, n):
        # the largest operands one packed step admits: X slots (n-1)(3n-1),
        # Y slots 3n-1 (reduced, not canonical), K coefficients n-1
        P = _Packed(n, 16)
        top, l = 3 * n - 1, P.K + 3
        xs, ys, cs = [(n - 1) * top] * l, [top] * 4, [n - 1] * P.K
        Z = P.submul(P.pack(xs), l, P.pack(cs), P.pack(ys))
        raw = Z.to_bytes(l * P.w, "little")
        for i in range(l):
            z = int.from_bytes(raw[i * P.w:(i + 1) * P.w], "little")
            t = sum(cs[j] * ys[i - j] for j in range(len(cs)) if 0 <= i - j < len(ys))
            assert z < 3 * n and z % n == (xs[i] - t) % n, (n, i)

    @pytest.mark.parametrize("n", PACKED_MODULI)
    def test_all_top_coefficients(self, n):
        # coefficients n - 1 give the largest slot sums of a packed step
        R = Zmod(n)
        top = Poly.from_ints(R, [n - 1] * 12)
        for g in (Poly.from_ints(R, [n - 1] * 11), Poly.from_ints(R, [n - 1] * 9 + [1]),
                  Poly.from_ints(R, [1] + [n - 1] * 10)):
            self.check(top, g)
            self.check(top * top, g * top + Poly.from_ints(R, [n - 1] * 5))

    @pytest.mark.parametrize("n", PACKED_MODULI)
    def test_degree_drops_inside_a_run(self, n):
        # quotients of degree 7 have more coefficients than one packed step
        # takes for some moduli (4 for 2^127 - 1), so they run in pieces
        rng = random.Random(n % 1000)
        R = Zmod(n)
        for degs in ((12, 11, 4, 3, 2, 1), (11, 10, 9, 6, 5, 0), (10, 3, 2, 1)):
            self.check(*planted_chain(rng, R, degs))

    @pytest.mark.parametrize("n", [n for n in PACKED_MODULI if non_unit(n)])
    def test_non_unit_lc_mid_chain(self, n):
        # the chain leaves the packed kernel at the planted remainder, then
        # splits (squarefree n) or Hensel-lifts (prime powers) and re-enters
        rng = random.Random(n % 997)
        R = Zmod(n)
        for degs in ((12, 11, 10, 9), (9, 8, 6, 5)):
            self.check(*planted_chain(rng, R, degs, bottom_lc=non_unit(n) * unit(rng, n) % n))

    @pytest.mark.parametrize("n", PACKED_MODULI)
    def test_deg_f_below_deg_g(self, n):
        rng = random.Random(n % 991)
        R = Zmod(n)
        for df, dg in ((3, 9), (0, 7), (6, 10)):
            f = Poly.from_ints(R, [rng.randrange(n) for _ in range(df)] + [unit(rng, n)])
            g, _ = planted_chain(rng, R, (dg, dg - 1, 2))
            self.check(f, g)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from(PACKED_MODULI),
           gaps=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           low=st.integers(0, 2), seed=st.integers(0, 2**32),
           mid=st.booleans(), swap=st.booleans())
    def test_planted_chains(self, n, gaps, low, seed, mid, swap):
        rng = random.Random(seed)
        R = Zmod(n)
        degs = [low]
        for gap in gaps:
            degs.insert(0, degs[0] + gap)
        if len(degs) == 2:
            degs.insert(0, degs[0] + 1)
        bottom = non_unit(n) if mid and low > 0 else None
        f, g = planted_chain(rng, R, degs, bottom_lc=bottom)
        self.check(*((g, f) if swap else (f, g)))


class TestUnitChain:
    """UnitChain's contract, checked directly: pair() is the (F_s, G_s) that
    repeated divrem reaches from (f, g), and lift turns cofactors of
    (F_s, G_s) into cofactors of (f, g).  Every planted divisor and quotient
    has a unit leading coefficient other than 1, so no step is monic."""

    @pytest.mark.parametrize("R", [Zmod(3**40), Zmod(2**64), Zmod(P64),
                                   GaloisRing(3, 20, find_irreducible(3, 2))], ids=str)
    def test_pair_and_lift(self, R):
        galois = R.kind == "galois"
        rng = random.Random(f"unit-chain/{R}")
        p = R.p if galois else non_unit(R.n)

        def elem():
            return tuple(rng.randrange(R.pe) for _ in range(R.k)) if galois else rng.randrange(R.n)

        def unit():
            while True:
                x = elem()
                if R.is_unit(x) and x != R.one:
                    return x

        def poly(d, lc):
            return Poly(R, [elem() for _ in range(d)] + [lc])

        for case in range(12):
            degs = [rng.randrange(0, 3)]
            for _ in range(rng.randrange(2, 7)):
                degs.insert(0, degs[0] + rng.randrange(1, 4))
            # the chain stops at a constant, a zero or a non-unit lc remainder
            bottom = ("const", "zero", "non-unit")[case % (3 if p else 2)]
            if bottom == "const":
                degs[-1] = 0
            last = (Poly.zero(R) if bottom == "zero" else
                    poly(degs[-1], R.mul(R.from_int(p), unit()) if bottom == "non-unit"
                         else unit()))
            r = [poly(degs[-2], unit()), last]
            for i in range(len(degs) - 2, 0, -1):
                r.insert(0, poly(degs[i - 1] - degs[i], unit()) * r[0] + r[1])
            f, g = r[0], r[1]
            F, G, steps = f, g, []
            while True:
                q, rem = divrem(F, G)
                steps.append((F.degree, G.degree, rem.degree, G.lc))
                F, G = G, rem
                if G.degree <= 0 or not R.is_unit(G.lc):
                    break
            chain = UnitChain(f, g)
            assert chain.pair() == (F, G) == (r[-2], r[-1]), (R, degs, bottom)
            assert chain.steps == steps
            u, v = (poly(F.degree - 1, elem()) for _ in range(2))
            u2, v2 = chain.lift(u, v)
            assert u2 * f + v2 * g == u * F + v * G, (R, degs, bottom)
            assert u2.degree < g.degree and v2.degree < f.degree
