import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ringres import (ContextMismatchError, GaloisRing, NeedsSplitError, Poly, Zmod, det,
                     find_irreducible, invert_unit, res, res_ideal, rres, rres_bezout, sylvester)
from ringres.ring import InvariantError
from ringres.poly import (_WORD_MIN, UnitChain, _Packed, divrem, divrem_primitive, fun_factor,
                          is_primitive, primitive_part)
from ringres.resultant import Reduced, _res_unit, ppa

from oracles import (berkowitz_det, divrem_rowwise, lowdiv_rowwise, rres_galois_oracle,
                     rres_howell_oracle)

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
        # 3+6x is a unit of (Z/8)[x] and of GR(8, 2)[x] (unit constant term,
        # nilpotent above), so the pair generates the whole ring even though
        # g has content 2.  The content-extraction shortcut must not fire here.
        for R in (Zmod(8), GaloisRing(2, 3, find_irreducible(2, 2))):
            f = Poly.from_ints(R, [3, 6])
            g = Poly.from_ints(R, [0, 0, 4, 6, 2, 6])
            assert rres(f, g) == R.one
            assert rres(g, f) == R.one
            cert = rres_bezout(f, g)
            assert cert.u * f + cert.v * g == Poly.const(R, cert.value)
            assert R.ideal_gen(cert.value) == R.one

    @pytest.mark.parametrize("op", [res, res_ideal, rres, rres_bezout])
    def test_mixed_rings_raise(self, op):
        # each public entry checks its operands' ring once, in both orders;
        # GR(2, 3, 1) and Z/8 have the same elements but are different rings
        pairs = [(Poly.from_ints(Zmod(12), [1, 2]), Poly.from_ints(Zmod(35), [3, 1])),
                 (Poly.from_ints(Zmod(8), [1, 2, 1]), Poly.from_ints(GaloisRing(2, 3, (0, 1)), [3, 1]))]
        for f, g in pairs:
            for a, b in ((f, g), (g, f)):
                with pytest.raises(ContextMismatchError):
                    op(a, b)

    def test_ppa_splitting_example(self):
        R = Zmod(6)
        f = Poly.from_ints(R, [2, 1])
        g = Poly.from_ints(R, [4, 2])
        with pytest.raises(NeedsSplitError) as e:
            ppa(f, g)
        assert e.value.element == 2


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
                assert r == rres_galois_oracle(f, g), (R, f, g)
                assert cert.u * f + cert.v * g == Poly.const(R, cert.value), (R, f, g)
                assert R.ideal_gen(cert.value) == r, (R, f, g)
                assert R.val(r) <= R.val(res(f, g)), (R, f, g)

    def test_oracle_rejects_p_times_rres(self):
        # a copy of rres that returned p*r, with the certificate scaled by
        # p, passes the membership check and the valuation bound whenever
        # val(r) < val(res); only the oracle tells r from p*r
        rng = random.Random(111)
        caught = 0
        for p, e, k in ((2, 5, 3), (3, 3, 3), (2, 8, 2), (5, 2, 1)):
            R = GaloisRing(p, e, find_irreducible(p, k))
            P = R.from_int(p)
            for _ in range(30):
                f, g = (Poly(R, [self.rand_elem(rng, R)
                                 for _ in range(rng.randrange(2, 6))])
                        for _ in range(2))
                if f.degree < 1 or g.degree < 1:
                    continue
                cert = rres_bezout(f, g)
                r = R.mul(P, cert.value)
                if R.is_zero(r) or R.val(r) > R.val(res(f, g)):
                    continue
                assert cert.u.scale(P) * f + cert.v.scale(P) * g == Poly.const(R, r)
                assert rres_galois_oracle(f, g) == rres(f, g) != R.ideal_gen(r), (R, f, g)
                caught += 1
        assert caught >= 20

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
                d = berkowitz_det(R, sylvester(f, g).rows)
                assert res(f, g) == d, (R, f, g)
                assert res_ideal(f, g) == R.ideal_gen(d), (R, f, g)
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
            # the top m + deg u^-1 + 1 coefficients
            top = f.coeffs[::-1][:m + len(invert_unit(u).coeffs)]
            assert _res_unit(list(top), f.degree, u, False) == want, (f, u)
            done += 1
            truncated += m >= 2 and f.degree - (f.coeffs[0] == R.zero) >= len(top)
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


# Pairs over Z/18 and Z/72 that meet a ring split at one site each, with the
# step that raises it and its splitting element: 2 and 4 split both rings,
# 6 and 12 are nilpotent in both, and 48 == 12 mod 18.
SPLIT_SITES = {
    "content of f": ([2, 4, 2, 2], [5, 3, 1], lambda f, g: primitive_part(f), 2),
    "content of g": ([5, 3, 0, 1], [2, 4, 2], lambda f, g: primitive_part(g), 2),
    # content 6 (or 24 mod 72) is nilpotent, the primitive part 2x + 2x^3 splits
    "content of a primitive part": ([0, 48, 0, 48], [5, 1],
                                    lambda f, g: primitive_part(f), 2),
    "top coefficient": ([1, 1, 0, 0, 1], [1, 1, 4, 6], lambda f, g: fun_factor(g), 4),
    # f has the nilpotent content 6, g is primitive
    "ppa, one nilpotent content": ([6, 0, 0, 6, 6], [1, 4, 6], ppa, 4),
}


def check_pair(f, g):
    """res against det(sylvester), rres against the Howell form, and the
    certificate by re-multiplication."""
    R = f.ring
    if f.degree + g.degree >= 1:
        assert res(f, g) == det(sylvester(f, g)), (R, f, g)
    r = rres(f, g)
    assert res_ideal(f, g) == R.ideal_gen(res(f, g))
    assert r == rres_howell_oracle(f, g), (R, f, g)
    cert = rres_bezout(f, g)
    assert cert.u * f + cert.v * g == Poly.const(R, cert.value), (R, f, g)
    assert R.ideal_gen(cert.value) == r


class TestSplitSites:
    @pytest.mark.parametrize("n", (18, 72))
    @pytest.mark.parametrize("site", SPLIT_SITES)
    def test_planted_split(self, n, site):
        R = Zmod(n)
        fs, gs, step, element = SPLIT_SITES[site]
        f, g = Poly.from_ints(R, fs), Poly.from_ints(R, gs)
        with pytest.raises(NeedsSplitError) as e:
            step(f, g)
        assert e.value.element == element
        check_pair(f, g)
        if is_primitive(g):
            q, r = divrem_primitive(f, g)
            assert q * g + r == f and r.degree < g.degree


class TestPackedEuclid:
    """Euclidean chains over Z/n whose divisors have unit leading
    coefficients run on packed integers; every result is checked against an
    oracle: res against det(sylvester), rres against the Howell form, and
    every certificate by re-multiplication."""

    check = staticmethod(check_pair)

    @pytest.mark.parametrize("n", PACKED_MODULI)
    def test_packed_step_at_the_slot_bound(self, n):
        # the largest operands one packed update X + Q*Y admits: X slots
        # (n-1)(3n-1), Y slots 3n-1 (reduced, not canonical), K coefficients
        # n-1, so every slot sums X's and K products at their largest; X of
        # K + 3 slots, and of more than _WORD_MIN, which _pack packs by words
        P = _Packed(Zmod(n), 16)
        top = 3 * n - 1
        for l in (P.K + 3, P.K + 3 + _WORD_MIN):
            xs, ys, cs = [(n - 1) * top] * l, [top] * 4, [n - 1] * P.K
            Z = P.addmul(P.pack(xs), l, P.pack(cs), P.pack(ys))
            raw = Z.to_bytes(l * P.w, "little")
            for i in range(l):
                z = int.from_bytes(raw[i * P.w:(i + 1) * P.w], "little")
                t = sum(cs[j] * ys[i - j] for j in range(len(cs)) if 0 <= i - j < len(ys))
                assert z < 3 * n and z % n == (xs[i] + t) % n, (n, l, i)

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
        # the chain stops at the planted remainder and the next pass splits
        # (squarefree n), or it factors the remainder and goes on (prime powers)
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


GALOIS_PACKED = [GaloisRing(p, e, find_irreducible(p, k)) for p, e, k in (
    (2, 8, 3), (3, 20, 2), (101, 4, 4), (2, 4, 5), (2, 4, 6), (5, 1, 2), (7, 3, 1))]


class TestPackedSolve:
    """_Packed.divrem and _Packed.lowdiv, called directly, solve their
    quotient coefficients by one routine (_Packed.solve): over Z/n a
    two-term recurrence for a divisor of two terms and a general loop for
    longer ones, over a Galois ring ring operations.  Public divrem divides
    by Z/n divisors of up to 17 terms on int lists, so these calls are the
    ones that reach the packed solve with them.  Quotients run longer than
    one step's J coefficients and than K, every coefficient is random or
    every one is the largest, and each result must equal the row-by-row
    division's: from the top for divrem, from the bottom for lowdiv."""

    RINGS = [Zmod(n) for n in PACKED_MODULI] + GALOIS_PACKED

    @staticmethod
    def elem(rng, R, top):
        if R.kind == "zmod":
            return R.n - 1 if top else rng.randrange(R.n)
        return (R.pe - 1,) * R.k if top else tuple(rng.randrange(R.pe) for _ in range(R.k))

    @classmethod
    def pivot(cls, rng, R, top):
        """A unit: -1 for top, else a random one."""
        if top:
            return R.from_int(-1)
        while not R.is_unit(x := cls.elem(rng, R, False)):
            pass
        return x

    @pytest.mark.parametrize("R", RINGS, ids=str)
    def test_divrem_matches_rowwise(self, R):
        rng = random.Random(f"solve-divrem/{R}")
        P = _Packed(R, 8)
        for dg in (1, 2, 3, 5, 16):             # divisors of 2 to 17 terms
            for nq in (1, 2, P.J + 1, P.K + 2 + rng.randrange(3)):
                for top in (False, True):
                    g = Poly(R, [self.elem(rng, R, top) for _ in range(dg)]
                             + [self.pivot(rng, R, top)])
                    f = Poly(R, [self.elem(rng, R, top) for _ in range(dg + nq - 1)]
                             + [self.pivot(rng, R, top)])
                    q, Nq, X, dr, c = P.divrem(P.pack(f.coeffs), f.degree, P.pack(g.coeffs), dg,
                                               R.inv(g.lc))
                    wq, wr = divrem_rowwise(f, g)
                    assert (Poly(R, q), Poly(R, P.unpack(X, dr + 1))) == (wq, wr), (dg, nq, top)
                    assert len(q) == nq and c == (wr.lc if wr.coeffs else R.zero)
                    assert P.unpack(Nq, nq) == [R.neg(x) for x in q]

    @pytest.mark.parametrize("R", RINGS, ids=str)
    def test_lowdiv_matches_rowwise(self, R):
        rng = random.Random(f"solve-lowdiv/{R}")
        P = _Packed(R, 8)
        for dd in (1, 2, 3, 5, 16):
            for nq in (1, 2, P.J + 1, P.K + 2 + rng.randrange(3)):
                for top in (False, True):
                    D = [self.pivot(rng, R, top)] + [self.elem(rng, R, top) for _ in range(dd)]
                    xs = [self.elem(rng, R, top) for _ in range(nq + dd)]
                    Q, X = P.lowdiv(P.pack(xs), D, R.inv(D[0]), nq)
                    assert (P.unpack(Q, nq), P.unpack(X, dd)) == lowdiv_rowwise(R, xs, D, nq), \
                        (dd, nq, top)


class TestPackedGalois:
    """Division over a Galois ring runs on packed ints, k-slot blocks folded
    mod lam after every step; each quotient and remainder must equal the
    schoolbook row loop's."""

    @staticmethod
    def elem(rng, R):
        return tuple(rng.randrange(R.pe) for _ in range(R.k))

    @staticmethod
    def unit(rng, R):
        while True:
            x = TestPackedGalois.elem(rng, R)
            if R.is_unit(x) and x != R.one:
                return x

    @pytest.mark.parametrize("R", GALOIS_PACKED, ids=str)
    def test_divrem_matches_rowwise(self, R):
        # quotients longer than the J coefficients of a packed step, and
        # longer than K where K is small enough to test
        rng = random.Random(f"packed-galois/{R}")
        P = _Packed(R, 8)
        assert P.J == min(P.K, 3)
        for dg in range(41):
            g = Poly(R, [self.elem(rng, R) for _ in range(dg)]
                     + [R.one if dg % 3 == 0 else self.unit(rng, R)])
            hi = max(P.J, P.K if P.K <= 48 else 0) + 1 + rng.randrange(3)
            f = Poly(R, [self.elem(rng, R) for _ in range(dg + hi)] + [self.unit(rng, R)])
            q, r = divrem(f, g)
            assert (q, r) == divrem_rowwise(f, g), (R, dg)
            assert len(q.coeffs) == hi + 1
        for dg in (1, 2, 5, 17, 40):   # dividends shorter than the divisor
            f = Poly(R, [self.elem(rng, R) for _ in range(dg)])
            g = Poly(R, [self.elem(rng, R) for _ in range(dg)] + [self.unit(rng, R)])
            assert divrem(f, g) == (Poly.zero(R), f) == divrem_rowwise(f, g)

    @pytest.mark.parametrize("R", GALOIS_PACKED, ids=str)
    def test_all_top_coefficients(self, R):
        # every t-coefficient p^e - 1 gives the largest slot sums of a step
        top = (R.pe - 1,) * R.k
        for df, dg in ((12, 11), (30, 7), (40, 40), (45, 1), (9, 0)):
            f = Poly(R, [top] * (df + 1))
            for lc in (top, R.one, R.from_int(R.pe - 1)):
                g = Poly(R, [top] * dg + [lc])
                if R.is_unit(lc):
                    assert divrem(f, g) == divrem_rowwise(f, g), (R, df, dg, lc)
        h = Poly(R, [top] * 20 + [R.one])
        f = h * h + Poly(R, [top] * 7)
        chain = UnitChain(f, h)
        F, G = chain.pair()
        u, v = (Poly(R, [top] * max(0, d)) for d in (G.degree, F.degree))
        u2, v2 = chain.lift(u, v)
        assert u2 * f + v2 * h == u * F + v * G, R

    @pytest.mark.parametrize("R", GALOIS_PACKED, ids=str)
    def test_packed_step_at_the_slot_bound(self, R):
        # the largest operands one packed update X + Q*Y admits: X slots
        # (q-1)(3q-1), Y slots 3q-1, K quotient coefficients with every
        # entry q-1
        q, k = R.pe, R.k
        P = _Packed(R, 16)
        l = P.K + 3
        xs = [((q - 1) * (3 * q - 1),) * k] * l
        ys, cs = [(3 * q - 1,) * k] * 4, [(q - 1,) * k] * P.K
        Z = P.addmul(P.pack(xs), l, P.pack(cs), P.pack(ys))
        raw = Z.to_bytes(l * (2 * k - 1) * P.w, "little")
        slots = [int.from_bytes(raw[i:i + P.w], "little") for i in range(0, len(raw), P.w)]
        for i in range(l):
            block = slots[i * (2 * k - 1):(i + 1) * (2 * k - 1)]
            assert all(z < 3 * q for z in block[:k]) and not any(block[k:]), (R, i)
            want = R.coerce(xs[i])
            for j in range(max(0, i - 3), min(i + 1, len(cs))):
                want = R.add(want, R.mul(R.coerce(cs[j]), R.coerce(ys[i - j])))
            assert R.coerce(tuple(block[:k])) == want, (R, i)


def plant_chain(rng, R, degs, gaps, bottom, elem, unit, nil):
    """(f, g, pair, steps) for a chain that UnitChain(f, g) must take.

    r_0 = f, r_1, ..., r_s are the divisors, of the degrees degs; level i in
    gaps reaches the chain as G_i == u_i*r_i with r_i monic and u_i a unit of
    R[x] of degree gaps[i] (nilpotent higher coefficients, the top one
    nonzero), any other level as r_i with a unit leading coefficient.  The
    chain stops at level s, where r_s is bottom, or the constant 1 when s is
    in gaps.  A quotient above a factored level makes it monic; every other
    one has a unit leading coefficient other than 1.  steps lists (deg F, deg G, deg r, lc G, q) per division and
    (F, G, u) per factorisation."""
    s = len(degs) - 1

    def poly(d, lc):
        return Poly(R, [elem() for _ in range(d)] + [lc])

    u = {i: Poly(R, [unit()] + [nil() for _ in range(m - 1)] + [R.mul(nil(), unit())])
         for i, m in gaps.items()}
    r, seen, q = [None] * (s + 1), [None] * (s + 1), {}
    for i in range(s, -1, -1):
        if i == s:
            r[i] = Poly.one(R) if s in gaps else bottom
        elif i == s - 1:
            r[i] = poly(degs[i], R.one if i in gaps else unit())
        else:
            assert seen[i + 2].degree < r[i + 1].degree
            q[i] = poly(degs[i] - degs[i + 1], R.inv(r[i + 1].lc) if i in gaps else unit())
            r[i] = q[i] * r[i + 1] + seen[i + 2]
        seen[i] = u[i] * r[i] if i in gaps else r[i]
    steps = []
    for i in range(1, s + 1):
        if i in gaps:
            steps.append((r[i - 1], seen[i], u[i]))
        if i < s:
            steps.append((r[i - 1].degree, r[i].degree, seen[i + 1].degree, r[i].lc,
                          list(q[i - 1].coeffs)))
    return r[0], seen[1], (r[s - 1], r[s]), steps


UNIT_CHAIN_RINGS = [Zmod(3**40), Zmod(2**64), Zmod(P64),
                    GaloisRing(3, 20, find_irreducible(3, 2)),
                    GaloisRing(2, 8, find_irreducible(2, 3)),
                    GaloisRing(101, 4, find_irreducible(101, 4)),
                    GaloisRing(7, 3, find_irreducible(7, 1)),
                    GaloisRing(2, 4, find_irreducible(2, 6))]


def chain_steps(chain):
    """chain.steps with each factorisation (F, deg F, G, deg G, u, j) unpacked
    to (F, G, u), and each division's packed -q to the list of q's
    deg F - deg G + 1 coefficients; j <= R.E must bound the length of u^-1."""
    R, ops = chain.ring, chain.ops
    out = []
    for step in chain.steps:
        if len(step) == 6:
            F, df, G, dg, u, j = step
            assert len(invert_unit(u).coeffs) <= (j - 1) * u.degree + 1 and j <= R.E
            step = (Poly(R, ops.unpack(F, df + 1)), Poly(R, ops.unpack(G, dg + 1)), u)
        else:
            df, dg, dr, c, Nq = step
            q = [R.neg(x) for x in ops.unpack(Nq, df - dg + 1)]
            assert Nq == ops.negpack(q)     # reduced slots, none beyond q's
            step = (df, dg, dr, c, q)
        out.append(step)
    return out


class TestUnitChain:
    """UnitChain's contract, checked on planted chains: it divides while the
    divisor's leading coefficient is a unit, factors a divisor G == u*gtilde
    whose leading coefficient is nilpotent and whose content is a unit and
    goes on dividing by gtilde, and stops only at a zero or constant
    remainder or at a divisor it cannot factor.  pair() and every step must
    be the planted ones, and lift turns cofactors of (F_s, G_s) into
    cofactors of (f, g) with the same value, through divisions and
    factorisations alike."""

    @staticmethod
    def tools(R, rng):
        """elem, unit (not 1) and nil samplers over R; nil gives p times a
        unit, nonzero and nilpotent over a prime power, None over a field."""
        galois = R.kind == "galois"
        p = R.from_int(R.p) if galois else non_unit(R.n)

        def elem():
            return tuple(rng.randrange(R.pe) for _ in range(R.k)) if galois else rng.randrange(R.n)

        def unit():
            while True:
                x = elem()
                if R.is_unit(x) and x != R.one:
                    return x

        return elem, unit, (lambda: R.mul(p, unit())) if p else None

    @staticmethod
    def check_lift(rng, chain, f, g, elem):
        # cofactors of (F_s, G_s) in the range the engines hand back, then
        # the same value unreduced: lift reduces it first
        R = f.ring
        F, G = chain.pair()
        u = Poly(R, [elem() for _ in range(max(1, G.degree))])
        v = Poly(R, [elem() for _ in range(F.degree)])
        u2, v2 = chain.lift(u, v)
        assert u2 * f + v2 * g == u * F + v * G
        assert u2.degree < g.degree and v2.degree < f.degree
        t = Poly(R, [elem() for _ in range(3)])
        assert chain.lift(u + t * G, v - t * F) == (u2, v2)

    @pytest.mark.parametrize("R", UNIT_CHAIN_RINGS, ids=str)
    def test_pair_and_lift(self, R):
        # every stop, with factorisations of gaps 1-4 planted at random
        # levels (the first divisor and the last included) where R has
        # nilpotents; each case checks that the chain goes on past them
        rng = random.Random(f"unit-chain/{R}")
        elem, unit, nil = self.tools(R, rng)
        kinds = ("const", "zero", "content", "unit") if nil else ("const", "zero")
        gap = 0
        for case in range(16):
            bottom = kinds[case % len(kinds)]
            levels = rng.randrange(2, 7)
            gaps = {}
            if nil:
                for i in range(1, levels):
                    if rng.random() < 0.5:
                        gaps[i] = gap % 4 + 1
                        gap += 1
                if bottom == "unit":
                    gaps[levels] = gap % 4 + 1
                    gap += 1
            degs = [1 if bottom == "content" else 0]
            for i in range(levels, 0, -1):
                degs.insert(0, degs[0] + gaps.get(i, 0) + rng.randrange(1, 4))
            # a "unit" bottom is the planted factorisation of gaps[levels]
            last = (Poly.const(R, unit()) if bottom == "const" else
                    Poly(R, [elem(), unit()]).scale(nil()) if bottom == "content" else
                    Poly.zero(R))
            f, g, pair, steps = plant_chain(rng, R, degs, gaps, last, elem, unit, nil)
            chain = UnitChain(f, g)
            assert [len(s) == 6 for s in chain.steps] == [len(s) == 3 for s in steps]
            assert chain_steps(chain) == steps, (R, degs, gaps, bottom)
            assert chain.pair() == pair, (R, degs, gaps, bottom)
            self.check_lift(rng, chain, f, g, elem)
        assert gap >= 4 or not nil

    @pytest.mark.parametrize("R", [Zmod(3**40), Zmod(2**64), UNIT_CHAIN_RINGS[3],
                                   UNIT_CHAIN_RINGS[4]], ids=str)
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_mid_chain_factorisation(self, R, m):
        # one divisor of gap m between two runs of divisions: a single chain
        # takes all of them, and res, rres and the certificate agree with
        # the oracles
        rng = random.Random(f"mid-chain/{R}/{m}")
        elem, unit, nil = self.tools(R, rng)
        for _ in range(2):
            degs = [0]
            for i in range(6, 0, -1):
                degs.insert(0, degs[0] + (m if i == 3 else 0) + rng.randrange(1, 3))
            f, g, pair, steps = plant_chain(rng, R, degs, {3: m}, Poly.const(R, unit()),
                                            elem, unit, nil)
            chain = UnitChain(f, g)
            assert [len(s) for s in chain.steps] == [5, 5, 6, 5, 5, 5]
            assert chain_steps(chain) == steps and chain.pair() == pair
            assert steps[2][1].degree - steps[3][1] == m
            self.check_lift(rng, chain, f, g, elem)
            assert res(f, g) == berkowitz_det(R, sylvester(f, g).rows)
            want = rres_galois_oracle(f, g) if R.kind == "galois" else rres_howell_oracle(f, g)
            cert = rres_bezout(f, g)
            assert rres(f, g) == want == R.ideal_gen(cert.value)
            assert cert.u * f + cert.v * g == Poly.const(R, cert.value)

    @pytest.mark.parametrize("n, degs, gaps, bottom", [
        # drops of 2, 4 and 3 (zero slots under the top) end three runs of
        # degree-1 quotients, the last one at a constant remainder
        (P64, [16, 15, 14, 12, 11, 10, 9, 5, 4, 3, 0], {}, "const"),
        # a constant remainder of degree 1 below its divisor ends the run
        (10007, [12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0], {}, "const"),
        # a splitting leading coefficient ends the only run
        (COMPOSITE, [12, 11, 10, 9, 8, 7], {}, "split"),
        # a nilpotent leading coefficient ends the first run; the divisor
        # factors at gap 2, and the next run ends at a drop to a constant
        (3**40, [14, 13, 12, 11, 8, 7, 6, 5, 0], {4: 2}, "const"),
        (2**64, [14, 13, 12, 11, 8, 7, 6, 5, 0], {4: 2}, "const"),
    ])
    def test_fused_runs_end_at_every_exit(self, monkeypatch, n, degs, gaps, bottom):
        # every quotient of at most min(K, 5) coefficients under a unit
        # leading coefficient is a fused step of the chain's own loop, every
        # other one a _Packed.divrem; records, pair and lift are the planted
        # ones
        R = Zmod(n)
        rng = random.Random(f"fused/{n}")
        elem, unit, nil = self.tools(R, rng)
        last = (Poly.const(R, unit()) if bottom == "const" else
                Poly(R, [elem() for _ in range(degs[-1])] + [R.mul(non_unit(n), unit())]))
        f, g, pair, steps = plant_chain(rng, R, degs, gaps, last, elem, unit, nil)
        divided, divrem = [], _Packed.divrem
        monkeypatch.setattr(_Packed, "divrem", lambda *a: divided.append(a[2] - a[4]) or divrem(*a))
        chain = UnitChain(f, g)
        cap = min(chain.ops.K, 5)
        assert chain_steps(chain) == steps and chain.pair() == pair
        assert divided == [s[0] - s[1] for s in steps if len(s) == 5 and s[0] - s[1] + 1 > cap]
        assert len(steps) - len(divided) - len(gaps) >= 4
        self.check_lift(rng, chain, f, g, elem)

    @pytest.mark.parametrize("n, degs, gaps", [
        # unit-lc quotients of 1 to 6 coefficients, one per division
        (P64, [21, 21, 20, 18, 15, 11, 6, 0], {}),
        (10007, [21, 21, 20, 18, 15, 11, 6, 0], {}),
        # K == 4: the quotients of 5 and 6 coefficients are not fused
        (510510, [21, 21, 20, 18, 15, 11, 6, 0], {}),
        (2**31 - 1, [21, 21, 20, 18, 15, 11, 6, 0], {}),
        # after a factorisation of gap m the quotient by the monic factor
        # has m + 2 coefficients; a later one has 6
        (3**40, [22, 21, 19, 18, 13, 12, 0], {2: 1}),
        (3**40, [22, 21, 18, 17, 12, 11, 0], {2: 2}),
    ])
    def test_fused_short_quotients(self, monkeypatch, n, degs, gaps):
        # a unit-lc quotient of at most min(K, 5) coefficients is a fused
        # step, a longer one a _Packed.divrem; records, pair, lift and res
        # are the planted ones
        R = Zmod(n)
        rng = random.Random(f"fused-short/{n}/{gaps}")
        elem, unit, nil = self.tools(R, rng)
        f, g, pair, steps = plant_chain(rng, R, degs, gaps, Poly.const(R, unit()),
                                        elem, unit, nil)
        calls, divrem = [], _Packed.divrem
        monkeypatch.setattr(_Packed, "divrem", lambda *a: calls.append(a) or divrem(*a))
        chain = UnitChain(f, g)
        cap = min(chain.ops.K, 5)
        assert cap == (4 if n in (510510, 2**31 - 1) else 5)
        divided = [a[2] - a[4] for a in calls if a[0] is chain.ops]
        assert chain_steps(chain) == steps and chain.pair() == pair
        lengths = [s[0] - s[1] + 1 for s in steps if len(s) == 5]
        assert set(lengths) >= ({2, 6} | {m + 2 for m in gaps.values()} if gaps else set(range(1, 7)))
        assert divided == [q - 1 for q in lengths if q > cap]
        self.check_lift(rng, chain, f, g, elem)
        check_pair(f, g)

    @pytest.mark.parametrize("n", [COMPOSITE, 9699690, 3**40])
    def test_first_divisor_checked_before_packing(self, monkeypatch, n):
        # a first divisor whose highest non-nilpotent coefficient is not a
        # unit raises before anything is packed: NeedsSplitError with that
        # coefficient over squarefree n, ValueError for a nilpotent content
        R = Zmod(n)
        rng = random.Random(f"first-divisor/{n}")
        built, init = [], _Packed.__init__
        monkeypatch.setattr(_Packed, "__init__", lambda *a: built.append(1) or init(*a))
        p = non_unit(n)
        f = Poly(R, [rng.randrange(n) for _ in range(12)] + [unit(rng, n)])
        for d in (1, 5, 12):
            x = p * unit(rng, n) % n
            g = Poly(R, [rng.randrange(n) for _ in range(d)] + [x])
            if n == 3**40:
                g = g.scale(3)
                with pytest.raises(ValueError) as e:
                    UnitChain(f, g)
                assert not isinstance(e.value, NeedsSplitError)
            else:
                with pytest.raises(NeedsSplitError) as e:
                    UnitChain(f, g)
                assert e.value.element == x
            assert not built

    @pytest.mark.parametrize("R", UNIT_CHAIN_RINGS[3:], ids=str)
    def test_fused_galois_runs(self, monkeypatch, R):
        # over Galois rings too, every quotient of degree 1 under a unit
        # leading coefficient is a fused step, every other one a
        # _Packed.divrem: runs end at drops, at a factorisation of gap 2 and
        # at a constant or a nilpotent-content remainder; records, pair and
        # lift are the planted ones (the Hensel lift of a factorisation runs
        # its own divisions, which are not the chain's steps)
        rng = random.Random(f"fused/{R}")
        elem, unit, nil = self.tools(R, rng)
        calls, divrem = [], _Packed.divrem
        monkeypatch.setattr(_Packed, "divrem", lambda *a: calls.append(a) or divrem(*a))
        for degs, gaps, last in [
                ([16, 15, 14, 12, 11, 10, 9, 5, 4, 3, 0], {}, Poly.const(R, unit())),
                ([14, 13, 12, 11, 8, 7, 6, 5, 0], {4: 2}, Poly.const(R, unit())),
                ([12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1], {}, Poly(R, [elem(), unit()]).scale(nil()))]:
            f, g, pair, steps = plant_chain(rng, R, degs, gaps, last, elem, unit, nil)
            calls.clear()
            chain = UnitChain(f, g)
            divided = [a[2] - a[4] for a in calls if a[0] is chain.ops]
            assert chain_steps(chain) == steps and chain.pair() == pair
            assert divided == [s[0] - s[1] for s in steps if len(s) == 5 and s[0] - s[1] > 1]
            assert len(steps) - len(divided) - len(gaps) >= 4
            self.check_lift(rng, chain, f, g, elem)

    def test_stops_at_a_divisor_it_cannot_factor(self, monkeypatch):
        # over Z/72 = Z/8 x Z/9: lc 2 is not nilpotent, and below lc 6 the
        # highest non-nilpotent coefficient 4 splits, so the chain stops at
        # either without unpacking or factoring; either divisor as the first
        # one raises
        R = Zmod(72)
        rng = random.Random(72)
        elem, unit, nil = self.tools(R, rng)
        unpacked, factored = [], []
        unpack, factor = _Packed.unpack, _Packed.factor
        monkeypatch.setattr(_Packed, "unpack", lambda *a: unpacked.append(1) or unpack(*a))
        monkeypatch.setattr(_Packed, "factor", lambda *a: factored.append(1) or factor(*a))
        for bottom, element in ((Poly.from_ints(R, [5, 7, 2]), 2),
                                (Poly.from_ints(R, [1, 0, 4, 6]), 4)):
            degs = [bottom.degree]
            for _ in range(4):
                degs.insert(0, degs[0] + rng.randrange(1, 3))
            f, g, pair, steps = plant_chain(rng, R, degs, {}, bottom, elem, unit, nil)
            unpacked.clear()
            factored.clear()
            chain = UnitChain(f, g)
            assert not unpacked and not factored
            assert chain_steps(chain) == steps and chain.pair() == pair
            self.check_lift(rng, chain, f, g, elem)
            with pytest.raises(NeedsSplitError) as e:
                UnitChain(*pair)
            assert e.value.element == element
            check_pair(f, g)

    @pytest.mark.parametrize("R", [Zmod(2**5), Zmod(3**4), GaloisRing(2, 4, find_irreducible(2, 5)),
                                   GaloisRing(3, 3, find_irreducible(3, 3))], ids=str)
    def test_divisor_longer_than_the_window(self, R):
        # rings of small index: a factored divisor G of gap m longer than
        # the m*j + 1 top coefficients the factorisation reads, between runs
        # of divisions; u's coefficients p^v times units, v = 1 or 2
        rng = random.Random(f"window/{R}")
        elem, unit, _ = self.tools(R, rng)
        p, e = (R.p, R.e) if R.kind == "galois" else next(
            (q, round(math.log(R.n, q))) for q in (2, 3) if R.n % q == 0)
        for m in (1, 2, 3, 4):
            v = 2 if m % 2 and e > 3 else 1
            j = -(-e // v)

            def nil():
                return R.mul(R.from_int(p**v), unit())

            d = m * j + 2 - m + rng.randrange(2)     # deg G == d + m > m*j + 1
            degs = [d + m + 2, d + m + 1, d, rng.randrange(1, d), 0]
            f, g, pair, steps = plant_chain(rng, R, degs, {2: m}, Poly.const(R, unit()),
                                            elem, unit, nil)
            chain = UnitChain(f, g)
            assert chain_steps(chain) == steps and chain.pair() == pair
            brk = next(s for s in chain.steps if len(s) == 6)
            assert brk[3] + 1 > m * brk[5] + 1 and brk[5] == j, (m, brk[3], brk[5])
            self.check_lift(rng, chain, f, g, elem)
            assert res(f, g) == berkowitz_det(R, sylvester(f, g).rows)
            want = rres_galois_oracle(f, g) if R.kind == "galois" else rres_howell_oracle(f, g)
            cert = rres_bezout(f, g)
            assert rres(f, g) == want == R.ideal_gen(cert.value)
            assert cert.u * f + cert.v * g == Poly.const(R, cert.value)

    def test_wrong_window_root_raises(self, monkeypatch):
        # a window lift whose factor is off by p, still y^m modulo the
        # nilpotents, leaves a nonzero remainder at the factorisation
        from ringres import poly
        R = Zmod(3**40)
        rng = random.Random("wrong-root")
        elem, unit, nil = self.tools(R, rng)
        lift = poly._lift
        monkeypatch.setattr(poly, "_lift", lambda R, G, m, j: [R.add(lift(R, G, m, j)[0], 3)]
                            + lift(R, G, m, j)[1:])
        for m in (1, 2):
            f, g, _, _ = plant_chain(rng, R, [20, 17, 12, 6, 0], {2: m}, Poly.const(R, unit()),
                                     elem, unit, nil)
            with pytest.raises(InvariantError):
                UnitChain(f, g)
            with pytest.raises(InvariantError):
                res(f, g)

    def test_squarefree_modulus_does_no_extra_work(self, monkeypatch):
        # over squarefree n no non-unit is nilpotent, so a chain stops at a
        # non-unit leading coefficient without unpacking anything
        R = Zmod(9699690)
        rng = random.Random(9699690)
        unpacked = []
        unpack = _Packed.unpack
        monkeypatch.setattr(_Packed, "unpack", lambda *a: unpacked.append(1) or unpack(*a))
        chains = 0
        for _ in range(200):
            f, g = rand_poly(rng, R, 30), rand_poly(rng, R, 30)
            if f.degree < g.degree:
                f, g = g, f
            if g.degree < 1 or not is_primitive(g) or not R.is_unit(g.lc):
                continue
            unpacked.clear()
            UnitChain(f, g)
            assert not unpacked
            chains += 1
        assert chains >= 20
