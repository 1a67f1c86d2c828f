import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ringres import (
    GaloisRing,
    NeedsSplitError,
    Poly,
    Zmod,
    content,
    crt_poly,
    divrem,
    divrem_primitive,
    find_irreducible,
    fun_factor,
    invert_mod,
    invert_unit,
    is_primitive,
    is_unit_poly,
    reciprocal,
)
from ringres.poly import (_WORD_MIN, _divrem_lists, _layout, _mul_lists, _nil_index, _pack,
                          _unpack, primitive_part, top_non_nilpotent)
from ringres.ring import InvariantError

from oracles import fun_factor_forward, pack_slots, unpack_slots


def rand_poly(rng, R, max_deg):
    return Poly.from_ints(R, [rng.randrange(R.n) for _ in range(rng.randrange(1, max_deg + 2))])


# (ring, r): the nilpotent elements are the multiples of r
FF_RINGS = [(Zmod(2**64), 2), (Zmod(3**40), 3), (Zmod(5**27), 5), (Zmod(6**10), 6)]
FF_RINGS += [(GaloisRing(p, e, find_irreducible(p, k)), p)
             for p, e, k in ((2, 8, 3), (3, 20, 2), (101, 4, 4))]


def ff_input(rng, R, r, d, m, low="random", x_divides=False):
    """f of degree d whose top m coefficients are nilpotent (the leading one
    nonzero) above a unit f_{d-m}; below it random or all q-1 coefficients,
    and f(0) == 0 when x_divides."""
    galois = isinstance(R, GaloisRing)
    q = R.pe if galois else R.n

    def elem(kind):
        if kind == "top":
            return (q - 1,) * R.k if galois else q - 1
        while True:
            x = tuple(rng.randrange(q) for _ in range(R.k)) if galois else rng.randrange(q)
            if kind == "nil":
                x = tuple(r * c % q for c in x) if galois else r * x % q
                if not R.is_zero(x):
                    return x
            elif kind == "random" or R.is_unit(x):
                return x

    cs = [elem(low) for _ in range(d - m)] + [elem("unit")] + [elem("nil") for _ in range(m)]
    if x_divides and d > m:
        cs[0] = R.zero
    return Poly(R, cs)


class TestArithmetic:
    def test_normalization(self):
        R = Zmod(12)
        p = Poly.from_ints(R, [1, 2, 12, 0])
        assert p.coeffs == (1, 2)
        assert Poly.from_ints(R, [0, 0]).is_zero()
        assert Poly.zero(R).degree == -1

    @given(st.integers(2, 10**4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_ring_laws(self, n, data):
        R = Zmod(n)
        coeffs = st.lists(st.integers(0, n - 1), min_size=0, max_size=6)
        f = Poly.from_ints(R, data.draw(coeffs))
        g = Poly.from_ints(R, data.draw(coeffs))
        h = Poly.from_ints(R, data.draw(coeffs))
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert f + (-f) == Poly.zero(R)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_ring_laws_galois(self, data):
        R = GaloisRing(3, 4, (2, 2, 1))  # (Z/81)[t]/(t^2+2t+2)
        elem = st.tuples(*[st.integers(0, R.pe - 1)] * R.k)
        f, g, h = (Poly(R, data.draw(st.lists(elem, max_size=10))) for _ in range(3))
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)

    def test_scale_matches_coefficientwise(self):
        # moduli from 2 to 2^25, short and long operands
        rng = random.Random(7)
        for n in (2, 10007, 9699690, 2**25):
            R = Zmod(n)
            for length in (3, 16, 200):
                f = Poly.from_ints(R, [rng.randrange(n) for _ in range(length)])
                for c in (0, 1, n - 1, rng.randrange(n), 2 * n + 3):
                    assert f.scale(c) == Poly(R, [x * c % n for x in f.coeffs])

    def test_fun_factor_monic_is_identity(self):
        R = Zmod(8)
        f = Poly.from_ints(R, [3, 2, 1])
        assert fun_factor(f).gtilde is f

    def test_mul_matches_schoolbook(self):
        rings = [Zmod(n) for n in (997 * 1024, 2**25 + 1, 2**64, 3**40,
                                   18446744073709551557, 2**607 - 1)]
        rings += [GaloisRing(p, e, find_irreducible(p, k))
                  for p, e, k in ((2, 8, 3), (3, 20, 2), (101, 4, 4), (5, 2, 1))]
        rng = random.Random(0)

        def rand(R, length):
            if isinstance(R, Zmod):
                return [rng.randrange(R.n) for _ in range(length)]
            return [tuple(rng.randrange(R.pe) for _ in range(R.k)) for _ in range(length)]

        def top(R, length):
            # every entry q-1: the largest sums the packed slots must hold
            return [R.n - 1 if isinstance(R, Zmod) else (R.pe - 1,) * R.k] * length

        for R in rings:
            for m in range(1, 60, 4):
                a = rand(R, rng.randrange(1, 70))
                shapes = [(rand(R, 1), a), (a, rand(R, 1)), (a, rand(R, m)), (a, a),
                          (top(R, m), top(R, m + 3))]
                for x, y in shapes:
                    slow = [R.zero] * (len(x) + len(y) - 1)
                    for i, u in enumerate(x):
                        for j, v in enumerate(y):
                            slow[i + j] = R.add(slow[i + j], R.mul(u, v))
                    f, g = Poly(R, x), Poly(R, y)
                    assert (f * f if x is y else f * g) == Poly(R, slow), (R, len(x), len(y))

    def test_eval_and_shift(self):
        R = Zmod(35)
        f = Poly.from_ints(R, [1, 2, 3])
        assert f.eval(R.from_int(2)) == (1 + 4 + 12) % 35
        assert f.shift(2).coeffs == (0, 0, 1, 2, 3)
        for negative in (lambda: f.shift(-2), lambda: f.mod_xpow(-1)):
            with pytest.raises(ValueError):
                negative()


class TestDivision:
    @given(st.integers(2, 10**4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_divrem_identity(self, n, data):
        R = Zmod(n)
        coeffs = st.lists(st.integers(0, n - 1), min_size=1, max_size=6)
        f = Poly.from_ints(R, data.draw(coeffs))
        g = Poly.from_ints(R, data.draw(coeffs))
        if g.is_zero() or not R.is_unit(g.lc):
            return
        q, r = divrem(f, g)
        assert q * g + r == f
        assert r.degree < g.degree

    @pytest.mark.parametrize("n", [2, 10007, 2**25 + 1, 3**40, 2**64, 18446744073709551557,
                                   251 * 241 * 239 * 233 * 229 * 227 * 223 * 211, 2**127 - 1])
    def test_divrem_long_quotients(self, n):
        # single divisions over Z/n run on lists up to deg g == 16 and are
        # packed above; packed quotients of 300 - dg coefficients take
        # several steps, and coefficients n - 1 give the largest slot sums
        R = Zmod(n)
        rng = random.Random(n % 997)
        for dg in (1, 2, 5, 16, 17, 40, 150, 299, 300):
            for top in (False, True):
                f = Poly.from_ints(R, [n - 1 if top else rng.randrange(n) for _ in range(301)])
                g = Poly.from_ints(R, [n - 1 if top else rng.randrange(n) for _ in range(dg)]
                                   + [n - 1 if top else 1 + 2 * rng.randrange(n // 2)])
                if not R.is_unit(g.lc):
                    continue
                q, r = divrem(f, g)
                assert q * g + r == f and r.degree < g.degree, (n, dg, top)
                assert all(0 <= c < n for c in q.coeffs + r.coeffs)

    def test_divrem_primitive_with_split(self):
        R = Zmod(12)
        # leading coefficient 4 splits 12; the division recombines via CRT
        g = Poly.from_ints(R, [1, 4])
        rng = random.Random(2)
        for _ in range(30):
            f = rand_poly(rng, R, 4)
            if not is_primitive(g):
                break
            q, r = divrem_primitive(f, g)
            assert q * g + r == f
            assert r.degree < g.degree


class TestUnits:
    def test_series_inverse_examples(self):
        # inverse of 1 - px over Z/p^k is the truncated geometric series
        for p, k in [(2, 3), (3, 2), (5, 4)]:
            R = Zmod(p**k)
            f = Poly.from_ints(R, [1, -p])
            inv = invert_unit(f)
            expect = Poly.from_ints(R, [pow(p, i, R.n) for i in range(k)])
            assert inv == expect

    def test_invert_unit_example(self):
        R = Zmod(8)
        f = Poly.from_ints(R, [1, 6])
        assert invert_unit(f).coeffs == (1, 2, 4)
        assert (invert_unit(f) * f) == Poly.one(R)

    @given(st.one_of(st.integers(2, 10**4), st.sampled_from([
        (GaloisRing(2, 8, find_irreducible(2, 3)), 2), (GaloisRing(3, 20, find_irreducible(3, 2)), 3),
        (Zmod(3**40), 3), (Zmod(2**64), 2)])), st.data())
    @settings(max_examples=100, deadline=None)
    def test_invert_unit_random(self, ring, data):
        # over Z/n, n <= 10^4, up to 4 coefficients, the nilpotent ones kept;
        # over GR(2,8,3), GR(3,20,2), Z/3^40 and Z/2^64 up to 40 multiples of
        # p^v, v <= 3.  v*f == 1, and v has at most (j - 1)*deg f + 1
        # coefficients for j the nil index of f's higher coefficients
        if isinstance(ring, int):
            R = Zmod(ring)
            c0 = data.draw(st.integers(1, R.n - 1))
            if not R.is_unit(c0):
                return
            tail = data.draw(st.lists(st.integers(0, R.n - 1), max_size=4))
            f = Poly.from_ints(R, [c0] + [t for t in tail if R.is_nilpotent(t)])
        else:
            R, p = ring
            elem = (st.integers(0, R.n - 1) if R.kind == "zmod" else
                    st.tuples(*[st.integers(0, R.pe - 1)] * R.k))
            c0 = data.draw(elem.filter(R.is_unit))
            m = data.draw(st.integers(0, 40))   # lists alone rarely reach 40
            tail = data.draw(st.lists(st.tuples(elem, st.integers(1, 3)), min_size=m, max_size=m))
            f = Poly(R, [c0] + [R.mul(x, R.from_int(p**v)) for x, v in tail])
        v = invert_unit(f)
        assert v * f == Poly.one(R)
        if f.degree >= 1:
            assert len(v.coeffs) <= (_nil_index(R, f.coeffs[1:]) - 1) * f.degree + 1

    def test_invert_mod(self):
        R = Zmod(12)
        f = Poly.from_ints(R, [1, 0, 0, 1])  # monic modulus
        g = Poly.from_ints(R, [5, 6])  # unit of R[x]: 6 is nilpotent mod 12
        v = invert_mod(g, f)
        _, rem = divrem(g * v, f)
        assert rem == Poly.one(R)


class TestNilIndex:
    def test_planted_valuations(self):
        # 3^v times units over 3^40: J^j == (3^(vj)) == 0 from j = ceil(40/v)
        R, rng = Zmod(3**40), random.Random(40)
        for v, j in ((1, 40), (2, 20), (3, 14)):
            for _ in range(5):
                cs = [3 ** (v + i) * rng.choice([1, 2, 4, 5, 7]) for i in (0, 1, 2)]
                rng.shuffle(cs)
                assert _nil_index(R, cs) == j
        R = GaloisRing(3, 20, find_irreducible(3, 2))
        assert [_nil_index(R, [R.from_int(3**v), R.zero]) for v in (1, 2, 3, 19)] == [20, 10, 7, 2]

    @pytest.mark.parametrize("n", [2**64, 3**40, 72, 2**10 * 3**5, 15120, 5**7 * 7**3])
    def test_least_exponent_within_E(self, n):
        # the least j with g^j == 0 for g = gcd(n, cs), by brute force, and
        # never above the ring's bound E
        R, rng = Zmod(n), random.Random(n)
        rad = math.prod(p for p in range(2, 200) if n % p == 0 and all(p % q for q in range(2, p)))
        for _ in range(40):
            cs = [rad * rng.randrange(n // rad) for _ in range(rng.randrange(1, 4))]
            if not any(cs):
                continue
            g = math.gcd(n, *cs)
            j = _nil_index(R, cs)
            assert pow(g, j, n) == 0 and pow(g, j - 1, n) != 0 and j <= R.E


class TestFunFactor:
    def test_unit_times_monic_example(self):
        R = Zmod(8)
        f = Poly.from_ints(R, [1, 0, 0, 1, 0, 2])
        fac = fun_factor(f)
        assert fac.u.coeffs == (1, 4, 2)
        assert fac.gtilde.coeffs == (1, 4, 6, 1)
        assert fac.u * fac.gtilde == f
        assert is_unit_poly(fac.u)

    def test_random_product_identity(self):
        rng = random.Random(7)
        for n in [4, 8, 9, 27, 25]:
            R = Zmod(n)
            for _ in range(40):
                f = rand_poly(rng, R, 5)
                if f.is_zero() or not is_primitive(f):
                    continue
                i, a = top_non_nilpotent(f)
                if not R.is_unit(a):
                    continue
                fac = fun_factor(f)
                assert fac.u * fac.gtilde == f
                assert fac.gtilde.lc == R.one and fac.gtilde.degree == i
                assert is_unit_poly(fac.u)

    @pytest.mark.parametrize("R, r", FF_RINGS, ids=str)
    def test_matches_forward_lift(self, R, r):
        # every gap m = d - k at d = 7 (k = 0 included), then the small gaps
        # at d = 100 and larger ones at d = 24, where the forward lift is
        # slow; random or all-(q-1) coefficients below the unit, or f(0) = 0
        rng = random.Random(f"fun_factor/{R}")
        variants = (("random", False), ("top", False), ("random", True))
        cases = [(7, m, low, x) for m in range(1, 8) for low, x in variants]
        cases += [(100, m, low, x) for m in (1, 2, 3) for low, x in variants]
        cases += [(24, m, low, x) for m in (9, 23, 24) for low, x in variants]
        # k = 1 < m at d = 40 (Newton on the root of gtilde), and a lifted
        # factor of degree 18 > _LIST_DEG_MAX on either side
        cases += [(d, m, low, x) for d, m in ((40, 39), (40, 18), (40, 22))
                  for low, x in variants]
        for d, m, low, x in cases:
            f = ff_input(rng, R, r, d, m, low, x)
            fac = fun_factor(f)
            assert (fac.u, fac.gtilde, fac.k) == fun_factor_forward(f), (d, m, low, x)
            assert fac.gtilde.degree == d - m and fac.u.degree == m

    @pytest.mark.parametrize("R, r", FF_RINGS[4:], ids=str)
    def test_no_galois_product_by_one(self, monkeypatch, R, r):
        # the factorisation divides by the monic rev(P) from the bottom, and
        # its lift by the monic P and P^2, and it builds u from the monic P:
        # no GaloisRing.mul(x, 1), no coefficient multiplied by a 1
        rng = random.Random(f"fun_factor/by-one/{R}")
        fs = [ff_input(rng, R, r, d, m) for d in (12, 40) for m in (1, 2, 3)]
        by_one, mul = [], GaloisRing.mul

        def counting(S, a, b):
            if b == S.one:
                by_one.append(a)
            return mul(S, a, b)

        monkeypatch.setattr(GaloisRing, "mul", counting)
        facs = [fun_factor(f) for f in fs]
        assert not by_one
        monkeypatch.undo()
        for f, fac in zip(fs, facs):
            assert fac.u * fac.gtilde == f and fac.gtilde.lc == R.one

    @pytest.mark.parametrize("R, r, d", [(Zmod(2**6), 2, 40), (Zmod(3**4), 3, 40),
                                         (Zmod(3**40), 3, 300),
                                         (GaloisRing(2, 8, find_irreducible(2, 3)), 2, 40)],
                             ids=str)
    def test_matches_forward_lift_truncated(self, R, r, d):
        # d > m*E + 1 for m = 1..4: the reversed lift runs on a truncation
        # of rev(f), and only the final quotient reads all of it
        rng = random.Random(f"fun_factor/truncated/{R}")
        for m in range(1, 5):
            assert m * R.E + 1 < d
            for low, x in (("random", False), ("top", False), ("random", True)):
                f = ff_input(rng, R, r, d, m, low, x)
                fac = fun_factor(f)
                assert (fac.u, fac.gtilde, fac.k) == fun_factor_forward(f), (m, low, x)

    def test_truncated_error_vanishes_early(self):
        # Z/64, E = 7: a round of the truncated lift finds E == 0 on the
        # coefficients it reads (gap 1 Newton, gap 2 and 3 lists) before P
        # is exact, and must not stop there
        R = Zmod(64)
        for cs in ([36, 29, 50, 58, 47, 9, 27, 14, 3, 14],
                   [11, 36, 32, 23, 12, 48, 53, 51, 45, 7, 17, 43, 16, 2],
                   [59, 38, 22, 28, 47, 28, 43, 31, 13, 43, 15, 11, 24, 42, 50]):
            f = Poly.from_ints(R, cs)
            fac = fun_factor(f)
            assert (fac.u, fac.gtilde, fac.k) == fun_factor_forward(f), cs

    def test_list_helpers_match_poly(self):
        # the list lift's products and remainders are canonical residues
        rng = random.Random(11)
        for n in (64, 3**40, 2**64, 6**10):
            R = Zmod(n)
            for _ in range(50):
                a = [rng.randrange(n) for _ in range(rng.randrange(1, 30))]
                b = [rng.randrange(n) for _ in range(rng.randrange(1, 6))]
                prod = _mul_lists(a, b, n)
                assert Poly(R, prod) == Poly(R, a) * Poly(R, b)
                q, r = _divrem_lists(a, b + [1], n)
                assert Poly(R, q) * Poly(R, b + [1]) + Poly(R, r) == Poly(R, a)
                assert len(r) == len(b) and all(0 <= x < n for x in prod + q + r)

    @given(st.sampled_from([(2, 6), (3, 4), (5, 3), (7, 2)]), st.integers(1, 14), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_forward_lift_property(self, pe, d, data):
        p, e = pe
        R = Zmod(p**e)
        m = data.draw(st.integers(1, d))
        coeff = st.integers(0, R.n - 1)
        low = data.draw(st.lists(coeff, min_size=d - m, max_size=d - m))
        a = data.draw(coeff.filter(lambda c: c % p))
        high = data.draw(st.lists(coeff.map(lambda c: p * c % R.n), min_size=m, max_size=m))
        f = Poly.from_ints(R, low + [a] + high)
        fac = fun_factor(f)
        assert fac.u * fac.gtilde == f and is_unit_poly(fac.u)
        assert fac.gtilde.lc == R.one and fac.k == fac.gtilde.degree
        assert (fac.u, fac.gtilde, fac.k) == fun_factor_forward(f)

    def test_raises_needs_split(self):
        R = Zmod(12)
        # top non-nilpotent coefficient 4 is a splitting element
        f = Poly.from_ints(R, [1, 4])
        with pytest.raises(NeedsSplitError):
            fun_factor(f)


class TestHelpers:
    def test_content_and_primitive(self):
        R = Zmod(12)
        assert content(Poly.from_ints(R, [4, 8])) == 4
        assert is_primitive(Poly.from_ints(R, [3, 4]))
        assert not is_primitive(Poly.from_ints(R, [2, 4]))

    def test_primitive_part(self):
        R = Zmod(18)        # 6 and 12 are nilpotent, 2 and 4 splitting
        f = Poly.from_ints(R, [5, 3, 1])
        c, h = primitive_part(f)
        assert c == 1 and h is f
        c, h = primitive_part(Poly.from_ints(R, [6, 0, 12]))
        assert (c, h.coeffs) == (6, (1, 0, 2))
        # the content 2 of f, and the content 2 of 12x's primitive part 2x
        for cs in ([2, 4], [0, 12]):
            with pytest.raises(NeedsSplitError) as e:
                primitive_part(Poly.from_ints(R, cs))
            assert e.value.element == 2

    def test_primitive_part_galois_never_splits(self):
        rng = random.Random(14)
        for R, r in FF_RINGS:
            if R.kind != "galois":
                continue
            for v in range(R.e):
                f = ff_input(rng, R, r, rng.randrange(1, 8), rng.randrange(0, 3))
                c, h = primitive_part(f.scale(R.from_int(r ** v)))
                assert c == R.from_int(r ** v) and is_primitive(h)
                assert h.scale(c) == f.scale(c)

    def test_reciprocal(self):
        R = Zmod(7)
        f = Poly.from_ints(R, [1, 2, 3])
        assert reciprocal(f).coeffs == (3, 2, 1)

    def test_crt_poly_roundtrip(self):
        R = Zmod(12)
        R1, R2 = Zmod(4), Zmod(3)
        rng = random.Random(1)
        for _ in range(20):
            f = rand_poly(rng, R, 4)
            back = crt_poly(R, R1, f.map_ring(R1), R2, f.map_ring(R2))
            assert back == f

    def test_map_ring_matches_coerce(self):
        # Z/n to Z/n reduces each coefficient mod the new modulus, which is
        # what coerce does; into and between Galois rings map_ring coerces
        rng = random.Random("map-ring")
        lam = find_irreducible(3, 2)
        for R, R2 in ((Zmod(9699690), Zmod(2)), (Zmod(9699690), Zmod(3 * 5 * 7)),
                      (Zmod(3**40), Zmod(3**5)), (Zmod(72), Zmod(8)), (Zmod(10007), Zmod(10007)),
                      (Zmod(3**20), GaloisRing(3, 20, lam)),
                      (GaloisRing(3, 20, lam), GaloisRing(3, 4, lam))):
            for d in (0, 1, 30):
                cs = [tuple(rng.randrange(R.pe) for _ in range(R.k)) if R.kind == "galois"
                      else rng.randrange(R.n) for _ in range(d)]
                f = Poly(R, cs)
                want = Poly(R2, [R2.from_int(c) if isinstance(c, int) else tuple(x % R2.pe for x in c)
                                 for c in cs])
                assert f.map_ring(R2) == want == Poly(R2, [R2.coerce(c) for c in f.coeffs]), (R, R2)

    def test_galois_ring_polynomials(self):
        gr = GaloisRing(2, 3, (1, 1, 1))
        f = Poly(gr, [(1, 0), (0, 1)])
        g = Poly(gr, [(0, 1), (1, 0)])
        assert (f * g).ring == gr
        assert f * g == g * f


# one modulus for each Z/n slot width of 2..8 bytes, where _pack and _unpack
# move coefficients through machine words, then two with 18- and 34-byte
# slots, which keep the per-slot path
WORD_MODULI = (2, 19, 1001, 30030, 510510, 1000003, 9699690)
PACK_MODULI = WORD_MODULI + (18446744073709551557, 2**127 - 1)
PACK_LENGTHS = (0, 1, _WORD_MIN - 1, _WORD_MIN, _WORD_MIN + 1, 1100)


class TestPackWords:
    """_pack and _unpack over Z/n against the slot-by-slot oracle, on both
    sides of _WORD_MIN, at _Packed's slot width w, and at w = 1 (a product
    width of _ks_mul over Z/2)."""

    CASES = [(n, _layout(n, 1)[0]) for n in PACK_MODULI] + [(2, 1)]

    def test_word_moduli_cover_every_word_width(self):
        assert sorted(_layout(n, 1)[0] for n in WORD_MODULI) == list(range(2, 9))
        assert all(_layout(n, 1)[0] > 8 for n in PACK_MODULI[len(WORD_MODULI):])

    @pytest.mark.parametrize("n,w", CASES)
    def test_round_trip(self, n, w):
        # reduced coefficients, and any value a slot holds: the top bytes of a
        # slot are zero below n
        rng, R, top = random.Random(f"pack/{n}/{w}"), Zmod(n), (1 << 8 * w) - 1
        for l in PACK_LENGTHS:
            cs = [rng.choice([0, n - 1, rng.randrange(n), rng.randrange(top), top]) for _ in range(l)]
            X = _pack(R, cs, w)
            assert X == pack_slots(cs, w), (n, w, l)
            assert _unpack(R, X, l, w) == [c % n for c in cs], (n, w, l)

    @pytest.mark.parametrize("n,w", CASES)
    def test_unpack_reduces_every_slot(self, n, w):
        # slots as addmul leaves them (below 3n) and the largest a slot holds
        vals, R = [0, n - 1, 3 * n - 1, (1 << 8 * w) - 1], Zmod(n)
        for l in PACK_LENGTHS:
            for shift in range(len(vals)):
                slots = [vals[(i + shift) % len(vals)] for i in range(l)]
                X = pack_slots(slots, w)
                assert _unpack(R, X, l, w) == unpack_slots(X, l, w, n), (n, w, l)

    @pytest.mark.parametrize("n,w", CASES)
    def test_pack_raises_on_a_coefficient_outside_its_slot(self, n, w):
        # -1, and a set bit in each byte above the slot up to the 8-byte word
        # (the bytes the word path drops) and beyond it
        bad = [-1] + [1 << 8 * b for b in range(w, max(w, 8) + 1)]
        R = Zmod(n)
        for l in (_WORD_MIN - 1, _WORD_MIN + 1):
            for c in bad:
                for i in (0, l // 2, l - 1):
                    cs = [n - 1] * l
                    cs[i] = c
                    with pytest.raises(InvariantError):
                        _pack(R, cs, w)
