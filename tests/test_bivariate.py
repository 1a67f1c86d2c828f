import random

import pytest

from ringres import (BiPoly, ContextMismatchError, GaloisRing, Poly, Zmod, degree_bound,
                     interpolation_plan, res, res_y)
from ringres import bivariate
from ringres.ring import InvariantError

from oracles import interpolate_lagrange, res_y_oracle


def rand_bipoly(rng, R, max_dx, max_dy):
    grid = [
        [rng.randrange(R.n) for _ in range(rng.randrange(1, max_dx + 2))]
        for _ in range(rng.randrange(1, max_dy + 2))
    ]
    return BiPoly.from_ints(R, grid)


def bench_bipoly(rng, R, N):
    """y-degree N, every y-coefficient of x-degree <= N + 1, the top one exactly."""
    grid = [[rng.randrange(R.n) for _ in range(N + 2)] for _ in range(N + 1)]
    grid[-1][-1] = rng.randrange(1, R.n)
    return BiPoly.from_ints(R, grid)


class TestBiPoly:
    def test_normalization_strips_zero_lead(self):
        R = Zmod(12)
        b = BiPoly.from_ints(R, [[1, 2], [0], [0]])
        assert b.deg_y == 0 and b.deg_x == 1

    def test_degrees(self):
        R = Zmod(12)
        b = BiPoly.from_ints(R, [[1], [0, 0, 5], [3, 1]])
        assert b.deg_y == 2 and b.deg_x == 2

    def test_eval_x(self):
        R = Zmod(35)
        # f = (1+x) + (2x^2) y
        b = BiPoly.from_ints(R, [[1, 1], [0, 0, 2]])
        p = b.eval_x(R, R.from_int(3))
        assert p.coeffs == (4, 18)


def test_res_y_mixed_rings_raise():
    # Z/12 against Z/35, and Z/8 against GR(2, 3, 1), in both orders
    for R1, R2 in [(Zmod(12), Zmod(35)), (Zmod(8), GaloisRing(2, 3, (0, 1)))]:
        f = BiPoly.from_ints(R1, [[1, 2], [3, 1]])
        g = BiPoly(R2, (Poly.from_ints(R2, [1, 1]), Poly.from_ints(R2, [1])))
        for a, b in ((f, g), (g, f)):
            with pytest.raises(ContextMismatchError):
                res_y(a, b)


class TestDegreeBound:
    def test_all_linear(self):
        R = Zmod(12)
        f = BiPoly.from_ints(R, [[1, 1], [1, 1]])
        g = BiPoly.from_ints(R, [[1, 1], [1, 1]])
        assert degree_bound(f, g) == 2

    def test_mixed(self):
        R = Zmod(12)
        f = BiPoly.from_ints(R, [[1, 0, 1], [1], [1], [1]])  # deg_x 2, deg_y 3
        g = BiPoly.from_ints(R, [[1, 1], [1], [1]])  # deg_x 1, deg_y 2
        assert degree_bound(f, g) == 2 * 2 + 3 * 1

    def test_univariate_in_y(self):
        R = Zmod(12)
        f = BiPoly.from_ints(R, [[1], [2], [1]])
        g = BiPoly.from_ints(R, [[3], [1]])
        assert degree_bound(f, g) == 0


class TestInterpolationPlan:
    def test_coprime_single_branch(self):
        plan = interpolation_plan(Zmod(35), 3)
        assert len(plan) == 1
        br = plan[0]
        assert isinstance(br.ring, Zmod) and br.modulus == 35
        assert [int(p) for p in br.points] == [0, 1, 2, 3]

    def test_prime_power_galois_branch(self):
        plan = interpolation_plan(Zmod(4), 3)
        assert len(plan) == 1
        br = plan[0]
        assert isinstance(br.ring, GaloisRing)
        assert br.ring.p == 2 and br.ring.e == 2
        assert br.ring.p ** (len(br.ring.lam) - 1) > 3  # residue field beats B
        assert len(br.points) == 4

    def test_mixed_branches(self):
        plan = interpolation_plan(Zmod(12), 2)
        mods = sorted(br.modulus for br in plan)
        assert mods == [3, 4]
        galois = [br for br in plan if br.modulus == 4][0]
        assert isinstance(galois.ring, GaloisRing)
        plain = [br for br in plan if br.modulus == 3][0]
        assert isinstance(plain.ring, Zmod) and len(plain.points) == 3

    def test_points_have_unit_differences(self):
        for n, B in ((12, 4), (100, 5), (30, 3)):
            for br in interpolation_plan(Zmod(n), B):
                S = br.ring
                assert len(br.points) == B + 1
                for i, a in enumerate(br.points):
                    for b in br.points[:i]:
                        assert S.is_unit(S.sub(a, b))


class TestInterpolate:
    @pytest.mark.parametrize("n", [35, 100, 15120, 64])
    def test_matches_lagrange_oracle(self, n):
        rng = random.Random(n)
        for B in (0, 1, 2, 12, 24, 40):
            for bp in bivariate._plan(Zmod(n), B, 0):
                br, S = bp.branch, bp.branch.ring
                if isinstance(S, GaloisRing):
                    rand = lambda: tuple(rng.randrange(S.pe) for _ in range(S.k))
                else:
                    rand = lambda: rng.randrange(S.n)
                single = [S.zero] * (B + 1)
                single[rng.randrange(B + 1)] = rand()
                for values in ([rand() for _ in br.points], [S.zero] * (B + 1), single):
                    got = bp.interpolate(values)
                    assert got == interpolate_lagrange(S, br.points, values), (n, B, S)
                    assert [got.eval(a) for a in br.points] == values


class TestPlan:
    def test_eval_matches_horner_up_to_D(self):
        # the packed powers reach D = max deg_x, also where D exceeds B: a
        # shorter row would drop the top coefficients without an error
        rng = random.Random(7)
        for n, B, D in ((15120, 2, 9), (100, 12, 5), (72, 0, 4), (35, 3, 3)):
            R = Zmod(n)
            for bp in bivariate._plan(R, B, D):
                S = bp.branch.ring
                c = Poly.from_ints(R, [rng.randrange(n) for _ in range(D + 1)])
                want = [c.map_ring(S).eval(a) for a in bp.branch.points]
                assert bp.eval(c) == want, (n, B, D, S)

    def test_second_call_reuses_the_plan(self, monkeypatch):
        calls = []

        def counting(ctx, B):
            calls.append((ctx, B))
            return interpolation_plan(ctx, B)
        monkeypatch.setattr(bivariate, "interpolation_plan", counting)
        bivariate._plan.cache_clear()
        rng = random.Random(11)
        R = Zmod(15120)
        f, g, f2, g2 = (bench_bipoly(rng, R, 2) for _ in range(4))
        assert res_y(f, g) == res_y_oracle(f, g)
        assert res_y(f2, g2) == res_y_oracle(f2, g2)
        assert calls == [(R, 12)]
        info = bivariate._plan.cache_info()
        assert isinstance(info.maxsize, int) and info.currsize == 1

    def test_base_ring_check_catches_a_planted_t_coefficient(self, monkeypatch):
        orig, planted = bivariate.res_at_degrees, []

        def plant(f, N, g, M):
            r = orig(f, N, g, M)
            if f.ring.kind == "galois" and not planted:
                planted.append(r)
                r = (r[0], (r[1] + 1) % f.ring.pe) + r[2:]
            return r
        monkeypatch.setattr(bivariate, "res_at_degrees", plant)
        rng = random.Random(12)
        f, g = (bench_bipoly(rng, Zmod(15120), 2) for _ in range(2))
        with pytest.raises(InvariantError, match="left the base ring"):
            res_y(f, g)
        assert planted


class TestResY:
    def test_linear_in_y(self):
        # res_y(y - a(x), y - b(x)) = a(x) - b(x) up to sign convention
        R = Zmod(101)
        a = Poly.from_ints(R, [3, 5, 7])
        b = Poly.from_ints(R, [1, 0, 0, 2])
        f = BiPoly(R, (a.scale(R.neg(R.one)), Poly.one(R)))
        g = BiPoly(R, (b.scale(R.neg(R.one)), Poly.one(R)))
        assert res_y(f, g) == a - b

    def test_univariate_inputs_match_res(self):
        R = Zmod(100)
        fp = Poly.from_ints(R, [1, 2, 0, 1])
        gp = Poly.from_ints(R, [2, 0, 2, 1])
        f = BiPoly(R, tuple(Poly.const(R, c) for c in fp.coeffs))
        g = BiPoly(R, tuple(Poly.const(R, c) for c in gp.coeffs))
        out = res_y(f, g)
        assert out.degree <= 0
        assert out.coeff(0) == res(fp, gp)

    def test_specialization_consistency(self):
        # evaluating res_y at x = a matches the univariate resultant of the
        # specializations whenever no y-degree drops at a
        rng = random.Random(301)
        done = 0
        while done < 40:
            n = rng.choice([12, 27, 35, 100, 101])
            R = Zmod(n)
            f = rand_bipoly(rng, R, 2, 2)
            g = rand_bipoly(rng, R, 2, 2)
            if f.deg_y < 1 or g.deg_y < 1:
                continue
            r = res_y(f, g)
            a = R.from_int(rng.randrange(n))
            pf, pg = f.eval_x(R, a), g.eval_x(R, a)
            if pf.degree != f.deg_y or pg.degree != g.deg_y:
                continue
            assert r.eval(a) == res(pf, pg), (n, f.coeffs, g.coeffs, a)
            done += 1

    def test_against_cofactor_oracle(self):
        rng = random.Random(302)
        for n in (12, 27, 35, 100):
            R = Zmod(n)
            for _ in range(10):
                f = rand_bipoly(rng, R, 2, 2)
                g = rand_bipoly(rng, R, 2, 2)
                assert res_y(f, g) == res_y_oracle(f, g), (n, f.coeffs, g.coeffs)

    def test_against_cofactor_oracle_at_benchmark_shapes(self):
        # y-degree N and x-degree N + 1 as in the benchmark, so B = 2N(N + 1)
        # reaches 24: over 15120 that is four Galois-ring branches
        plan = interpolation_plan(Zmod(15120), 24)
        assert sorted((br.ring.p, br.ring.e, br.ring.k) for br in plan) == [
            (2, 4, 5), (3, 3, 3), (5, 1, 2), (7, 1, 2)]
        rng = random.Random(303)
        for n in (15120, 2**6, 3**4 * 5):
            R = Zmod(n)
            for N in (2, 3):
                for _ in range(2):
                    f, g = (bench_bipoly(rng, R, N) for _ in range(2))
                    assert degree_bound(f, g) == 2 * N * (N + 1)
                    assert res_y(f, g) == res_y_oracle(f, g), (n, f.coeffs, g.coeffs)

    def test_zero_and_constant_cases(self):
        R = Zmod(12)
        z = BiPoly.from_ints(R, [[0]])
        c = BiPoly.from_ints(R, [[5]])
        f = BiPoly.from_ints(R, [[1, 1], [2], [1]])
        assert res_y(z, f).is_zero()
        assert res_y(f, z).is_zero()
        assert res_y(c, c).coeffs == (1,)
        # res_y(f, const in y) = c(x)^deg_y(f)
        cx = BiPoly.from_ints(R, [[5, 1]])
        expect = Poly.from_ints(R, [5, 1]) * Poly.from_ints(R, [5, 1])
        assert res_y(f, cx) == expect

    @pytest.mark.parametrize("n", [12, 15120, 101])
    def test_constant_in_y_beside_x_degree_above_B(self, n):
        # g constant in y and f of x-degree 7 give B = deg_y f * deg_x g = 2,
        # so the plan's powers must reach x^7, not stop at x^B (the resultant,
        # g^deg_y f, does not read f's values: TestPlan checks the powers);
        # then the reverse
        R = Zmod(n)
        rng = random.Random(n)
        f = BiPoly.from_ints(R, [[rng.randrange(n) for _ in range(8)] for _ in range(2)]
                             + [[rng.randrange(n) for _ in range(7)] + [1]])
        g0 = Poly.from_ints(R, [rng.randrange(n), 1])
        g = BiPoly(R, (g0,))
        assert f.deg_y == 2 and f.deg_x == 7 and degree_bound(f, g) == 2
        assert res_y(f, g) == g0 * g0 == res_y_oracle(f, g)
        assert res_y(g, f) == g0 * g0 == res_y_oracle(g, f)
