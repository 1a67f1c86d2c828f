import random
from itertools import accumulate

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
        assert br.orbits == (1, 1, 1, 1)

    def test_prime_power_galois_branch(self):
        # k = 3 is the least with 2^k >= B + 1 + k; two full orbits of size
        # 3 give 6 < 7 points, so the fixed point 0 follows
        plan = interpolation_plan(Zmod(4), 3)
        assert len(plan) == 1
        br = plan[0]
        assert isinstance(br.ring, GaloisRing)
        assert br.ring.p == 2 and br.ring.e == 2 and br.ring.k == 3
        assert len(br.points) == 7 and br.orbits == (3, 3, 1)
        assert br.points[-1] == br.ring.zero

    def test_mixed_branches(self):
        plan = interpolation_plan(Zmod(12), 2)
        mods = sorted(br.modulus for br in plan)
        assert mods == [3, 4]
        galois = [br for br in plan if br.modulus == 4][0]
        assert isinstance(galois.ring, GaloisRing)
        assert len(galois.points) == 6 and galois.orbits == (3, 3)
        plain = [br for br in plan if br.modulus == 3][0]
        assert isinstance(plain.ring, Zmod) and len(plain.points) == 3

    def test_points_have_unit_differences(self):
        counts = {(12, 4): {4: 8, 3: 7}, (100, 5): {4: 12, 25: 8},
                  (30, 3): {2: 7, 3: 6, 5: 4}}
        for (n, B), want in counts.items():
            plan = interpolation_plan(Zmod(n), B)
            assert {br.modulus: len(br.points) for br in plan} == want
            for br in plan:
                S = br.ring
                assert sum(br.orbits) == len(br.points)
                for i, a in enumerate(br.points):
                    for b in br.points[:i]:
                        assert S.is_unit(S.sub(a, b))


class TestInterpolate:
    @pytest.mark.parametrize("n", [35, 100, 15120, 64])
    def test_matches_lagrange_oracle(self, n):
        rng = random.Random(n)
        for B in (0, 1, 2, 12, 24, 40, 50):
            for bp in bivariate._plan(Zmod(n), B, 0):
                br, S = bp.branch, bp.branch.ring
                if isinstance(S, GaloisRing):
                    rand = lambda: tuple(rng.randrange(S.pe) for _ in range(S.k))
                else:
                    rand = lambda: rng.randrange(S.n)
                l = len(br.points)
                single = [S.zero] * l
                single[rng.randrange(l)] = rand()
                for values in ([rand() for _ in br.points], [S.zero] * l, single):
                    got = bp.interpolate(values)
                    assert got == interpolate_lagrange(S, br.points, values), (n, B, S)
                    assert [got.eval(a) for a in br.points] == values


class TestPlan:
    def test_eval_matches_horner_up_to_D(self):
        # the packed powers reach D = max deg_x, also where D exceeds B: a
        # shorter row would drop the top coefficients without an error; eval
        # covers each orbit's first point, and spread gives c(phi^i(a)) at
        # the others
        rng = random.Random(7)
        for n, B, D in ((15120, 2, 9), (100, 12, 5), (72, 0, 4), (35, 3, 3)):
            R = Zmod(n)
            for bp in bivariate._plan(R, B, D):
                S, br = bp.branch.ring, bp.branch
                c = Poly.from_ints(R, [rng.randrange(n) for _ in range(D + 1)])
                want = [c.map_ring(S).eval(a) for a in br.points]
                firsts = list(accumulate((0,) + br.orbits[:-1]))
                got = bp.eval(c)
                assert got == [want[i] for i in firsts], (n, B, D, S)
                assert bp.spread(got) == want, (n, B, D, S)

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

    @staticmethod
    def plant_and_call(monkeypatch, f, g, call, j, match):
        """res_y(f, g) with 1 added to the t^j coefficient of Galois-ring
        point resultant number `call` (from 0); it must raise `match`."""
        orig, seen = bivariate.res_at_degrees, []

        def plant(fa, N, ga, M):
            r = orig(fa, N, ga, M)
            if fa.ring.kind == "galois":
                seen.append(r)
                if len(seen) == call + 1:
                    r = r[:j] + ((r[j] + 1) % fa.ring.pe,) + r[j + 1:]
            return r
        monkeypatch.setattr(bivariate, "res_at_degrees", plant)
        with pytest.raises(InvariantError, match=match):
            res_y(f, g)
        assert len(seen) > call

    @staticmethod
    def bench_pair():
        rng = random.Random(12)
        return [bench_bipoly(rng, Zmod(15120), 2) for _ in range(2)]

    def test_degree_check_catches_a_planted_t_coefficient(self, monkeypatch):
        # the first Galois point's orbit has full size, so its values stay
        # phi-consistent and the interpolant stays in the base ring; the
        # spare orbit pushes its degree above B
        self.plant_and_call(monkeypatch, *self.bench_pair(), 0, 1, "exceeds its degree bound")

    def test_degree_check_catches_a_planted_constant_coefficient(self, monkeypatch):
        self.plant_and_call(monkeypatch, *self.bench_pair(), 0, 0, "exceeds its degree bound")

    def test_base_ring_check_catches_a_planted_t_coefficient(self, monkeypatch):
        # Z/4 at B = 3 has orbits (3, 3, 1), the last at the point 0, which
        # phi fixes: a t^1 error there is not phi-consistent, and its
        # Lagrange term carries t into the interpolant
        R = Zmod(4)
        (br,) = interpolation_plan(R, 3)
        assert br.orbits == (3, 3, 1) and br.points[-1] == br.ring.zero
        f = BiPoly.from_ints(R, [[1, 2], [3, 1]])
        g = BiPoly.from_ints(R, [[2, 1, 3], [1, 0, 1]])
        assert degree_bound(f, g) == 3 and res_y(f, g) == res_y_oracle(f, g)
        self.plant_and_call(monkeypatch, f, g, 2, 1, "left the base ring")

    def test_point_resultants_at_B_40(self, monkeypatch):
        # one resultant per orbit: 8 + 12 + 15 + 22 over the branches
        # GR(2,4,6), GR(3,3,4), GR(5,1,3), GR(7,1,2) of Z/15120
        orig, calls = bivariate.res_at_degrees, []

        def counting(*args):
            calls.append(args)
            return orig(*args)
        monkeypatch.setattr(bivariate, "res_at_degrees", counting)
        rng = random.Random(13)
        f, g = (bench_bipoly(rng, Zmod(15120), 4) for _ in range(2))
        assert degree_bound(f, g) == 40
        out = res_y(f, g)
        assert len(calls) == 57
        assert out == res_y_oracle(f, g)


class TestFrobenius:
    """phi on every branch ring of the plans, and the orbits of the points."""

    @staticmethod
    def branch_plans():
        for n in (12, 35, 72, 100, 15120):
            for B in (4, 12, 24, 40):
                for bp in bivariate._plan(Zmod(n), B, 0):
                    if isinstance(bp.branch.ring, GaloisRing):
                        yield n, B, bp

    @staticmethod
    def phi(S, images, x):
        """sum_i x_i * tau^i by the ring's own arithmetic."""
        acc = S.zero
        for c, im in zip(x, images):
            acc = S.add(acc, S.mul(S.from_int(c), im))
        return acc

    def test_tau_is_the_lifted_root(self):
        seen = set()
        for n, B, bp in self.branch_plans():
            S = bp.branch.ring
            if S in seen:
                continue
            seen.add(S)
            tau = bp.branch.images[1]
            assert len(bp.branch.images) == S.k
            assert all(bp.branch.images[i] == S.pow_elem(tau, i) for i in range(S.k))
            acc = S.zero
            for c in reversed(S.lam):
                acc = S.add(S.mul(acc, tau), S.from_int(c))
            assert acc == S.zero, (n, B, S)
            F = GaloisRing(S.p, 1, S.lam)
            t = (0, 1) + (0,) * (S.k - 2)
            assert tuple(c % S.p for c in tau) == F.pow_elem(t, S.p), (n, B, S)
        assert len(seen) >= 10

    def test_phi_is_an_automorphism_of_order_k(self):
        rng = random.Random(14)
        for n, B, bp in self.branch_plans():
            S, images = bp.branch.ring, bp.branch.images
            for _ in range(3):
                a, b = (tuple(rng.randrange(S.pe) for _ in range(S.k)) for _ in range(2))
                pa, pb = self.phi(S, images, a), self.phi(S, images, b)
                assert bivariate._phi(S, images, a) == pa
                assert self.phi(S, images, S.add(a, b)) == S.add(pa, pb)
                assert self.phi(S, images, S.mul(a, b)) == S.mul(pa, pb)
                x = a
                for _ in range(S.k):
                    x = self.phi(S, images, x)
                assert x == a, (n, B, S)

    def test_points_are_whole_orbits(self):
        for n, B, bp in self.branch_plans():
            br, S = bp.branch, bp.branch.ring
            pts, k = br.points, S.k
            assert S.p ** k >= B + 1 + k and S.p ** (k - 1) < B + k
            assert B + 1 + k <= len(pts) < B + 1 + 2 * k
            i = 0
            for s in br.orbits:
                assert all(c < S.p for c in pts[i])        # a digit lift
                for j in range(i + 1, i + s):
                    assert pts[j] == self.phi(S, bp.branch.images, pts[j - 1]), (n, B, S)
                i += s
            for i, a in enumerate(pts):
                for b in pts[:i]:
                    assert S.is_unit(S.sub(a, b)), (n, B, S)

    def test_open_orbits_at_B_50(self):
        # at B = 50 the GR(2, 6, 6) branch of Z/64 runs out of full orbits
        # and takes orbits of size 3 whose digit lifts phi^3 does not fix,
        # so phi does not map its point set onto itself; spreading values
        # along each orbit still gives the right resultant
        (bp,) = bivariate._plan(Zmod(64), 50, 5)
        br, S = bp.branch, bp.branch.ring
        starts = list(accumulate((0,) + br.orbits[:-1]))
        assert any(bivariate._phi(S, bp.branch.images, br.points[i + s - 1]) != br.points[i]
                   for i, s in zip(starts, br.orbits))
        rng = random.Random(16)
        f, g = (BiPoly.from_ints(Zmod(64), [[rng.randrange(64) for _ in range(5)] + [1]
                                            for _ in range(6)]) for _ in range(2))
        assert degree_bound(f, g) == 50
        assert res_y(f, g) == res_y_oracle(f, g)

    def test_res_y_catches_an_unlifted_tau(self, monkeypatch):
        # mutation: tau = t^p mod (lam, p^e) without the Newton lift (and
        # without its check) must make res_y raise or disagree with the oracle
        def unlifted(S):
            tau = S.pow_elem((0, 1) + (0,) * (S.k - 2), S.p)
            return tuple(S.pow_elem(tau, i) for i in range(S.k))
        monkeypatch.setattr(bivariate, "_frobenius", unlifted)
        bivariate._plan.cache_clear()
        try:
            rng = random.Random(15)
            R = Zmod(100)
            for N in (2, 3):
                f, g = (bench_bipoly(rng, R, N) for _ in range(2))
                try:
                    out = res_y(f, g)
                except InvariantError:
                    continue
                assert out != res_y_oracle(f, g)
        finally:
            bivariate._plan.cache_clear()


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
            (2, 4, 5), (3, 3, 4), (5, 1, 3), (7, 1, 2)]
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

    @pytest.mark.parametrize("n", [12, 15120, 101, 2**64, 9699690])
    def test_both_constant_in_y(self, n):
        # an empty Sylvester matrix: res_y == 1 whatever the x-polynomials,
        # with B = 0 and the plan's powers reaching x^3
        R = Zmod(n)
        rng = random.Random(f"y-constants/{n}")
        for dx, ex in ((0, 0), (0, 3), (2, 1), (3, 3)):
            f, g = (BiPoly(R, (Poly.from_ints(R, [rng.randrange(n) for _ in range(d)] + [1]),))
                    for d in (dx, ex))
            assert f.deg_y == g.deg_y == 0 and degree_bound(f, g) == 0
            assert res_y(f, g) == Poly.const(R, R.one) == res_y(g, f)

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
