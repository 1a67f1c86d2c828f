import random

import pytest

from ringres import (
    PadicCtx,
    PadicPoly,
    Poly,
    PrecisionError,
    Zmod,
    fun_factor_padic,
    is_probable_prime,
    padic_gcd,
    reciprocal,
    res,
)
from ringres.padic import _gcd, _gcd_unitlike
from ringres.poly import _Packed, fun_factor

from oracles import divides_mod


def poly_from_int_coeffs(ctx, coeffs):
    return ctx.poly(coeffs)


def rand_poly(rng, ctx, max_deg):
    n = ctx.ring.n
    cs = [rng.randrange(n) for _ in range(rng.randrange(1, max_deg + 2))]
    return ctx.poly(cs)


class TestPrimality:
    def test_known_values(self):
        primes = [2, 3, 5, 7, 97, 2**31 - 1, 3317044064679887385961981 + 30]
        comps = [1, 4, 561, 1105, 2**32 + 1, 3215031751]
        assert all(is_probable_prime(p) for p in [2, 3, 5, 7, 97, 2**31 - 1])
        assert not any(is_probable_prime(c) for c in comps)

    def test_ctx_rejects_composite(self):
        with pytest.raises(ValueError):
            PadicCtx(4, 2)
        with pytest.raises(ValueError):
            PadicCtx(3, 0)


class TestCtx:
    def test_val(self):
        ctx = PadicCtx(5, 6)
        assert ctx.val(0) == 6  # zero residue: valuation capped at k
        assert ctx.val(1) == 0
        assert ctx.val(50) == 2
        assert ctx.val(5**5) == 5

    def test_content_val(self):
        ctx = PadicCtx(3, 4)
        assert PadicPoly.from_ints(ctx, [9, 3, 27]).content_val == 1
        assert PadicPoly.from_ints(ctx, [0]).content_val == 4


class TestFunFactorPadic:
    def test_split_and_coprimality(self):
        ctx = PadicCtx(2, 3)
        f = ctx.poly([1, 4, 6, 1])
        u, monic = fun_factor_padic(ctx, f)
        assert u * monic == f
        assert ctx.ring.is_unit(u.coeffs[0])
        assert monic.lc == 1
        # the parts are coprime: their resultant is a unit
        if u.degree >= 1:
            assert ctx.ring.is_unit(res(u, monic))

    def test_rejects_imprimitive(self):
        ctx = PadicCtx(2, 3)
        with pytest.raises(ValueError):
            fun_factor_padic(ctx, ctx.poly([2, 4]))


class TestPlantedGcd:
    def test_monic_coprime_cofactors_exact(self):
        # d*f1 and d*g1 with everything monic and f1, g1 coprime modulo p:
        # the remainder sequence keeps unit leading coefficients, so no
        # precision is lost and the planted d is recovered exactly.
        rng = random.Random(601)

        def monic(ctx, deg):
            n = ctx.ring.n
            return ctx.poly([rng.randrange(n) for _ in range(deg)] + [1])

        from ringres import rres

        done = 0
        while done < 120:
            p = rng.choice([2, 3, 5])
            k = rng.randrange(2, 11)
            ctx = PadicCtx(p, k)
            d = monic(ctx, rng.randrange(0, 4))
            f1 = monic(ctx, rng.randrange(0, 4))
            g1 = monic(ctx, rng.randrange(0, 4))
            Rp = Zmod(p)
            if rres(f1.map_ring(Rp), g1.map_ring(Rp)) != 1:
                continue  # need cofactors coprime mod p
            out = padic_gcd(ctx, d * f1, d * g1, track_bezout=True)
            assert out.delta == 0, (p, k, d.coeffs, f1.coeffs, g1.coeffs)
            assert out.normalized and out.value == d
            if out.u is not None:
                assert out.u * (d * f1) + out.v * (d * g1) == out.value
            done += 1

    def test_nonmonic_planted_divisibility(self):
        # with non-monic plantings the remainder sequence can shed digits,
        # so only the divisibility-at-precision contract is guaranteed
        rng = random.Random(603)
        done = 0
        while done < 60:
            p = rng.choice([2, 3, 5])
            k = rng.randrange(2, 11)
            ctx = PadicCtx(p, k)
            d = rand_poly(rng, ctx, 3)
            a = rand_poly(rng, ctx, 3)
            b = rand_poly(rng, ctx, 3)
            if d.is_zero() or a.is_zero() or b.is_zero():
                continue
            try:
                out = padic_gcd(ctx, d * a, d * b)
            except PrecisionError:
                continue
            Rk = Zmod(p ** (ctx.k - out.delta))
            dv = out.value.map_ring(Rk)
            if dv.is_zero():
                continue
            assert divides_mod(dv, (d * a).map_ring(Rk))
            assert divides_mod(dv, (d * b).map_ring(Rk))
            assert divides_mod(d.map_ring(Rk), dv) or divides_mod(dv, d.map_ring(Rk))
            done += 1

    def test_monic_planted_recovered_exactly(self):
        ctx = PadicCtx(3, 8)
        d = ctx.poly([1, 0, 1])  # monic x^2 + 1
        a = ctx.poly([1, 1])
        b = ctx.poly([2, 0, 0, 1])
        out = padic_gcd(ctx, d * a, d * b)
        assert out.delta == 0
        assert out.normalized
        assert out.value == d


class TestPrecisionLoss:
    def test_shared_content_costs_digits(self):
        # gcd((x-1)(x^2+1), (x-1)(x+2)) over Z_5 at k = 6: the cofactors meet
        # at 5 (res(x^2+1, x+2) = 5), so one digit is lost to an intermediate
        # content extraction; the result matches x - 1 at the reduced precision.
        ctx = PadicCtx(5, 6)
        d = ctx.poly([-1, 1])
        f = d * ctx.poly([1, 0, 1])
        g = d * ctx.poly([2, 1])
        out = padic_gcd(ctx, f, g)
        assert out.delta == 1
        Rk = Zmod(5 ** (ctx.k - out.delta))
        assert out.value.map_ring(Rk) == d.map_ring(Rk)

    def test_precision_exhaustion_raises(self):
        # found by randomized search: the remainder sequence sheds both
        # available digits before terminating
        ctx = PadicCtx(2, 2)
        with pytest.raises(PrecisionError):
            padic_gcd(ctx, ctx.poly([1, 1, 3, 0, 2]), ctx.poly([1, 3, 3, 2, 2]))

    def test_zero_pair_rejected(self):
        ctx = PadicCtx(2, 3)
        with pytest.raises(ValueError):
            padic_gcd(ctx, ctx.poly([0]), ctx.poly([]))

    def test_foreign_ring_rejected(self):
        ctx = PadicCtx(2, 3)
        with pytest.raises(ValueError):
            padic_gcd(ctx, Poly.from_ints(Zmod(9), [1]), ctx.poly([1]))


class TestAdversarial:
    def test_divisibility_at_result_precision(self):
        rng = random.Random(602)
        done = 0
        while done < 120:
            p = rng.choice([2, 3, 5])
            k = rng.randrange(2, 9)
            ctx = PadicCtx(p, k)
            f = rand_poly(rng, ctx, 5)
            g = rand_poly(rng, ctx, 5)
            if f.is_zero() and g.is_zero():
                continue
            try:
                out = padic_gcd(ctx, f, g, track_bezout=True)
            except PrecisionError:
                continue
            Rk = Zmod(p ** (ctx.k - out.delta))
            dv = out.value.map_ring(Rk)
            if dv.is_zero():
                continue
            assert divides_mod(dv, f.map_ring(Rk)), (p, k, f.coeffs, g.coeffs)
            assert divides_mod(dv, g.map_ring(Rk)), (p, k, f.coeffs, g.coeffs)
            if out.u is not None:
                assert out.u * f + out.v * g == out.value, (p, k, f.coeffs, g.coeffs)
            done += 1


def planted(rng, ctx, d, dh, nilpotent_lc=False):
    """(h, h*a, h*b): h monic of degree dh, h*a of degree d, a and b coprime
    mod p with unit constant terms; with nilpotent_lc, half of the cofactors
    get a leading coefficient divisible by p, which breaks the unit-lc
    chains."""
    p, q = ctx.p, ctx.ring.n
    Rp = Zmod(p)

    def unit():
        while True:
            x = rng.randrange(1, q)
            if x % p:
                return x

    def cofactor(deg):
        lc = p * rng.randrange(1, q // p) if nilpotent_lc and rng.random() < 0.5 else unit()
        return ctx.poly([unit()] + [rng.randrange(q) for _ in range(deg - 1)] + [lc])

    h = ctx.poly([rng.randrange(q) for _ in range(dh)] + [1])
    while True:
        a, b = cofactor(d - dh), cofactor(d - dh - 1 - rng.randrange(4))
        if Rp.is_unit(res(a.map_ring(Rp), b.map_ring(Rp))):
            return h, h * a, h * b


class TestUnitChainPath:
    @pytest.mark.parametrize("p, k", [(10007, 2), (2**61 - 1, 1)])
    def test_long_chain_planted(self, p, k):
        # about 1,090 unit-lc divisions in a row, more than the default
        # recursion limit: one UnitChain, no Python frame per division
        ctx = PadicCtx(p, k)
        h, f, g = planted(random.Random(p), ctx, 1100, 8)
        for track in (False, True):
            out = padic_gcd(ctx, f, g, track_bezout=track)
            assert out.value == h and out.delta == 0 and out.normalized
            if track:
                assert out.u * f + out.v * g == out.value

    @pytest.mark.parametrize("p, k", [(3, 40), (2, 64)])
    @pytest.mark.parametrize("d", [64, 200])
    def test_tracked_bezout_nilpotent_cofactors(self, p, k, d):
        # the chains meet nilpotent leading coefficients, factor those
        # divisors and go on dividing by their monic factors
        ctx = PadicCtx(p, k)
        rng = random.Random(d)
        for _ in range(4):
            h, f, g = planted(rng, ctx, d, d // 4, nilpotent_lc=True)
            out = padic_gcd(ctx, f, g, track_bezout=True)
            assert out.value == h and out.delta == 0
            if out.u is not None:
                assert out.u * f + out.v * g == out.value


class TestUnitlikeWindow:
    @pytest.mark.parametrize("p, k", [(3, 40), (2, 64), (5, 6)])
    def test_window_matches_full_length(self, p, k):
        # _gcd_unitlike factors only f's top m*j + 1 coefficients: the same
        # unit-like factor as fun_factor on all of f with its powers of x
        # stripped, and the same gcd with u, on f of degree 300
        ctx = PadicCtx(p, k)
        R, q = ctx.ring, ctx.ring.n
        rng = random.Random(f"window/{p}")
        for m in (1, 2, 3, 4):
            for s in (0, 3):
                low = [rng.randrange(q) for _ in range(300 - m - s)] + [1 + p * rng.randrange(q // p)]
                f = ctx.poly([0] * s + low + [p * rng.randrange(1, q // p) for _ in range(m)])
                ops = _Packed(R, f.degree + 2)
                F = ops.pack(f.coeffs)
                i, _ = ops.top_non_nilpotent(F, f.degree)
                want = fun_factor(Poly(R, f.coeffs[s:])).u
                assert ops.factor(F, f.degree, i, window=True)[0] == want, (m, s)
                u = ctx.poly([1 + p * rng.randrange(q // p)] + [p * rng.randrange(q // p)
                                                               for _ in range(rng.randrange(1, 4))])
                d, delta = _gcd_unitlike(ctx, ops, F, f.degree, u, 0)
                d_full, delta_full, _ = _gcd(ctx, reciprocal(want), reciprocal(u), 0, False)
                assert (d, delta) == (reciprocal(d_full), delta_full)
                assert m * k + 1 < f.degree - s    # the window, j <= k, leaves most of f
