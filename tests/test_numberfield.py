import random
from itertools import product

import pytest

from ringres import (
    FieldElem,
    Ideal2,
    InsufficientHintError,
    NumberFieldCtx,
    elem_norm_mod,
    ideal_min,
    ideal_norm,
)

from oracles import ideal_module_oracle, normal_presentation, random_monogenic_field


class TestFieldElem:
    def test_reduction(self):
        e = FieldElem((2, 4), 6)
        assert e.num == (1, 2) and e.den == 3

    def test_sign_normalization(self):
        e = FieldElem((1, -2), -3)
        assert e.den == 3 and e.num == (-1, 2)

    def test_trailing_zeros_stripped(self):
        assert FieldElem((0, 0), 5).is_zero()
        assert FieldElem((3, 0, 0)).num == (3,)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            FieldElem((1,), 0)


class TestCtx:
    def test_rejects_nonmonic_or_linear(self):
        with pytest.raises(ValueError):
            NumberFieldCtx((1, 2))
        with pytest.raises(ValueError):
            NumberFieldCtx((1, 0, 2))

    def test_degree(self):
        assert NumberFieldCtx((1, 0, 1)).degree == 2


class TestElemNorm:
    def test_gaussian_integer(self):
        # N(2 + i) = res(x^2+1, x+2) = 5
        ctx = NumberFieldCtx((1, 0, 1))
        assert elem_norm_mod(ctx, FieldElem((2, 1)), 25) == 5

    def test_one(self):
        ctx = NumberFieldCtx((1, 0, 1))
        assert elem_norm_mod(ctx, FieldElem((1,)), 100) == 1

    def test_with_denominator(self):
        # over Q(sqrt(-5)): N((1 + gamma)/2) = (1 + 5)/4, not integral, but
        # N(1 + gamma) = 6 and the denominator 2 is handled by widening
        ctx = NumberFieldCtx((5, 0, 1))
        assert elem_norm_mod(ctx, FieldElem((1, 1)), 100) == 6
        # N((2 + 2 gamma)/2) = N(1 + gamma) after reduction
        assert elem_norm_mod(ctx, FieldElem((2, 2), 2), 100) == 6

    def test_non_integral_norm_rejected(self):
        # N(1/2) = 1/4 in Q(i) breaks the integral-norm precondition
        with pytest.raises(ValueError):
            elem_norm_mod(NumberFieldCtx((1, 0, 1)), FieldElem((1,), 2), 7)

    def test_against_oracle(self):
        rng = random.Random(701)
        for _ in range(25):
            minpoly, disc = random_monogenic_field(rng)
            ctx = NumberFieldCtx(minpoly)
            n = ctx.degree
            num = [rng.randrange(-9, 10) for _ in range(n)]
            if not any(num):
                continue
            import sympy

            x = sympy.symbols("x")
            f = sympy.Poly(list(reversed(minpoly)), x)
            g = sympy.Poly(list(reversed(num + [0])), x)
            want = int(sympy.resultant(f.as_expr(), g.as_expr(), x)) if g.degree() >= 0 else 0
            M = 10**9 + 7
            assert elem_norm_mod(ctx, FieldElem(tuple(num)), M) == want % M


class TestFixedIdeals:
    def test_gaussian_prime_five(self):
        # (5, 2 + i) in Z[i]: norm 5, minimum 5
        ctx = NumberFieldCtx((1, 0, 1))
        I = Ideal2(5, FieldElem((2, 1)))
        assert ideal_norm(ctx, I) == 5
        assert ideal_min(ctx, I) == 5

    def test_ramified_two_sqrt_minus_five(self):
        # (2, 1 + sqrt(-5)): norm 2, minimum 2 (ramified, non-principal)
        ctx = NumberFieldCtx((5, 0, 1))
        I = Ideal2(2, FieldElem((1, 1)))
        assert ideal_norm(ctx, I) == 2
        assert ideal_min(ctx, I) == 2

    def test_unit_ideal(self):
        ctx = NumberFieldCtx((1, 0, 1))
        I = Ideal2(1, FieldElem((7, 3)))
        assert ideal_norm(ctx, I) == 1
        assert ideal_min(ctx, I) == 1

    def test_integer_generated(self):
        # (a, 0) = (a): N(0) = 0, norm a^n, min a; an exponent hint sharing
        # a prime with a sends ideal_min down its general path
        for minpoly, hint in product([(1, 0, 1), (-2, 0, 0, 1), (5, -3, 0, 1, 1)], (1, 6)):
            ctx = NumberFieldCtx(minpoly, exponent_hint=hint)
            for M in (2, 12, 3**40):
                assert elem_norm_mod(ctx, FieldElem(()), M) == 0
            for a, zero in product((2, 3, 6, 35, 2**64), (FieldElem(()), FieldElem((0, 0), 7))):
                I = Ideal2(a, zero)
                assert ideal_norm(ctx, I) == a**ctx.degree, (minpoly, hint, a)
                assert ideal_min(ctx, I) == a, (minpoly, hint, a)

    def test_non_integral_norm_is_insufficient_hint(self):
        # (2, 1/2) in Z[i]: N(1/2) = 1/4 is not integral at a = 2
        ctx = NumberFieldCtx((1, 0, 1))
        with pytest.raises(InsufficientHintError, match="not normal for this order"):
            ideal_norm(ctx, Ideal2(2, FieldElem((1,), 2)))


class TestAgainstHnfOracle:
    def test_min_unconditional_random_pairs(self):
        # ideal_min needs no normality assumption: compare against the HNF
        # module oracle for arbitrary (a, alpha)
        rng = random.Random(702)
        done = 0
        while done < 40:
            minpoly, disc = random_monogenic_field(rng)
            ctx = NumberFieldCtx(minpoly)
            n = ctx.degree
            a = rng.randrange(2, 60)
            num = tuple(rng.randrange(-9, 10) for _ in range(n))
            if not any(num):
                continue
            want_norm, want_min = ideal_module_oracle(minpoly, a, list(num))
            assert ideal_min(ctx, Ideal2(a, FieldElem(num))) == want_min, (
                minpoly,
                a,
                num,
            )
            done += 1

    def test_norm_and_min_on_normal_presentations(self):
        rng = random.Random(703)
        done = 0
        while done < 25:
            minpoly, disc = random_monogenic_field(rng)
            ctx = NumberFieldCtx(minpoly)
            built = normal_presentation(rng, minpoly, disc)
            if built is None:
                continue
            a, alpha_num, want_norm, want_min = built
            I = Ideal2(a, FieldElem(tuple(alpha_num)))
            assert ideal_norm(ctx, I) == want_norm, (minpoly, a, alpha_num)
            assert ideal_min(ctx, I) == want_min, (minpoly, a, alpha_num)
            # general path (gcd(a, hint) != 1 forces it) must agree too
            ctx2 = NumberFieldCtx(minpoly, exponent_hint=a)
            assert ideal_min(ctx2, I) == want_min, (minpoly, a, alpha_num)
            done += 1

    def test_min_divides_norm_divides_min_power(self):
        rng = random.Random(704)
        done = 0
        while done < 25:
            minpoly, disc = random_monogenic_field(rng)
            ctx = NumberFieldCtx(minpoly)
            built = normal_presentation(rng, minpoly, disc)
            if built is None:
                continue
            a, alpha_num, _, _ = built
            I = Ideal2(a, FieldElem(tuple(alpha_num)))
            nm = ideal_norm(ctx, I)
            mn = ideal_min(ctx, I)
            assert nm % mn == 0
            assert mn ** ctx.degree % nm == 0
            done += 1
