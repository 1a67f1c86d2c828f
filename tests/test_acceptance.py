"""Acceptance gate: one test per published criterion, each printing a
single PASS line with its measured statistics."""

import itertools
import math
import os
import random
import statistics
import time

import pytest

from ringres import (
    BiPoly,
    FieldElem,
    GaloisRing,
    Ideal2,
    Matrix,
    NumberFieldCtx,
    PadicCtx,
    Poly,
    PrecisionError,
    Zmod,
    det,
    find_irreducible,
    fun_factor,
    howell,
    ideal_min,
    ideal_norm,
    invert_unit,
    padic_gcd,
    res,
    res_y,
    rres,
    rres_bezout,
    sylvester,
)
from ringres.cli import BENCH_MODULI, bench_pairs, median_seconds

from oracles import (
    berkowitz_det,
    divides_mod,
    ideal_module_oracle,
    normal_presentation,
    random_monogenic_field,
    res_y_oracle,
    rres_galois_oracle,
    rres_howell_oracle,
)


def rand_poly(rng, R, max_deg):
    return Poly.from_ints(R, [rng.randrange(R.n) for _ in range(rng.randrange(1, max_deg + 2))])


def test_criterion_1_fixed_regressions(capsys):
    t0 = time.perf_counter()
    R12 = Zmod(12)
    assert rres(Poly.from_ints(R12, [3, 2, 1]), Poly.from_ints(R12, [1, 0, 1])) == 4

    # determinant convention: the hand-reduction value 3 is the associate
    # -1 * 1; we return det(S(f,g)) = 37 mod 4 = 1 and check ideal agreement
    R4 = Zmod(4)
    v = res(Poly.from_ints(R4, [1, 2, 0, 1]), Poly.from_ints(R4, [2, 0, 2, 1]))
    assert v == 1 and R4.ideal_gen(v) == R4.ideal_gen(3)

    R8 = Zmod(8)
    fac = fun_factor(Poly.from_ints(R8, [1, 0, 0, 1, 0, 2]))
    assert fac.u.coeffs == (1, 4, 2) and fac.gtilde.coeffs == (1, 4, 6, 1)

    for p, k in ((2, 3), (3, 2), (5, 4)):
        R = Zmod(p**k)
        inv = invert_unit(Poly.from_ints(R, [1, -p]))
        assert inv == Poly.from_ints(R, [p**i for i in range(k)])

    for p in (2, 3, 5):
        R = Zmod(p * p)
        H = howell(Matrix(R, [[p, 1], [p, 1 + p]]))
        assert H.to_lists() == [[p, 1], [0, p]]

    dt = time.perf_counter() - t0
    assert dt < 1.0
    with capsys.disabled():
        print(f"\nPASS criterion 1: fixed regressions exact in {dt:.3f}s (< 1s)")


def test_criterion_2_res_equals_det(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1002)
    done = 0
    while done < 2000:
        n = rng.randrange(2, 10**6)
        R = Zmod(n)
        f, g = rand_poly(rng, R, 10), rand_poly(rng, R, 10)
        if f.is_zero() or g.is_zero() or f.degree + g.degree < 1:
            continue
        assert res(f, g) == det(sylvester(f, g)), (n, f.coeffs, g.coeffs)
        done += 1
    R4 = Zmod(4)
    swept = 0
    for fc in itertools.product(range(4), repeat=3):
        for gc in itertools.product(range(4), repeat=3):
            f, g = Poly.from_ints(R4, fc), Poly.from_ints(R4, gc)
            if f.is_zero() or g.is_zero() or f.degree + g.degree < 1:
                continue
            assert res(f, g) == det(sylvester(f, g)), (fc, gc)
            swept += 1
    dt = time.perf_counter() - t0
    assert dt < 60.0
    with capsys.disabled():
        print(
            f"PASS criterion 2: 2000 random + {swept} exhaustive Z/4 res=det in {dt:.1f}s (< 60s)"
        )


def test_criterion_2_galois_res_equals_det(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1012)
    rings = [(2, 3, 2), (3, 2, 2), (2, 5, 3), (101, 4, 4), (2, 4, 5), (3, 3, 3)]
    for p, e, k in rings:
        R = GaloisRing(p, e, find_irreducible(p, k))
        done = 0
        while done < 40:
            # half the coefficients nilpotent, so leading coefficients drop
            f, g = (Poly(R, [R.mul(tuple(rng.randrange(R.pe) for _ in range(k)),
                                   R.from_int(p ** rng.randrange(2)))
                             for _ in range(rng.randrange(1, 8))])
                    for _ in range(2))
            if f.is_zero() or g.is_zero() or f.degree + g.degree < 1:
                continue
            assert res(f, g) == berkowitz_det(R, sylvester(f, g).rows), (R, f, g)
            done += 1
    dt = time.perf_counter() - t0
    assert dt < 60.0
    names = ", ".join(f"GR({p},{e},{k})" for p, e, k in rings)
    with capsys.disabled():
        print(f"PASS criterion 2 (Galois): {40 * len(rings)} res=Berkowitz det over {names} "
              f"in {dt:.1f}s (< 60s)")


def test_criterion_3_rres_oracle(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1003)
    done = 0
    while done < 1000:
        n = rng.randrange(2, 10**4)
        R = Zmod(n)
        f, g = rand_poly(rng, R, 8), rand_poly(rng, R, 8)
        if f.is_zero() or g.is_zero():
            continue
        assert rres(f, g) == rres_howell_oracle(f, g), (n, f.coeffs, g.coeffs)
        cert = rres_bezout(f, g)
        assert cert.u * f + cert.v * g == Poly.const(R, cert.value)
        assert R.ideal_gen(cert.value) == rres(f, g)
        done += 1
    R4 = Zmod(4)
    swept = 0
    for fc in itertools.product(range(4), repeat=3):
        for gc in itertools.product(range(4), repeat=3):
            f, g = Poly.from_ints(R4, fc), Poly.from_ints(R4, gc)
            if f.is_zero() or g.is_zero():
                continue
            assert rres(f, g) == rres_howell_oracle(f, g), (fc, gc)
            swept += 1
    dt = time.perf_counter() - t0
    assert dt < 120.0
    with capsys.disabled():
        print(
            f"PASS criterion 3: 1000 random + {swept} exhaustive rres/Bezout vs oracle in {dt:.1f}s (< 120s)"
        )


def test_criterion_3_galois_rres_oracle(capsys):
    # rres and rres_bezout against the chain-ring Howell oracle, with the
    # certificate checked by re-multiplication; a copy of rres that returned
    # p*r with the certificate scaled by p would pass that check, and the
    # oracle tells the two apart whenever r != 0
    t0 = time.perf_counter()
    rng = random.Random(1013)
    rings = [(2, 8, 3), (3, 20, 2), (101, 4, 4), (2, 3, 2), (3, 2, 2)]
    caught = 0
    for p, e, k in rings:
        R = GaloisRing(p, e, find_irreducible(p, k))
        P = R.from_int(p)
        done = 0
        while done < 40:
            # half the coefficients nilpotent, so leading coefficients drop
            f, g = (Poly(R, [R.mul(tuple(rng.randrange(R.pe) for _ in range(k)),
                                   R.from_int(p ** rng.randrange(2)))
                             for _ in range(rng.randrange(1, 9))])
                    for _ in range(2))
            if f.is_zero() or g.is_zero():
                continue
            want, cert = rres_galois_oracle(f, g), rres_bezout(f, g)
            assert rres(f, g) == want == R.ideal_gen(cert.value), (R, f, g)
            assert cert.u * f + cert.v * g == Poly.const(R, cert.value), (R, f, g)
            r = R.mul(P, cert.value)
            assert cert.u.scale(P) * f + cert.v.scale(P) * g == Poly.const(R, r)
            if not R.is_zero(cert.value):
                assert R.ideal_gen(r) != want
                caught += 1
            done += 1
    assert caught >= 100
    dt = time.perf_counter() - t0
    assert dt < 30.0
    names = ", ".join(f"GR({p},{e},{k})" for p, e, k in rings)
    with capsys.disabled():
        print(f"PASS criterion 3 (Galois): {40 * len(rings)} rres/Bezout vs oracle over {names}, "
              f"{caught} p*r mutations caught, in {dt:.1f}s (< 30s)")


def test_criterion_4_algebraic_identities(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1004)
    COUNT = 500

    # res(f, c) = c^deg(f)
    done = 0
    while done < COUNT:
        n = rng.randrange(2, 10**5)
        R = Zmod(n)
        f, c = rand_poly(rng, R, 6), rng.randrange(1, n)
        if f.is_zero() or f.degree < 1:
            continue
        assert res(f, Poly.const(R, R.from_int(c))) == R.pow_elem(R.from_int(c), f.degree)
        done += 1

    # res(x - a, x - b) = a - b
    for _ in range(COUNT):
        n = rng.randrange(2, 10**6)
        a, b = rng.randrange(n), rng.randrange(n)
        R = Zmod(n)
        assert res(Poly.from_ints(R, [-a, 1]), Poly.from_ints(R, [-b, 1])) == (a - b) % n

    # swap antisymmetry
    done = 0
    while done < COUNT:
        n = rng.randrange(2, 10**5)
        R = Zmod(n)
        f, g = rand_poly(rng, R, 6), rand_poly(rng, R, 6)
        if f.is_zero() or g.is_zero() or f.degree + g.degree < 1:
            continue
        r = res(g, f)
        if (f.degree * g.degree) % 2:
            r = R.neg(r)
        assert res(f, g) == r
        done += 1

    # multiplicativity under additive degrees
    done = 0
    while done < COUNT:
        n = rng.randrange(2, 10**5)
        R = Zmod(n)
        f, g, h = (rand_poly(rng, R, 4) for _ in range(3))
        if f.is_zero() or g.is_zero() or h.is_zero() or h.degree < 1:
            continue
        fg = f * g
        if fg.is_zero() or fg.degree != f.degree + g.degree:
            continue
        assert res(fg, h) == R.mul(res(f, h), res(g, h))
        done += 1

    # content rule res(f, c*g) = c^deg(f) res(f, g)
    done = 0
    while done < COUNT:
        n = rng.randrange(2, 10**5)
        R = Zmod(n)
        f, g = rand_poly(rng, R, 5), rand_poly(rng, R, 5)
        c = rng.randrange(1, n)
        if f.is_zero() or g.is_zero() or f.degree < 1 or R.is_zero(R.mul(R.from_int(c), g.lc)):
            continue
        assert res(f, g.scale(R.from_int(c))) == R.mul(
            R.pow_elem(R.from_int(c), f.degree), res(f, g)
        )
        done += 1

    # CRT degree-correction consistency under coprime projections
    done = 0
    while done < COUNT:
        n1, n2 = rng.randrange(2, 1000), rng.randrange(2, 1000)
        if math.gcd(n1, n2) != 1:
            continue
        R, R1 = Zmod(n1 * n2), Zmod(n1)
        f, g = rand_poly(rng, R, 5), rand_poly(rng, R, 5)
        if f.is_zero() or g.is_zero() or f.degree + g.degree < 1:
            continue
        whole = int(res(f, g)) % n1
        f1, g1 = f.map_ring(R1), g.map_ring(R1)
        if f1.is_zero() or g1.is_zero():
            done += 1
            continue
        d, e = f.degree - f1.degree, g.degree - g1.degree
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

    dt = time.perf_counter() - t0
    with capsys.disabled():
        print(f"PASS criterion 4: 6 identity families x {COUNT} cases in {dt:.1f}s")


def test_criterion_5_bivariate_oracle(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1005)
    done = 0
    while done < 200:
        n = rng.choice([12, 27, 35, 72, 100, 15120])
        R = Zmod(n)
        f = BiPoly.from_ints(
            R, [[rng.randrange(n) for _ in range(rng.randrange(1, 5))] for _ in range(rng.randrange(1, 5))]
        )
        g = BiPoly.from_ints(
            R, [[rng.randrange(n) for _ in range(rng.randrange(1, 5))] for _ in range(rng.randrange(1, 5))]
        )
        if f.deg_y < 0 or g.deg_y < 0:
            continue
        assert res_y(f, g) == res_y_oracle(f, g), (n, f.coeffs, g.coeffs)
        done += 1
    dt = time.perf_counter() - t0
    assert dt < 120.0
    with capsys.disabled():
        print(f"PASS criterion 5: 200 bivariate vs cofactor oracle in {dt:.1f}s (< 120s)")


def test_criterion_6_padic_gcd(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1006)

    def monic(ctx, deg):
        n = ctx.ring.n
        return ctx.poly([rng.randrange(n) for _ in range(deg)] + [1])

    planted = 0
    while planted < 300:
        p = rng.choice([2, 3, 5])
        k = rng.randrange(2, 11)
        ctx = PadicCtx(p, k)
        d = monic(ctx, rng.randrange(0, 4))
        f1 = monic(ctx, rng.randrange(0, 4))
        g1 = monic(ctx, rng.randrange(0, 4))
        Rp = Zmod(p)
        if rres(f1.map_ring(Rp), g1.map_ring(Rp)) != 1:
            continue  # cofactors must be coprime mod p
        out = padic_gcd(ctx, d * f1, d * g1)
        assert out.delta == 0, (p, k, d.coeffs, f1.coeffs, g1.coeffs)
        assert out.normalized and out.value == d
        planted += 1

    adversarial = 0
    while adversarial < 300:
        p = rng.choice([2, 3, 5])
        k = rng.randrange(2, 9)
        ctx = PadicCtx(p, k)
        n = ctx.ring.n
        f = ctx.poly([rng.randrange(n) for _ in range(rng.randrange(1, 8))])
        g = ctx.poly([rng.randrange(n) for _ in range(rng.randrange(1, 8))])
        if f.is_zero() and g.is_zero():
            continue
        try:
            out = padic_gcd(ctx, f, g)
        except PrecisionError:
            continue
        Rk = Zmod(p ** (ctx.k - out.delta))
        dv = out.value.map_ring(Rk)
        if dv.is_zero():
            continue
        assert divides_mod(dv, f.map_ring(Rk)), (p, k, f.coeffs, g.coeffs)
        assert divides_mod(dv, g.map_ring(Rk)), (p, k, f.coeffs, g.coeffs)
        adversarial += 1

    dt = time.perf_counter() - t0
    with capsys.disabled():
        print(
            f"PASS criterion 6: 300 planted delta=0 exact + 300 adversarial divisibility in {dt:.1f}s"
        )


def test_criterion_7_numberfield_oracle(capsys):
    t0 = time.perf_counter()

    qi = NumberFieldCtx((1, 0, 1))
    I = Ideal2(5, FieldElem((2, 1)))
    assert ideal_norm(qi, I) == 5 and ideal_min(qi, I) == 5
    q5 = NumberFieldCtx((5, 0, 1))
    J = Ideal2(2, FieldElem((1, 1)))
    assert ideal_norm(q5, J) == 2 and ideal_min(q5, J) == 2

    rng = random.Random(1007)
    fields = 0
    while fields < 50:
        minpoly, disc = random_monogenic_field(rng)
        ctx = NumberFieldCtx(minpoly)
        n = ctx.degree
        # minimum against the HNF oracle for an arbitrary random pair
        a = rng.randrange(2, 60)
        num = tuple(rng.randrange(-9, 10) for _ in range(n))
        if not any(num):
            continue
        _, want_min = ideal_module_oracle(minpoly, a, list(num))
        assert ideal_min(ctx, Ideal2(a, FieldElem(num))) == want_min, (minpoly, a, num)
        # norm and minimum against the oracle on a normal presentation
        built = normal_presentation(rng, minpoly, disc)
        if built is not None:
            na, alpha_num, want_norm, want_min2 = built
            K = Ideal2(na, FieldElem(tuple(alpha_num)))
            assert ideal_norm(ctx, K) == want_norm, (minpoly, na, alpha_num)
            assert ideal_min(ctx, K) == want_min2, (minpoly, na, alpha_num)
        fields += 1

    dt = time.perf_counter() - t0
    with capsys.disabled():
        print(f"PASS criterion 7: fixed ideals + {fields} random fields vs HNF oracle in {dt:.1f}s")


_P64 = 18446744073709551557


def _ref_seconds():
    """Time of a fixed pure-Python big-integer kernel of about 1 ms: the
    host's speed at this moment, as perfbench's reference kernel."""
    t0 = time.perf_counter()
    a, acc = list(range(1, 257)), 0
    for _ in range(8):
        a = [(x * 6364136223846793005 + 1442695040888963407) % _P64 for x in a]
        for x in a:
            acc = (acc * x + 1) % _P64
    return time.perf_counter() - t0


@pytest.mark.skipif(
    os.environ.get("RINGRES_BENCH") != "1",
    reason="soft complexity-shape check; set RINGRES_BENCH=1 to run "
    "(documented as measured, not asserted in CI by default)",
)
def test_criterion_8_complexity_shape(capsys):
    rng = random.Random(1008)
    # the prime-power pairs come from their own generator, so the prime and
    # composite rows keep their inputs
    pp_rng = random.Random(1009)
    # 3^40 / prime at d = 128 / 256 / 512: 1.5x the median ratio of twelve
    # runs of this test on a 2-vCPU x86 VM (res x9.02 / x9.21 / x8.13, rres
    # x6.67 / x8.42 / x8.28), rounded down
    pp_bounds = {"res": (13.5, 13.8, 12.1), "rres": (9.9, 12.6, 12.4)}
    lines = []
    for alg, fn in (("res", res), ("rres", rres)):
        pairs = {}
        for n_class, n in BENCH_MODULI:
            r, sizes = ((pp_rng, (128, 256, 512)) if n_class == "prime-power"
                        else (rng, (128, 256, 512, 1024)))
            for d in sizes:
                pairs[(n_class, d)] = bench_pairs(n, d, r)
        # the classes are timed back to back at each size, so a drift in the
        # host's speed moves the numerator and denominator of a class ratio
        # alike; each median is divided by the reference kernel's time taken
        # just before and after it, so a drift between sizes does not move a
        # doubling ratio either.  Each median is over three passes of the
        # three pairs, 9 calls: one row of 3 calls moved by more than the
        # 3^40 bounds' margin
        times = {}
        for d in (128, 256, 512, 1024):
            for n_class, _ in BENCH_MODULI:
                if (n_class, d) in pairs:
                    refs = [_ref_seconds() for _ in range(3)]
                    t = median_seconds(fn, pairs[(n_class, d)] * 3)
                    refs += [_ref_seconds() for _ in range(3)]
                    times[(n_class, d)] = t / statistics.median(refs)
        for d in (256, 512, 1024):
            ratio = times[("prime", d)] / max(times[("prime", d // 2)], 1e-9)
            lines.append(f"{alg} prime d={d//2}->{d}: x{ratio:.2f}")
            assert ratio <= 5.0, lines[-1]
        for d in (128, 256, 512):
            ratio = times[("composite", d)] / max(times[("prime", d)], 1e-9)
            lines.append(f"{alg} composite/prime d={d}: x{ratio:.2f}")
            assert ratio <= 3.0, lines[-1]
        for d, bound in zip((128, 256, 512), pp_bounds[alg]):
            ratio = times[("prime-power", d)] / max(times[("prime", d)], 1e-9)
            lines.append(f"{alg} 3^40/prime d={d}: x{ratio:.2f}")
            assert ratio <= bound, lines[-1]
    with capsys.disabled():
        print("PASS criterion 8: " + "; ".join(lines))
