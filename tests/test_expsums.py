import cmath
import math
import random

import numpy as np
import pytest

from crt_equidist.expsums import (
    RationalExpSumSpec,
    curve_exp_sums,
    normalized_exp_sum,
    twisted_mult_check,
    weil_bound_scan,
)
from crt_equidist.generators import BivariatePoly, IntPolynomial
from oracles import is_prime_slow

KLOOSTERMAN = RationalExpSumSpec(IntPolynomial((1, 0, 1)), IntPolynomial((0, 1)))


def direct_v(spec, a, q):
    total = 0j
    for n in range(q):
        f2 = spec.f2(n, q)
        if math.gcd(f2, q) != 1:
            continue
        t = (a * spec.f1(n, q) * pow(f2, -1, q)) % q
        total += cmath.exp(2j * cmath.pi * t / q)
    return total / math.sqrt(q)


def test_v_trivia():
    assert normalized_exp_sum(KLOOSTERMAN, 1, 1) == 1.0
    assert normalized_exp_sum(KLOOSTERMAN, 1, 12) == 0.0
    assert normalized_exp_sum(KLOOSTERMAN, 3, 50) == 0.0
    with pytest.raises(ValueError):
        normalized_exp_sum(KLOOSTERMAN, 1, 0)


def test_v_monic_validation():
    with pytest.raises(ValueError, match="monic"):
        RationalExpSumSpec(IntPolynomial((0, 1)), IntPolynomial((1, 2)))
    with pytest.raises(ValueError, match="zero"):
        RationalExpSumSpec(IntPolynomial((0, 1)), IntPolynomial((0,)))


def test_v_zero_multiplier_warns():
    with pytest.warns(UserWarning, match="a = 0"):
        normalized_exp_sum(KLOOSTERMAN, 0, 7)
    with pytest.warns(UserWarning):
        normalized_exp_sum(KLOOSTERMAN, 14, 7)


def test_v_matches_direct_summation():
    rng = random.Random(73)
    for _ in range(30):
        q = rng.choice([2, 3, 5, 6, 7, 10, 11, 13, 15, 21, 30, 35, 77, 105])
        a = rng.randrange(1, q)
        f1 = IntPolynomial(tuple(rng.randrange(-5, 6) for _ in range(3)))
        spec = RationalExpSumSpec(f1, IntPolynomial((0, 1)))
        assert abs(normalized_exp_sum(spec, a, q) - direct_v(spec, a, q)) < 1e-10


def _normalized_exp_sum_per_n(spec, a, q):
    """Reference: the sum with one Python pow(x, -1, q) per n."""
    ns = np.arange(q, dtype=np.int64)
    f1v, f2v = spec.f1(ns, q), spec.f2(ns, q)
    keep = np.nonzero(np.gcd(f2v, q) == 1)[0]
    ts = np.fromiter(
        ((a * int(f1v[n]) * pow(int(f2v[n]), -1, q)) % q for n in keep),
        dtype=np.int64,
        count=len(keep),
    )
    return complex(np.exp((2j * np.pi / q) * ts).sum() / math.sqrt(q))


def test_v_matches_the_per_n_inverse():
    # f2 = X and f2 = X^2 + 1 share a factor with q at n = 0, and at the
    # roots of -1 mod the primes p = 1 (mod 4) and p = 2 dividing q
    rng = random.Random(83)
    specs = [
        KLOOSTERMAN,
        RationalExpSumSpec(IntPolynomial((3, -2, 0, 1)), IntPolynomial((1, 0, 1))),
    ]
    checked = 0
    while checked < 40:
        q = rng.randrange(2, 30031)
        if any(q % (p * p) == 0 for p in range(2, math.isqrt(q) + 1)):
            continue
        a = rng.randrange(1, q)
        for spec in specs:
            assert normalized_exp_sum(spec, a, q) == _normalized_exp_sum_per_n(spec, a, q), (q, a)
        checked += 1
    # the two moduli the search must cover, whatever the draw
    for spec in specs:
        assert normalized_exp_sum(spec, 7, 30030) == _normalized_exp_sum_per_n(spec, 7, 30030)
        assert normalized_exp_sum(spec, 5, 2 * 5 * 13) == _normalized_exp_sum_per_n(spec, 5, 2 * 5 * 13)


def test_kloosterman_real():
    for p in (3, 5, 7, 11, 101, 211, 499):
        for a in (1, 2, p - 1):
            v = normalized_exp_sum(KLOOSTERMAN, a, p)
            assert abs(v.imag) <= 1e-10, (p, a, v)


def test_v_conjugation():
    rng = random.Random(79)
    for _ in range(40):
        q = rng.choice([5, 7, 11, 13, 15, 21, 33, 35])
        a = rng.randrange(1, q)
        f1 = IntPolynomial(tuple(rng.randrange(-6, 7) for _ in range(4)))
        spec = RationalExpSumSpec(f1, IntPolynomial((0, 1)))
        v_plus = normalized_exp_sum(spec, a, q)
        v_minus = normalized_exp_sum(spec, -a, q)
        assert abs(v_minus - v_plus.conjugate()) <= 1e-12


def test_twisted_worked_example():
    lhs, rhs, err = twisted_mult_check(KLOOSTERMAN, 1, 5, 7)
    assert err <= 1e-10
    # q2 = 1 is the identity case
    lhs1, rhs1, err1 = twisted_mult_check(KLOOSTERMAN, 2, 35, 1)
    assert lhs1 == rhs1 and err1 == 0.0
    with pytest.raises(ValueError, match="coprime"):
        twisted_mult_check(KLOOSTERMAN, 1, 6, 10)


@pytest.mark.filterwarnings("ignore:phase multiplier")
def test_twisted_randomized():
    rng = random.Random(83)
    done = 0
    while done < 100:
        q1 = rng.randrange(2, 120)
        q2 = rng.randrange(2, 120)
        if math.gcd(q1, q2) != 1 or q1 * q2 > 10**4:
            continue
        a = rng.randrange(1, q1 * q2)
        f1 = IntPolynomial(tuple(rng.randrange(-9, 10) for _ in range(rng.randrange(1, 4))))
        f2 = IntPolynomial(tuple(rng.randrange(-4, 5) for _ in range(rng.randrange(1, 3))) + (1,))
        spec = RationalExpSumSpec(f1, f2)
        _, _, err = twisted_mult_check(spec, a, q1, q2)
        assert err <= 1e-9, (q1, q2, a, f1.coeffs, f2.coeffs, err)
        done += 1


def test_weil_scan_kloosterman():
    out = weil_bound_scan(KLOOSTERMAN, 500)
    assert out["global_max"] <= 2 + 1e-9
    assert out["argmax_p"] is not None
    # FFT-driven maxima agree with direct evaluation at small primes
    for p, m in out["per_prime"]:
        if p > 37:
            continue
        direct = max(abs(direct_v(KLOOSTERMAN, a, p)) for a in range(1, p))
        assert m == pytest.approx(direct, abs=1e-9)


def test_weil_scan_linear_phase_vanishes():
    spec = RationalExpSumSpec(IntPolynomial((0, 1)), IntPolynomial((1,)))
    out = weil_bound_scan(spec, 300)
    assert out["global_max"] <= 1e-9


def test_weil_scan_constant_phase_grows():
    spec = RationalExpSumSpec(IntPolynomial((0,)), IntPolynomial((0, 1)))
    out = weil_bound_scan(spec, 300)
    for p, m in out["per_prime"]:
        assert m == pytest.approx((p - 1) / math.sqrt(p), abs=1e-9)
    assert out["global_max"] > 10  # grows with p, hence no uniform G


def test_weil_scan_limit():
    with pytest.raises(ValueError, match="p_limit"):
        weil_bound_scan(KLOOSTERMAN, 20000)


# ---------------------------------------------------------------------------
# plane-curve sums

GAUSS = BivariatePoly(((2, 0, 1), (0, 1, -1)))        # x^2 - y: fiber y = x^2
PARABOLA_SWAP = BivariatePoly(((0, 2, 1), (1, 0, -1)))  # y^2 - x
GENUS1 = BivariatePoly(((2, 0, 1), (0, 3, -1), (0, 0, -17)))  # x^2 - y^3 - 17


def test_curve_validation():
    with pytest.raises(ValueError, match="not prime"):
        curve_exp_sums(GAUSS, 10, 1)
    with pytest.raises(ValueError, match="budget"):
        curve_exp_sums(GAUSS, 9973, 1, budget=10**6)
    with pytest.raises(ValueError, match="identically"):
        curve_exp_sums(BivariatePoly(((0, 0, 5), (1, 1, 5))), 5, 1)
    with pytest.raises(ValueError, match="empty"):
        curve_exp_sums(BivariatePoly(((0, 0, 1),)), 7, 1)


def test_curve_h_zero_normalization():
    for p in (7, 101):
        c1, c2, Z = curve_exp_sums(GENUS1, p, 0)
        assert c1 == 1.0
        grid_points = sum(1 for x in range(p) for y in range(p)
                          if (x * x - y**3 - 17) % p == 0)
        assert c2 == grid_points / p
        assert Z == len({x for x in range(p) for y in range(p)
                         if (x * x - y**3 - 17) % p == 0})


def test_curve_counts_vs_double_loop():
    p = 31
    c1, c2, Z = curve_exp_sums(GAUSS, p, 2)
    want_c2 = sum(cmath.exp(2j * cmath.pi * 2 * y / p)
                  for x in range(p) for y in range(p) if (x * x - y) % p == 0) / p
    assert abs(c2 - want_c2) < 1e-12
    # every x has exactly one fiber point y = x^2
    assert Z == p
    want_c1 = sum(cmath.exp(2j * cmath.pi * 2 * ((x * x) % p) / p) for x in range(p)) / p
    assert abs(c1 - want_c1) < 1e-12


def test_curve_gauss_decay():
    # fibers y = x^2 turn the phase sum into a quadratic Gauss sum, so
    # |c2| = p^(-1/2) exactly for every h not divisible by p
    ps = [101, 211, 401, 809]
    peaks = []
    for p in ps:
        vals = [abs(curve_exp_sums(GAUSS, p, h)[1]) for h in range(1, 6)]
        for v in vals:
            assert v * math.sqrt(p) == pytest.approx(1.0, abs=1e-9)
        peaks.append(max(vals))
    slope = np.polyfit(np.log(ps), np.log(peaks), 1)[0]
    assert -0.65 <= slope <= -0.35
    assert slope == pytest.approx(-0.5, abs=1e-9)


def test_curve_phase_convention_collapse():
    # swapping the roles of x and y makes every y-fiber count equal 1, so
    # the complete sum over y vanishes identically: the phase rides on y
    for p in (101, 211):
        for h in (1, 2, 3):
            _, c2, _ = curve_exp_sums(PARABOLA_SWAP, p, h)
            assert abs(c2) < 1e-12


def test_curve_genus1_weil_ceiling():
    for p in (101, 211, 401):
        peak = max(abs(curve_exp_sums(GENUS1, p, h)[1]) for h in range(1, 6))
        assert peak <= 4 / math.sqrt(p)
