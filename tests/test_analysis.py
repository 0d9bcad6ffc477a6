import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crt_equidist import analysis
from crt_equidist.analysis import (
    NoSupportedModuliError,
    _closed_arc_scan,
    aggregate_stats,
    box_discrepancy,
    damped_reciprocal_prime_sum,
    erdos_turan_bound,
    frequency_modulus,
    interval_discrepancy,
    reciprocal_prime_sum,
    second_moment_check,
    theorem_bound,
    weyl_spectrum,
    weyl_sum,
)
from crt_equidist.crt_sets import (
    LocalSystem,
    ModuliColumns,
    TorusPointSet,
    fractional_points,
    hyperplane_max_local,
    iter_supported,
    load_local_system,
    prime_support_stat,
    residue_set,
    supported_blocks,
    supported_moduli,
)
from crt_equidist.experiments import build_system
from crt_equidist.generators import IntPolynomial, full_system, graph_system, initial_segment_system, roots_system
from crt_equidist.modarith import sieve_primes
from oracles import (
    bracket_by_definition,
    direct_weyl,
    grid_box_disc,
    interval_disc_candidates,
    is_prime_slow,
    random_local_sets,
    second_moment_lhs_pairs,
)

X2P1 = IntPolynomial((1, 0, 1))


def sys_from_dict(n, sets):
    return LocalSystem(n, lambda p, v: sets.get(p**v, ()))


def torus(nums, q, n=1):
    pts = tuple((a,) if isinstance(a, int) else tuple(a) for a in nums)
    return TorusPointSet(n, q, pts, Fraction(1, len(pts)))


# ---------------------------------------------------------------------------
# Weyl sums

def test_weyl_sum_trivia():
    s = roots_system(X2P1)
    rs = residue_set(s, 65)
    assert weyl_sum(rs, 65) == pytest.approx(1.0)
    assert weyl_sum(rs, 130) == pytest.approx(1.0)
    full = residue_set(full_system(1), 12)
    assert abs(weyl_sum(full, 1)) < 1e-12
    assert abs(weyl_sum(full, 7)) < 1e-12
    single = torus([3], 7)
    assert abs(weyl_sum(single, 2)) == pytest.approx(1.0)


def test_weyl_sum_vs_direct():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.choice((1, 2))
        q = rng.randrange(2, 200)
        pts = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randrange(1, 12))]
        ps = torus(pts, q, n)
        h = tuple(rng.randrange(-2 * q, 2 * q) for _ in range(n))
        got = weyl_sum(ps, h if n > 1 else h[0])
        assert abs(got - direct_weyl(pts, q, h)) < 1e-10


def test_weyl_twisted_multiplicativity():
    rng = random.Random(37)
    done = 0
    while done < 50:
        q1 = rng.randrange(2, 100)
        q2 = rng.randrange(2, 100)
        if math.gcd(q1, q2) != 1 or q1 * q2 > 10**4:
            continue
        sets = random_local_sets(rng, 1, max(q1, q2))
        s = sys_from_dict(1, sets)
        rs = residue_set(s, q1 * q2)
        if rs.size == 0:
            continue
        h = rng.randrange(1, q1 * q2)
        lhs = weyl_sum(rs, h)
        q1bar = pow(q1, -1, q2)
        q2bar = pow(q2, -1, q1)
        rhs = weyl_sum(residue_set(s, q2), (q1bar * h) % q2) * weyl_sum(
            residue_set(s, q1), (q2bar * h) % q1)
        assert abs(lhs - rhs) < 1e-10
        done += 1


def test_weyl_spectrum_shape_and_symmetry():
    rs = residue_set(roots_system(X2P1), 65)
    ws = weyl_spectrum(rs, 6)
    assert ws.q == 65 and ws.H == 6 and ws.dimension == 1
    assert list(ws.entries) == [(h,) for h in range(-6, 7) if h != 0]
    for h, w in ws.entries.items():
        assert abs(w) <= 1 + 1e-12
        assert abs(ws.entries[tuple(-c for c in h)] - w.conjugate()) <= 1e-12
        assert abs(w - weyl_sum(rs, h)) <= 1e-12
    with pytest.raises(ValueError):
        weyl_spectrum(rs, 0)


def test_weyl_spectrum_symmetry_2d():
    g = graph_system(IntPolynomial((-2, 0, 0, 1)), IntPolynomial((0, 0, 1)))
    ws = weyl_spectrum(residue_set(g, 31), 3)
    assert len(ws.entries) == 7 * 7 - 1
    for h, w in ws.entries.items():
        assert abs(ws.entries[tuple(-c for c in h)] - w.conjugate()) <= 1e-12


def test_weyl_sum_large_h():
    # frequencies are reduced mod q in exact integers before any int64 product
    s = roots_system(X2P1)
    rs = residue_set(s, 5)
    for h in (2**62, 2**63, -(2**64) + 3, 5 * 2**70 + 4):
        assert abs(weyl_sum(rs, h) - direct_weyl(rs.points, 5, (h,))) < 1e-12
    assert weyl_sum(rs, 2**62) == pytest.approx(-0.8090169943749475, abs=1e-12)
    assert second_moment_check(s, 5, 2**63) == second_moment_check(s, 5, 3)


# numerators mod 2^62 near both ends of the range
NEAR_2_62 = [(2**62 - 1, 2**62 - 2), (1, 2**62 // 3), (12345, 2**62 - 7)]


def test_weyl_sum_int64_limit():
    # sum|h_i| * (q - 1) after reduction must stay below 2^63
    pts, q = NEAR_2_62, 2**62
    for h in ((1, -1), (q + 1, 1 - q), (-1, -1)):
        assert abs(weyl_sum(torus(pts, q, 2), h) - direct_weyl(pts, q, h)) < 1e-10
    with pytest.raises(ValueError, match=r"2\^63"):
        weyl_sum(torus(pts, q + 1, 2), (1, 1))


def _et_loop(ws):
    # np.abs, as in erdos_turan_bound: Python's abs(complex) differs from it
    # in the last bit on about a third of the values, and fsum then sums
    # different terms
    s = math.fsum(np.abs(w) / math.prod(max(1, abs(c)) for c in h) for h, w in ws.entries.items())
    return min(1.0, 1.5**ws.dimension * (1.0 / ws.H + s))


@pytest.mark.parametrize("n, q, H", [(1, 101, 9), (2, 23, 5), (3, 7, 4)])
def test_weyl_spectrum_order_oracle_and_et_loop(n, q, H):
    rng = random.Random(40 + n)
    pts = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(40)]
    ws = weyl_spectrum(torus(pts, q, n), H)
    assert ws.dimension == n
    assert list(ws.entries) == [h for h in itertools.product(range(-H, H + 1), repeat=n) if any(h)]
    for h, w in ws.entries.items():
        assert abs(w - direct_weyl(pts, q, h)) < 1e-10
    assert erdos_turan_bound(ws) == _et_loop(ws)
    # the bound clamps at 1; a scaled spectrum checks the weighted sum itself
    small = dataclasses.replace(ws, values=ws.values * 1e-4)
    assert erdos_turan_bound(small) == _et_loop(small) < 1.0


def test_weyl_spectrum_int64_limit():
    # n*H*(q-1) just below 2^63 is exact; at 2^63 it is refused
    pts, q = NEAR_2_62, 2**62
    ws = weyl_spectrum(torus(pts, q, 2), 1)
    assert len(ws.entries) == 8
    for h, w in ws.entries.items():
        assert abs(w - direct_weyl(pts, q, h)) < 1e-10
    with pytest.raises(ValueError, match=r"2\^63"):
        weyl_spectrum(torus(pts, q + 1, 2), 1)


# ---------------------------------------------------------------------------
# the shared frequency box, the phase table and the list fsum against the
# direct formulas they replaced


def _direct_spectrum(pts, q, H):
    """Frequencies in `itertools.product` order and the spectrum as one
    `exp` over all reduced dot products, as before the phase table."""
    freqs = np.array([h for h in itertools.product(range(-H, H + 1), repeat=pts.shape[1]) if any(h)], dtype=np.int64)
    return freqs, np.exp((2j * np.pi / q) * ((pts @ freqs.T) % q)).mean(axis=0)


def _direct_et(freqs, values, H):
    """The Erdos-Turan bound with M(h) computed from `freqs` and `fsum`
    over numpy scalars, as before the cached weights."""
    s = math.fsum(np.abs(values) / np.prod(np.maximum(np.abs(freqs), 1), axis=1))
    return min(1.0, 1.5 ** freqs.shape[1] * (1.0 / H + s))


def _assert_same_bits(ws, pts, q, H):
    """Assert that `ws` and its ET bound equal the direct path bit for bit;
    return the bound of the spectrum scaled by 1e-4."""
    freqs, values = _direct_spectrum(pts, q, H)
    assert np.array_equal(ws.freqs, freqs)
    assert np.array_equal(ws.values.view(np.int64), values.view(np.int64))
    assert erdos_turan_bound(ws) == _direct_et(freqs, values, H)
    # scaled sums check the weighted sum where the bound does not clamp at 1
    small = dataclasses.replace(ws, values=ws.values * 1e-4)
    assert erdos_turan_bound(small) == _direct_et(freqs, values * 1e-4, H)
    return erdos_turan_bound(small)


# (n, q, N, H, table): the phase table serves q <= N*F, with F = (2H+1)^n - 1;
# H > 1.5^n keeps the scaled bound below 1
FAST_PATH_CASES = [
    (1, 101, 40, 9, True),
    (1, 20, 5, 2, True),
    (1, 21, 5, 2, False),
    (1, 100003, 40, 9, False),
    (2, 23, 40, 5, True),
    (2, 102947, 30, 3, False),
    (3, 7, 40, 4, True),
    (3, 65537, 10, 4, False),
    (2, 2**20 + 7, 700, 20, True),
    (1, 10**6 + 3, 20000, 30, True),
]


@pytest.mark.parametrize("n, q, N, H, table", FAST_PATH_CASES)
def test_weyl_spectrum_and_et_bits_equal_the_direct_path(n, q, N, H, table):
    rng = random.Random(q * 10 + n)
    pts = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(N)]
    assert (q <= N * ((2 * H + 1) ** n - 1)) == table
    ws = weyl_spectrum(torus(pts, q, n), H)
    assert _assert_same_bits(ws, np.array(pts, dtype=np.int64), q, H) < 1.0


def test_weyl_spectrum_bits_over_many_moduli_and_near_2_62():
    rng = random.Random(97)
    for q in range(1, 600, 7):
        pts = [(rng.randrange(q),) for _ in range(rng.randrange(1, 30))]
        _assert_same_bits(weyl_spectrum(torus(pts, q), 6), np.array(pts, dtype=np.int64), q, 6)
    # q = 2^62 is far past N*F, so this is the direct branch
    ws = weyl_spectrum(torus(NEAR_2_62, 2**62, 2), 1)
    _assert_same_bits(ws, np.array(NEAR_2_62, dtype=np.int64), 2**62, 1)


def test_aggregate_et_rows_equal_the_direct_loop():
    g = build_system("graph:1,0,1:0,0,1")
    st = aggregate_stats(g, 400, include_per_q=True)
    H = analysis._auto_H(g, 400)
    want = []
    for q, _, rho in iter_supported(g, 400):
        freqs, values = _direct_spectrum(residue_set(g, q).array, q, H)
        want.append((q, rho, _direct_et(freqs, values, H)))
    assert st.method == "erdos_turan" and H == 61 and len(want) == 82
    assert st.per_q == tuple(want)


def test_freq_box_is_shared_and_read_only():
    box, weights = analysis._freq_box(2, 3)
    assert analysis._freq_box(2, 3)[0] is box
    assert weyl_spectrum(torus([(1, 2), (3, 4), (0, 6)], 7, 2), 3).freqs is box
    assert weights.tolist() == [math.prod(max(1, abs(c)) for c in h) for h in box.tolist()]
    for arr in (box, weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def _indices_freq_box(n, H):
    """The frequency box and weights as the full-grid construction gave them."""
    box = np.indices((2 * H + 1,) * n, dtype=np.int64).reshape(n, -1).T - H
    box = box[box.any(axis=1)]
    return box, np.prod(np.maximum(np.abs(box), 1), axis=1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_freq_box_matches_the_full_grid(n):
    for H in range(1, 7):
        got, want = analysis._freq_box.__wrapped__(n, H), _indices_freq_box(n, H)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64 and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert a.flags.c_contiguous and a.flags.owndata and not a.flags.writeable
        assert [tuple(h) for h in got[0].tolist()] == [h for h in itertools.product(range(-H, H + 1), repeat=n) if any(h)]


def test_freq_box_holds_no_full_temporaries():
    # besides the (F, 2) box and the F weights, one grid-sized column or
    # weight array at a time; the full-grid construction peaked near 12 F
    F = 601**2 - 1
    tracemalloc.start()
    try:
        analysis._freq_box.__wrapped__(2, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * (F + 1) + 2**16


def test_et_bound_takes_weights_from_its_own_freqs():
    rng = random.Random(71)
    pts = [(rng.randrange(29), rng.randrange(29)) for _ in range(30)]
    ws = weyl_spectrum(torus(pts, 29, 2), 4)
    small = dataclasses.replace(ws, values=ws.values * 1e-4)
    order = list(range(len(ws.freqs)))
    rng.shuffle(order)
    moved = dataclasses.replace(small, freqs=ws.freqs[order])
    assert erdos_turan_bound(moved) == _et_loop(moved) != erdos_turan_bound(small)
    copied = dataclasses.replace(small, freqs=ws.freqs.copy())
    assert erdos_turan_bound(copied) == _et_loop(copied) == erdos_turan_bound(small)
    # a cutoff that does not fit `freqs` builds no box of its own size
    wide = dataclasses.replace(small, H=10**6)
    assert erdos_turan_bound(wide) == _direct_et(wide.freqs, wide.values, wide.H)


# ---------------------------------------------------------------------------
# the per-axis fold in column blocks, and the exact Erdos-Turan sum


@pytest.mark.parametrize("g", ["0,0,1", "0,0,0,1", "1,1"])
def test_unclamped_et_bits_on_every_2d_sweep_modulus(g):
    # the 2-D sweep clamps every bound to 1; scaled by 1e-4, the bound of
    # each of its moduli checks the weighted sum bit for bit
    system = build_system(f"graph:1,0,1:{g}")
    H = analysis._auto_H(system, 400)
    moduli = [q for q, _, _ in iter_supported(system, 400)]
    assert H == 61 and len(moduli) == 82
    for q in moduli:
        rs = residue_set(system, q)
        assert _assert_same_bits(weyl_spectrum(fractional_points(rs), H), rs.array, q, H) < 1.0


def test_weyl_spectrum_bits_in_three_dimensions_near_the_int64_limit():
    # 3 * (q - 1) is the largest value below 2^63 of the form n*H*(q-1)
    q = (2**63 - 1) // 3 + 1
    rng = random.Random(3)
    pts = [(q - 1, q - 1, q - 1), (0, q - 1, 1)] + [tuple(rng.randrange(q) for _ in range(3)) for _ in range(4)]
    _assert_same_bits(weyl_spectrum(torus(pts, q, 3), 1), np.array(pts, dtype=np.int64), q, 1)
    with pytest.raises(ValueError, match=r"2\^63"):
        weyl_spectrum(torus(pts, q + 1, 3), 1)


# (n, q, N, H, block): blocks of two or more values of h_1, the last taking
# the remainder, in the phase-table branch (q <= N*F) and the `exp` branch
SMALL_BLOCK_CASES = [
    (1, 101, 12, 9, 1),
    (1, 50, 3, 10, 9),
    (1, 100003, 9, 6, 1),
    (2, 23, 5, 4, 60),
    (2, 100003, 4, 3, 100),
    (3, 7, 6, 2, 200),
    (3, 65537, 3, 2, 1),
]


@pytest.mark.parametrize("n, q, N, H, block", SMALL_BLOCK_CASES)
def test_weyl_spectrum_bits_over_several_column_blocks(monkeypatch, n, q, N, H, block):
    step = max(2, block // (N * (2 * H + 1) ** (n - 1)))
    assert (2 * H + 1) // step >= 2
    monkeypatch.setattr(analysis, "_WEYL_BLOCK", block)
    rng = random.Random(q + n)
    pts = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(N)]
    _assert_same_bits(weyl_spectrum(torus(pts, q, n), H), np.array(pts, dtype=np.int64), q, H)


def _spread_floats(low, high):
    """Nonnegative float64 values m * 2^e with e in [low, high], and zeros."""
    mantissas = st.floats(min_value=0.5, max_value=1.0, exclude_max=True)
    return st.one_of(st.just(0.0), st.builds(math.ldexp, mantissas, st.integers(low, high)))


# every subnormal is k * 2^-1074 for some 0 < k < 2^52
_SUBNORMALS = st.builds(lambda k: k * 5e-324, st.integers(1, 2**52 - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_spread_floats(-1000, 10), max_size=300))
def test_exact_sum_equals_fsum(terms):
    t = np.array(terms, dtype=np.float64)
    assert analysis._exact_sum(t) == math.fsum(terms)
    # repeated terms carry through every bit of the per-exponent partials
    assert analysis._exact_sum(np.tile(t, 50)) == math.fsum(terms * 50)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(_SUBNORMALS, _spread_floats(-1074, -1000), _spread_floats(-1000, 10)), max_size=60))
def test_exact_sum_equals_fsum_down_to_subnormals(terms):
    t = np.array(terms, dtype=np.float64)
    assert analysis._exact_sum(t) == math.fsum(terms)
    assert analysis._exact_sum(np.tile(t, 20)) == math.fsum(terms * 20)


def _fsum_inputs(monkeypatch):
    """The lists that `math.fsum` is given from now on."""
    fsum, seen = math.fsum, []

    def spy(values):
        seen.append(list(values))
        return fsum(seen[-1])

    monkeypatch.setattr(math, "fsum", spy)
    return seen


@pytest.mark.parametrize("terms", [[], [1.0, math.inf, 0.5], [0.25, math.nan], [2.0**960, 1.0]])
def test_exact_sum_falls_back_to_the_list(monkeypatch, terms):
    want = math.fsum(terms)
    seen = _fsum_inputs(monkeypatch)
    got = analysis._exact_sum(np.array(terms, dtype=np.float64))
    assert len(seen) == 1 and np.array_equal(seen[0], terms, equal_nan=True)
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_exact_sum_overflows_as_fsum_does():
    terms = [1.7e308, 1.7e308, 1.0]
    with pytest.raises(OverflowError):
        math.fsum(terms)
    with pytest.raises(OverflowError):
        analysis._exact_sum(np.array(terms))


def test_exact_sum_paths_at_their_limits(monkeypatch):
    # frexp exponents -1073 (the smallest subnormal) and 960 (2^959) are
    # the extremes of the exact path, which sums two partials per exponent
    edges = [5e-324, 0.1, 2.0**959]
    monkeypatch.setattr(analysis, "_EXACT_SUM_TERMS", 3)
    over = edges + [0.0]
    want = math.fsum(edges), math.fsum(over)
    seen = _fsum_inputs(monkeypatch)
    assert analysis._exact_sum(np.array(edges)) == want[0]
    assert len(seen) == 1 and len(seen[0]) == 2 * (1073 + 960 + 1)
    assert analysis._exact_sum(np.array(over)) == want[1]
    assert len(seen) == 2 and seen[1] == over


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(_SUBNORMALS, _spread_floats(-1074, 10)), max_size=80), st.integers(1, 9))
def test_exact_sum_in_small_blocks_equals_fsum(terms, block):
    # per-exponent sums carried across many blocks, each with its own
    # exponent range, and a non-finite term in a late block
    t = np.array(terms * 7, dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_EXACT_SUM_BLOCK", block)
        assert analysis._exact_sum(t) == math.fsum(terms * 7)
        assert analysis._exact_sum(np.append(t, [1.0] * block + [math.inf])) == math.inf


def test_frequency_modulus():
    assert frequency_modulus(3, 12) == 4
    assert frequency_modulus(24, 12) == 1
    assert frequency_modulus(5, 12) == 12
    assert frequency_modulus((3, 4), 12) == 12  # (3,4) nonzero mod 4 and mod 3
    assert frequency_modulus((4, 8), 12) == 3
    with pytest.raises(ValueError):
        frequency_modulus(0, 12)
    with pytest.raises(ValueError):
        frequency_modulus((0, 0), 12)
    rng = random.Random(41)
    for _ in range(200):
        q = rng.randrange(2, 3000)
        n = rng.choice((1, 2))
        h = tuple(rng.randrange(-q, q + 1) for _ in range(n))
        if all(c == 0 for c in h):
            continue
        got = frequency_modulus(h if n > 1 else h[0], q)
        assert got == bracket_by_definition(h, q)
        assert q % got == 0


def test_second_moment_worked_example():
    s = roots_system(X2P1)
    lhs, rhs, ok = second_moment_check(s, 65, 5)
    assert ok
    assert lhs == pytest.approx(0.5, abs=1e-12)
    assert rhs == pytest.approx(0.5, abs=1e-12)


def test_second_moment_trivia():
    single = sys_from_dict(1, {7: {(3,)}})
    lhs, rhs, ok = second_moment_check(single, 7, 2)
    assert ok and lhs == pytest.approx(1.0) and rhs == 1.0
    full = full_system(1)
    lhs, rhs, ok = second_moment_check(full, 11, 3)
    assert ok and lhs == pytest.approx(1 / 11) and rhs == pytest.approx(1 / 11)


def test_second_moment_randomized_vs_pair_count():
    rng = random.Random(43)
    done = 0
    while done < 60:
        n = rng.choice((1, 2))
        q = rng.randrange(2, 200)
        sets = random_local_sets(rng, n, q)
        s = sys_from_dict(n, sets)
        rs = residue_set(s, q)
        if rs.size == 0:
            continue
        h = tuple(rng.randrange(1, q + 1) for _ in range(n))
        lhs, rhs, ok = second_moment_check(s, q, h if n > 1 else h[0])
        assert ok, (q, h, lhs, rhs)
        assert lhs == pytest.approx(second_moment_lhs_pairs(rs.points, q, h), abs=1e-9)
        done += 1


def test_second_moment_exact_pair_count():
    rng = random.Random(47)
    done = 0
    while done < 40:
        n = rng.choice((1, 2))
        q = rng.randrange(2, 120)
        s = sys_from_dict(n, random_local_sets(rng, n, q))
        rs = residue_set(s, q)
        if rs.size == 0:
            continue
        h = tuple(rng.randrange(1, q + 1) for _ in range(n))
        lhs, _, _ = second_moment_check(s, q, h if n > 1 else h[0])
        assert lhs == second_moment_lhs_pairs(rs.points, q, h), (q, h)
        done += 1
    # 64 distinct points mod q = 48612265: an average over all a mod q
    # would need a q x 64 table
    q = 5 * 13 * 17 * 29 * 37 * 41
    lhs, rhs, ok = second_moment_check(roots_system(X2P1), q, 1)
    assert lhs == 1 / 64 and rhs == 1 / 64 and ok


# ---------------------------------------------------------------------------
# discrepancy

def test_interval_disc_trivia():
    one = interval_discrepancy(torus([3], 7))
    assert one.value == 1.0 and one.fraction == 1
    assert interval_discrepancy(torus([0, 4], 8)).fraction == Fraction(1, 2)
    for N in (2, 3, 8, 64):
        ps = torus(list(range(N)), N)
        assert interval_discrepancy(ps).fraction == Fraction(1, N)
    # contiguous run of N points out of q slots
    for N, q in ((3, 10), (5, 8), (7, 30)):
        ps = torus(list(range(N)), q)
        assert interval_discrepancy(ps).fraction == Fraction(q - N + 1, q)


def test_interval_disc_worked_example():
    rs = residue_set(roots_system(X2P1), 65)
    res = interval_discrepancy(fractional_points(rs))
    assert res.fraction == Fraction(29, 65)
    assert res.witness["deviation"] == "116/260"
    assert res.witness["closed_arc"] == ["47/65", "18/65"]
    assert res.method == "exact" and res.q == 65
    j = res.to_json()
    assert j["method"] == "exact" and j["value"] == pytest.approx(29 / 65)


def test_interval_disc_atom_capture():
    # rho = 1 forces disc = 1 exactly
    for q in (2, 17, 1000):
        assert interval_discrepancy(torus([q // 2], q)).value == 1.0


def test_interval_disc_vs_candidate_oracle():
    rng = random.Random(47)
    for trial in range(25):
        q = rng.randrange(3, 997)
        N = rng.randrange(1, 17 if trial % 2 else 65)
        nums = [rng.randrange(q) for _ in range(N)]
        got = interval_discrepancy(torus(nums, q)).fraction
        want = interval_disc_candidates(nums, q)
        assert got == want, (q, nums)


def test_interval_disc_multiset():
    ps = torus([0, 0, 4], 8)
    got = interval_discrepancy(ps).fraction
    assert got == interval_disc_candidates([0, 0, 4], 8) == Fraction(2, 3)


def test_box_disc_delegates_for_n1():
    ps = torus([1, 5], 6)
    assert box_discrepancy(ps).fraction == interval_discrepancy(ps).fraction


@pytest.mark.parametrize("ps", [torus([1, 5], 6), torus([(1, 2), (2, 4)], 5, n=2)], ids=["n1", "n2"])
def test_box_disc_refuses_an_unknown_mode(ps):
    # a 1-D set takes the interval scan in either mode, but only after the check
    with pytest.raises(ValueError, match="unknown mode 'fancy'"):
        box_discrepancy(ps, mode="fancy")


def test_box_disc_singleton():
    ps = torus([(2, 3)], 5, n=2)
    assert box_discrepancy(ps).value == 1.0


def test_box_disc_worked_example():
    ps = torus([(1, 2), (2, 4), (3, 1), (4, 3)], 5, n=2)
    res = box_discrepancy(ps)
    assert res.fraction == Fraction(16, 25)
    grid = grid_box_disc([(1, 2), (2, 4), (3, 1), (4, 3)], 5)
    assert grid <= res.fraction
    assert float(res.fraction) - float(grid) <= 4 / 100 + 1e-12


def test_box_disc_vs_grid_oracle_random():
    rng = random.Random(53)
    for _ in range(10):
        q = rng.randrange(3, 30)
        N = rng.randrange(1, 7)
        pts = [(rng.randrange(q), rng.randrange(q)) for _ in range(N)]
        res = box_discrepancy(torus(pts, q, n=2))
        grid = grid_box_disc(pts, q)
        assert grid <= res.fraction + Fraction(1, 10**12)
        assert float(res.fraction) - float(grid) <= 4 / 100 + 1e-12


# int64 headroom: the exact scans score in integers scaled by N*q (1-D) and
# N*q^2 (2-D); up to 2^63 they stay exact, from there on they must refuse.

INT64_LIMIT = 2**63
_BOUNDARY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def near_int64_limit(draw, dimension, max_points, below):
    """(q, points) with N*q^dimension just below 2^63, or at or above it."""
    N = draw(st.integers(1, max_points))
    edge = (INT64_LIMIT - 1) // N if dimension == 1 else math.isqrt((INT64_LIMIT - 1) // N)
    step = draw(st.integers(0, 2**16))
    q = edge - step if below else edge + 1 + step
    coord = st.integers(0, q - 1)
    point = coord if dimension == 1 else st.tuples(coord, coord)
    return q, draw(st.lists(point, min_size=N, max_size=N))


def box_candidates_exact(pts, q):
    """Exact sup of the 2-D scan's deviation in Python integers: closed
    boxes with sides between point coordinates (wrapping allowed) for the
    mass-excess side, open ones for the mass-deficit side, each axis also
    taking the full circle."""
    N = len(pts)

    def arcs(axis, closed):
        out = [(lambda c: True, q)]
        cs = sorted({pt[axis] for pt in pts})
        for a in cs:
            for b in cs:
                length = (b - a) % q
                if closed:
                    out.append((lambda c, a=a, length=length: (c - a) % q <= length, length))
                elif a == b:
                    out.append((lambda c, a=a: c != a, q))
                else:
                    out.append((lambda c, a=a, length=length: 0 < (c - a) % q < length, length))
        return out

    best = Fraction(0)
    for closed in (True, False):
        for in_x, lx in arcs(0, closed):
            for in_y, ly in arcs(1, closed):
                count = sum(1 for x, y in pts if in_x(x) and in_y(y))
                dev = Fraction(count, N) - Fraction(lx * ly, q * q)
                best = max(best, dev if closed else -dev)
    return best


@_BOUNDARY
@given(near_int64_limit(1, 11, below=True))
def test_interval_disc_exact_below_int64_limit(case):
    q, nums = case
    assert interval_discrepancy(torus(nums, q)).fraction == interval_disc_candidates(nums, q)


@_BOUNDARY
@given(near_int64_limit(1, 11, below=False))
def test_interval_disc_refuses_at_int64_limit(case):
    q, nums = case
    with pytest.raises(ValueError, match=r"2\^63"):
        interval_discrepancy(torus(nums, q))
    with pytest.raises(ValueError, match=r"2\^63"):
        _closed_arc_scan(np.zeros(1, dtype=np.int64), np.array([len(nums)]), np.array([q]), np.array([1]))


@_BOUNDARY
@given(near_int64_limit(2, 4, below=True))
def test_box_disc_exact_below_int64_limit(case):
    q, pts = case
    assert box_discrepancy(torus(pts, q, n=2)).fraction == box_candidates_exact(pts, q)


@_BOUNDARY
@given(near_int64_limit(2, 4, below=False))
def test_box_disc_refuses_at_int64_limit(case):
    q, pts = case
    with pytest.raises(ValueError, match=r"2\^63"):
        box_discrepancy(torus(pts, q, n=2))


def test_box_disc_budget_and_modes():
    ps = torus([(1, 2), (2, 4), (3, 1), (4, 3)], 5, n=2)
    with pytest.raises(ValueError, match="bounds"):
        box_discrepancy(ps, budget=10)
    with pytest.raises(ValueError):
        box_discrepancy(ps, mode="fancy")
    res = box_discrepancy(ps, mode="bounds", seed=5)
    lo, hi = res.bounds
    assert lo <= 16 / 25 <= hi
    assert res.method == "sampled" and res.seed == 5
    assert lo == pytest.approx(16 / 25)  # the 4x4 corner grid is tiny
    three = TorusPointSet(3, 4, ((0, 1, 2), (1, 2, 3)), Fraction(1, 2))
    with pytest.raises(ValueError, match="bounds"):
        box_discrepancy(three, mode="exact")
    b3 = box_discrepancy(three, mode="bounds")
    assert b3.bounds[0] <= b3.bounds[1]


def test_box_disc_refuses_explicit_H_over_budget():
    # an explicit H obeys the automatic rule N*(2H+1)^n <= budget
    ps = torus([(1, 2), (2, 4), (3, 1), (4, 3)], 5, n=2)
    assert box_discrepancy(ps, mode="bounds", H=2, budget=100).H == 2
    with pytest.raises(ValueError, match="over budget 99"):
        box_discrepancy(ps, mode="bounds", H=2, budget=99)
    # refused before anything is allocated: 4 * (2*10^6 + 1)^2 terms
    with pytest.raises(ValueError, match="over budget"):
        box_discrepancy(ps, mode="bounds", H=10**6)


def test_box_disc_budget_advice_follows_the_choice_of_H():
    ps = torus([(1, 2), (2, 4), (3, 1), (4, 3)], 5, n=2)
    # 4 points need 36 terms even at the automatic floor H = 1
    with pytest.raises(ValueError, match="needs 36 terms, over budget 35; H was chosen automatically; raise --budget"):
        box_discrepancy(ps, mode="bounds", budget=35)
    with pytest.raises(ValueError, match="over budget 99; lower H"):
        box_discrepancy(ps, mode="bounds", H=2, budget=99)


def test_box_disc_bounds_never_exceed_exact():
    rng = random.Random(59)
    for _ in range(10):
        q = rng.randrange(3, 25)
        pts = [(rng.randrange(q), rng.randrange(q)) for _ in range(rng.randrange(1, 6))]
        ps = torus(pts, q, n=2)
        exact = box_discrepancy(ps).fraction
        lo, hi = box_discrepancy(ps, mode="bounds", seed=rng.randrange(100)).bounds
        assert lo <= float(exact) + 1e-12 <= hi + 1e-12


def _axis_candidates_loop(coord, q):
    """The pairwise loop that the vectorized `_axis_candidates` replaced,
    without its unused `u` return."""
    u = np.unique(coord)
    K = len(u)
    N = len(coord)
    mc = np.empty((K * K + 1, N), dtype=bool)
    lc = np.empty(K * K + 1, dtype=np.int64)
    mo = np.empty((K * K + 1, N), dtype=bool)
    lo = np.empty(K * K + 1, dtype=np.int64)
    idx = 0
    for a in range(K):
        ge = coord >= u[a]
        gt = coord > u[a]
        for b in range(K):
            if b >= a:
                mc[idx] = ge & (coord <= u[b])
                lc[idx] = u[b] - u[a]
            else:
                mc[idx] = ge | (coord <= u[b])
                lc[idx] = u[b] - u[a] + q
            if b > a:
                mo[idx] = gt & (coord < u[b])
                lo[idx] = u[b] - u[a]
            elif b < a:
                mo[idx] = gt | (coord < u[b])
                lo[idx] = u[b] - u[a] + q
            else:
                mo[idx] = coord != u[a]
                lo[idx] = q
            idx += 1
    mc[idx] = True
    lc[idx] = q
    mo[idx] = True
    lo[idx] = q
    return mc, lc, mo, lo


def test_axis_candidates_equal_the_pairwise_loop():
    rng = random.Random(238)
    cases = []
    for _ in range(400):
        q = rng.randrange(1, 300)
        N = rng.randrange(1, 40)
        # few distinct values force repeated coordinates, one value gives K = 1
        pool = rng.sample(range(q), rng.randrange(1, min(q, 12) + 1))
        cases.append(([rng.choice(pool) for _ in range(N)], q))
    big = 2**62 + 135
    cases += [([0], big), ([big - 1] * 3, big), ([0, big - 1, 2**61, big - 1], big), ([5] * 7, 11)]
    for coord, q in cases:
        coord = np.array(coord, dtype=np.int64)
        got, want = analysis._axis_candidates(coord, q), _axis_candidates_loop(coord, q)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w), (coord, q)


def _box_membership(pts, q, corner_lo, corner_hi, strict):
    """Count points inside the product of per-axis arcs [lo, hi] (or open)."""
    inside = np.ones(len(pts), dtype=bool)
    for axis, (a, b) in enumerate(zip(corner_lo, corner_hi)):
        c = pts[:, axis]
        if strict:
            part = (c > a) & (c < b) if a <= b else (c > a) | (c < b)
        else:
            part = (c >= a) & (c <= b) if a <= b else (c >= a) | (c <= b)
        inside &= part
    return int(inside.sum())


def _sampled_search_loop(ps, budget, seed):
    """The per-trial loop that the blocked sampled search of bounds-mode
    `box_discrepancy` replaced: its lower bound and witness box."""
    q, pts = ps.denominator, ps.array
    N, n = pts.shape
    rng = random.Random(seed)
    axes = [np.unique(pts[:, a]) for a in range(n)]
    qn = q**n
    best_num, best_box = 0, None
    for _ in range(max(64, min(4096, budget // max(1, 4 * N)))):
        corner_lo = [int(rng.choice(ax)) for ax in axes]
        corner_hi = [int(rng.choice(ax)) for ax in axes]
        vol_num = N * math.prod((b - a) % q for a, b in zip(corner_lo, corner_hi))
        closed = _box_membership(pts, q, corner_lo, corner_hi, strict=False)
        opened = _box_membership(pts, q, corner_lo, corner_hi, strict=True)
        cand = max(closed * qn - vol_num, vol_num - opened * qn)
        if cand > best_num:
            best_num, best_box = cand, [corner_lo, corner_hi]
    return best_num / (N * qn), best_box


def test_sampled_box_search_equals_the_per_trial_loop(monkeypatch):
    rng = random.Random(1717)
    cases = []
    for i in range(40):
        n = rng.choice((2, 3))
        q = rng.choice((rng.randrange(1, 40), rng.randrange(2, 10**6), 2**40))
        # a small pool repeats coordinates; a pool of one gives lo = hi
        pool = [rng.randrange(q) for _ in range(rng.randrange(1, 6))]
        N = rng.randrange(1, 25)
        pts = [tuple(rng.choice(pool) for _ in range(n)) for _ in range(N)]
        # a budget of 4*N*T gives T trials
        cases.append((torus(pts, q, n), 4 * N * (4096 if i % 4 == 0 else 64), rng.choice((None, 1, 2)), i))
    cases.append((torus([(3, 3)] * 5, 7, 2), 10**6, None, 0))
    # the largest q whose spectrum fits int64 at H = 1; corners wrap on
    # either axis
    cases.append((torus([(0, 2**62 - 1), (2**62 - 1, 0), (2**61, 2**62 - 1)], 2**62, 2), 10**6, 1, 3))
    want = [(*_sampled_search_loop(ps, budget, seed), weyl_spectrum(ps, H or 1)) for ps, budget, H, seed in cases]
    # the default block, and blocks of 2 to 50 trials
    for block in (analysis._BOX_BLOCK, 50):
        monkeypatch.setattr(analysis, "_BOX_BLOCK", block)
        for (ps, budget, H, seed), (lower, box, spectrum) in zip(cases, want):
            got = box_discrepancy(ps, mode="bounds", budget=budget, seed=seed, H=H)
            if H is None:
                spectrum = weyl_spectrum(ps, got.H)
            assert got.to_json() == {
                "q": ps.denominator,
                "H": spectrum.H,
                "method": "sampled",
                "bounds": [lower, erdos_turan_bound(spectrum)],
                "witness": {"best_box": box},
                "seed": seed,
            }
            assert got.spectrum.values.tobytes() == spectrum.values.tobytes()


def test_sampled_box_search_at_the_int64_edge(monkeypatch):
    # at q = 2^62 + 135 the Weyl spectrum refuses n*H*(q-1) >= 2^63, so the
    # search is checked on its own, with the upper bound stubbed out
    monkeypatch.setattr(analysis, "weyl_spectrum", lambda ps, H: None)
    monkeypatch.setattr(analysis, "erdos_turan_bound", lambda spectrum: 1.0)
    q = 2**62 + 135
    for pts in ([(0, q - 1), (q - 1, 0), (2**61, q - 1)], [(q - 1, q - 1)] * 3, [(5, q - 2), (q - 3, 7)]):
        ps = torus(pts, q, 2)
        for trials in (64, 4096):
            got = box_discrepancy(ps, mode="bounds", budget=4 * len(pts) * trials, seed=trials)
            lower, box = _sampled_search_loop(ps, 4 * len(pts) * trials, trials)
            assert got.bounds == (lower, 1.0) and got.witness == {"best_box": box}


def test_box_disc_bounds_refuses_past_int64_before_the_search(monkeypatch):
    # at q = 2^62 + 135, n*H*(q-1) >= 2^63 for every H >= 1, so the
    # spectrum is refused before any trial of the sampled search
    def no_search(*args):
        raise AssertionError("the sampled search ran")

    monkeypatch.setattr(analysis, "_arcs", no_search)
    q = 2**62 + 135
    ps = torus([(0, q - 1), (q - 1, 0), (2**61, q - 1)], q, 2)
    for H in (None, 1, 3):
        with pytest.raises(ValueError, match=r"^n\*H\*\(q-1\) = \d+ is at least 2\^63"):
            box_discrepancy(ps, mode="bounds", H=H)


def test_box_disc_carries_the_spectrum_at_a_given_H():
    two = torus([(1, 2), (2, 4), (3, 1), (4, 3)], 5, n=2)
    one = torus([0, 1, 3, 3], 7)
    for ps, mode in ((two, "exact"), (one, "exact"), (one, "bounds")):
        res = box_discrepancy(ps, mode=mode, H=2)
        want = weyl_spectrum(ps, 2)
        assert res.H is None and res.spectrum.freqs is want.freqs
        assert res.spectrum.values.tobytes() == want.values.tobytes()
        assert box_discrepancy(ps, mode=mode).spectrum is None


# ---------------------------------------------------------------------------
# Erdos-Turan

def test_et_flat_and_clamped():
    # equally spaced points: every W(h) vanishes for 0 < |h| < N
    for N, H in ((8, 5), (16, 15), (50, 7)):
        ps = torus(list(range(N)), N)
        ws = weyl_spectrum(ps, H)
        assert all(abs(w) < 1e-12 for w in ws.entries.values())
        assert erdos_turan_bound(ws) == pytest.approx(1.5 / H)
        assert erdos_turan_bound(ws) >= float(interval_discrepancy(ps).fraction)
    # single point: all W = 1, bound clamps to 1 = exact disc
    ws1 = weyl_spectrum(torus([0], 3), 4)
    assert erdos_turan_bound(ws1) == 1.0


def test_et_dominance_1d():
    rng = random.Random(61)
    for _ in range(12):
        q = rng.randrange(5, 400)
        N = rng.randrange(1, 201)
        nums = [rng.randrange(q) for _ in range(N)]
        ps = torus(nums, q)
        exact = float(interval_discrepancy(ps).fraction)
        for H in (1, 2, 5, 13, 50):
            assert erdos_turan_bound(weyl_spectrum(ps, H)) >= exact - 1e-12


def test_et_dominance_2d():
    rng = random.Random(67)
    for _ in range(6):
        q = rng.randrange(4, 30)
        pts = [(rng.randrange(q), rng.randrange(q)) for _ in range(rng.randrange(1, 8))]
        ps = torus(pts, q, n=2)
        exact = float(box_discrepancy(ps).fraction)
        for H in (1, 2, 4, 8):
            assert erdos_turan_bound(weyl_spectrum(ps, H)) >= exact - 1e-12


# ---------------------------------------------------------------------------
# prime sums and theorem bounds

def test_reciprocal_sums_trivia():
    empty = sys_from_dict(1, {})
    assert reciprocal_prime_sum(empty, 1000) == 3.0
    assert damped_reciprocal_prime_sum(empty, 1000) == 3.0


def test_reciprocal_sums_x2p1():
    s = roots_system(X2P1)
    supported = [p for p in range(2, 101) if is_prime_slow(p) and (p == 2 or p % 4 == 1)]
    want = math.fsum(1 / p for p in supported) + 3
    assert reciprocal_prime_sum(s, 100) == pytest.approx(want, abs=1e-14)
    rho = {p: (1 if p == 2 else 2) for p in supported}
    want_damped = math.fsum(math.sqrt(1 / rho[p]) / p for p in supported) + 3
    assert damped_reciprocal_prime_sum(s, 100) == pytest.approx(want_damped, abs=1e-14)


def test_damped_below_plain():
    full = full_system(1)
    p_full = reciprocal_prime_sum(full, 10**4)
    pt_full = damped_reciprocal_prime_sum(full, 10**4)
    # full system damps by sqrt(1/p), so terms are p^(-3/2)
    want = math.fsum(p ** (-1.5) for p in range(2, 10**4 + 1) if is_prime_slow(p)) + 3
    assert pt_full == pytest.approx(want, abs=1e-12)
    assert pt_full < p_full
    rng = random.Random(71)
    sets = random_local_sets(rng, 1, 500)
    s = sys_from_dict(1, sets)
    assert damped_reciprocal_prime_sum(s, 500) <= reciprocal_prime_sum(s, 500) + 1e-15


# The definitions the array sums replaced, as plain loops over the primes.

def _old_ratio(system, p):
    rho = system.local_size(p, 1)
    if rho < 1:
        return None
    if system.dimension == 1:
        return 1.0 / rho
    return hyperplane_max_local(system, p, 1) / rho


def _old_sums(system, x):
    primes = sieve_primes(x)
    supported = [p for p in primes if _old_ratio(system, p) is not None]
    log_total = math.fsum(math.log(p) for p in supported)
    den = math.fsum(1.0 / p for p in supported)
    return {
        "support_stat": (log_total, log_total / x) if x >= 2 else (0.0, 0.0),
        "recip": den + 3.0,
        "damped": math.fsum(math.sqrt(_old_ratio(system, p)) / p for p in supported) + 3.0,
        "large_fiber_sum": math.fsum(1.0 / p for p in primes if system.local_size(p, 1) >= 2),
        "defect_sum": math.fsum((1.0 - _old_ratio(system, p)) / p for p in supported),
        "weighted_ratio": math.fsum(_old_ratio(system, p) / p for p in supported) / den if den > 0 else 1.0,
    }


@pytest.mark.parametrize(
    "system",
    [
        roots_system(X2P1),
        full_system(1),
        initial_segment_system(),
        LocalSystem(1, lambda p, v: ()),
        graph_system(IntPolynomial((-2, 0, 0, 1)), IntPolynomial((0, 0, 1))),
    ],
    ids=["x2p1", "full", "initial-segment", "empty", "graph-2d"],
)
def test_prime_sums_equal_the_loop_definitions(system):
    for x in (0, 1, 2, 3, 100, 2000):
        old = _old_sums(system, x)
        assert prime_support_stat(system, x) == old["support_stat"]
        assert reciprocal_prime_sum(system, x) == old["recip"]
        assert damped_reciprocal_prime_sum(system, x) == old["damped"]
        if x < 3:
            continue
        assert theorem_bound(1, system, x)["sums"]["large_fiber_sum"] == old["large_fiber_sum"]
        for theorem in (2, 3):
            got = theorem_bound(theorem, system, x, k=2, strict=False)
            assert got["sums"]["defect_sum"] == old["defect_sum"]
        got = theorem_bound(4, system, x, k=2, strict=False)
        assert got["sums"]["weighted_ratio"] == old["weighted_ratio"]


def test_theorem_bound_validation():
    s = roots_system(X2P1)
    with pytest.raises(ValueError):
        theorem_bound(5, s, 100)
    with pytest.raises(ValueError):
        theorem_bound(1, s, 2)
    with pytest.raises(ValueError):
        theorem_bound(1, s, 100, alpha=0)
    with pytest.raises(ValueError, match="needs k"):
        theorem_bound(3, s, 1000)
    with pytest.raises(ValueError, match="needs k"):
        theorem_bound(4, s, 1000)


def test_theorem1_trivial_when_no_large_fibers():
    s = roots_system(IntPolynomial((0, 1)))  # every rho(p) = 1
    out = theorem_bound(1, s, 10**4)
    assert out["factor"] == 1.0 and out["sums"]["large_fiber_sum"] == 0.0


def test_theorem1_equals_theorem2_for_quadratic():
    # rho takes values in {0, 1, 2}, so the defect sum is half the
    # large-fiber sum and the two exponential factors coincide
    s = roots_system(X2P1)
    for x in (100, 1000):
        t1 = theorem_bound(1, s, x)
        t2 = theorem_bound(2, s, x)
        assert t1["factor"] == pytest.approx(t2["factor"], abs=1e-15)
        assert t2["sums"]["defect_sum"] == pytest.approx(t1["sums"]["large_fiber_sum"] / 2, abs=1e-15)
    t1k = theorem_bound(1, s, 1000)
    supported2 = [p for p in range(2, 1001) if is_prime_slow(p) and p % 4 == 1]
    want = math.exp(-math.fsum(1 / p for p in supported2) / 6)
    assert t1k["factor"] == pytest.approx(want, abs=1e-12)


def test_theorem3_range_checks():
    s = roots_system(X2P1)
    with pytest.raises(ValueError, match="lower range bound"):
        theorem_bound(3, s, 10**4, k=5)
    out = theorem_bound(3, s, 10**4, k=5, strict=False)
    assert out["range_ok"] is False
    k_lo, k_hi = out["k_range"]
    assert k_lo > k_hi  # the admissible range is empty at desk scale
    d = out["delta"]
    loglog = math.log(math.log(10**4))
    assert 0 < d <= 1
    want = math.exp(-d * 5 / 18) + math.log(10**4) ** (-d / 18)
    assert out["factor"] == pytest.approx(want, abs=1e-12)


def test_theorem4_range_checks():
    s = roots_system(X2P1)
    # default delta = max(weighted ratio, 1/loglog) sits above 1/e at x = 1000
    with pytest.raises(ValueError, match="1/e"):
        theorem_bound(4, s, 1000, k=2)
    out = theorem_bound(4, s, 1000, k=2, strict=False)
    assert out["range_ok"] is False
    primes = [p for p in range(2, 1001) if is_prime_slow(p)]
    rho = {2: 1}
    rho.update({p: 2 for p in primes if p % 4 == 1})
    num = math.fsum((1 / rho[p]) / p for p in rho)
    den = math.fsum(1 / p for p in rho)
    want_delta = max(num / den, 1 / math.log(math.log(1000)))
    assert out["delta"] == pytest.approx(want_delta, abs=1e-12)
    assert out["factor"] == pytest.approx(want_delta ** ((2 - 1) / 10), abs=1e-12)
    # an explicitly supplied small delta fails only the k-range
    with pytest.raises(ValueError, match="range"):
        theorem_bound(4, s, 1000, k=2, delta=0.3)
    out2 = theorem_bound(4, s, 1000, k=2, delta=0.3, strict=False)
    assert out2["range_ok"] is False
    assert out2["factor"] == pytest.approx(0.3**0.1)


# ---------------------------------------------------------------------------
# aggregation

def test_aggregate_full_system():
    st = aggregate_stats(full_system(1), 50)
    # every A_q is the full residue system: disc(q) = 1/q exactly
    want = math.fsum(1 / q for q in range(1, 51)) / 50
    assert st.disc_average == pytest.approx(want, abs=1e-14)
    assert st.modulus_count == 50
    assert st.method == "exact"


def test_aggregate_atoms_average_to_one():
    s = roots_system(IntPolynomial((0, 1)))  # rho = 1 everywhere
    st = aggregate_stats(s, 40)
    assert st.disc_average == 1.0


def test_aggregate_k_restriction():
    s = roots_system(X2P1)
    st = aggregate_stats(s, 100, k=1, include_per_q=True)
    qs = [row[0] for row in st.per_q]
    assert 1 not in qs
    for q in qs:
        ps = [p for p in range(2, q + 1) if q % p == 0 and is_prime_slow(p)]
        assert len(ps) == 1
    assert qs == sorted(qs)


def test_aggregate_region_mass():
    s = roots_system(X2P1)
    st = aggregate_stats(s, 30, weighting="rho", region=(Fraction(0), Fraction(1, 4)),
                         include_per_q=True)
    total = 0
    inside = 0
    for q, rho, _ in st.per_q:
        rs = residue_set(s, q)
        assert rs.size == rho
        total += rho
        inside += sum(1 for (a,) in rs.points if Fraction(a, q) <= Fraction(1, 4))
    assert st.point_total == total
    assert st.region_mass == pytest.approx(inside / total, abs=1e-14)


def _region_mass_by_fractions(system, x, region, weighting):
    """Region mass over the nonempty A_q, q <= x, from exact coordinate
    comparisons a_i/q in [lo_i, hi_i]."""
    rows = []
    for q in range(1, x + 1):
        rs = residue_set(system, q)
        if rs.size:
            inside = sum(all(lo <= Fraction(c, q) <= hi for c, (lo, hi) in zip(pt, region)) for pt in rs.points)
            rows.append((rs.size, inside))
    if weighting == "uniform":
        return sum(Fraction(c, size) for size, c in rows) / len(rows)
    return Fraction(sum(c for _, c in rows), sum(size for size, _ in rows))


@pytest.mark.parametrize("spec, region, disc_mode, method", [
    ("graph:1,0,1:0,1", ((Fraction(0), Fraction(1, 2)), (Fraction(1, 3), Fraction(1))), "auto", "erdos_turan"),
    ("graph:1,0,1:0,1", ((Fraction(0), Fraction(1, 2)), (Fraction(1, 3), Fraction(1))), "exact", "exact"),
    ("graph:1,0,1:0,1", ((Fraction(1, 5), Fraction(4, 5)), (Fraction(0), Fraction(2, 5))), "exact", "exact"),
    ("poly:1,0,1", (Fraction(1, 3), Fraction(5, 7)), "bounds", "erdos_turan"),
    ("poly:1,0,1", (Fraction(0), Fraction(1, 2)), "bounds", "erdos_turan"),
])
def test_per_q_region_mass_matches_fraction_count(spec, region, disc_mode, method):
    # the per-modulus path: 2-D Erdos-Turan, 2-D exact and 1-D bounds
    system = build_system(spec)
    reg = region if system.dimension == 2 else (region,)
    for weighting in ("uniform", "rho"):
        st = aggregate_stats(system, 60, weighting=weighting, region=region, disc_mode=disc_mode, H=2)
        assert st.method == method
        want = _region_mass_by_fractions(system, 60, reg, weighting)
        if weighting == "rho":
            assert st.region_mass == float(want)
        else:
            assert st.region_mass == pytest.approx(float(want), rel=1e-14)


def test_aggregate_validation():
    s = roots_system(X2P1)
    with pytest.raises(ValueError):
        aggregate_stats(s, 100, weighting="median")
    with pytest.raises(ValueError, match="no supported moduli"):
        aggregate_stats(s, 10, k=3)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            aggregate_stats(s, 10, k=k)


def test_region_of_the_wrong_shape_is_refused():
    # one pair for a 2-D system once measured axis 0 alone, three pairs
    # raised a bare IndexError, and a nested pair for a 1-D system failed
    # to unpack
    g = build_system("graph:1,0,1:0,0,1")
    half = (Fraction(0), Fraction(1, 2))
    assert aggregate_stats(g, 60, region=(half, half)).region_mass == pytest.approx(0.1333, abs=1e-4)
    for region in ((half,), (half, half, half)):
        with pytest.raises(ValueError, match=rf"^a region for n=2 is 2 \(lo, hi\) pairs, got {len(region)}:"):
            aggregate_stats(g, 60, region=region)
    for region in ((half,), Fraction(1, 2)):
        with pytest.raises(ValueError, match=r"^a region for n=1 is the bare pair \(lo, hi\):"):
            aggregate_stats(roots_system(X2P1), 60, region=region)


def test_sweep_spectrum_budget_is_refused_before_any_spectrum(monkeypatch):
    # full:2 at x = 30 takes the automatic H = 64, so A_q of q^2 points
    # needs q^2 * 129^2 terms: q <= 7 fit a budget of 10^6, A_30 (900 points)
    # does not
    build, calls = analysis.weyl_spectrum, []
    monkeypatch.setattr(analysis, "weyl_spectrum", lambda source, H: calls.append(H) or build(source, H))
    with pytest.raises(ValueError, match="at H=64 needs 14976900 terms, over budget 1000000"):
        aggregate_stats(full_system(2), 30, budget=10**6)
    assert calls == []


def test_aggregate_2d_paths():
    g = graph_system(IntPolynomial((-2, 0, 0, 1)), IntPolynomial((0, 0, 1)))
    st = aggregate_stats(g, 40, H=4)
    assert st.method == "erdos_turan"
    assert 0 < st.disc_average <= 1.0
    ex = aggregate_stats(g, 40, disc_mode="exact", include_per_q=True)
    assert ex.method == "exact"
    for q, _, disc in ex.per_q:
        want = box_discrepancy(fractional_points(residue_set(g, q))).value
        assert disc == pytest.approx(want, abs=1e-14)
    assert ex.disc_average <= st.disc_average + 1e-12


# ---------------------------------------------------------------------------
# the batched 1-D exact path against the per-modulus loop it replaced

def _single_arc_scan(u, counts, q):
    """The one-set arc scan that the segmented `_closed_arc_scan` replaced:
    (numerator, start_index, end_index) over denominator N*q."""
    N = int(counts.sum())
    pref = np.cumsum(counts)
    A = q * pref - N * u
    B = A - q * counts
    j = int(np.argmax(A))
    i = int(np.argmin(B))
    return int(A[j] - B[i]), i, j


def _per_q_rows(system, x, k, region):
    """The per-modulus loop of the 1-D exact path before batching: one
    `residue_set` and one single-set scan per supported q; rows are
    (q, rho, disc, mass_count)."""
    rows = []
    for q, parts, rho in iter_supported(system, x, k):
        pts = residue_set(system, q, parts).array
        num, _, _ = _single_arc_scan(pts[:, 0], np.ones(len(pts), dtype=np.int64), q)
        mass_count = None
        if region:
            lo, hi = region
            mass_count = int(((pts[:, 0] >= math.ceil(lo * q)) & (pts[:, 0] <= math.floor(hi * q))).sum())
        rows.append((q, rho, num / (len(pts) * q), mass_count))
    return rows


def _averages(rows, weighting, region):
    """(disc_average, region_mass) of per-q rows, as `aggregate_stats` forms them."""
    if weighting == "uniform":
        disc = math.fsum(r[2] for r in rows) / len(rows)
        return disc, math.fsum(r[3] / r[1] for r in rows) / len(rows) if region else None
    total = sum(r[1] for r in rows)
    return math.fsum(r[1] * r[2] for r in rows) / total, sum(r[3] for r in rows) / total if region else None


def test_segmented_arc_scan_equals_single_scans():
    rng = random.Random(4242)
    for trial in range(40):
        moduli, lengths, us, counts, want = [], [], [], [], []
        for _ in range(rng.randrange(1, 30)):
            q = rng.choice((1, 2, 7, rng.randrange(2, 10**6), rng.randrange(2, 2**40)))
            u = sorted(rng.sample(range(q), rng.randrange(1, min(q, 12) + 1)))
            c = [rng.randrange(1, 5) for _ in u]
            want.append(_single_arc_scan(np.array(u), np.array(c), q))
            moduli.append(q)
            lengths.append(len(u))
            us += u
            counts += c
        nums, starts, ends = _closed_arc_scan(np.array(us), np.array(counts), np.array(moduli), np.array(lengths))
        assert list(zip(nums.tolist(), starts.tolist(), ends.tolist())) == want, trial


def test_batched_1d_path_equals_the_per_q_loop(monkeypatch):
    rng = random.Random(5150)
    cases = [(sys_from_dict(1, random_local_sets(rng, 1, x_max)), x_max) for x_max in (60, 700, 2000)]
    # empty sets at 2 and 3 beside nonempty ones at 4, 8 and 9
    odd = {2: (), 4: {(1,), (3,)}, 8: {(5,)}, 3: (), 9: {(2,), (4,), (8,)}, 5: {(0,), (4,)}, 7: {(3,)}}
    cases += [(sys_from_dict(1, odd), 200), (roots_system(X2P1), 2000), (initial_segment_system(), 600),
              (full_system(1), 150)]
    region = (Fraction(1, 3), Fraction(5, 7))
    for s, x_max in cases:
        for x in (0, 1, 2, x_max):
            for k, reg in ((None, None), (None, region), (1, region), (2, None)):
                rows = _per_q_rows(s, x, k, reg)
                # small budgets put chunk boundaries inside every x and give
                # the larger sets chunks of their own
                for budget in (1 << 11, 16):
                    monkeypatch.setattr(analysis, "_POINT_BUDGET", budget)
                    for weighting in ("uniform", "rho"):
                        if not rows:
                            with pytest.raises(NoSupportedModuliError):
                                aggregate_stats(s, x, weighting=weighting, k=k, region=reg)
                            continue
                        st = aggregate_stats(s, x, weighting=weighting, k=k, region=reg, include_per_q=True)
                        assert st.per_q == tuple(r[:3] for r in rows), (x, k, budget)
                        assert (st.disc_average, st.region_mass) == _averages(rows, weighting, reg), (x, k, budget)
                        assert st.point_total == sum(r[1] for r in rows)
                        assert st.modulus_count == len(rows)


def test_batched_1d_path_exact_for_large_moduli():
    # the fold needs only coprime moduli, so P need not be prime
    P = 2**55 + 5
    parts = ((3, 1), (P, 1))
    # N*q >= 2^53: the float quotient of the rounded integers differs here
    # from the correctly rounded int / int
    rounding = {3: {(1,)}, P: {(4547325674830788,), (8496936760652860,)}}
    # 86 points ahead of this set: prefix counts over the whole chunk would
    # take q * pref across 2^63
    wrapping = {3: {(1,)}, P: {(a,) for a in (6508960630070922, 9603974122661339, 20302784294350929,
                                             25050202667127401, 29508791916836470)}}
    for sets, ahead in ((rounding, 1), (wrapping, 86)):
        s = sys_from_dict(1, sets)
        chunk = [(3, ((3, 1),), 1)] * ahead + [(3 * P, parts, len(sets[P]))]
        cols = ModuliColumns.of_items(chunk)._replace(rho=np.array([rho for *_, rho in chunk]))
        columns = analysis._chunk_columns(s, cols, ((Fraction(0), Fraction(1, 2)),), None)
        rows = list(zip(*(c.tolist() for c in columns)))
        for (q, parts, rho), row in zip(chunk[-2:], rows[-2:]):
            pts = residue_set(s, q, parts).array[:, 0]
            num, _, _ = _single_arc_scan(pts, np.ones(rho, dtype=np.int64), q)
            assert row == (q, rho, num / (rho * q), int((2 * pts <= q).sum()))
        if sets is rounding:
            assert (np.array([num]) / np.array([2 * 3 * P]))[0] != num / (2 * 3 * P)


def _per_modulus_rows(system, x, k, axes, disc_mode, H):
    """The per-modulus loop that the chunked path replaced for Erdos-Turan
    and 2-D exact scores: one `residue_set` per supported q, scored by the
    exact box scan or by the Erdos-Turan bound at H, and the region counted
    axis by axis from unclamped bounds; rows are (q, rho, disc, mass_count)."""
    rows = []
    for q, _, rho in iter_supported(system, x, k):
        ps = fractional_points(residue_set(system, q))
        if disc_mode == "exact":
            disc = box_discrepancy(ps, mode="exact").value
        else:
            disc = erdos_turan_bound(weyl_spectrum(ps, H))
        mass_count = None
        if axes:
            inside = np.ones(len(ps.array), dtype=bool)
            for axis, (lo, hi) in enumerate(axes):
                inside &= (ps.array[:, axis] >= math.ceil(lo * q)) & (ps.array[:, axis] <= math.floor(hi * q))
            mass_count = int(inside.sum())
        rows.append((q, rho, disc, mass_count))
    return rows


def test_chunked_scores_equal_the_per_modulus_loop(monkeypatch):
    rng = random.Random(2207)
    plane = [sys_from_dict(2, random_local_sets(rng, 2, 40)) for _ in range(3)]
    # empty sets at 2 and 3 beside nonempty ones at 4 and 9
    plane.append(sys_from_dict(2, {2: (), 4: {(1, 2), (3, 0)}, 3: (), 9: {(2, 5), (4, 4), (8, 1)},
                                   5: {(0, 0), (4, 1)}, 7: {(3, 6)}}))
    plane_region = ((Fraction(-1, 3), Fraction(1, 2)), (Fraction(1, 3), Fraction(7, 5)))
    line_region = (Fraction(-1, 2), Fraction(5, 7))
    cases = [(s, mode, plane_region) for s in plane for mode in ("auto", "exact", "bounds")]
    cases.append((roots_system(X2P1), "bounds", line_region))
    for s, disc_mode, region in cases:
        for x in (0, 2, 40):
            for k in (None, 1, 2):
                for reg in (None, region):
                    axes = reg if s.dimension == 2 or reg is None else (reg,)
                    rows = _per_modulus_rows(s, x, k, axes, disc_mode, 2)
                    for budget in (16, 2048):
                        monkeypatch.setattr(analysis, "_POINT_BUDGET", budget)
                        for weighting in ("uniform", "rho"):
                            args = dict(weighting=weighting, k=k, region=reg, disc_mode=disc_mode, H=2)
                            if not rows:
                                with pytest.raises(NoSupportedModuliError):
                                    aggregate_stats(s, x, **args)
                                continue
                            st = aggregate_stats(s, x, include_per_q=True, **args)
                            where = (disc_mode, x, k, budget, weighting)
                            assert st.per_q == tuple(r[:3] for r in rows), where
                            assert (st.disc_average, st.region_mass) == _averages(rows, weighting, reg), where
                            assert st.point_total == sum(r[1] for r in rows)
                            assert st.modulus_count == len(rows)


def test_batched_1d_path_scans_once_per_chunk(monkeypatch):
    # a chunk closes before the item that would take it past the budget
    items = [(q, (), rho) for q, rho in enumerate((1, 5, 3000, 2, 2, 2040, 8, 1), 1)]
    cols = ModuliColumns.of_items(items)._replace(rho=np.array([rho for *_, rho in items]))
    assert analysis._POINT_BUDGET == 2048
    assert [chunk.q.tolist() for chunk in analysis._point_chunks(iter([cols]))] == [
        [1, 2], [3], [4, 5, 6], [7, 8]
    ]
    calls = {"scan": 0, "fold": 0}
    real_scan, real_fold = analysis._closed_arc_scan, analysis.numerators_1d

    def counting_scan(*args):
        calls["scan"] += 1
        return real_scan(*args)

    def counting_fold(*args):
        calls["fold"] += 1
        return real_fold(*args)

    monkeypatch.setattr(analysis, "_closed_arc_scan", counting_scan)
    monkeypatch.setattr(analysis, "numerators_1d", counting_fold)
    s = roots_system(X2P1)
    st = aggregate_stats(s, 20000)
    chunks = sum(1 for _ in analysis._point_chunks(supported_blocks(s, 20000)))
    assert calls == {"scan": chunks, "fold": chunks}
    assert chunks <= st.point_total // analysis._POINT_BUDGET + 2
    assert st.modulus_count > 100 * chunks


def _greedy_chunks(rhos, budget):
    """The item loop that `_point_chunks` replaced: a chunk closes before
    the item that would take its rho sum past the budget."""
    chunks, chunk, points = [], [], 0
    for i, rho in enumerate(rhos):
        if chunk and points + rho > budget:
            chunks.append(chunk)
            chunk, points = [], 0
        chunk.append(i)
        points += rho
    return chunks + [chunk] if chunk else chunks


def test_point_chunks_are_the_same_in_any_blocks():
    # chunks run across block edges; a modulus over the budget stands alone
    rng = random.Random(2324)
    for trial in range(60):
        rhos = [rng.choice((1, 2, 7, 300, 2047, 2048, 2049, 5000)) for _ in range(rng.randrange(1, 80))]
        items = [(q, ((q, 1),), rho) for q, rho in enumerate(rhos, 2)]
        cols = ModuliColumns.of_items(items)._replace(rho=np.array(rhos))
        edges = sorted(rng.sample(range(1, len(items)), min(len(items) - 1, rng.randrange(0, 6))))
        blocks = [cols.cut(a, b) for a, b in zip([0, *edges], [*edges, len(items)])]
        got = list(analysis._point_chunks(iter(blocks)))
        assert [chunk.q.tolist() for chunk in got] == [[i + 2 for i in c] for c in _greedy_chunks(rhos, 2048)]
        # each chunk carries its own parts
        assert all(np.array_equal(chunk.p, chunk.q) and (chunk.count == 1).all() for chunk in got)


@pytest.mark.parametrize("spec", ["poly:1,0,1", "graph:1,0,1:0,0,1"])
def test_aggregate_refuses_an_unknown_disc_mode_before_any_work(spec):
    system = build_system(spec)
    for mode in ("exct", "Exact", "", None):
        with pytest.raises(ValueError, match="disc_mode must be auto, exact or bounds"):
            aggregate_stats(system, 100, disc_mode=mode, H=2)
    assert len(system._cache) == 0 and not system._profile
    assert aggregate_stats(system, 30, disc_mode="bounds", H=2).method == "erdos_turan"


def test_sweep_past_support_limit_names_the_smallest_prime_power(tmp_path):
    path = tmp_path / "system.txt"
    path.write_text("2 1 1\n3 1 1\n3 1 2\n2 2 3\n5 1 0\n7 1 3\n", encoding="utf-8")
    # the support limit is 7, the largest prime power in the file
    assert aggregate_stats(load_local_system(path), 7).modulus_count == 7
    for x in (8, 30):
        for run in (aggregate_stats, supported_moduli):
            with pytest.raises(ValueError, match=r"^prime power 2\^3 = 8 beyond support limit 7$"):
                run(load_local_system(path), x)
    # with k = 2 no q <= 8 needs the set at 2^3
    assert aggregate_stats(load_local_system(path), 8, k=2).modulus_count == 1
