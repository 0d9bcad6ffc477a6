import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from crt_equidist import analysis, crt_sets, experiments
from crt_equidist.crt_sets import LocalSystem, save_local_system
from crt_equidist.experiments import (
    ExperimentConfig,
    _root_count_chunk,
    build_system,
    counterexample_contrast,
    poisson_table,
    prime_weyl_averages,
    pseudo_root_counts,
    render_poisson_text,
    run_theorem_sweep,
)
from crt_equidist.generators import (
    IntPolynomial,
    PseudoPoly,
    initial_segment_system,
    pseudo_poly_roots,
    roots_system,
    segment_length,
)
from crt_equidist.modarith import prime_array, sieve_primes


# ---------------------------------------------------------------------------
# config plumbing

def test_config_round_trip():
    cfg = ExperimentConfig(
        system="pseudo:f2",
        ladder=(100, 1000),
        theorem=3,
        k=2,
        weighting="rho",
        H="16",
        disc_mode="bounds",
        budget=10**6,
        seed=7,
        alpha=0.25,
        epsilon="1/3",
        h_set=(1, 2, 5),
    )
    mapping = {}
    for line in cfg.to_lines():
        key, _, value = line.partition(" = ")
        mapping[key] = value
    assert ExperimentConfig.from_mapping(mapping) == cfg


def test_config_codecs_follow_the_field_annotations():
    # the per-key table that the annotation-derived codecs replaced
    tup = (experiments._parse_int_tuple, experiments._fmt_int_tuple)
    string, integer, real = (str, str), (int, str), (float, repr)
    table = {
        "system": string, "ladder": tup, "x": integer, "k": integer, "q": integer, "theorem": integer,
        "weighting": string, "H": string, "disc_mode": string, "budget": integer, "seed": integer,
        "alpha": real, "epsilon": string, "pseudo": string, "poly": string, "profile": string,
        "f1": string, "f2": string, "a": integer, "p_limit": integer, "curve": string, "p_set": tup,
        "h_set": tup,
    }
    assert list(experiments._CONFIG_CODECS.items()) == list(table.items())


def test_config_validation():
    with pytest.raises(ValueError, match="unknown config key"):
        ExperimentConfig.from_mapping({"laddr": "100"})
    with pytest.raises(ValueError, match="bad value"):
        ExperimentConfig.from_mapping({"x": "ten"})
    with pytest.raises(ValueError, match="ascending"):
        ExperimentConfig(ladder=(1000, 100))
    with pytest.raises(ValueError, match="ascending"):
        ExperimentConfig(ladder=(100, 100))
    with pytest.raises(ValueError, match="nonempty"):
        ExperimentConfig(ladder=())
    with pytest.raises(ValueError, match="theorem"):
        ExperimentConfig(theorem=5)
    with pytest.raises(ValueError, match="weighting"):
        ExperimentConfig(weighting="mass")
    with pytest.raises(ValueError, match="H"):
        ExperimentConfig(H="0")
    with pytest.raises(ValueError, match="disc_mode"):
        ExperimentConfig(disc_mode="fast")
    with pytest.raises(ValueError, match="epsilon"):
        ExperimentConfig(epsilon="0")
    with pytest.raises(ValueError, match="epsilon"):
        ExperimentConfig(epsilon="3/2")
    with pytest.raises(ValueError, match="budget"):
        ExperimentConfig(budget=0)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            ExperimentConfig(k=k)


def test_build_system_dispatch(tmp_path):
    s = build_system("poly:1,0,1")
    assert s.dimension == 1 and s.local_set(5, 1).tolist() == [[2], [3]]
    assert build_system("pseudo:f1").local_set(5, 1).tolist() == [[2], [4]]
    assert build_system("full").dimension == 1
    assert build_system("full:2").local_set(3, 1).tolist() == [[a, b] for a in range(3) for b in range(3)]
    assert build_system("initial-segment").local_set(11, 1).tolist() == [[1], [2], [3], [4]]
    v = build_system("veronese:3:-2,0,0,1")
    assert v.dimension == 2
    assert all(b == (a * a) % 31 for a, b in v.local_set(31, 1))
    g = build_system("graph:-2,0,1:0,0,1")
    assert g.dimension == 2 and g.local_set(7, 1).tolist() == [[3, 2], [4, 2]]
    im = build_system("image:1,0,1:0,1")
    assert im.local_set(5, 1).tolist() == [[2], [3]]
    path = tmp_path / "sys.txt"
    save_local_system(
        LocalSystem(1, lambda p, v: ((0,),) if v == 1 else ()),
        path,
        [(2, 1), (3, 1), (5, 1)],
    )
    assert build_system(f"file:{path}").local_set(3, 1).tolist() == [[0]]
    with pytest.raises(ValueError, match="unknown system spec"):
        build_system("magic:1,2,3")
    with pytest.raises(ValueError, match="coefficient list"):
        build_system("poly:1,x,1")


# ---------------------------------------------------------------------------
# root-count kernel

@pytest.mark.parametrize("which", ["f1", "f2", "f3"])
def test_root_counts_match_direct(which):
    primes, counts = pseudo_root_counts(which, 2000)
    assert len(primes) == len(counts) == 303
    for p, c in zip(primes.tolist(), counts.tolist()):
        assert c == len(pseudo_poly_roots(which, p)), (which, p)


def _int64_root_counts(pp, P):
    """The int64 loop the float64 kernel replaced, kept as its reference."""
    P = np.ascontiguousarray(P, dtype=np.int64)
    m = len(P)
    sign = pp.sign
    target = np.full(m, pp.root_target, dtype=np.int64)
    F = np.ones(m, dtype=np.int64)
    R = (1 % P == target).astype(np.int64)
    j = 0
    for n in range(1, int(P[-1])):
        while j < m and P[j] <= n:
            j += 1
        if j >= m:
            break
        F[j:] = (sign * n * F[j:] + 1) % P[j:]
        R[j:] += F[j:] == target[j:]
    return R


@pytest.mark.parametrize("which", ["f1", "f2", "f3"])
def test_root_counts_match_int64_loop(which):
    # every x <= 300 retires primes at every offset within a block
    pp = PseudoPoly(which)
    for x in [*range(2, 301), 20000]:
        P = prime_array(x)
        assert _root_count_chunk(pp, P).tolist() == _int64_root_counts(pp, P).tolist(), (which, x)


def test_f3_kernel_makes_no_buffer_sized_float_temporary():
    # f3's first-step hit check goes row by row through the kernel's scratch,
    # so its peak stays at f2's: a float copy of the (4, m) buffer would add
    # 4 m 8 bytes
    P = prime_array(20000)
    peaks = []
    for which in ("f2", "f3"):
        tracemalloc.start()
        try:
            _root_count_chunk(PseudoPoly(which), P)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + len(P) * 8


@pytest.mark.parametrize("which", ["f1", "f2", "f3"])
@pytest.mark.parametrize("primes", [[2, 3, 5, 131071], [2, 3, 131071, 131101]], ids=["pairs", "single"])
def test_root_counts_match_int64_loop_at_pair_limit(which, primes):
    # 131071 = 2^17 - 1 is the largest prime that the two-step reduction
    # serves (p^3 < 2^51); with 131101 in the call every column steps singly
    pp = PseudoPoly(which)
    P = np.array(primes, dtype=np.int64)
    assert _root_count_chunk(pp, P).tolist() == _int64_root_counts(pp, P).tolist()


@pytest.mark.parametrize("which", ["f1", "f2", "f3"])
def test_root_counts_do_not_depend_on_block_shape(monkeypatch, which):
    # block edges retire columns, fill the NaN tail of a column that ends
    # inside a block and close the count, at both step sizes
    pp = PseudoPoly(which)
    cases = [prime_array(x) for x in [*range(2, 301), 20000]]
    cases += [np.array(primes, dtype=np.int64) for primes in ([2, 3, 5, 131071], [2, 3, 131071, 131101])]
    expected = [_int64_root_counts(pp, P).tolist() for P in cases]
    for block in (2, 4, 6, 16, 32):
        monkeypatch.setattr(experiments, "_COUNT_BLOCK", block)
        for P, want in zip(cases, expected):
            assert _root_count_chunk(pp, P).tolist() == want, (block, P[-1])


def test_root_counts_limit():
    with pytest.raises(ValueError, match="below 2\\^25"):
        pseudo_root_counts("f1", 2**25)
    # a direct caller is refused before the first step (2^25 + 35 is prime)
    with pytest.raises(ValueError, match="largest prime = 33554467"):
        _root_count_chunk(PseudoPoly("f1"), np.array([2, 2**25 + 35], dtype=np.int64))


def test_root_counts_empty():
    primes, counts = pseudo_root_counts("f1", 1)
    assert len(primes) == 0 and len(counts) == 0


# ---------------------------------------------------------------------------
# Poisson tables

def test_poisson_table_invariants():
    for which in ("f1", "f2"):
        hist, moments, reference = poisson_table(which, 10000)
        pi_x = len(prime_array(10000))
        assert int(hist.sum()) == pi_x
        # moments are exact integer sums over the histogram, divided by pi(x)
        for j, m in zip((1, 2, 3, 4), moments):
            assert m == sum(int(c) * k**j for k, c in enumerate(hist)) / pi_x
        assert reference[0] == pytest.approx(pi_x / math.e)
        assert len(reference) == len(hist)


def test_poisson_table_f3_low_bins():
    # the recursion forces roots at 0 and 2 for every p >= 3, and those
    # collapse to the single root 0 mod 2, so k = 1 holds exactly one prime
    hist, _, _ = poisson_table("f3", 1000)
    assert hist[0] == 0
    assert hist[1] == 1


def test_poisson_table_polynomial_profile():
    hist, moments, reference = poisson_table(IntPolynomial((1, 0, 1)), 100, profile="0.5,0,0.5")
    assert hist.tolist() == [13, 1, 11]
    assert reference == (12.5, 0.0, 12.5)
    assert moments[0] == (0 * 13 + 1 * 1 + 2 * 11) / 25
    hist2, _, ref2 = poisson_table(IntPolynomial((1, 0, 1)), 100)
    assert ref2 is None and np.array_equal(hist, hist2)
    with pytest.raises(TypeError):
        poisson_table(3.5, 100)
    # f = 6 + 12X + 30X^2 vanishes mod 2 and mod 3; the smallest is named
    with pytest.raises(ValueError, match=r"identically zero mod 2$"):
        poisson_table(IntPolynomial((6, 12, 30)), 100)
    with pytest.raises(ValueError, match="no primes"):
        poisson_table("f1", 1)


def test_render_poisson_text():
    hist, moments, reference = poisson_table("f1", 300)
    text = render_poisson_text(hist, moments, reference)
    lines = text.splitlines()
    assert lines[0].lstrip().startswith("k")
    assert "empirical" in lines[1] and "reference" in lines[2]
    assert lines[3] == ""
    assert lines[4].lstrip().startswith("moment")
    # each block is aligned into equal-width rows
    assert len(lines[1]) == len(lines[2])
    assert len(lines[5]) == len(lines[6])


# ---------------------------------------------------------------------------
# theorem sweeps

def test_sweep_atomic_system_is_flat():
    # f = X pins every local set to {0}; all point sets are the single
    # origin atom with discrepancy exactly 1
    report = run_theorem_sweep(ExperimentConfig(system="poly:0,1", ladder=(50,)))
    assert report.kind == "sweep"
    row = dict(zip(report.columns, report.rows[0]))
    assert row["avg_disc"] == 1.0
    assert row["flagged"] is False
    assert row["x"] == 50


def test_sweep_near_support_floor():
    # at x = 3 only q = 1 and q = 2 qualify and both sets are single
    # atoms, so the average discrepancy is exactly 1
    report = run_theorem_sweep(ExperimentConfig(system="poly:1,0,1", ladder=(3,)))
    row = dict(zip(report.columns, report.rows[0]))
    assert row["moduli"] == 2 and row["points"] == 2
    assert row["avg_disc"] == 1.0


@pytest.mark.parametrize("system", ["poly:1,0,1", "graph:1,0,1:0,0,1"])
def test_sweep_sieves_once_per_ladder_point(system, monkeypatch):
    # the prime sums, the theorem bound and the auto H share one profile per x
    calls = []
    sieve = crt_sets.prime_array
    monkeypatch.setattr(crt_sets, "prime_array", lambda x: calls.append(x) or sieve(x))
    run_theorem_sweep(ExperimentConfig(system=system, ladder=(60, 200)))
    assert sorted(calls) == [60, 200]


def test_sweep_ladder_decreasing():
    report = run_theorem_sweep(ExperimentConfig(system="poly:1,0,1", ladder=(200, 2000)))
    discs = [row[3] for row in report.rows]
    assert discs[1] < discs[0]
    assert report.extra["alpha_source"] == "fitted"
    assert len(report.extra["support_ratios"]) == 2


def test_sweep_k_required_and_flagging():
    with pytest.raises(ValueError, match="need k"):
        run_theorem_sweep(ExperimentConfig(system="poly:1,0,1", ladder=(100,), theorem=3))
    # no modulus below 8 has two distinct supported primes, so the row
    # is flagged instead of crashing the sweep
    report = run_theorem_sweep(
        ExperimentConfig(system="poly:1,0,1", ladder=(8,), theorem=3, k=2)
    )
    row = dict(zip(report.columns, report.rows[0]))
    assert row["flagged"] is True and row["moduli"] == 0


def test_sweep_refuses_ladder_points_below_3(monkeypatch):
    # the theorem bounds take log log x, so x < 3 is refused before any
    # aggregate, not after the first one
    calls = []
    monkeypatch.setattr(experiments, "aggregate_stats", lambda *a, **kw: calls.append(a))
    for ladder in ((2,), (2, 5), (1, 3)):
        with pytest.raises(ValueError, match=rf"^sweep ladder points must be >= 3, got {ladder[0]}$"):
            run_theorem_sweep(ExperimentConfig(system="poly:1,0,1", ladder=ladder))
    assert calls == []


def test_report_serialization():
    report = run_theorem_sweep(ExperimentConfig(system="poly:0,1", ladder=(30,)))
    import json

    payload = json.loads(report.to_json())
    assert payload["kind"] == "sweep"
    assert payload["columns"][0] == "x"
    csv = report.to_csv()
    lines = csv.splitlines()
    assert lines[0].split(",")[0] == "x"
    assert len(lines) == 1 + len(report.rows)
    text = report.render_text()
    assert text.splitlines()[0].split()[0] == "x"


# ---------------------------------------------------------------------------
# counterexample contrast

def test_counterexample_full_circle():
    report = counterexample_contrast(ExperimentConfig(ladder=(100,), epsilon="1"))
    row = dict(zip(report.columns, report.rows[0]))
    assert row["mass"] == 1.0
    assert report.extra["region"] == ["0", "1"]


def test_counterexample_quarter_interval():
    report = counterexample_contrast(ExperimentConfig(ladder=(100, 300), epsilon="1/4"))
    assert report.columns == ("x", "moduli", "points", "mass", "prime_lower_bound", "uniform_avg_disc")
    for raw in report.rows:
        row = dict(zip(report.columns, raw))
        assert 0.0 <= row["prime_lower_bound"] <= row["mass"] <= 1.0
    # point totals grow with x
    assert report.rows[1][2] > report.rows[0][2]


@pytest.mark.parametrize("epsilon", ["1/4", "1/3", "1000000000000000000001/4000000000000000000000"])
def test_counterexample_prime_bound_equals_the_loop(epsilon):
    eps = Fraction(epsilon)
    report = counterexample_contrast(ExperimentConfig(ladder=(100, 2000), epsilon=epsilon))
    for x, _, points, _, bound, _ in report.rows:
        inside = 0
        for p in sieve_primes(x):
            g = segment_length(p)
            if g >= 1 and Fraction(g, p) <= eps:
                inside += g
        assert bound == inside / points


def test_counterexample_one_scan_per_modulus(monkeypatch):
    scans = []
    real_scan = analysis._closed_arc_scan

    def counting_scan(u, counts, moduli, lengths):
        scans.extend(moduli.tolist())
        return real_scan(u, counts, moduli, lengths)

    monkeypatch.setattr(analysis, "_closed_arc_scan", counting_scan)
    report = counterexample_contrast(ExperimentConfig(ladder=(2000,), epsilon="1/4"))
    row = dict(zip(report.columns, report.rows[0]))
    # one scanned segment per modulus
    assert len(scans) == len(set(scans)) == row["moduli"]
    # the per-modulus values of the one pass give the uniform average
    monkeypatch.undo()
    uniform = analysis.aggregate_stats(initial_segment_system(), 2000, weighting="uniform")
    assert row["uniform_avg_disc"] == uniform.disc_average


# ---------------------------------------------------------------------------
# prime-moduli averages

def test_prime_weyl_h_zero_is_one():
    out, supported, pi_x = prime_weyl_averages(roots_system(IntPolynomial((1, 0, 1))), 500, (0,))
    plain, weighted = out[0]
    assert plain == 1.0 + 0.0j
    assert weighted.imag == 0.0
    assert weighted.real == pytest.approx(
        sum(len(roots_system(IntPolynomial((1, 0, 1))).local_set(p, 1)) for p in sieve_primes(500)) / pi_x
    )
    assert supported == sum(
        1 for p in sieve_primes(500) if p == 2 or p % 4 == 1
    )


def test_prime_weyl_atomic_system():
    out, supported, pi_x = prime_weyl_averages(roots_system(IntPolynomial((0, 1))), 200, (1, 2, 3))
    assert supported == pi_x
    for h in (1, 2, 3):
        plain, weighted = out[h]
        assert plain == 1.0 + 0.0j
        assert weighted == 1.0 + 0.0j


def test_prime_weyl_cancellation():
    sys1 = roots_system(IntPolynomial((1, 0, 1)))
    out, supported, pi_x = prime_weyl_averages(sys1, 100000, (1,))
    plain, weighted = out[1]
    assert abs(plain) < 0.1
    assert abs(weighted) < 0.1
    assert supported == sum(1 for p in sieve_primes(100000) if p == 2 or p % 4 == 1)


def test_prime_weyl_validation():
    with pytest.raises(ValueError, match="1-dimensional"):
        prime_weyl_averages(build_system("full:2"), 100, (1,))
    with pytest.raises(ValueError, match="no primes"):
        prime_weyl_averages(roots_system(IntPolynomial((0, 1))), 1, (1,))
    with pytest.raises(ValueError, match="no supported"):
        prime_weyl_averages(LocalSystem(1, lambda p, v: ()), 100, (1,))
