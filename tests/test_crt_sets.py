import math
import random
from fractions import Fraction

import numpy as np
import pytest

from crt_equidist.crt_sets import (
    LocalSystem,
    TorusPointSet,
    fractional_points,
    hyperplane_max,
    hyperplane_max_local,
    iter_supported,
    load_local_system,
    local_profile,
    numerators_1d,
    point_count,
    prime_support_stat,
    residue_set,
    save_local_system,
    supported_moduli,
)
from crt_equidist.generators import IntPolynomial, full_system, roots_system
from crt_equidist.modarith import crt_combine, prime_array
from oracles import (
    brute_residue_set_1d,
    brute_residue_set_2d,
    oracle_hyperplane_max_local,
    oracle_hyperplane_max_q,
    random_local_sets,
    restricted_hyperplane_max_direct,
    trial_factorize,
)


def sys_from_dict(n, sets, name="dict"):
    return LocalSystem(n, lambda p, v: sets.get(p**v, ()), name=name)


@pytest.fixture
def six_system():
    return sys_from_dict(1, {2: {(1,)}, 3: {(1,), (2,)}})


def test_residue_set_worked_example(six_system):
    rs = residue_set(six_system, 6)
    assert rs.points == ((1,), (5,))
    assert rs.size == 2
    assert point_count(six_system, 6) == 2


def test_residue_set_trivia(six_system):
    assert residue_set(six_system, 1).points == ((0,),)
    assert point_count(six_system, 1) == 1
    # single prime factor: the local set verbatim
    assert residue_set(six_system, 3).points == ((1,), (2,))
    # an empty local factor kills the product
    empty = sys_from_dict(1, {2: set(), 3: {(1,)}})
    assert residue_set(empty, 6).size == 0
    assert point_count(empty, 6) == 0


def test_local_set_validation():
    bad_range = LocalSystem(1, lambda p, v: {(p**v,)})
    with pytest.raises(ValueError):
        bad_range.local_set(5, 1)
    bad_dim = LocalSystem(2, lambda p, v: {(1,)})
    with pytest.raises(ValueError):
        bad_dim.local_set(5, 1)


def test_support_limit_error_names_prime_power():
    s = LocalSystem(1, lambda p, v: {(0,)}, support_limit=10)
    with pytest.raises(ValueError, match="11"):
        residue_set(s, 11)


def test_rule_materialized_once():
    calls = []

    def rule(p, v):
        calls.append((p, v))
        return {(0,)}

    s = LocalSystem(1, rule)
    for _ in range(3):
        s.local_set(7, 1)
        s.local_size(7, 1)
    assert calls == [(7, 1)]


def test_residue_set_brute_force_1d():
    rng = random.Random(101)
    sets = random_local_sets(rng, 1, 300)
    s = sys_from_dict(1, sets)
    for q in range(1, 301):
        rs = residue_set(s, q)
        want = brute_residue_set_1d(sets, q) if q > 1 else {0}
        assert {x[0] for x in rs.points} == want
        assert rs.size == len(want)
        assert point_count(s, q) == len(want)
        nums = numerators_1d(s, q)
        assert sorted(nums.tolist()) == sorted(want)


def test_residue_set_brute_force_2d():
    rng = random.Random(202)
    sets = random_local_sets(rng, 2, 80)
    s = sys_from_dict(2, sets)
    for q in range(2, 81):
        rs = residue_set(s, q)
        want = brute_residue_set_2d(sets, q)
        assert set(rs.points) == want
        # rows come in lexicographic order, the order the float sums follow
        assert list(rs.points) == sorted(want)


def crt_rows(sets, moduli):
    """Every CRT join of one row per local set, coordinatewise, sorted."""
    rows = [()]
    for m in moduli:
        rows = [r + (t,) for r in rows for t in sorted(sets[m])]
    n = len(next(iter(sets[moduli[0]])))
    return sorted(tuple(crt_combine([(t[i], m) for t, m in zip(r, moduli)]) for i in range(n)) for r in rows)


def test_residue_set_no_int64_overflow():
    # (local - cur) * inverse passes 2^63 here although q does not
    P = 4000000019
    sets = {7: {(1,), (3,)}, P: {(P - 2,), (P // 2,)}}
    s = sys_from_dict(1, sets)
    want = crt_rows(sets, (7, P))
    assert list(residue_set(s, 7 * P).points) == want
    assert numerators_1d(s, 7 * P).tolist() == [a for (a,) in want]


def test_residue_set_large_moduli_vs_crt_combine():
    rng = random.Random(808)
    # pairwise coprime prime powers, products below 2^63, at most one large
    # prime, so trial division factors q quickly
    for moduli in ((3**20, 2**31 - 1), (5**13, 4000000019), (2**39, 8388617), (3**38, 5), (7, 3037000493),
                   (3**5, 25, 1000000007)):
        for n in (1, 2):
            # the extreme rows 0 and m - 1 give the largest CRT differences
            sets = {m: {(0,) * n, (m - 1,) * n} | {tuple(rng.randrange(m) for _ in range(n)) for _ in range(3)}
                    for m in moduli}
            s = sys_from_dict(n, sets)
            q = math.prod(moduli)
            assert q < 2**63
            assert list(residue_set(s, q).points) == crt_rows(sets, moduli), moduli


def test_residue_set_refuses_at_int64_limit():
    s = sys_from_dict(2, {2**40: {(1, 2), (3, 4)}, 8388617: {(5, 6)}})
    with pytest.raises(ValueError, match=r"2\^63"):
        residue_set(s, 2**40 * 8388617)
    with pytest.raises(ValueError, match=r"2\^63"):
        TorusPointSet(1, 2**63, ((1,),), Fraction(1))
    # just below the limit the numerators are stored exactly
    big = TorusPointSet(1, 2**63 - 1, ((2**63 - 2,),), Fraction(1))
    assert big.numerators == ((2**63 - 2,),)


def test_point_count_multiplicative():
    rng = random.Random(303)
    sets = random_local_sets(rng, 1, 500)
    s = sys_from_dict(1, sets)
    for _ in range(200):
        q1 = rng.randrange(2, 100)
        q2 = rng.randrange(2, 100)
        if math.gcd(q1, q2) != 1:
            continue
        assert point_count(s, q1 * q2) == point_count(s, q1) * point_count(s, q2)
        assert hyperplane_max(s, q1 * q2) == hyperplane_max(s, q1) * hyperplane_max(s, q2)


def test_hyperplane_max_dim1_prime():
    s = sys_from_dict(1, {7: {(1,), (3,), (6,)}, 5: set()})
    assert hyperplane_max_local(s, 7, 1) == 1
    assert hyperplane_max_local(s, 5, 1) == 0


def test_hyperplane_max_prime_power_stack():
    # both points share the residue 0 mod 2, so the mod-2 fiber holds 2 points
    s = sys_from_dict(1, {4: {(0,), (2,)}})
    assert hyperplane_max_local(s, 2, 2) == 2
    assert oracle_hyperplane_max_local({(0,), (2,)}, 2, 2, 1) == 2


def test_hyperplane_max_local_random_vs_oracle_dim2():
    rng = random.Random(404)
    for _ in range(40):
        pts = set()
        while len(pts) < rng.randrange(1, 7):
            pts.add((rng.randrange(5), rng.randrange(5)))
        s = sys_from_dict(2, {5: pts})
        want = oracle_hyperplane_max_local(pts, 5, 1, 2)
        # the second call is answered from the system's cache
        assert hyperplane_max_local(s, 5, 1) == want
        assert hyperplane_max_local(s, 5, 1) == want


def test_hyperplane_max_local_random_vs_oracle_prime_powers():
    rng = random.Random(505)
    for pv, p, v in ((4, 2, 2), (8, 2, 3), (9, 3, 2), (25, 5, 2), (27, 3, 3), (49, 7, 2), (121, 11, 2)):
        for _ in range(8):
            for n in (1, 2):
                pts = set()
                while len(pts) < rng.randrange(1, 6):
                    pts.add(tuple(rng.randrange(pv) for _ in range(n)))
                s = sys_from_dict(n, {pv: pts})
                want = oracle_hyperplane_max_local(pts, p, v, n)
                # the second call is answered from the system's cache
                assert hyperplane_max_local(s, p, v) == want, (pv, n, pts)
                assert hyperplane_max_local(s, p, v) == want, (pv, n, pts)


def test_hyperplane_max_local_int64_limit():
    # h.x would pass 2^63 mod 2^32 - 5 in two dimensions
    s = sys_from_dict(2, {4294967291: {(0, 1), (1, 0)}})
    with pytest.raises(ValueError, match="overflows int64"):
        hyperplane_max_local(s, 4294967291, 1)


def test_hyperplane_max_composite_direct():
    # multiplicative extension vs the direct scan over admissible normals
    rng = random.Random(606)
    for _ in range(10):
        sets = {}
        for pv in (3, 5):
            pts = set()
            while len(pts) < rng.randrange(1, 4):
                pts.add((rng.randrange(pv), rng.randrange(pv)))
            sets[pv] = pts
        s = sys_from_dict(2, sets)
        rs = residue_set(s, 15)
        lam = hyperplane_max(s, 15)
        assert lam == oracle_hyperplane_max_q(sets, 15, 2)
        assert lam == restricted_hyperplane_max_direct(rs.points, 15, 2)
    assert hyperplane_max(s, 1) == 1


def test_hyperplane_bounds_and_equality_condition():
    rng = random.Random(707)
    for pv, p, v in ((4, 2, 2), (8, 2, 3), (9, 3, 2), (25, 5, 2), (27, 3, 3), (49, 7, 2),
                     (5, 5, 1), (7, 7, 1), (13, 13, 1)):
        for _ in range(6):
            pts = set()
            while len(pts) < rng.randrange(1, 6):
                pts.add((rng.randrange(pv), rng.randrange(pv)))
            s = sys_from_dict(2, {pv: pts})
            lam = hyperplane_max_local(s, p, v)
            rho = len(pts)
            assert 1 <= lam <= rho
            # lam == rho exactly when one hyperplane holds every point
            assert (lam == rho) == (oracle_hyperplane_max_local(pts, p, v, 2) == rho)


def test_supported_moduli_full_system():
    s = full_system(1)
    assert supported_moduli(s, 20).members == tuple(range(1, 21))


def test_supported_moduli_x2p1():
    f = IntPolynomial((1, 0, 1))
    s = roots_system(f)
    got = supported_moduli(s, 50).members
    assert set(got) >= {1, 2, 5, 10, 13, 25, 26}
    assert all(q % 3 != 0 for q in got)
    # brute force: q is supported iff every maximal prime power has a root
    for q in range(1, 51):
        ok = all(any((a * a + 1) % p**v == 0 for a in range(p**v))
                 for p, v in trial_factorize(q))
        assert (q in got) == ok, q


def test_supported_moduli_k_filter():
    f = IntPolynomial((1, 0, 1))
    s = roots_system(f)
    k1 = supported_moduli(s, 50, k=1).members
    assert 1 not in k1
    for q in k1:
        assert len(trial_factorize(q)) == 1
    # partition: the union of the Q_k equals Q minus {1}, disjointly
    q_all = supported_moduli(s, 200).members
    seen = []
    for k in range(1, 6):
        seen.extend(supported_moduli(s, 200, k=k).members)
    assert sorted(seen) == [q for q in q_all if q != 1]
    with pytest.raises(ValueError):
        supported_moduli(s, 50, k=0)


def test_iter_supported_vs_trial_division():
    rng = random.Random(59)
    for trial in range(12):
        n = rng.choice((1, 2))
        x_max = rng.randrange(2, 400)
        sets = random_local_sets(rng, n, x_max)
        s = sys_from_dict(n, sets)
        for x in (0, 1, 2, x_max):
            for k in (None, 1, 2):
                want = []
                for q in range(1, x + 1):
                    parts = tuple(trial_factorize(q))
                    rho = math.prod(len(sets.get(p**v, ())) for p, v in parts)
                    if rho and (k is None or len(parts) == k):
                        want.append((q, parts, rho))
                assert list(iter_supported(s, x, k)) == want, (trial, x, k)
    assert list(iter_supported(full_system(1), 1)) == [(1, (), 1)]
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            iter_supported(full_system(1), 10, k)


def test_fractional_points(six_system):
    rs = residue_set(six_system, 6)
    ps = fractional_points(rs)
    assert ps.denominator == 6 and ps.numerators == ((1,), (5,))
    assert ps.weight == Fraction(1, 2)
    single = fractional_points(residue_set(sys_from_dict(1, {5: {(0,)}}), 5))
    assert single.numerators == ((0,),) and single.weight == 1
    pair = sys_from_dict(2, {5: {(1, 2)}})
    ps2 = fractional_points(residue_set(pair, 5))
    assert ps2.numerators == ((1, 2),) and ps2.dimension == 2
    empty = sys_from_dict(1, {2: set()})
    with pytest.raises(ValueError):
        fractional_points(residue_set(empty, 2))


def test_prime_support_stat():
    total, ratio = prime_support_stat(full_system(1), 10**4)
    assert math.isclose(total, math.fsum(math.log(p) for p in range(2, 10**4 + 1)
                                         if all(p % d for d in range(2, p))), rel_tol=1e-12)
    assert 0.9 < ratio < 1.1
    empty = sys_from_dict(1, {})
    assert prime_support_stat(empty, 1000) == (0.0, 0.0)
    _, half = prime_support_stat(roots_system(IntPolynomial((1, 0, 1))), 10**5)
    assert 0.45 < half < 0.55


def test_file_round_trip(tmp_path, six_system):
    path = tmp_path / "sys.txt"
    save_local_system(six_system, path, [(2, 1), (3, 1)])
    loaded = load_local_system(path)
    assert loaded.dimension == 1
    assert loaded.local_set(2, 1) == ((1,),)
    assert loaded.local_set(3, 1) == ((1,), (2,))
    assert residue_set(loaded, 6).points == ((1,), (5,))
    # support defaults to the largest listed power; beyond it is an error
    with pytest.raises(ValueError, match="support"):
        loaded.local_set(5, 1)
    # with an explicit limit, unlisted powers inside it are empty
    wide = load_local_system(path, support_limit=100)
    assert wide.local_set(5, 1) == ()


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1 0\n3 zz 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.txt:2"):
        load_local_system(bad)
    off = tmp_path / "off.txt"
    off.write_text("2 1 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="canonical"):
        load_local_system(off)


def test_prefill_stores_the_local_sets():
    f = IntPolynomial((3, -1, 0, 2, 1))
    bulk = roots_system(f)
    single = LocalSystem(1, bulk.rule)
    primes = prime_array(3000)
    assert bulk.local_set(7) == single.local_set(7)
    bulk.prefill(primes)
    assert set(bulk._cache) == {(p, 1) for p in primes.tolist()}
    for p in primes.tolist():
        assert bulk.local_set(p) == single.local_set(p), p
    # cached sets are kept, not recomputed
    seven = bulk.local_set(7)
    bulk.prefill([7, 11])
    assert bulk.local_set(7) is seven
    # no bulk rule: nothing is computed
    single.prefill(primes)
    assert (3001, 1) not in single._cache and len(single._cache) == len(primes)
    plain = LocalSystem(1, bulk.rule)
    plain.prefill(primes)
    assert plain._cache == {}


def test_prefill_checks_like_local_set():
    def twin(dimension, points, **kw):
        rule = lambda p, v: points(p)
        return LocalSystem(dimension, rule, bulk_rule=lambda ps: [points(p) for p in ps.tolist()], **kw)

    cases = [
        (twin(1, lambda p: (p,)), "not canonical"),
        (twin(1, lambda p: (-1,)), "not canonical"),
        (twin(2, lambda p: ((0,),)), "wrong dimension"),
        (twin(1, lambda p: (0,), support_limit=10), "beyond support limit"),
    ]
    for s, message in cases:
        with pytest.raises(ValueError, match=message):
            s.local_set(11)
        with pytest.raises(ValueError, match=message):
            s.prefill([11])
    # duplicates collapse and the points come out sorted, as from local_set
    s = twin(1, lambda p: (3, 1, 3, (2,)))
    s.prefill([5])
    assert s.local_set(5) == ((1,), (2,), (3,))
    assert LocalSystem(1, s.rule).local_set(5) == ((1,), (2,), (3,))


def test_local_profile_cached_per_x():
    s = roots_system(IntPolynomial((1, 0, 1)))
    got = local_profile(s, 1000)
    assert local_profile(s, 1000) is got
    assert all(not a.flags.writeable for a in got)
    want = local_profile(LocalSystem(1, s.rule), 1000)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert got[0].tolist() == [p for p in prime_array(1000).tolist() if p == 2 or p % 4 == 1]
    # a smaller x is its own entry
    assert local_profile(s, 100)[0].tolist() == [p for p in got[0].tolist() if p <= 100]
