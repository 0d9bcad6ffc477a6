import gc
import math
import random
import tracemalloc
from fractions import Fraction
from operator import itemgetter

import numpy as np
import pytest

from crt_equidist import crt_sets
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
    supported_blocks,
    supported_moduli,
)
from crt_equidist.generators import IntPolynomial, full_system, roots_system
from crt_equidist.modarith import crt_combine, prime_array, require_int64
from oracles import (
    brute_residue_set_1d,
    brute_residue_set_2d,
    is_prime_slow,
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


def test_iter_supported_factors_only_supported_moduli(monkeypatch):
    factored = []
    real = crt_sets.spf_factor

    def counting_factor(q, spf):
        # one call per block of q, as an int64 array
        factored.extend(q.tolist())
        return real(q, spf)

    monkeypatch.setattr(crt_sets, "spf_factor", counting_factor)
    got = [q for q, _, _ in iter_supported(roots_system(IntPolynomial((1, 0, 1))), 5000)]
    # q = 1 needs no factoring; the unsupported q are never factored
    assert factored == got[1:]
    assert len(got) < 5000 // 4


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
    # an empty set at 2 ends the assembly of A_22 before the set at 11 is read
    s = LocalSystem(1, lambda p, v: () if p == 2 else {(0,)}, support_limit=10)
    assert residue_set(s, 22).size == 0


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
        nums = numerators_1d(s, [(q, rs.factorization, rs.size)])
        assert sorted(nums.tolist()) == sorted(want)


def test_numerators_1d_chunks_vs_brute_force():
    rng = random.Random(303)
    sets = random_local_sets(rng, 1, 400)
    # an empty set at p beside nonempty ones at p^2 and p^3
    sets.update({3: frozenset(), 9: frozenset({(4,), (7,)}), 27: frozenset({(2,)})})
    s = sys_from_dict(1, sets)
    want = {q: sorted(brute_residue_set_1d(sets, q)) if q > 1 else [0] for q in range(1, 401)}
    # every q, so some A_q are empty and take no entries
    items = [(q, tuple(trial_factorize(q)), len(want[q])) for q in range(1, 401)]
    for size in (1, 3, 50, len(items)):
        for start in range(0, len(items), size):
            chunk = items[start : start + size]
            nums = numerators_1d(s, chunk).tolist()
            assert nums == [a for q, _, _ in chunk for a in want[q]]
    with pytest.raises(ValueError, match="1-dimensional"):
        numerators_1d(sys_from_dict(2, {}), [(1, (), 1)])


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
    assert numerators_1d(s, [(7 * P, ((7, 1), (P, 1)), 4)]).tolist() == [a for (a,) in want]


# The CRT fold that looped over the moduli in Python, reading each
# modulus' local sets and sorting them one modulus at a time, and filling
# five lists and calling pow once per modulus at each join step; kept as
# the reference for `crt_sets._crt_fold`.

def _per_modulus_fold(system, moduli):
    zero = np.zeros((1, system.dimension), dtype=np.int64)
    joins = []
    for q, parts, *_ in moduli:
        require_int64(q, "modulus q")
        sets = []
        for p, v in parts:
            local = system.local_set(p, v)
            if len(local) == 0:
                sets = [(1, local)]
                break
            sets.append((p**v, local))
        joins.append(sorted(sets, key=itemgetter(0), reverse=True) or [(1, zero)])
    count, steps = len(joins), max(map(len, joins), default=0)
    m = [sets[0][0] for sets in joins]
    arr = np.concatenate([zero[:0]] + [sets[0][1] for sets in joins])
    seg = np.arange(count).repeat([len(sets[0][1]) for sets in joins])
    for step in range(1, steps):
        sizes, off, pv, inv = [1] * count, [-1] * count, [1] * count, [0] * count
        step_sets, total = [], 0
        for i, sets in enumerate(joins):
            if step < len(sets):
                pv[i], local = sets[step]
                sizes[i], off[i], inv[i] = len(local), total, pow(m[i], -1, pv[i])
                step_sets.append(local)
                total += len(local)
        locs = np.concatenate(step_sets + [zero])
        table = np.array((sizes, off, pv, inv, m), dtype=np.int64)
        rep = table[0, seg]
        ends = rep.cumsum()
        seg = seg.repeat(rep)
        k = np.arange(len(seg)) - (ends - rep).repeat(rep)
        _, off, pv, inv, mod = table[:, seg, None]
        x = arr.repeat(rep, axis=0)
        arr = x + mod * ((locs[off[:, 0] + k] - x) * inv % pv)
        m = (table[4] * table[2]).tolist()
    return arr[np.lexsort((*arr.T[::-1], seg))] if steps > 1 else arr


def _drawn_system(n, seed, log, empty=0.15, support_limit=crt_sets.DEFAULT_SUPPORT):
    """A system whose set at p^v is drawn from a generator seeded by
    (seed, p, v): up to four random rows, or none; `log` records every
    call of the rule."""

    def rule(p, v):
        log.append((p, v))
        rng = random.Random(f"{seed} {p} {v}")
        if rng.random() < empty:
            return ()
        return {tuple(rng.randrange(p**v) for _ in range(n)) for _ in range(rng.randint(1, 4))}

    return LocalSystem(n, rule, support_limit)


def _fold_outcome(fold, system, chunks):
    try:
        return [fold(system, chunk) for chunk in chunks]
    except ValueError as exc:
        return str(exc)


def _assert_same_folds(n, seed, chunks, warm=(), **kw):
    """The fold and the reference give the same arrays, or the same refusal,
    from fresh systems that call their rules in the same order."""
    logs = [], []
    systems = [_drawn_system(n, seed, log, **kw) for log in logs]
    for s in systems:
        for p, v in warm:
            s.local_set(p, v)
    got, want = (_fold_outcome(f, s, chunks) for f, s in zip((crt_sets._crt_fold, _per_modulus_fold), systems))
    if isinstance(want, str):
        assert got == want
    else:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64 and a.shape == b.shape and np.array_equal(a, b)
    assert logs[0] == logs[1]
    return want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_crt_fold_matches_the_per_modulus_fold(n):
    # every q < 3000 and some prime powers, so empty sets and v >= 2 occur;
    # half the sets are cached first and the rest are missed mid-fold
    rng = random.Random(1900 + n)
    qs = list(range(1, 3000, 1 + n)) + [2**11, 3**7, 5**4 * 7**3, 2**5 * 3**3 * 5**2]
    items = [(q, tuple(trial_factorize(q)), None) for q in qs]
    warm = rng.sample(sorted({pv for _, parts, _ in items for pv in parts}), 150)
    for size in (1, 2, 29, len(items)):
        chunks = [items[i : i + size] for i in range(0, len(items), size)]
        out = _assert_same_folds(n, 19 + size, chunks, warm)
        assert sum(len(a) for a in out) > len(items) // 2


def test_crt_fold_refuses_where_the_per_modulus_fold_does():
    # a prime power past the support limit is refused by the same message,
    # after the same rule calls; one after an empty set is never read
    rng = random.Random(1905)
    refused = 0
    for trial in range(40):
        limit = rng.randrange(50, 1000)
        qs = sorted(rng.sample(range(2, 1000), 30))
        chunk = [(q, tuple(trial_factorize(q))) for q in qs]
        out = _assert_same_folds(rng.choice([1, 2]), trial, [chunk], empty=0.3, support_limit=limit)
        refused += isinstance(out, str)
    assert 10 < refused < 40
    # q past int64 is refused after the sets of the items before it
    big = [(6, ((2, 1), (3, 1))), (2**63 + 1, ((3, 2), (2**63 // 9, 1))), (10, ((2, 1), (5, 1)))]
    out = _assert_same_folds(1, 1, [big], empty=0)
    assert out == "modulus q = 9223372036854775809 is at least 2^63, past the int64 range"
    out = _assert_same_folds(1, 1, [big], empty=0, support_limit=2)
    assert out == "prime power 3^1 = 3 beyond support limit 2"


def test_crt_fold_near_2_63():
    # products of the join stay below q; 2^61 - 1 and 2^63 - 25 are prime,
    # and 2147483659 is the first prime past 2^31
    m61 = 2**61 - 1
    items = [
        (4 * m61, ((2, 2), (m61, 1))),
        (3 * m61, ((3, 1), (m61, 1))),
        ((2**31 - 1) * 2147483659, ((2**31 - 1, 1), (2147483659, 1))),
        (2**63 - 25, ((2**63 - 25, 1),)),
        (2**62, ((2, 62),)),
        (3**39, ((3, 39),)),
        (2**20 * 3**12 * 5**8 * 7, ((2, 20), (3, 12), (5, 8), (7, 1))),
    ]
    assert all(q < 2**63 and q == math.prod(p**v for p, v in parts) for q, parts in items)
    for n in (1, 2, 3):
        out = _assert_same_folds(n, 7, [items, items[::-1]] + [[item] for item in items], empty=0, support_limit=2**63)
        qs = np.repeat([q for q, _ in items], [len(a) for a in out[2:]])
        assert (out[0] >= 0).all() and (out[0] < qs[:, None]).all()


def test_crt_fold_sorts_by_packed_key_and_by_lexsort(tmp_path, monkeypatch):
    # random `file:` systems: a fold with count * max(q)^n below 2^63 puts
    # its rows in order by one packed key, a wider one by np.lexsort, and
    # both equal the reference. Primes just below 2^21 take q^3 past 2^63
    # in three dimensions, and moduli near 2^63 take q past it in one and
    # two (the file's primes stay small enough for its primality check).
    rng = random.Random(2424)
    near_2_21 = [2097143, 2097133, 2097091]
    small = [(q, tuple(trial_factorize(q))) for q in range(1, 400)]
    cubes = [(c * p, tuple(trial_factorize(c)) + ((p, 1),)) for p in near_2_21 for c in (2, 3, 6, 9)]
    wide = [
        (2**40 * 3**14, ((2, 40), (3, 14))),
        ((2**31 - 1) * 2147483659, ((2**31 - 1, 1), (2147483659, 1))),
        (2**20 * 3**12 * 5**8 * 7, ((2, 20), (3, 12), (5, 8), (7, 1))),
    ]
    assert all(map(is_prime_slow, near_2_21))
    lexsorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(len(keys)) or lexsort(keys))
    path = tmp_path / "system.txt"
    for n in (1, 2, 3):
        chunks = [small, small[::7] + cubes, small[::5] + wide, cubes + wide, cubes[:2]]
        parts = sorted({pv for chunk in chunks for _, ps in chunk for pv in ps})
        lines = [f"{p} {v} {','.join(str(rng.randrange(p**v)) for _ in range(n))}"
                 for p, v in parts if rng.random() > 0.1 for _ in range(rng.randint(1, 4))]
        path.write_text("\n".join(["# random"] + lines) + "\n", encoding="utf-8")
        branches = []
        for chunk in chunks:
            fold, ref = (load_local_system(path, dimension=n, support_limit=2**63) for _ in range(2))
            for _, ps in chunk:
                for p, v in ps:
                    fold.local_set(p, v)
            lexsorts.clear()
            got = crt_sets._crt_fold(fold, chunk)
            branches.append(bool(lexsorts))
            assert branches[-1] == (len(chunk) * max(q for q, _ in chunk) ** n >= 2**63)
            assert np.array_equal(got, _per_modulus_fold(ref, chunk)), (n, len(chunk))
        assert True in branches and False in branches, n


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
    # an empty set at p with a nonempty one at p^2: only the q that p divides
    # exactly are unsupported
    s = sys_from_dict(1, {2: {(1,)}, 3: set(), 9: {(2,), (5,)}, 5: {(0,)}})
    assert list(iter_supported(s, 20)) == [
        (1, (), 1), (2, ((2, 1),), 1), (5, ((5, 1),), 1), (9, ((3, 2),), 2), (10, ((2, 1), (5, 1)), 1),
        (18, ((2, 1), (3, 2)), 2),
    ]
    assert list(iter_supported(full_system(1), 1)) == [(1, (), 1)]
    # k-restricted: the k smallest primes multiply past x
    assert list(iter_supported(full_system(1), 29, 3)) == []
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            iter_supported(full_system(1), 10, k)


def test_iter_supported_refuses_where_the_per_q_loop_does():
    def per_q(s, x, k):
        # read the local sets of each q with k parts in ascending p
        out = [(1, (), 1)] if k is None and x >= 1 else []
        for q in range(2, x + 1):
            parts = tuple(trial_factorize(q))
            if k is None or len(parts) == k:
                rho = math.prod(s.local_size(p, v) for p, v in parts)
                if rho:
                    out.append((q, parts, rho))
        return out

    def outcome(run, *args):
        try:
            return run(*args)
        except ValueError as exc:
            return str(exc)

    # every set within the limit is nonempty, so the per-q loop reads every
    # p^v of every q with k parts
    rng = random.Random(67)
    for trial in range(60):
        limit, x = rng.randrange(2, 200), rng.randrange(0, 400)
        for k in (None, 1, 2, 3):
            want = outcome(per_q, LocalSystem(1, lambda p, v: {(0,), (1,)}, support_limit=limit), x, k)
            s = LocalSystem(1, lambda p, v: {(0,), (1,)}, support_limit=limit)
            assert outcome(lambda: list(iter_supported(s, x, k))) == want, (limit, x, k)
    # no q <= 8 with two prime factors has 2^3 or 3^2; q = 18 = 2 * 3^2
    # comes before q = 24 = 2^3 * 3
    s = LocalSystem(1, lambda p, v: {(0,)}, support_limit=7)
    assert [q for q, _, _ in iter_supported(s, 8, 2)] == [6]
    with pytest.raises(ValueError, match=r"^prime power 3\^2 = 9 beyond support limit 7$"):
        list(iter_supported(s, 30, 2))


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
    assert loaded.local_set(2, 1).tolist() == [[1]]
    assert loaded.local_set(3, 1).tolist() == [[1], [2]]
    assert residue_set(loaded, 6).points == ((1,), (5,))
    # support defaults to the largest listed power; beyond it is an error
    with pytest.raises(ValueError, match="support"):
        loaded.local_set(5, 1)
    # with an explicit limit, unlisted powers inside it are empty
    wide = load_local_system(path, support_limit=100)
    assert wide.local_set(5, 1).tolist() == []


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1 0\n3 zz 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.txt:2"):
        load_local_system(bad)
    off = tmp_path / "off.txt"
    off.write_text("2 1 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="canonical"):
        load_local_system(off)
    # a set at a non-prime or at v < 1 is refused, not silently ignored
    composite = tmp_path / "composite.txt"
    composite.write_text("4 1 3\n3 1 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="composite.txt:1: 4 is not prime"):
        load_local_system(composite)
    zero = tmp_path / "zero.txt"
    zero.write_text("3 1 1\n3 0 0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="zero.txt:2: exponent must be >= 1"):
        load_local_system(zero)


def test_prefill_stores_the_local_sets():
    f = IntPolynomial((3, -1, 0, 2, 1))
    bulk = roots_system(f)
    single = LocalSystem(1, bulk.rule)
    primes = prime_array(3000)
    assert bulk.local_set(7).tolist() == single.local_set(7).tolist()
    bulk.prefill(primes)
    assert set(bulk._cache) == {(p, 1) for p in primes.tolist()}
    for p in primes.tolist():
        assert bulk.local_set(p).tolist() == single.local_set(p).tolist(), p
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

    # every rule return kind gives the same sorted, distinct, read-only
    # array through local_set and through prefill
    kinds = [
        (1, lambda p: range(1, 4), [[1], [2], [3]]),
        (1, lambda p: np.array([3, 1, 3, 2]), [[1], [2], [3]]),
        (2, lambda p: np.array([[1, 2], [0, 4], [1, 2], [0, 3]]), [[0, 3], [0, 4], [1, 2]]),
        (2, lambda p: {(1, 2), (0, 4), (1, 0)}, [[0, 4], [1, 0], [1, 2]]),
        (1, lambda p: [3, 1, 3, (2,), (1,)], [[1], [2], [3]]),
        (1, lambda p: (a for a in (4, 0, 4)), [[0], [4]]),
        (2, lambda p: (), []),
        (1, lambda p: range(0), []),
    ]
    for dimension, points, want in kinds:
        single, bulk = twin(dimension, points), twin(dimension, points)
        bulk.prefill([5, 7])
        for got in (single.local_set(5), bulk.local_set(5), bulk.local_set(7)):
            assert got.dtype == np.int64 and got.shape == (len(want), dimension)
            assert got.tolist() == want
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[:] = 0
    # one batch of many sets of mixed kinds and sizes, empty ones between,
    # against the definition: the sorted distinct tuples of each set
    rng = random.Random(11)
    kinds = [list, set, iter, lambda pts: np.array(pts, dtype=np.int64).reshape(-1, 2)]
    drawn = {}
    for p in prime_array(600).tolist():
        pts = [(rng.randrange(p), rng.randrange(p)) for _ in range(rng.choice([0, 1, 3, 40]))]
        drawn[p] = (pts, rng.choice(kinds))
    bulk = twin(2, lambda p: drawn[p][1](drawn[p][0]))
    bulk.prefill(list(drawn))
    for p, (pts, _) in drawn.items():
        assert bulk.local_set(p).tolist() == [list(t) for t in sorted(set(pts))], p
    cases = [
        (twin(1, lambda p: (p,)), "not canonical"),
        (twin(1, lambda p: (-1,)), "not canonical"),
        (twin(1, lambda p: range(-1, 2)), "not canonical"),
        (twin(1, lambda p: range(p + 1)), "not canonical"),
        (twin(1, lambda p: np.array([0, p])), "not canonical"),
        (twin(2, lambda p: np.array([[0, -1]])), "not canonical"),
        (twin(1, lambda p: [0, (2**70,)]), "not canonical"),
        (twin(1, lambda p: [2**64]), "not canonical"),
        (twin(2, lambda p: ((0,),)), "wrong dimension"),
        (twin(2, lambda p: [(0, 1), (0, 1, 2)]), "wrong dimension"),
        (twin(2, lambda p: range(3)), "wrong dimension"),
        (twin(1, lambda p: np.array([[0, 1]])), "wrong dimension"),
        (twin(1, lambda p: (0,), support_limit=10), "beyond support limit"),
    ]
    for s, message in cases:
        with pytest.raises(ValueError, match=message):
            s.local_set(11)
        with pytest.raises(ValueError, match=message):
            s.prefill([11])
        assert s._cache == {}
    # a bulk rule must answer for every prime
    short = LocalSystem(1, None, bulk_rule=lambda ps: [(0,)])
    with pytest.raises(ValueError, match="shorter"):
        short.prefill([5, 7])


def test_local_set_refuses_past_int64():
    # the cache is int64: prime powers and coordinates must stay below 2^63
    s = LocalSystem(1, lambda p, v: {(0,)}, support_limit=2**70)
    with pytest.raises(ValueError, match="3\\^40 = 12157665459056928801 is at least 2\\^63"):
        s.local_set(3, 40)
    assert s.local_set(3, 39).tolist() == [[0]]
    wide = LocalSystem(2, lambda p, v: [(0, 2**63), (1, 1)])
    with pytest.raises(ValueError, match="not canonical mod 5\\^1"):
        wide.local_set(5)
    neg = LocalSystem(1, lambda p, v: np.array([2**62, -(2**62)]).astype(object))
    with pytest.raises(ValueError, match="not canonical"):
        neg.local_set(5)


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


# The store before the flat one: one dict entry and one read-only array per
# set, made when the set is stored; kept as the reference for the flat
# store of `LocalSystem`.

class _DictStoreSystem:
    def __init__(self, dimension, rule, bulk_rule=None):
        self.dimension, self.rule, self.bulk_rule = dimension, rule, bulk_rule
        self._cache = {}

    def _array(self, raw):
        arr = np.array(sorted(set(raw)), dtype=np.int64).reshape(-1, self.dimension)
        arr.setflags(write=False)
        return arr

    def local_set(self, p, v=1):
        if (p, v) not in self._cache:
            self._cache[(p, v)] = self._array(self.rule(p, v))
        return self._cache[(p, v)]

    def prefill(self, primes):
        todo = [p for p in np.asarray(primes).tolist() if (p, 1) not in self._cache]
        for p, raw in zip(todo, self.bulk_rule(np.array(todo, dtype=np.int64)), strict=True):
            self._cache[(p, 1)] = self._array(raw)


def _drawn_set(n, seed, p, v):
    """The set at p^v of a random system: empty, a few rows, or about a
    hundred, so that both of the store's gathers run."""
    rng = random.Random(f"{seed} {p} {v}")
    size = rng.choice([0, 0, 1, 2, 3, 5, 100])
    return [tuple(rng.randrange(p**v) for _ in range(n)) for _ in range(size)]


@pytest.mark.parametrize("n", [1, 2])
def test_flat_store_matches_a_dict_of_arrays(n):
    views = {}

    def check(flat, ref):
        assert set(flat._cache) == set(ref._cache)
        assert len(flat._cache) == len(ref._cache)
        assert (flat._cache == {}) == (ref._cache == {})
        assert all(key in flat._cache for key in ref._cache)
        assert (2, 40) not in flat._cache and (7919, 1) not in flat._cache
        for key, want in ref._cache.items():
            got = flat.local_set(*key)
            assert got.dtype == np.int64 and got.shape == want.shape and np.array_equal(got, want), key
            assert not got.flags.writeable
            # a view, once handed out, is the one every later call returns
            assert views.setdefault(key, got) is got

    for seed in range(6):
        rule = lambda p, v: _drawn_set(n, seed, p, v)

        def arrays(primes):
            # the (sizes, rows) form, rows in drawn order with duplicates
            sets = [_drawn_set(n, seed, p, 1) for p in primes.tolist()]
            return np.array([len(t) for t in sets]), np.array([r for t in sets for r in t]).reshape(-1, n)

        bulk = arrays if seed % 2 else (lambda primes: [rule(p, 1) for p in primes.tolist()])
        flat = LocalSystem(n, rule, bulk_rule=bulk)
        ref = _DictStoreSystem(n, rule, bulk_rule=lambda primes: [rule(p, 1) for p in primes.tolist()])
        views.clear()
        check(flat, ref)
        rng = random.Random(seed)
        for limit in (150, 400, 900):
            # a prime named twice is stored once
            primes = np.concatenate([prime_array(limit), prime_array(limit)[-3:]])
            for s in (flat, ref):
                s.prefill(primes)
            check(flat, ref)
            # misses between prefills: v >= 2, and primes past this prefill
            keys = [(p, v) for p in prime_array(60).tolist() for v in (2, 3) if p**v < 3000]
            keys += [(p, 1) for p in rng.sample(prime_array(1500).tolist(), 20)]
            for key in rng.sample(keys, 15):
                for s in (flat, ref):
                    s.local_set(*key)
            check(flat, ref)
            # q = 1 reads the zero row; a chunk without it, read after the
            # first, finds every set in one segment; one prime at a time
            # copies a large set whole
            chunks = [[(q, tuple(trial_factorize(q))) for q in [1, *rng.sample(range(2, 3000), 120)]]]
            chunks.append([(q, tuple(trial_factorize(q))) for q in rng.sample(range(2, 3000), 120)])
            chunks += [[(p, ((p, 1),))] for p in prime_array(1000)[-40:].tolist()]
            for chunk in chunks:
                got, want = crt_sets._crt_fold(flat, chunk), _per_modulus_fold(ref, chunk)
                assert got.dtype == np.int64 and np.array_equal(got, want), (seed, limit)
            check(flat, ref)
        # the sets of one prefill lie in one segment
        flat = LocalSystem(n, rule, bulk_rule=bulk)
        flat.prefill(prime_array(3000))
        chunk = [(q, tuple(trial_factorize(q))) for q in range(2, 1000)]
        chunk = [item for item in chunk if all(v == 1 for _, v in item[1])]
        assert np.array_equal(crt_sets._crt_fold(flat, chunk), _per_modulus_fold(ref, chunk))


def test_prefill_holds_the_sets_in_flat_arrays():
    # a one-root set held its own array, about 250 bytes; the flat store
    # keeps about 33 bytes of index per prime and 8 per root
    primes = prime_array(10**5)
    s = roots_system(IntPolynomial((1, 0, 1)))
    gc.collect()
    tracemalloc.start()
    try:
        s.prefill(primes)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 600_000
    assert len(s._cache) == len(primes)


def test_iter_supported_is_the_same_in_any_blocks(monkeypatch):
    # the primes and the supported q are read block by block; blocks of 7
    # and 5 put block edges everywhere
    rng = random.Random(2121)
    for trial in range(8):
        n, x = rng.choice([1, 2]), rng.randrange(2, 600)
        sets = random_local_sets(rng, n, x)
        want = {k: list(iter_supported(sys_from_dict(n, sets), x, k)) for k in (None, 1, 2)}
        monkeypatch.setattr(crt_sets, "_SPF_BLOCK", 7)
        monkeypatch.setattr(crt_sets, "_Q_BLOCK", 5)
        assert {k: list(iter_supported(sys_from_dict(n, sets), x, k)) for k in (None, 1, 2)} == want, (n, x)
        monkeypatch.undo()


def _per_q_items(sets, x, k):
    """(q, parts, rho) for every supported q <= x, by trial division."""
    out = [(1, (), 1)] if k is None and x >= 1 else []
    for q in range(2, x + 1):
        parts = tuple(trial_factorize(q))
        rho = math.prod(len(sets.get(p**v, ())) for p, v in parts)
        if rho and (k is None or len(parts) == k):
            out.append((q, parts, rho))
    return out


def test_supported_blocks_equal_the_per_q_items(tmp_path, monkeypatch):
    # `file:` systems, where every prime power the file leaves out is empty
    rng = random.Random(2323)
    path = tmp_path / "system.txt"
    for trial in range(10):
        n, x = rng.choice([1, 2]), rng.randrange(2, 700)
        sets = random_local_sets(rng, n, x)
        lines = ["# random"]
        for pv, rows in sets.items():
            # the keys are prime powers p^v
            ((p, v),) = trial_factorize(pv)
            lines += [f"{p} {v} {','.join(map(str, t))}" for t in sorted(rows)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for block_q in (5, 4096):
            monkeypatch.setattr(crt_sets, "_Q_BLOCK", block_q)
            for k in (None, 1, 2):
                want = _per_q_items(sets, x, k)
                blocks = list(supported_blocks(load_local_system(path, dimension=n, support_limit=x), x, k))
                for block in blocks:
                    assert all(c.dtype == np.int64 for c in block) and len(block.q), (trial, k)
                    # one block per span of _Q_BLOCK q, past q = 1
                    assert block.q[0] == 1 or (block.q[-1] - 2) // block_q == (block.q[0] - 2) // block_q
                got = [item for block in blocks for item in block.items()]
                assert got == want, (trial, block_q, k)
                s = load_local_system(path, dimension=n, support_limit=x)
                assert list(iter_supported(s, x, k)) == want
                assert supported_moduli(s, x, k).members == tuple(q for q, _, _ in want)
            monkeypatch.undo()


def test_sizes_look_each_missing_set_up_once(monkeypatch):
    # a system without a bulk rule: every set is missed, and some twice
    log = []

    def rule(p, v):
        log.append((p, v))
        return {(a,) for a in range(0, p**v, 3 if p % 2 else 2)}

    s = LocalSystem(1, rule)
    s.local_set(5, 1)
    finds = []
    real = s._cache.find
    monkeypatch.setattr(s._cache, "find", lambda p, v: finds.append((p, v)) or real(p, v))
    ps = np.array([7, 2, 5, 7, 3, 2, 11, 3], dtype=np.int64)
    vs = np.array([1, 3, 1, 1, 2, 3, 1, 1], dtype=np.int64)
    sizes = s._sizes(ps, vs)
    assert finds == []
    # each set the store lacked was made once, in the order of first sight
    assert log == [(5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (3, 1)]
    fresh = LocalSystem(1, rule)
    assert sizes.tolist() == [fresh.local_size(p, v) for p, v in zip(ps.tolist(), vs.tolist())]
    # a size rule answers a miss without storing or looking it up
    s = LocalSystem(1, rule, size_rule=lambda p, v: p**v // 2)
    monkeypatch.setattr(s._cache, "find", lambda p, v: finds.append((p, v)) or real(p, v))
    assert s._sizes(ps, vs).tolist() == [p**v // 2 for p, v in zip(ps.tolist(), vs.tolist())]
    assert finds == [] and len(s._cache) == 0
