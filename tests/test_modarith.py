import math
import random

import numpy as np
import pytest

from crt_equidist.modarith import (
    Factorization,
    PrimePower,
    _simple_sieve,
    crt_combine,
    factor_tuples,
    factorize,
    mod_inverse,
    prime_array,
    sieve_primes,
    spf_factor,
    spf_table,
)
from oracles import crt_scan, is_prime_slow, trial_factorize


def test_sieve_small():
    assert sieve_primes(10) == [2, 3, 5, 7]
    assert sieve_primes(1) == []
    assert sieve_primes(0) == []
    assert sieve_primes(2) == [2]


def test_sieve_counts():
    assert len(sieve_primes(10**3)) == 168
    assert len(sieve_primes(10**4)) == 1229
    assert len(sieve_primes(10**6)) == 78498


def test_sieve_matches_trial_division():
    primes = set(sieve_primes(10**4))
    for n in range(10**4 + 1):
        assert (n in primes) == is_prime_slow(n)


def test_segmented_sieve_consistent():
    # crosses the 10^7 segmentation threshold
    full = sieve_primes(10**7 + 2 * 10**5)
    assert full[: len(sieve_primes(10**7))] == sieve_primes(10**7)
    tail = [p for p in full if p > 10**7]
    for p in tail[:5] + tail[-5:]:
        assert is_prime_slow(p)
    lo = 10**7
    hi = 10**7 + 2 * 10**5
    assert len(tail) == sum(1 for n in range(lo + 1, hi + 1) if is_prime_slow(n))


def test_prime_array_matches_list():
    assert prime_array(10**4).tolist() == sieve_primes(10**4)
    assert prime_array(1).size == 0
    # above 10^7 the segmented sieve must agree with one flat sieve
    limit = 10**7 + 3 * 10**5
    got = prime_array(limit)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.flatnonzero(_simple_sieve(limit)))


def test_factorize_examples():
    assert [(pp.p, pp.v) for pp in factorize(12).parts] == [(2, 2), (3, 1)]
    assert factorize(1).parts == ()
    assert factorize(97).parts[0].value == 97
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_random_vs_trial_division():
    rng = random.Random(20260823)
    for _ in range(200):
        q = rng.randrange(1, 10**9)
        assert [(pp.p, pp.v) for pp in factorize(q).parts] == trial_factorize(q)


def test_factorize_reconstructs():
    for q in range(1, 10**5 + 1):
        assert math.prod(pp.value for pp in factorize(q).parts) == q


def test_prime_power_validation():
    assert PrimePower(2, 3).value == 8
    with pytest.raises(ValueError):
        PrimePower(4, 1)
    with pytest.raises(ValueError):
        PrimePower(3, 0)
    with pytest.raises(ValueError):
        Factorization(10, (PrimePower(2, 1),))
    for not_prime in (0, 1, -7, (10**6 + 3) ** 2):
        with pytest.raises(ValueError, match="not prime"):
            PrimePower(not_prime, 1)
    assert PrimePower(10**12 + 39, 1).value == 10**12 + 39


def test_mod_inverse_examples():
    assert mod_inverse(1, 5) == 1
    assert mod_inverse(3, 7) == 5
    with pytest.raises(ValueError):
        mod_inverse(6, 9)


def test_mod_inverse_random():
    rng = random.Random(7)
    for _ in range(500):
        m = rng.randrange(2, 10**6)
        a = rng.randrange(1, m)
        if math.gcd(a, m) == 1:
            b = mod_inverse(a, m)
            assert 0 <= b < m and (a * b) % m == 1
        else:
            with pytest.raises(ValueError):
                mod_inverse(a, m)


def test_crt_examples():
    assert crt_combine([(1, 2), (2, 3)]) == 5
    assert crt_combine([(4, 9)]) == 4
    assert crt_combine([]) == 0
    with pytest.raises(ValueError):
        crt_combine([(1, 4), (1, 6)])


def test_crt_random_vs_scan():
    rng = random.Random(11)
    done = 0
    while done < 120:
        ms = [rng.randrange(2, 50) for _ in range(3)]
        if (math.gcd(ms[0], ms[1]) != 1 or math.gcd(ms[0], ms[2]) != 1
                or math.gcd(ms[1], ms[2]) != 1):
            continue
        rs = [(rng.randrange(m), m) for m in ms]
        assert crt_combine(rs) == crt_scan(rs)
        done += 1


def test_crt_inverts_reduction_exhaustive():
    # all coprime modulus pairs with product <= 10^4, fixed residues
    for m1 in range(2, 101):
        for m2 in range(m1 + 1, 10**4 // m1 + 1):
            if math.gcd(m1, m2) != 1:
                continue
            r = crt_combine([(m1 - 1, m1), (m2 // 2, m2)])
            assert 0 <= r < m1 * m2
            assert r % m1 == m1 - 1 and r % m2 == m2 // 2


def test_spf_table_agrees_with_trial_division():
    spf = spf_table(5000)
    for q in range(2, 5001):
        assert spf_factor(q, spf) == trial_factorize(q)
        assert spf_factor(q, spf) == factor_tuples(q)


def _spf_factor_loop(q, spf):
    """The per-q loop that the array form of `spf_factor` replaced: divide
    out the table's smallest prime until q is 1."""
    out = []
    while q > 1:
        p = int(spf[q])
        v = 0
        while q % p == 0:
            q //= p
            v += 1
        out.append((p, v))
    return out


def _columns_as_lists(count, ps, vs):
    ends = np.cumsum(count).tolist()
    parts = list(zip(ps.tolist(), vs.tolist()))
    return [parts[end - c : end] for c, end in zip(count.tolist(), ends)]


def test_spf_factor_array_form_equals_the_per_q_loop():
    spf = spf_table(10**5)
    qs = np.arange(1, 10**5 + 1)
    count, ps, vs = spf_factor(qs, spf)
    assert count.dtype == ps.dtype == vs.dtype == np.int64
    assert len(ps) == len(vs) == count.sum()
    want = [_spf_factor_loop(q, spf) for q in qs.tolist()]
    assert _columns_as_lists(count, ps, vs) == want
    assert [spf_factor(q, spf) for q in range(1, 10**5 + 1, 7)] == want[::7]
    # blocks in any order, with repeats, q = 1 and empty blocks; a table of
    # 2^22 entries, since q is looked up in it (a table to 2^40 would take
    # 4 TB)
    rng = random.Random(2323)
    big = spf_table(1 << 22)
    for trial in range(30):
        block = [rng.randrange(1, 1 << rng.choice((3, 10, 22))) for _ in range(rng.randrange(0, 400))]
        block += [1 << 21, 3**13, 2 * 3 * 5 * 7 * 11 * 13 * 17][: trial % 4]
        got = _columns_as_lists(*spf_factor(np.array(block, dtype=np.int64), big))
        assert got == [_spf_factor_loop(q, big) for q in block] == [factor_tuples(q) for q in block], trial


def _spf_table_masked(limit):
    """Reference: each p <= sqrt(limit) not marked yet writes itself into
    the unmarked slots of its multiples from p^2 on, in ascending p."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
            spf[p] = p
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    return spf


def test_spf_table_matches_the_masked_sieve():
    for limit in (0, 1, 2, 3, 4, 400, 5000, 100003):
        got, want = spf_table(limit), _spf_table_masked(limit)
        assert got.dtype == want.dtype == np.int32
        assert np.array_equal(got, want), limit
