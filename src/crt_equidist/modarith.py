"""Exact integer kernels: prime sieving, factorization, modular inverses and
CRT recombination. Everything here is a pure function on immutable inputs."""

import math
from dataclasses import dataclass, field

import numpy as np

_SEGMENT = 1 << 20

INT64_LIMIT = 2**63


def require_int64(value, what):
    """Refuse an int64 computation whose integers would reach 2^63."""
    if value >= INT64_LIMIT:
        raise ValueError(f"{what} = {value} is at least 2^63, past the int64 range")


def _simple_sieve(limit):
    """Boolean array sieve; index i is True iff i is prime."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def prime_array(limit):
    """All primes <= limit as an ascending int64 array; empty for limit < 2.

    Switches to a segmented sieve above 10^7 so memory stays
    O(sqrt(limit) + segment).
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit <= 10**7:
        return np.flatnonzero(_simple_sieve(limit)).astype(np.int64)
    base = np.flatnonzero(_simple_sieve(math.isqrt(limit))).astype(np.int64)
    chunks = [base]
    for lo in range(math.isqrt(limit) + 1, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT - 1, limit)
        flags = np.ones(hi - lo + 1, dtype=bool)
        for p in base.tolist():
            start = ((lo + p - 1) // p) * p
            flags[start - lo :: p] = False
        chunks.append(np.flatnonzero(flags) + lo)
    return np.concatenate(chunks)


def sieve_primes(limit):
    """All primes <= limit as an ascending list of ints."""
    return prime_array(limit).tolist()


def _is_prime(p):
    if p < 2:
        return False
    for d in (2, 3, 5, 7):
        if p % d == 0:
            return p == d
    d = 11
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimePower:
    p: int
    v: int
    value: int = field(init=False)

    def __post_init__(self):
        if self.v < 1:
            raise ValueError(f"exponent must be >= 1, got {self.v}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        object.__setattr__(self, "value", self.p**self.v)


@dataclass(frozen=True)
class Factorization:
    q: int
    parts: tuple

    def __post_init__(self):
        prod = 1
        for pp in self.parts:
            prod *= pp.value
        if prod != self.q:
            raise ValueError(f"parts multiply to {prod}, not {self.q}")
        ps = [pp.p for pp in self.parts]
        if ps != sorted(set(ps)):
            raise ValueError("parts must be sorted by p with distinct primes")


def factor_tuples(q):
    """Trial-division factorization as plain [(p, v)] pairs, p ascending.

    Internal fast path; factorize() wraps the result in validated types.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    out = []
    n = q
    for p in (2, 3):
        if n % p == 0:
            v = 0
            while n % p == 0:
                n //= p
                v += 1
            out.append((p, v))
    # wheel over 6k+-1
    p = 5
    while p * p <= n:
        for cand in (p, p + 2):
            if n % cand == 0:
                v = 0
                while n % cand == 0:
                    n //= cand
                    v += 1
                out.append((cand, v))
        p += 6
    if n > 1:
        out.append((n, 1))
    return out


def factorize(q):
    parts = tuple(PrimePower(p, v) for p, v in factor_tuples(q))
    return Factorization(q, parts)


def mod_inverse(a, m):
    """b with a*b = 1 (mod m), 0 <= b < m. Raises ValueError if gcd(a,m) > 1."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    a %= m
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} is not invertible mod {m} (gcd = {math.gcd(a, m)})") from None


def crt_combine(residues):
    """Residue r mod prod(m_i) with r = r_i (mod m_i) for all pairs (r_i, m_i).

    Moduli must be pairwise coprime; a clash raises ValueError.
    """
    r, m = 0, 1
    for ri, mi in residues:
        if mi < 1:
            raise ValueError(f"modulus must be >= 1, got {mi}")
        if mi == 1:
            continue
        g = math.gcd(m, mi)
        if g != 1:
            raise ValueError(f"moduli not pairwise coprime: gcd({m}, {mi}) = {g}")
        if m == 1:
            r = ri % mi
        else:
            r = r + m * (((ri - r) * mod_inverse(m, mi)) % mi)
        m *= mi
    return r % m


def spf_table(limit):
    """Smallest-prime-factor table up to limit (index 0 and 1 unused)."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
            spf[p] = p
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    return spf


def spf_factor(q, spf):
    """[(p, v)] via a precomputed smallest-prime-factor table."""
    out = []
    while q > 1:
        p = int(spf[q])
        v = 0
        while q % p == 0:
            q //= p
            v += 1
        out.append((p, v))
    return out
