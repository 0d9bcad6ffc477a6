"""Normalized complete exponential sums with rational phase f1/f2 over
squarefree moduli, their twisted multiplicativity, exhaustive Weil-bound
scans, and point-count Weyl sums along plane curves over prime fields."""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .generators import BivariatePoly, IntPolynomial, pow_mod_array
from .modarith import _is_prime, factor_tuples, sieve_primes


@dataclass(frozen=True)
class RationalExpSumSpec:
    """Phase data f1(n)/f2(n) mod q. f2 must be monic (hence nonzero);
    f1 is unrestricted so degenerate scans (f1 = 0) stay expressible."""

    f1: IntPolynomial
    f2: IntPolynomial
    weil_constant_hint: int = None

    def __post_init__(self):
        if self.f2.degree < 0:
            raise ValueError("f2 must not be the zero polynomial")
        if self.f2.coeffs[-1] != 1:
            raise ValueError(f"f2 must be monic, got leading coefficient {self.f2.coeffs[-1]}")


def normalized_exp_sum(spec, a, q):
    """(1/sqrt(q)) * sum of e(a f1(n) / f2(n) mod q) over n mod q with
    f2(n) invertible. Zero by convention when q is not squarefree or f2
    vanishes identically mod some p | q; 1 at q = 1."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    if q == 1:
        return complex(1.0)
    parts = factor_tuples(q)
    if any(v > 1 for _, v in parts):
        return complex(0.0)
    for p, _ in parts:
        if not spec.f2.nonzero_mod(p):
            return complex(0.0)
    a = a % q
    if a == 0:
        warnings.warn("phase multiplier a = 0 mod q: bounds only cover gcd(a, q) = 1", stacklevel=2)
    ns = np.arange(q, dtype=np.int64)
    f1v = spec.f1(ns, q)
    f2v = spec.f2(ns, q)
    keep = np.nonzero(np.gcd(f2v, q) == 1)[0]
    if len(keep) == 0:
        return complex(0.0)
    ts = np.fromiter(
        ((a * int(f1v[n]) * pow(int(f2v[n]), -1, q)) % q for n in keep),
        dtype=np.int64,
        count=len(keep),
    )
    phases = np.exp((2j * np.pi / q) * np.arange(q))
    return complex(phases[ts].sum() / math.sqrt(q))


def twisted_mult_check(spec, a, q1, q2):
    """Evaluate V(a; q1 q2) and V(a q1bar; q2) V(a q2bar; q1) directly and
    report both sides with their absolute difference."""
    if math.gcd(q1, q2) != 1:
        raise ValueError(f"moduli must be coprime, gcd({q1}, {q2}) != 1")
    lhs = normalized_exp_sum(spec, a, q1 * q2)
    r2 = normalized_exp_sum(spec, (a * pow(q1, -1, q2)) % q2 if q2 > 1 else 0, q2)
    r1 = normalized_exp_sum(spec, (a * pow(q2, -1, q1)) % q1 if q1 > 1 else 0, q1)
    rhs = r2 * r1
    return lhs, rhs, abs(lhs - rhs)


def weil_bound_scan(spec, p_limit):
    """Exact max of |V(a;p)| over 1 <= a <= p-1 for every prime p <= p_limit.

    Per prime the values t(n) = f1(n)/f2(n) mod p are histogrammed and all
    p-1 sums read off one DFT of the histogram. Returns a dict with
    per-prime maxima, the global max, and its argmax prime."""
    if p_limit > 10_000:
        raise ValueError(f"p_limit {p_limit} too large, the a-scan is quadratic-equivalent work; keep it <= 10000")
    per_prime = []
    global_max = 0.0
    arg_p = None
    for p in sieve_primes(p_limit):
        if not spec.f2.nonzero_mod(p):
            per_prime.append((p, 0.0))
            continue
        ns = np.arange(p, dtype=np.int64)
        f2v = spec.f2(ns, p)
        mask = f2v != 0
        if not mask.any():
            per_prime.append((p, 0.0))
            continue
        f1v = spec.f1(ns, p)
        inv = pow_mod_array(f2v[mask], p - 2, p)
        t = (f1v[mask] * inv) % p
        counts = np.bincount(t, minlength=p)
        # F[a] = conj of the a-th sum, same modulus
        spectrum = np.abs(np.fft.fft(counts))
        m = float(spectrum[1:].max() / math.sqrt(p))
        per_prime.append((p, m))
        if m > global_max:
            global_max = m
            arg_p = p
    return {"per_prime": tuple(per_prime), "global_max": global_max, "argmax_p": arg_p}


def curve_exp_sums(f, p, h, budget=16_000_000):
    """Point-count Weyl sums along the plane curve f(x, y) = 0 over F_p.

    Scans the full (x, y) grid, builds the fibers C_x = {y : f(x, y) = 0},
    and returns (c1, c2, Z) where Z counts nonempty fibers,
    c1 = (1/Z) sum over those x of the fiber-average of e(h y / p), and
    c2 = (1/p) sum over all curve points of e(h y / p)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p * p > budget:
        raise ValueError(f"grid {p}^2 exceeds budget {budget}")
    if not f.nonzero_mod(p):
        raise ValueError(f"curve vanishes identically mod {p}")
    zero = f.eval_grid(p) == 0
    fiber = zero.sum(axis=1)
    Z = int((fiber > 0).sum())
    if Z == 0:
        raise ValueError(f"every fiber C_x is empty mod {p}")
    h = h % p
    phases = np.exp((2j * np.pi / p) * ((h * np.arange(p)) % p))
    col = zero.sum(axis=0)
    c2 = complex((col * phases).sum() / p)
    if h == 0:
        c1 = complex(1.0)
    else:
        inner = (zero * phases[None, :]).sum(axis=1)
        sel = fiber > 0
        c1 = complex((inner[sel] / fiber[sel]).sum() / Z)
    return c1, c2, Z
