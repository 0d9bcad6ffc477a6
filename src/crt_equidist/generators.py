"""Concrete local systems: polynomial root sets with Hensel lifting,
Veronese/image/graph constructions, curve-intersection scans,
pseudo-polynomials, and the skewed initial-segment system."""

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .crt_sets import LocalSystem
from .modarith import mod_inverse

_SCAN_LIMIT = 10**4  # root finding switches from full scan to gcd splitting


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; coefficients constant term first."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(int(v) for v in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c if c else (0,))

    @property
    def degree(self):
        if self.coeffs == (0,):
            return -1
        return len(self.coeffs) - 1

    def __call__(self, x, m=None):
        """Horner evaluation at an integer or elementwise at an int64 array,
        reduced mod m after every step when m is given."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
            if m is not None:
                acc %= m
        return acc

    def derivative(self):
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:] or (0,))

    def nonzero_mod(self, p):
        return any(c % p for c in self.coeffs)

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0 and self.degree >= 0:
                continue
            terms.append(f"{c}" if i == 0 else (f"{c}*X^{i}" if i > 1 else f"{c}*X"))
        return " + ".join(terms) or "0"


@dataclass(frozen=True)
class BivariatePoly:
    """Integer polynomial in X and Y; terms are (deg_x, deg_y, coeff)."""

    terms: tuple

    def __post_init__(self):
        merged = {}
        for dx, dy, c in self.terms:
            if dx < 0 or dy < 0:
                raise ValueError(f"negative degree in term ({dx},{dy},{c})")
            merged[(dx, dy)] = merged.get((dx, dy), 0) + int(c)
        norm = tuple(sorted((dx, dy, c) for (dx, dy), c in merged.items() if c != 0))
        object.__setattr__(self, "terms", norm)

    @property
    def deg_x(self):
        return max((dx for dx, _, _ in self.terms), default=-1)

    @property
    def deg_y(self):
        return max((dy for _, dy, _ in self.terms), default=-1)

    def __call__(self, x, y, m=None):
        acc = 0
        for dx, dy, c in self.terms:
            t = c * pow(x, dx, m) * pow(y, dy, m) if m else c * x**dx * y**dy
            acc = (acc + t) % m if m else acc + t
        return acc

    def nonzero_mod(self, p):
        return any(c % p for _, _, c in self.terms)

    def eval_grid(self, m):
        """Values mod m on the full grid, shape (m, m), entry [x, y]."""
        xs = np.arange(m, dtype=np.int64)
        by_dy = {}
        for dx, dy, c in self.terms:
            by_dy.setdefault(dy, {})[dx] = c
        # per y-degree coefficient vectors c_j(x), then Horner in y
        cols = []
        for dy in range(max(by_dy, default=0) + 1):
            cx = by_dy.get(dy, {})
            acc = np.zeros(m, dtype=np.int64)
            for d in range(max(cx, default=0), -1, -1):
                acc = (acc * xs + cx.get(d, 0)) % m
            cols.append(acc)
        ys = np.arange(m, dtype=np.int64)
        grid = np.zeros((m, m), dtype=np.int64)
        for vec in reversed(cols):
            grid = (grid * ys[None, :] + vec[:, None]) % m
        return grid

    @classmethod
    def from_string(cls, text):
        """Parse 'dx,dy,c;dx,dy,c;...'."""
        terms = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(",")
            if len(parts) != 3:
                raise ValueError(f"bad term {chunk!r}, expected 'deg_x,deg_y,coeff'")
            terms.append((int(parts[0]), int(parts[1]), int(parts[2])))
        return cls(tuple(terms))

    def __str__(self):
        out = []
        for dx, dy, c in self.terms:
            piece = str(c)
            if dx:
                piece += f"*X^{dx}" if dx > 1 else "*X"
            if dy:
                piece += f"*Y^{dy}" if dy > 1 else "*Y"
            out.append(piece)
        return " + ".join(out) or "0"


def pow_mod_array(xs, e, m):
    """Elementwise xs**e mod m by square-and-multiply (int64-safe for m <= 3e9)."""
    result = np.ones_like(xs)
    base = xs % m
    while e:
        if e & 1:
            result = (result * base) % m
        base = (base * base) % m
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# univariate roots mod p and mod p^v

def _pnorm(a, p):
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _pdivmod(a, b, p):
    """Polynomial division mod p; b nonzero."""
    a = a[:]
    inv_lead = mod_inverse(b[-1], p) if p > 2 or b[-1] != 1 else b[-1]
    quot = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        factor = (a[-1] * inv_lead) % p
        quot[shift] = factor
        for i, c in enumerate(b):
            a[i + shift] = (a[i + shift] - factor * c) % p
        while a and a[-1] == 0:
            a.pop()
    return quot, a


def _pgcd(a, b, p):
    a, b = _pnorm(a, p), _pnorm(b, p)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = mod_inverse(a[-1], p)
        a = [(c * inv) % p for c in a]
    return a


def _pmulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _pdivmod(out, f, p)[1]


def _ppowmod(base, e, f, p):
    result = [1]
    base = _pdivmod(base, f, p)[1]
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _roots_mod_p_scan(f, p):
    return np.flatnonzero(f(np.arange(p, dtype=np.int64), p) == 0).tolist()


def _roots_mod_p_split(f, p):
    """Roots mod a large prime via gcd with x^p - x, then randomized
    splitting. The RNG is seeded from (p, coeffs) so results are
    reproducible."""
    fp = _pnorm(list(f.coeffs), p)
    if len(fp) == 1:
        return []
    xp = _ppowmod([0, 1], p, fp, p)
    xp_minus_x = xp[:]
    while len(xp_minus_x) < 2:
        xp_minus_x.append(0)
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    g = _pgcd(fp, xp_minus_x, p)
    roots = []
    seed = p
    for c in f.coeffs:
        seed = seed * 1000003 + c % p
    rng = random.Random(seed)
    stack = [g] if len(g) >= 2 else []
    while stack:
        h = stack.pop()
        if len(h) == 2:
            roots.append((-h[0] * mod_inverse(h[1], p)) % p)
            continue
        while True:
            c = rng.randrange(p)
            probe = _ppowmod([c, 1], (p - 1) // 2, h, p)
            probe = probe[:] if probe else [0]
            probe[0] = (probe[0] - 1) % p
            d = _pgcd(h, probe, p)
            if 1 < len(d) < len(h):
                stack.append(d)
                stack.append(_pdivmod(h, d, p)[0])
                break
    return sorted(roots)


def roots_mod_prime(f, p):
    """All a in [0, p) with f(a) = 0 mod p. Error if f vanishes mod p."""
    if not f.nonzero_mod(p):
        raise ValueError(f"polynomial {f} is identically zero mod {p}")
    if p <= _SCAN_LIMIT:
        return _roots_mod_p_scan(f, p)
    return _roots_mod_p_split(f, p)


def poly_roots_mod_prime_power(f, p, v):
    """All a in [0, p^v) with f(a) = 0 mod p^v, via Hensel lifting: unique
    lift at nonsingular roots, all p candidates tried at singular ones."""
    if v < 1:
        raise ValueError(f"exponent must be >= 1, got {v}")
    if v * math.log2(p) >= 63:
        raise ValueError(f"{p}^{v} exceeds the 64-bit working range")
    cur = roots_mod_prime(f, p)
    deriv = f.derivative()
    pw = p
    for _ in range(v - 1):
        nxt = []
        step = pw * p
        for a in cur:
            da = deriv(a, p)
            if da != 0:
                t = ((-(f(a, step) // pw)) * mod_inverse(da, p)) % p
                nxt.append(a + t * pw)
            else:
                for j in range(p):
                    cand = a + j * pw
                    if f(cand, step) == 0:
                        nxt.append(cand)
        pw = step
        cur = sorted(nxt)
    return tuple(cur)


# ---------------------------------------------------------------------------
# systems

def roots_system(f):
    """1-dimensional system of the roots of f at each prime power."""
    return LocalSystem(1, lambda p, v: poly_roots_mod_prime_power(f, p, v), name=f"roots({f})")


def veronese_system(f, d):
    """Points (a, a^2, ..., a^(d-1)) over roots a of f; dimension d-1."""
    if d < 2:
        raise ValueError(f"degree parameter must be >= 2, got {d}")

    def rule(p, v):
        pv = p**v
        return [tuple(pow(a, j, pv) for j in range(1, d)) for a in poly_roots_mod_prime_power(f, p, v)]

    return LocalSystem(d - 1, rule, name=f"veronese({f}, d={d})")


def image_system(f, g):
    """Images g(a) of the roots a of f; duplicates collapse (set semantics)."""

    def rule(p, v):
        pv = p**v
        return sorted({g(a, pv) for a in poly_roots_mod_prime_power(f, p, v)})

    return LocalSystem(1, rule, name=f"image({f}, {g})")


def graph_system(f, g):
    """Pairs (a, g(a)) over roots a of f; dimension 2."""

    def rule(p, v):
        pv = p**v
        return [(a, g(a, pv)) for a in poly_roots_mod_prime_power(f, p, v)]

    return LocalSystem(2, rule, name=f"graph({f}, {g})")


def bezout_system(f1, f2=None, budget=4_000_000):
    """Common zeros of two bivariate polynomials mod p^v (grid scan);
    with f2 omitted, the zero set of the single form f1. Dimension 2."""

    def rule(p, v):
        pv = p**v
        if pv * pv > budget:
            raise ValueError(f"scan budget exceeded: {pv}^2 > {budget}; restrict the support or raise budget")
        if not f1.nonzero_mod(p) or (f2 is not None and not f2.nonzero_mod(p)):
            raise ValueError(f"polynomial identically zero mod {p}")
        mask = f1.eval_grid(pv) == 0
        if f2 is not None:
            mask &= f2.eval_grid(pv) == 0
        return [tuple(idx) for idx in np.argwhere(mask).tolist()]

    label = f"bezout({f1}; {f2})" if f2 is not None else f"bezout({f1})"
    return LocalSystem(2, rule, name=label)


# ---------------------------------------------------------------------------
# pseudo-polynomials

_PSEUDO_NAMES = ("f1", "f2", "f3")


@dataclass(frozen=True)
class PseudoPoly:
    """Integer-valued recurrence family: f1(n+1) = 1 + (n+1) f1(n) with
    f1(0) = 1, f2(n+1) = 1 - (n+1) f2(n) with f2(0) = 1, and f3 = f2 - 1.
    All satisfy (m - n) | (f(m) - f(n)), so reduction mod m is m-periodic."""

    name: str

    def __post_init__(self):
        if self.name not in _PSEUDO_NAMES:
            raise ValueError(f"unknown pseudo-polynomial {self.name!r}; choose from {_PSEUDO_NAMES}")

    @property
    def sign(self):
        return 1 if self.name == "f1" else -1

    @property
    def root_target(self):
        # f3(n) = 0 iff the f2 recurrence value equals 1
        return 1 if self.name == "f3" else 0

    def value(self, n):
        """Exact integer value at n >= 0."""
        val = 1
        for i in range(n):
            val = 1 + self.sign * (i + 1) * val
        return val - 1 if self.name == "f3" else val


def _as_pseudo(which):
    return which if isinstance(which, PseudoPoly) else PseudoPoly(which)


def pseudo_poly_roots(which, m):
    """All n in [0, m) with f(n) = 0 mod m, one O(m) pass carrying the
    recurrence value mod m."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    spec = _as_pseudo(which)
    sign, target = spec.sign, spec.root_target % m
    roots = []
    val = 1 % m
    for n in range(m):
        if val == target:
            roots.append(n)
        val = (1 + sign * (n + 1) * val) % m
    return tuple(roots)


def pseudo_system(which):
    """1-dimensional system of pseudo-polynomial roots at each prime power."""
    spec = _as_pseudo(which)
    return LocalSystem(1, lambda p, v: pseudo_poly_roots(spec, p**v), name=f"pseudo({spec.name})")


# ---------------------------------------------------------------------------
# further systems

_E_SQUARED = math.exp(2)


def segment_length(p):
    """floor(p / log p) for primes above e^2, else 0."""
    if p <= _E_SQUARED:
        return 0
    return int(p / math.log(p))


def initial_segment_system():
    """A_p = {1, ..., floor(p/log p)} for primes p > e^2, empty otherwise
    and empty at all higher prime powers. The aggregate measures of this
    system pile up mass near 0 instead of equidistributing."""

    def rule(p, v):
        if v >= 2:
            return ()
        return range(1, segment_length(p) + 1)

    return LocalSystem(1, rule, name="initial-segment", size_rule=lambda p, v: 0 if v >= 2 else segment_length(p))


def restrict_primes(system, predicate):
    """Same system with the sets at non-matching primes emptied."""

    def rule(p, v):
        if not predicate(p):
            return ()
        return system.local_set(p, v)

    def size_rule(p, v):
        if not predicate(p):
            return 0
        return system.local_size(p, v)

    return LocalSystem(
        system.dimension, rule, system.support_limit, name=f"restricted({system.name})", size_rule=size_rule
    )


def full_system(dimension=1):
    """Every residue tuple at every prime power (the trivial system)."""

    def rule(p, v):
        pv = p**v
        if dimension == 1:
            return range(pv)
        return itertools.product(range(pv), repeat=dimension)

    return LocalSystem(dimension, rule, name="full", size_rule=lambda p, v: (p**v) ** dimension)
