"""Concrete local systems: polynomial root sets with Hensel lifting,
Veronese/image/graph constructions, curve-intersection scans,
pseudo-polynomials, and the skewed initial-segment system."""

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .crt_sets import LocalSystem, _row_order
from .modarith import INT64_LIMIT, mod_inverse, require_int64

# primes per block of the batched root finder, bounding its working memory
_ROOT_BLOCK = 4096
# splitting constants tried per factor in each round of the batched split
_SPLIT_TRIES = 3


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
        """Horner evaluation at an integer or elementwise at an int64 array.
        When m is given, every coefficient and every step is reduced mod m,
        so coefficients past int64 reach no array."""
        acc = 0
        for c in reversed(self.coeffs):
            if m is None:
                acc = acc * x + c
            else:
                acc = (acc * x + c % m) % m
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
        rows = [[0] * (self.deg_x + 1) for _ in range(self.deg_y + 1)]
        for dx, dy, c in self.terms:
            rows[dy][dx] = c
        # Horner in y over the coefficient polynomials c_j(x)
        r = np.arange(m, dtype=np.int64)
        grid = np.zeros((m, m), dtype=np.int64)
        for cx in reversed(rows):
            grid = (grid * r[None, :] + IntPolynomial(cx)(r, m)[:, None]) % m
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
    """Elementwise xs**e mod m by square-and-multiply. The exponent e >= 0
    and the modulus m are scalars or arrays broadcasting against xs. Integer
    moduli run in int64, where every product stays below (max m - 1)^2,
    which must be under 2^63; an object (Python-int) array of moduli runs
    in Python ints, with no bound, and the result is an object array."""
    m = np.asarray(m)
    if m.dtype != object:
        require_int64((int(m.max(initial=1)) - 1) ** 2, "squared modulus (m - 1)^2")
        m = m.astype(np.int64)
    e = np.array(e, dtype=np.int64)
    result = np.ones(np.broadcast_shapes(np.shape(xs), e.shape, m.shape), dtype=m.dtype)
    base = xs % m
    while e.any():
        result = np.where(e & 1, result * base % m, result)
        base = base * base % m
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# univariate roots mod p and mod p^v

# Batched root finding. An array of shape (width, R) holds R polynomials,
# one per column, coefficient i in row i, each mod its own prime of the 1-D
# array `p`; laid out this way every numpy loop runs along the R columns.
# The entries are int64, or Python ints (dtype=object) where int64 products
# could overflow, and every helper keeps the dtype.

def _degrees(a):
    """Degree of each column, -1 for a zero column."""
    nz = a != 0
    return np.where(nz.any(axis=0), a.shape[0] - 1 - np.argmax(nz[::-1], axis=0), -1)


def _reduce_rows(a, g, p):
    """The columns of a mod (g, p), for monic columns g of one degree k with
    entries in [0, p); overwrites a and returns its low k rows, in [0, p).
    The entries of a need not be reduced: each top row is reduced just
    before it multiplies g, the rows below take the product unreduced, and
    the k rows left are reduced once at the end. A row below the top one
    receives at most k - 1 such subtractions, each at most (p - 1)^2, and
    numpy's % is a floor mod, so negative entries reduce into [0, p)."""
    k = g.shape[0] - 1
    for t in range(a.shape[0] - 1, k - 1, -1):
        a[t - k : t] -= a[t] % p * g[:k]
    return a[:k] % p


def _mulmod_rows(a, b, g, p):
    """a * b mod (g, p) for residue columns of height k, in [0, p). A row of
    the product sums at most k terms of at most (p - 1)^2 and is not reduced
    before `_reduce_rows`, whose k - 1 subtractions keep every entry in
    [-(k - 1)(p - 1)^2, k (p - 1)^2]: within d (p - 1)^2 < 2^63 for k <= d."""
    k = a.shape[0]
    prod = np.zeros((2 * k - 1, a.shape[1]), dtype=a.dtype)
    for i in range(k):
        prod[i : i + k] += a[i] * b
    return _reduce_rows(prod, g, p)


def _times_linear(a, c, g, p):
    """(X + c) * a mod (g, p) for residue columns a of height k >= 2, in
    [0, p). The top coefficient of (X + c) a is a's top row, already
    reduced, so it multiplies g at once, and each of the k rows left is
    reduced once: before that it lies within (p - 1)^2 + p - 1 <= 2 (p - 1)^2
    of 0, inside the int64 rule of `_mulmod_rows`."""
    step = c * a - a[-1] * g[:-1]
    step[1:] += a[:-1]
    return step % p


def _pow_linear_rows(c, e, g, p):
    """(X + c)^e mod (g, p), left-to-right over the bits of each column's
    exponent e; leading zero bits only square the 1 the result starts at."""
    acc = np.zeros((g.shape[0] - 1, g.shape[1]), dtype=g.dtype)
    acc[0] = 1
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        acc = _mulmod_rows(acc, acc, g, p)
        acc = np.where(e >> bit & 1 == 1, _times_linear(acc, c, g, p), acc)
    return acc


def _gcd_rows(a, b, p):
    """A gcd of the column pairs (a, b), not made monic, and its degree, by
    a masked Euclid: while b is nonzero, a <- lead(b) a - lead(a) X^s b
    with s = deg a - deg b drops deg a, and the pair swaps when
    deg a < deg b."""
    idx, rows = np.arange(a.shape[1]), np.arange(a.shape[0])[:, None]
    da, db = _degrees(a), _degrees(b)
    while True:
        swap = da < db
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        da, db = np.maximum(da, db), np.minimum(da, db)
        live = db >= 0
        if not live.any():
            break
        src = rows - np.where(live, da - db, 0)
        shifted = np.where(src >= 0, np.take_along_axis(b, np.maximum(src, 0), axis=0), 0)
        lead_a = np.where(live, a[da, idx], 0)
        lead_b = np.where(live, b[db, idx], 1)
        a = (lead_b * a - lead_a * shifted) % p
        da = _degrees(a)
    return a, da


def _monic(a, deg, p):
    """The columns of a, of degrees deg >= 0, divided by their leading
    coefficients; a Fermat inverse is taken only where a column of degree
    >= 1 does not lead with 1 already."""
    lead = a[deg, np.arange(a.shape[1])]
    todo = (lead != 1) & (deg > 0)
    inv = np.ones_like(lead)
    inv[todo] = pow_mod_array(lead[todo], p[todo] - 2, p[todo])
    return a * inv % p


def _int_mod(c, primes):
    """A Python integer mod each prime of an array, in the array's dtype."""
    if primes.dtype == np.int64 and -INT64_LIMIT < c < INT64_LIMIT:
        return np.int64(c) % primes
    return np.array([c % p for p in primes.tolist()], dtype=primes.dtype)


def _file_factors(cols, u, deg, p, hits, pending):
    """Sort monic factors by degree: a linear one gives its root, one of
    degree m >= 2 waits in pending[m] for splitting, constants drop out."""
    lin = deg == 1
    hits.append((cols[lin], -u[0, lin] % p[cols[lin]]))
    for m in range(2, int(deg.max(initial=0)) + 1):
        sel = deg == m
        if sel.any():
            pending.setdefault(m, []).append((cols[sel], u[: m + 1, sel]))


def _unit(a):
    """The constant polynomial 1 as a column broadcasting against a."""
    return (np.arange(a.shape[0]) == 0)[:, None]


def _random_residues(rng, p):
    """One random constant in [0, p) per entry of p: 63 random bits mod p."""
    return (np.frombuffer(rng.randbytes(8 * len(p)), dtype=np.uint64) >> np.uint64(1)).astype(np.int64) % p


def _file_halves(cols, u, du, h, c, p, hits, pending):
    """File the factors of squarefree columns u of degree du that
    h = (X + c)^((p - 1)/2) mod a multiple of u separates: gcd(u, h - 1)
    holds the roots a with a + c a nonzero square, gcd(u, h + 1) those
    with a + c a non-square, and the root -c, where u has it, lies in
    neither. The two gcds are made monic side by side."""
    n, pr, one = len(cols), p[cols], _unit(h)
    d1, deg1 = _gcd_rows(u, (h - one) % pr, pr)
    d2, deg2 = _gcd_rows(u, (h + one) % pr, pr)
    deg = np.concatenate((deg1, deg2))
    d = _monic(np.hstack((d1, d2)), deg, np.concatenate((pr, pr)))
    missed = deg[:n] + deg[n:] < du
    hits.append((cols[missed], -c[missed] % pr[missed]))
    _file_factors(np.concatenate((cols, cols)), d, deg, p, hits, pending)


def _split_round(cols, u, p, rng, hits, pending):
    """One equal-degree splitting round for monic u of degree m >= 2 with m
    distinct roots, split by `_file_halves`. Of _SPLIT_TRIES constants c
    per column the first that puts some but not all roots in
    gcd(u, h - 1) is kept; such a c exists for every pair of distinct
    roots, and a column none of its constants splits comes back whole."""
    m, n = u.shape[0] - 1, u.shape[1]
    uu = np.repeat(u, _SPLIT_TRIES, axis=1)
    pp = np.repeat(p[cols], _SPLIT_TRIES)
    c = _random_residues(rng, pp)
    h = np.zeros_like(uu)
    h[:m] = _pow_linear_rows(c, (pp - 1) // 2, uu, pp)
    deg1 = _gcd_rows(uu, (h - _unit(h)) % pp, pp)[1]
    good = (deg1 > 0) & (deg1 < m)
    pick = np.arange(n) * _SPLIT_TRIES + np.argmax(good.reshape(n, _SPLIT_TRIES), axis=1)
    _file_halves(cols, u, m, h[:, pick], c[pick], p, hits, pending)


def _block_roots(coeffs, p, rng):
    """Sorted roots for one block: column j of coeffs is f mod p[j]."""
    hits = []  # (cols, roots) array pairs
    two = p == 2
    # p = 2 by evaluation: f(0) is the constant term, f(1) the coefficient sum
    for a, value in ((0, coeffs[0]), (1, coeffs.sum(axis=0))):
        cols = np.flatnonzero(two & (value % 2 == 0))
        hits.append((cols, np.full(len(cols), a, dtype=np.int64)))
    deg = _degrees(coeffs)
    pending = {}
    for k in range(1, coeffs.shape[0]):
        cols = np.flatnonzero((deg == k) & ~two)
        if len(cols) == 0:
            continue
        pr = p[cols]
        g = _monic(coeffs[: k + 1, cols], np.full(len(cols), k), pr)
        if k == 1:
            _file_factors(cols, g, np.ones(len(cols), dtype=np.int64), p, hits, pending)
            continue
        # one power h = (X + c)^((p - 1)/2) mod g serves twice: since
        # (X + c)^p = X^p + c, (X + c) h^2 - X - c = X^p - X mod g, so
        # u = gcd(g, X^p - X) holds the distinct roots of g, and h splits u
        c = _random_residues(rng, pr)
        h, w = np.zeros_like(g), np.zeros_like(g)
        h[:k] = _pow_linear_rows(c, (pr - 1) // 2, g, pr)
        w[:k] = _times_linear(_mulmod_rows(h[:k], h[:k], g, pr), c, g, pr)
        w[0] -= c
        w[1] -= 1
        u, du = _gcd_rows(g, w % pr, pr)
        _file_halves(cols, u, du, h, c, p, hits, pending)
    while pending:
        _, parts = pending.popitem()
        _split_round(
            np.concatenate([c for c, _ in parts]), np.concatenate([u for _, u in parts], axis=1), p, rng, hits, pending
        )
    cols = np.concatenate([c for c, _ in hits])
    # every root is below its prime, so int64 holds it on either kind of
    # column, and the roots sort by the key cols * max(p) + root
    roots = np.concatenate([v for _, v in hits]).astype(np.int64)
    return np.bincount(cols, minlength=len(p)), roots[_row_order(cols, roots[:, None], len(p), int(p.max()))]


def prime_root_arrays(f, primes):
    """The roots of f mod each prime p < 2^63 of an int64 array, in the
    order of `primes`, as two int64 arrays: the number of roots mod each
    prime, and every root, ascending prime by prime. Cantor-Zassenhaus over
    all primes at once. Columns are grouped by the degree of f mod p and
    made monic. One power h = (X + c)^((p - 1)/2) per column, for a random
    c, gives both gcd(f, X^p - X), which keeps the distinct roots, and a
    first equal-degree split of it; further rounds split what that leaves
    whole. p = 2 is answered by evaluation. A prime with
    d (p - 1)^2 < 2^63 runs on int64 entries, a wider one on Python ints,
    so every prime is served exactly: the primes are cut, in input order,
    into runs of one kind, and each run into blocks of _ROOT_BLOCK. This is
    the package's only root finder mod p. Refuses a prime modulo which f
    vanishes (the smallest one), and a prime past the int64 range."""
    require_int64(max(primes, default=0), "prime p")
    primes = np.asarray(primes, dtype=np.int64)
    if primes.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    # f vanishes mod p iff p divides the gcd of its coefficients
    vanish = _int_mod(math.gcd(*f.coeffs), primes) == 0
    if vanish.any():
        raise ValueError(f"polynomial {f} is identically zero mod {int(primes[vanish].min())}")
    # an unreduced product entry lies within d (p - 1)^2 of 0 (`_mulmod_rows`)
    wide = primes - 1 > math.isqrt((INT64_LIMIT - 1) // max(f.degree, 1))
    cuts = [0, *(np.flatnonzero(np.diff(wide)) + 1).tolist(), len(primes)]
    # the splitting constants only steer the search: the sorted roots do not
    # depend on them
    rng = random.Random(0)
    out = []
    for lo, hi in itertools.pairwise(cuts):
        for start in range(lo, hi, _ROOT_BLOCK):
            block = primes[start : min(start + _ROOT_BLOCK, hi)]
            if wide[lo]:
                block = block.astype(object)
            out.append(_block_roots(np.stack([_int_mod(c, block) for c in f.coeffs]), block, rng))
    return tuple(np.concatenate(column) for column in zip(*out))


def roots_mod_primes(f, primes):
    """The roots of f mod each prime of `primes`, as sorted tuples in the
    order of `primes`: the tuple form of `prime_root_arrays`."""
    sizes, roots = prime_root_arrays(f, primes)
    flat = iter(roots.tolist())
    return [tuple(itertools.islice(flat, n)) for n in sizes.tolist()]


def poly_roots_mod_prime_power(f, p, v, roots=None):
    """All a in [0, p^v) with f(a) = 0 mod p^v, by Hensel lifting from the
    roots mod p: `roots` when the caller has them, else one
    `roots_mod_primes` call. A nonsingular root lifts uniquely. At a
    singular root a mod p^w (p | f'(a)), f(a + j p^w) = f(a) mod p^(w+1)
    for every j, so one evaluation decides whether all p lifts are roots
    or none is."""
    if v < 1:
        raise ValueError(f"exponent must be >= 1, got {v}")
    if p**v >= INT64_LIMIT:
        raise ValueError(f"{p}^{v} exceeds the 64-bit working range")
    cur = roots_mod_primes(f, [p])[0] if roots is None else roots
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
            elif f(a, step) == 0:
                nxt.extend(range(a, step, pw))
        pw = step
        cur = sorted(nxt)
    return tuple(cur)


# ---------------------------------------------------------------------------
# systems

def roots_system(f):
    """1-dimensional system of the roots of f at each prime power. The set
    at p^v (v >= 2) is lifted from the system's own cached set at p."""

    def rule(p, v):
        # through `local_set`, which the benchmark's span test expects a 1-D
        # sweep to reach
        base = None if v == 1 else system.local_set(p)[:, 0].tolist()
        return poly_roots_mod_prime_power(f, p, v, base)

    system = LocalSystem(1, rule, name=f"roots({f})", bulk_rule=lambda primes: prime_root_arrays(f, primes))
    return system


def _root_map_system(dimension, f, point, name):
    """System of point(a, p^v) over the roots a of f mod p^v, read from one
    `roots_system(f)`; the bulk rule prefills that system first."""
    roots = roots_system(f)

    def rule(p, v):
        return [point(a, p**v) for a in roots._rows(p, v)[:, 0].tolist()]

    def bulk_rule(primes):
        roots.prefill(primes)
        return [rule(p, 1) for p in primes.tolist()]

    return LocalSystem(dimension, rule, name=name, bulk_rule=bulk_rule)


def veronese_system(f, d):
    """Points (a, a^2, ..., a^(d-1)) over roots a of f; dimension d-1."""
    if d < 2:
        raise ValueError(f"degree parameter must be >= 2, got {d}")
    return _root_map_system(
        d - 1, f, lambda a, m: tuple(pow(a, j, m) for j in range(1, d)), f"veronese({f}, d={d})"
    )


def image_system(f, g):
    """Images g(a) of the roots a of f; duplicates collapse (set semantics)."""
    return _root_map_system(1, f, g, f"image({f}, {g})")


def graph_system(f, g):
    """Pairs (a, g(a)) over roots a of f; dimension 2."""
    return _root_map_system(2, f, lambda a, m: (a, g(a, m)), f"graph({f}, {g})")


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
        return np.argwhere(mask)

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
        return range(1, segment_length(p) + 1) if v == 1 else ()

    return LocalSystem(1, rule, name="initial-segment", size_rule=lambda p, v: 0 if v >= 2 else segment_length(p))


def restrict_primes(system, predicate):
    """Same system with the sets at non-matching primes emptied."""

    def rule(p, v):
        return system.local_set(p, v) if predicate(p) else ()

    def size_rule(p, v):
        return system.local_size(p, v) if predicate(p) else 0

    return LocalSystem(
        system.dimension, rule, system.support_limit, name=f"restricted({system.name})", size_rule=size_rule
    )


def full_system(dimension=1):
    """Every residue tuple at every prime power (the trivial system)."""

    def rule(p, v):
        return np.indices((p**v,) * dimension).reshape(dimension, -1).T

    return LocalSystem(dimension, rule, name="full", size_rule=lambda p, v: (p**v) ** dimension)
