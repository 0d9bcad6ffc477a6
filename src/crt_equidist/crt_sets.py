"""Local residue systems, their CRT assembly, counting and hyperplane
statistics, and enumeration of the supported moduli."""

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .modarith import INT64_LIMIT, factor_tuples, mod_inverse, prime_array, require_int64, spf_factor, spf_table

DEFAULT_SUPPORT = 2**62


class LocalSystem:
    """A rule assigning to each prime power p^v a finite set of residue
    tuples mod p^v. Materialized sets are cached; the rule must be
    deterministic. `size_rule`, when given, answers cardinality queries
    without materializing the set. `bulk_rule`, when given, maps an int64
    array of primes to their sets at v = 1 in one call (see `prefill`).
    Local hyperplane maxima and `local_profile` results are cached too,
    under the same lock."""

    def __init__(self, dimension, rule, support_limit=DEFAULT_SUPPORT, name="", size_rule=None, bulk_rule=None):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self.rule = rule
        self.support_limit = support_limit
        self.name = name
        self.size_rule = size_rule
        self.bulk_rule = bulk_rule
        self._cache = {}
        self._hyperplane_max = {}
        self._profile = {}
        self._lock = threading.Lock()

    def __repr__(self):
        return f"LocalSystem(n={self.dimension}, name={self.name!r})"

    def _check_support(self, p, v):
        value = p**v
        if value > self.support_limit:
            raise ValueError(f"prime power {p}^{v} = {value} beyond support limit {self.support_limit}")
        return value

    def _store(self, p, v, value, raw):
        """Check the points a rule gave for p^v (= value), cache them as a
        sorted tuple of coordinate tuples and return the cached tuple."""
        pts = set()
        for item in raw:
            t = (item,) if isinstance(item, int) else tuple(item)
            if len(t) != self.dimension:
                raise ValueError(f"tuple {t} has wrong dimension for n={self.dimension}")
            if any(c < 0 or c >= value for c in t):
                raise ValueError(f"coordinates of {t} not canonical mod {p}^{v}")
            pts.add(t)
        norm = tuple(sorted(pts))
        with self._lock:
            return self._cache.setdefault((p, v), norm)

    def local_set(self, p, v=1):
        """The set for p^v as a sorted tuple of coordinate tuples."""
        got = self._cache.get((p, v))
        if got is not None:
            return got
        value = self._check_support(p, v)
        return self._store(p, v, value, self.rule(p, v))

    def prefill(self, primes):
        """Cache the sets at v = 1 of those primes that are not cached yet,
        from one call of the bulk rule; without one, do nothing."""
        if self.bulk_rule is None:
            return
        todo = [p for p in np.asarray(primes, dtype=np.int64).tolist() if (p, 1) not in self._cache]
        for p in todo:
            self._check_support(p, 1)
        if todo:
            for p, raw in zip(todo, self.bulk_rule(np.array(todo, dtype=np.int64))):
                self._store(p, 1, p, raw)

    def local_size(self, p, v=1):
        if self.size_rule is not None:
            key = (p, v)
            got = self._cache.get(key)
            if got is not None:
                return len(got)
            self._check_support(p, v)
            return self.size_rule(p, v)
        return len(self.local_set(p, v))


@dataclass(frozen=True, eq=False)
class ResidueSet:
    """A_q as an (N, n) int64 array of numerator rows in lexicographic
    order; `factorization` holds the (p, v) pairs of q."""

    q: int
    factorization: tuple
    array: np.ndarray

    @property
    def size(self):
        return len(self.array)

    @cached_property
    def points(self):
        """Read-only tuple view of the rows."""
        return tuple(map(tuple, self.array.tolist()))


@dataclass(frozen=True)
class ModulusSet:
    x: int
    k: object
    members: tuple


@dataclass(frozen=True, eq=False)
class TorusPointSet:
    """The multiset {a/q} on the torus as exact rationals: integer numerator
    rows over a common denominator, uniformly weighted. `array` accepts any
    (N, n) integer sequence and is stored as a read-only int64 array."""

    dimension: int
    denominator: int
    array: np.ndarray
    weight: Fraction

    def __post_init__(self):
        q = self.denominator
        require_int64(q, "denominator q")
        arr = np.array(self.array, dtype=np.int64)
        if arr.size == 0:
            raise ValueError("point set must be nonempty")
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise ValueError(f"numerators of shape {arr.shape} do not have dimension {self.dimension}")
        bad = ((arr < 0) | (arr >= q)).any(axis=1)
        if bad.any():
            raise ValueError(f"numerator {tuple(arr[bad][0].tolist())} not canonical mod {q}")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @cached_property
    def numerators(self):
        """Read-only tuple view of the rows."""
        return tuple(map(tuple, self.array.tolist()))


def local_array(system, p, v=1):
    """The local set at p^v as an (L, n) int64 array, rows sorted."""
    return np.array(system.local_set(p, v), dtype=np.int64).reshape(-1, system.dimension)


def residue_set(system, q, parts=None):
    """Assemble A_q from the local sets at the prime powers dividing q, as
    one int64 array. `parts`, when given, are the (p, v) pairs of q.

    Each CRT step joins x mod m with y mod p^v, solving for the digit
    modulo the smaller of the two moduli, so every product stays below
    m * p^v <= q < 2^63."""
    require_int64(q, "modulus q")
    n = system.dimension
    parts = tuple(factor_tuples(q) if parts is None else parts)
    arr = np.zeros((1, n), dtype=np.int64)
    m = 1
    for p, v in parts:
        local, pv = local_array(system, p, v), p**v
        # every row z of the join has z = x (mod m) and z = y (mod pv); the
        # difference is below the larger modulus, the inverse below the other
        x, y = arr[:, None, :], local[None, :, :]
        if m == 1 or len(local) == 0:
            arr = local
        elif pv <= m:
            arr = (x + m * ((y - x) * mod_inverse(m, pv) % pv)).reshape(-1, n)
        else:
            arr = (y + pv * ((x - y) * mod_inverse(pv, m) % m)).reshape(-1, n)
        if len(arr) == 0:
            break
        m *= pv
    if len(parts) > 1:
        arr = np.sort(arr, axis=0) if n == 1 else arr[np.lexsort(arr.T[::-1])]
    arr.setflags(write=False)
    return ResidueSet(q, parts, arr)


def point_count(system, q):
    """|A_q| as a product of local cardinalities; never materializes A_q."""
    if q == 1:
        return 1
    total = 1
    for p, v in factor_tuples(q):
        total *= system.local_size(p, v)
        if total == 0:
            return 0
    return total


# int64 elements per block of hyperplane values (points x directions)
_HYPERPLANE_BLOCK = 1 << 20


def _primitive_direction_blocks(n, p, w, rows):
    """One representative per direction class of hyperplane normals mod p^w
    (first non-p-divisible coordinate normalized to 1), as int64 arrays of
    at most `rows` rows."""
    pw = p**w
    for i in range(n):
        # coordinates before i are p-divisible, those after i are free
        radices = [p ** (w - 1)] * i + [pw] * (n - 1 - i)
        total = math.prod(radices)
        for start in range(0, total, rows):
            rest = np.arange(start, min(start + rows, total), dtype=np.int64)
            dirs = np.ones((rest.size, n), dtype=np.int64)
            for j in reversed([j for j in range(n) if j != i]):
                rest, digit = np.divmod(rest, radices[j if j < i else j - 1])
                dirs[:, j] = digit * p if j < i else digit
            yield dirs


def _longest_run(values):
    """Largest multiplicity of a value within one column of a 2-D array."""
    rows, cols = values.shape
    ordered = np.sort(values, axis=0)
    # breaks[c, r]: a new run starts at row r of column c; row `rows` closes
    # the column, so consecutive break positions differ by a run length
    breaks = np.ones((cols, rows + 1), dtype=bool)
    breaks[:, 1:rows] = (ordered[1:] != ordered[:-1]).T
    return int(np.diff(np.flatnonzero(breaks)).max())


def _scan_hyperplane_max(system, p, v):
    n = system.dimension
    if n == 1 and v == 1:
        return 1 if system.local_size(p, 1) > 0 else 0
    arr = local_array(system, p, v)
    if len(arr) <= 1:
        # a single point lies on a hyperplane and no hyperplane holds more
        return len(arr)
    if n > 1 and n * (p**v - 1) ** 2 >= INT64_LIMIT:
        raise ValueError(f"hyperplane scan mod {p}^{v} in dimension {n} overflows int64")
    rows = max(1, _HYPERPLANE_BLOCK // len(arr))
    best = 0
    for w in range(1, v + 1):
        pw = p**w
        red = arr % pw
        if n == 1:
            blocks = (red,)
        else:
            blocks = ((red @ dirs.T) % pw for dirs in _primitive_direction_blocks(n, p, w, rows))
        for values in blocks:
            best = max(best, _longest_run(values))
            if best == len(arr):
                return best
    return best


def hyperplane_max_local(system, p, v=1):
    """Largest number of points of the local set lying on one affine
    hyperplane h.x = a with h any nonzero vector mod p^v. A vector
    h = p^(v-w) h' with h' primitive mod p^w cuts the same fibers as
    h'.x mod p^w, so the scan runs over w = 1..v and primitive h'. The
    value is cached on the system, since every modulus divisible by p^v
    asks for it."""
    key = (p, v)
    got = system._hyperplane_max.get(key)
    if got is not None:
        return got
    best = _scan_hyperplane_max(system, p, v)
    with system._lock:
        return system._hyperplane_max.setdefault(key, best)


def hyperplane_max(system, q):
    """Multiplicative extension of the local hyperplane maximum.

    Equals the direct hyperplane maximum mod q when the normal vector is
    restricted to be nonzero mod every maximal prime power dividing q
    (unrestricted normals can exceed the product)."""
    if q == 1:
        return 1
    total = 1
    for p, v in factor_tuples(q):
        total *= hyperplane_max_local(system, p, v)
        if total == 0:
            return 0
    return total


def local_profile(system, x):
    """The supported primes p <= x and their local data, as three read-only
    int64 arrays: `primes`, `rho` = |A_p| and `lam` = lambda(p), the local
    hyperplane maximum (all ones for n = 1, where a hyperplane is a point).
    Cached per x on the system."""
    got = system._profile.get(x)
    if got is not None:
        return got
    all_primes = prime_array(x)
    system.prefill(all_primes)
    primes, rho, lam = [], [], []
    for p in all_primes.tolist():
        r = system.local_size(p, 1)
        if r >= 1:
            primes.append(p)
            rho.append(r)
            lam.append(hyperplane_max_local(system, p, 1) if system.dimension > 1 else 1)
    profile = tuple(np.array(a, dtype=np.int64) for a in (primes, rho, lam))
    for a in profile:
        a.setflags(write=False)
    with system._lock:
        return system._profile.setdefault(x, profile)


def iter_supported(system, x, k=None):
    """Yield (q, parts, rho) for every q <= x with a nonempty A_q, in
    ascending q: `parts` are the (p, v) pairs of q and rho = |A_q|, the
    product of the local sizes. With k set, only q with exactly k distinct
    prime factors; otherwise q = 1 comes first as (1, (), 1)."""
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _iter_supported(system, x, k)


def _iter_supported(system, x, k):
    if x >= 1 and k is None:
        yield 1, (), 1
    if x < 2:
        return
    spf = spf_table(x)
    # the primes are the q with spf[q] = q
    system.prefill(np.flatnonzero(spf[2:] == np.arange(2, x + 1)) + 2)
    for q in range(2, x + 1):
        parts = tuple(spf_factor(q, spf))
        if k is not None and len(parts) != k:
            continue
        rho = 1
        for p, v in parts:
            rho *= system.local_size(p, v)
            if rho == 0:
                break
        if rho:
            yield q, parts, rho


def supported_moduli(system, x, k=None):
    """All q <= x with a nonempty assembled set, ascending; with k set,
    only q with exactly k distinct prime factors. q = 1 belongs to the
    unrestricted set."""
    return ModulusSet(x=x, k=k, members=tuple(q for q, _, _ in iter_supported(system, x, k)))


def fractional_points(rs):
    """The torus points a/q of a nonempty residue set, exact rationals."""
    if rs.size == 0:
        raise ValueError(f"measure undefined: A_{rs.q} is empty")
    return TorusPointSet(rs.array.shape[1], rs.q, rs.array, Fraction(1, rs.size))


def prime_support_stat(system, x):
    """(sum of log p over supported primes p <= x, that sum divided by x)."""
    if x < 2:
        return (0.0, 0.0)
    # math.log per prime: np.log is not guaranteed to round correctly
    total = math.fsum(map(math.log, local_profile(system, x)[0].tolist()))
    return (total, total / x)


def numerators_1d(system, q, parts=None):
    """Sorted int64 numerators of A_q for a 1-dimensional system: a view of
    the `residue_set` array."""
    if system.dimension != 1:
        raise ValueError("numerators_1d requires a 1-dimensional system")
    return residue_set(system, q, parts).array[:, 0]


def load_local_system(path, dimension=None, support_limit=None, name=None):
    """Read a system from the line format `p v a_1,...,a_n` (one tuple per
    line, `#` starts a comment). Prime powers absent from the file have
    empty sets."""
    entries = {}
    dim = dimension
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'p v a_1,...,a_n', got {raw.strip()!r}")
            try:
                p, v = int(fields[0]), int(fields[1])
                coords = tuple(int(c) for c in fields[2].split(","))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed integers in {raw.strip()!r}") from None
            if dim is None:
                dim = len(coords)
            if len(coords) != dim:
                raise ValueError(f"{path}:{lineno}: expected {dim} coordinates, got {len(coords)}")
            pv = p**v
            if any(c < 0 or c >= pv for c in coords):
                raise ValueError(f"{path}:{lineno}: coordinates not canonical mod {p}^{v}")
            entries.setdefault((p, v), set()).add(coords)
    if dim is None:
        raise ValueError(f"{path}: no data lines")
    frozen = {key: tuple(sorted(val)) for key, val in entries.items()}
    limit = support_limit if support_limit is not None else max((p**v for p, v in frozen), default=2)
    return LocalSystem(dim, lambda p, v: frozen.get((p, v), ()), limit, name=name or str(path))


def save_local_system(system, path, prime_powers):
    """Write the listed (p, v) sets in the line format load_local_system reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# local system {system.name or ''}: n = {system.dimension}\n")
        for p, v in sorted(prime_powers, key=lambda t: (t[0] ** t[1], t[0])):
            for t in system.local_set(p, v):
                fh.write(f"{p} {v} {','.join(str(c) for c in t)}\n")
