"""Local residue systems, their CRT assembly, counting and hyperplane
statistics, and enumeration of the supported moduli."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .modarith import INT64_LIMIT, PrimePower, factor_tuples, prime_array, require_int64, spf_factor, spf_table

DEFAULT_SUPPORT = 2**62


class LocalSystem:
    """A deterministic rule assigning to each prime power p^v < 2^63 a
    finite set of residue tuples mod p^v: a `range`, a 1-D or (L, n) integer
    array, or an iterable of ints (n = 1) or tuples, duplicates allowed. Each
    set is cached as a read-only (L, n) int64 array of distinct rows in
    lexicographic order. `size_rule`, when given, answers cardinality queries
    without materializing the set. `bulk_rule`, when given, maps an int64
    array of primes to the list of their sets at v = 1 (see `prefill`).
    Local hyperplane maxima and `local_profile` results are cached too."""

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

    def __repr__(self):
        return f"LocalSystem(n={self.dimension}, name={self.name!r})"

    def _check_support(self, p, v):
        if p**v > self.support_limit:
            raise ValueError(f"prime power {p}^{v} = {p**v} beyond support limit {self.support_limit}")

    def _store(self, keys, raws):
        """Check the sets the rule gave for the (p, v) of `keys` in one
        vectorized pass, each row tagged with the index of its key; cache
        them as read-only arrays of distinct sorted rows and return those."""
        n = self.dimension
        for p, v in keys:
            require_int64(p**v, f"prime power {p}^{v}")
        values = np.array([p**v for p, v in keys], dtype=np.int64)
        blocks, segs, loose, loose_seg = [], [], [], []
        for i, raw in zip(range(len(keys)), raws, strict=True):
            if isinstance(raw, range):
                # np.arange needs int64 bounds: a range reaching past [0, p^v) goes on as its two ends
                fits = not raw or 0 <= min(raw) <= max(raw) < values[i]
                raw = np.arange(raw.start, raw.stop, raw.step, dtype=np.int64) if fits else [min(raw), max(raw)]
            if isinstance(raw, np.ndarray) and raw.dtype == np.int64:
                blocks.append(raw)
                segs.append(np.full(len(raw), i))
            else:
                items = raw.tolist() if isinstance(raw, np.ndarray) else list(raw)
                loose += items
                loose_seg += [i] * len(items)
        try:
            blocks.append(np.array(loose, dtype=np.int64))
        except (ValueError, TypeError, OverflowError):
            # mixed ints and tuples, ragged tuples or coordinates past int64
            tuples = [(c,) if isinstance(c, int) else tuple(c) for c in loose]
            for t, i in zip(tuples, loose_seg):
                if len(t) != n:
                    raise ValueError(f"tuple {t} has wrong dimension for n={n}") from None
                if not all(0 <= c < values[i] for c in t):
                    raise ValueError(f"coordinates of {t} not canonical mod {keys[i][0]}^{keys[i][1]}") from None
            blocks.append(np.array(tuples, dtype=np.int64))
        segs.append(np.array(loose_seg, dtype=np.int64))
        blocks = [b[:, None] if b.ndim == 1 else b for b in blocks]
        for b in blocks:
            if len(b) and (b.ndim != 2 or b.shape[1] != n):
                raise ValueError(f"tuple {tuple(b[0].tolist())} has wrong dimension for n={n}")
        rows, seg = np.concatenate([b.reshape(-1, n) for b in blocks]), np.concatenate(segs)
        order = np.lexsort((*rows.T[::-1], seg))
        rows, seg = rows[order], seg[order]
        bad = ((rows < 0) | (rows >= values[seg, None])).any(axis=1)
        if bad.any():
            j = bad.argmax()
            p, v = keys[seg[j]]
            raise ValueError(f"coordinates of {tuple(rows[j].tolist())} not canonical mod {p}^{v}")
        # a row equal to its predecessor in the same set is a duplicate
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = (seg[1:] != seg[:-1]) | (rows[1:] != rows[:-1]).any(axis=1)
        rows, seg = rows[keep], seg[keep]
        rows.setflags(write=False)
        ends = np.bincount(seg, minlength=len(keys)).cumsum().tolist()
        return [self._cache.setdefault(key, rows[a:b]) for key, a, b in zip(keys, [0] + ends, ends)]

    def local_set(self, p, v=1):
        """The set for p^v: a read-only (L, n) int64 array, rows distinct and sorted."""
        got = self._cache.get((p, v))
        if got is not None:
            return got
        self._check_support(p, v)
        return self._store([(p, v)], [self.rule(p, v)])[0]

    def prefill(self, primes):
        """Cache the sets at v = 1 of the primes not cached yet, from one call
        of the bulk rule and one `_store` pass; without a bulk rule, do nothing."""
        if self.bulk_rule is None:
            return
        todo = [p for p in np.asarray(primes, dtype=np.int64).tolist() if (p, 1) not in self._cache]
        for p in todo:
            self._check_support(p, 1)
        if todo:
            self._store([(p, 1) for p in todo], self.bulk_rule(np.array(todo, dtype=np.int64)))

    def local_size(self, p, v=1):
        if self.size_rule is None or (p, v) in self._cache:
            return len(self.local_set(p, v))
        self._check_support(p, v)
        return self.size_rule(p, v)


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


# the one part of an item without parts: A_1 is the zero row mod 1^0 = 1
_UNIT = ((1, 0),)
# a table slot (size, offset, p^v, m, inverse) where a modulus joins no set:
# its rows meet one local row mod 1 with inverse 0, which keeps them
_IDLE = np.array([1, 0, 1, 1, 0])[:, None, None]


def _read_sets(system, moduli):
    """The (p, v) parts of the (q, parts, ...) items, flattened, their local
    sets and the sizes of those; an item without parts has the part _UNIT.
    Unless every set is cached and every q below 2^63, one loop over the
    items refuses a q >= 2^63, then reads its parts in ascending p up to
    its first empty set, which the later parts share, so that a refusal
    names what a per-modulus loop meets first."""
    keys = [key for item in moduli for key in item[1] or _UNIT]
    sets = list(map(system._cache.get, keys))
    try:
        if max((item[0] for item in moduli), default=0) < INT64_LIMIT:
            return keys, sets, list(map(len, sets))
    except TypeError:  # a miss, None
        pass
    zero, sets = np.zeros((1, system.dimension), dtype=np.int64), []
    for item in moduli:
        require_int64(item[0], "modulus q")
        got = zero
        for key in item[1] or _UNIT:
            if len(got) and key != _UNIT[0]:
                got = system.local_set(*key)
            sets.append(got)
    return keys, sets, list(map(len, sets))


def _join_order(owner, pv):
    """The parts grouped by their modulus, `owner` (ascending), and by
    descending p^v within it, by one stable sort: the key is owner * 2^33
    minus p^v clamped to 2^32. Clamping keeps the order, since no two
    prime powers of one q < 2^63 reach 2^32, and the key stays below 2^63
    for fewer than 2^30 moduli."""
    return ((owner << 33) - np.minimum(pv, 1 << 32)).argsort(kind="stable")


def _crt_fold(system, moduli):
    """Assemble A_q for every (q, parts, ...) item at once, as one (T, n)
    int64 array: the rows of each A_q in lexicographic order, the sets one
    after another in the order of the items. The local sets are read as
    `_read_sets` reads them; when every item has one set, the result is
    those sets.

    Otherwise each modulus joins its sets in descending p^v, the order one
    stable sort (`_join_order`) gives for all parts at once; an empty set,
    whose p^v is taken as 1, comes last and leaves no row. The rows start
    as each modulus' first set, and step j joins the next set of every
    modulus that has one; the other moduli join a set mod 1, which keeps
    their rows. Slot (i, j) of one table holds what modulus i joins at
    step j: the set's size and offset, p^v, the modulus m joined before
    (one cumulative product along the steps) and the inverse of m mod p^v
    (one comprehension). A join takes z = x (mod m) and z = y (mod p^v)
    with p^v < m, so the digit is solved modulo p^v: |y - x| < m and the
    inverse is below p^v, so every product stays below m * p^v <= q <
    2^63."""
    keys, sets, sizes = _read_sets(system, moduli)
    counts = [len(item[1]) or 1 for item in moduli]
    steps, count = max(counts, default=1), len(moduli)
    locs = np.concatenate(sets or [np.zeros((0, system.dimension), dtype=np.int64)])
    if steps == 1:
        return locs
    # per part, in the order read: size, offset of its rows and p^v, which
    # is taken as 1 for an empty set (a part never read may be past int64)
    fields = np.array(
        (sizes, list(itertools.accumulate(sizes, initial=0))[:-1], [p**v if n else 1 for (p, v), n in zip(keys, sizes)])
    )
    # slot (i, j) of the table holds the j-th set that modulus i joins; the
    # slots in use, row by row, take the parts in the join order
    used = np.arange(steps) < np.array(counts)[:, None]
    table = np.empty((5, count, steps), dtype=np.int64)
    table[:] = _IDLE
    table[:3, used] = fields[:, _join_order(used.nonzero()[0], fields[2])]
    np.multiply.accumulate(table[2, :, :-1], axis=1, out=table[3, :, 1:])
    # the first set of a modulus is joined to nothing, so needs no inverse
    later, m, pv = used[:, 1:], table[3, :, 1:], table[2, :, 1:]
    table[4, :, 1:][later] = [pow(a, -1, b) for a, b in zip(m[later].tolist(), pv[later].tolist())]
    rep, off = table[:2, :, 0]
    seg = np.arange(count).repeat(rep)
    arr = locs[np.arange(len(seg)) + (off - rep.cumsum() + rep).repeat(rep)]
    for step in range(1, steps):
        # row r of a modulus meets every local row of that modulus; k counts
        # the copies of each old row
        rep = table[0, seg, step]
        ends = rep.cumsum()
        seg = seg.repeat(rep)
        k = np.arange(len(seg)) - (ends - rep).repeat(rep)
        off, pv, mod, inv = table[1:, seg, step, None]
        x = arr.repeat(rep, axis=0)
        arr = x + mod * ((locs[off[:, 0] + k] - x) * inv % pv)
    return arr[np.lexsort((*arr.T[::-1], seg))]


def residue_set(system, q, parts=None):
    """Assemble A_q from the local sets at the prime powers dividing q, as
    one int64 array. `parts`, when given, are the (p, v) pairs of q."""
    require_int64(q, "modulus q")
    parts = tuple(factor_tuples(q) if parts is None else parts)
    arr = _crt_fold(system, [(q, parts)])
    arr.setflags(write=False)
    return ResidueSet(q, parts, arr)


def _local_product(q, local):
    """The product of local(p, v) over the prime powers p^v || q, stopping
    at the first 0; 1 for q = 1."""
    total = 1
    for p, v in factor_tuples(q):
        total *= local(p, v)
        if total == 0:
            return 0
    return total


def point_count(system, q):
    """|A_q| as a product of local cardinalities; never materializes A_q."""
    return _local_product(q, system.local_size)


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
    arr = system.local_set(p, v)
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
    return system._hyperplane_max.setdefault(key, best)


def hyperplane_max(system, q):
    """Multiplicative extension of the local hyperplane maximum.

    Equals the direct hyperplane maximum mod q when the normal vector is
    restricted to be nonzero mod every maximal prime power dividing q
    (unrestricted normals can exceed the product)."""
    return _local_product(q, lambda p, v: hyperplane_max_local(system, p, v))


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
    rho = np.array([system.local_size(p, 1) for p in all_primes.tolist()], dtype=np.int64)
    primes, rho = all_primes[rho > 0], rho[rho > 0]
    lam = [hyperplane_max_local(system, p, 1) if system.dimension > 1 else 1 for p in primes.tolist()]
    profile = (primes, rho, np.array(lam, dtype=np.int64))
    for a in profile:
        a.setflags(write=False)
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
    primes = np.flatnonzero(spf[2:] == np.arange(2, x + 1)) + 2
    system.prefill(primes)
    # every p^v <= x, and the smallest q with k distinct prime factors that
    # p^v divides exactly: p^v times the k - 1 smallest other primes (p^v
    # itself without k)
    small = primes[: np.searchsorted(primes, math.isqrt(x), side="right")].tolist()
    higher = [(p, v) for p in small for v in range(2, x.bit_length()) if p**v <= x]
    ps = np.concatenate([primes, np.array([p for p, _ in higher], dtype=np.int64)])
    vs = np.concatenate([np.ones_like(primes), np.array([v for _, v in higher], dtype=np.int64)])
    pvs = least = ps**vs
    if k is not None and k > 1:
        head = primes[:k].tolist()
        if len(head) < k or math.prod(head) > x:
            return
        least = pvs * np.where(np.isin(ps, head[:-1]), math.prod(head) // ps, math.prod(head[:-1]))
    # read the local sets in that order, as a loop over ascending q would, so
    # that a refusal names the prime power such a loop meets first; clear the
    # q that an empty p^v divides exactly, so that only the supported q are
    # factored
    supported = np.ones(x + 1, dtype=bool)
    supported[:2] = False
    order = np.lexsort((ps, least))
    for p, v, pv, q in zip(*(a[order].tolist() for a in (ps, vs, pvs, least))):
        if q > x:
            break
        if system.local_size(p, v) == 0:
            # clear the multiples of p^v, then restore those of p^(v+1)
            keep = supported[pv * p :: pv * p].copy()
            supported[pv::pv] = False
            supported[pv * p :: pv * p] = keep
    for q in np.flatnonzero(supported).tolist():
        parts = tuple(spf_factor(q, spf))
        if k is None or len(parts) == k:
            yield q, parts, math.prod(system.local_size(p, v) for p, v in parts)


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


def numerators_1d(system, moduli):
    """The sorted int64 numerators of A_q for each (q, parts, rho) item of a
    1-dimensional system, concatenated into one flat array, where A_q
    takes rho entries: one CRT fold for all of them."""
    if system.dimension != 1:
        raise ValueError("numerators_1d requires a 1-dimensional system")
    return _crt_fold(system, moduli)[:, 0]


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
            dim = len(coords) if dim is None else dim
            if len(coords) != dim:
                raise ValueError(f"{path}:{lineno}: expected {dim} coordinates, got {len(coords)}")
            if (p, v) not in entries:
                try:
                    PrimePower(p, v)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            if any(c < 0 or c >= p**v for c in coords):
                raise ValueError(f"{path}:{lineno}: coordinates not canonical mod {p}^{v}")
            entries.setdefault((p, v), set()).add(coords)
    if dim is None:
        raise ValueError(f"{path}: no data lines")
    limit = support_limit if support_limit is not None else max((p**v for p, v in entries), default=2)
    return LocalSystem(dim, lambda p, v: entries.get((p, v), ()), limit, name=name or str(path))


def save_local_system(system, path, prime_powers):
    """Write the listed (p, v) sets in the line format load_local_system reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# local system {system.name or ''}: n = {system.dimension}\n")
        for p, v in sorted(prime_powers, key=lambda t: (t[0] ** t[1], t[0])):
            for t in system.local_set(p, v).tolist():
                fh.write(f"{p} {v} {','.join(map(str, t))}\n")
