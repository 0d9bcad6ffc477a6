"""Local residue systems, their CRT assembly, counting and hyperplane
statistics, and enumeration of the supported moduli."""

import bisect
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .modarith import INT64_LIMIT, PrimePower, factor_tuples, prime_array, require_int64, spf_factor, spf_table

DEFAULT_SUPPORT = 2**62


# up to this many parts, a read goes part by part: numpy calls on a few
# elements cost more than the Python steps they would save
_FEW_PARTS = 8


class _SetStore(Mapping):
    """The local sets of one system, read as a mapping from (p, v) to the
    set's read-only (L, n) int64 array. Every set is a run of rows at a
    global row index. The rows lie in segments that are never copied or
    grown: a set that does not fit in the last one starts a new one with
    room for twice the rows stored so far (or twice the set), so there are
    few. Row 0 is the zero row, the unit's set (see `_read_sets`). An
    index sorted by p^v, which names (p, v) since p is prime, holds each
    set's start and size, and v, so that the keys read back as (p, v). A
    batch enters the index at once. A single set enters its segment at
    once, but its index entry waits in `_pending` until the next
    vectorized read (`locate`) merges every waiting entry in one sort, so
    a run of misses costs no merge each. A set's array, a view into its
    segment, is made once, when it is first asked for."""

    def __init__(self, dimension):
        self._segments = [np.zeros((1, dimension), dtype=np.int64)]
        self._bases = [0]  # the global index of each segment's first row
        self._used = 1
        self._keys = self._starts = self._sizes = np.zeros(0, dtype=np.int64)
        self._exps = np.zeros(0, dtype=np.int8)
        self._pending = {}  # (p, v) -> (start, size)
        self._views = {}

    def _append(self, rows):
        start = self._used
        if start + len(rows) > self._bases[-1] + len(self._segments[-1]):
            # the misses after a batch share its segment; pages never
            # written take no memory
            self._segments.append(np.empty((2 * max(len(rows), start), rows.shape[1]), dtype=np.int64))
            self._bases.append(start)
        self._used = start + len(rows)
        self._segments[-1][start - self._bases[-1] : self._used - self._bases[-1]] = rows
        return start

    def slice(self, start, size):
        """The rows start .. start + size - 1, in place."""
        i = bisect.bisect_right(self._bases, start) - 1
        return self._segments[i][start - self._bases[i] : start - self._bases[i] + size]

    def gather(self, starts, sizes):
        """The rows of the sets at (starts, sizes), one set after another,
        and the offset of each set among them. A few sets, or large ones,
        are copied whole, many small ones gathered row by row."""
        offsets = sizes.cumsum() - sizes
        if len(sizes) <= _FEW_PARTS or sizes.sum() > 64 * len(sizes):
            return np.concatenate([self.slice(*at) for at in zip(starts.tolist(), sizes.tolist())]), offsets
        at = np.arange(sizes.sum()) + (starts - offsets).repeat(sizes)
        if not len(at) or at.min() >= self._bases[-1]:
            return self._segments[-1][at - self._bases[-1]], offsets
        seg = np.searchsorted(self._bases, at + 1) - 1
        out = np.empty((len(at), self._segments[0].shape[1]), dtype=np.int64)
        for i in np.flatnonzero(np.bincount(seg, minlength=len(self._bases))).tolist():
            here = seg == i
            out[here] = self._segments[i][at[here] - self._bases[i]]
        return out, offsets

    def _index(self, pvs, exps, starts, sizes):
        """Merge entries into the index; of equal keys the first stays."""
        cols = zip((self._keys, self._exps, self._starts, self._sizes), (pvs, exps, starts, sizes))
        keys, exps, starts, sizes = (np.concatenate((a, b), dtype=a.dtype) for a, b in cols)
        order = keys.argsort(kind="stable")
        order = order[np.diff(keys[order], prepend=-1) != 0]
        self._keys, self._exps, self._starts, self._sizes = keys[order], exps[order], starts[order], sizes[order]

    def add(self, p, v, rows):
        """Store one set and return its (start, size); it joins the index
        at the next `locate`."""
        got = self._pending[(p, v)] = (self._append(rows), len(rows))
        return got

    def add_batch(self, pvs, v, rows, sizes):
        """Store and index a batch: sizes[i] rows for the p^v in pvs[i]."""
        self._index(pvs, np.full(len(pvs), v), self._append(rows) + sizes.cumsum() - sizes, sizes)

    def locate(self, pvs):
        """(starts, sizes) of the sets at an int64 array of p^v; size -1
        where no set is stored."""
        if self._pending:
            self._index(*np.array([(p**v, v, *at) for (p, v), at in self._pending.items()], dtype=np.int64).T)
            self._pending = {}
        if not len(self._keys):
            return np.zeros(len(pvs), dtype=np.int64), np.full(len(pvs), -1, dtype=np.int64)
        i = np.minimum(self._keys.searchsorted(pvs), len(self._keys) - 1)
        found = self._keys[i] == pvs
        return np.where(found, self._starts[i], 0), np.where(found, self._sizes[i], -1)

    def find(self, p, v):
        """(start, size) of the set at p^v, or None."""
        got = self._pending.get((p, v))
        pv = p**v
        if got is None and pv < INT64_LIMIT:
            i = int(self._keys.searchsorted(pv))
            if i < len(self._keys) and self._keys[i] == pv:
                got = int(self._starts[i]), int(self._sizes[i])
        return got

    def __getitem__(self, key):
        got = self._views.get(key)
        if got is None:
            at = self.find(*key)
            if at is None:
                raise KeyError(key)
            got = self.slice(*at)
            got.setflags(write=False)
            self._views[key] = got
        return got

    def __contains__(self, key):
        return key in self._views or self.find(*key) is not None

    def __iter__(self):
        for pv, v in zip(self._keys.tolist(), self._exps.tolist()):
            yield (pv if v == 1 else round(pv ** (1 / v))), v
        yield from self._pending

    def __len__(self):
        return len(self._keys) + len(self._pending)


class LocalSystem:
    """A deterministic rule assigning to each prime power p^v < 2^63 a
    finite set of residue tuples mod p^v: a `range`, a 1-D or (L, n) integer
    array, or an iterable of ints (n = 1) or tuples, duplicates allowed. Each
    set is stored as (L, n) int64 rows, distinct and in lexicographic order,
    in one flat store (`_SetStore`), and `local_set` reads it as a read-only
    array. `size_rule`, when given, answers cardinality queries without
    materializing the set. `bulk_rule`, when given, maps an int64 array of
    primes to their sets at v = 1: a list with one set per prime, or a tuple
    (sizes, rows) of arrays, sizes[i] rows for prime i (see `prefill`).
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
        self._cache = _SetStore(dimension)
        self._hyperplane_max = {}
        self._profile = {}

    def __repr__(self):
        return f"LocalSystem(n={self.dimension}, name={self.name!r})"

    def _check_support(self, p, v):
        if p**v > self.support_limit:
            raise ValueError(f"prime power {p}^{v} = {p**v} beyond support limit {self.support_limit}")

    def _store(self, ps, v, raws):
        """Check the sets the rule gave at p^v for the primes of the int64
        array `ps` in one vectorized pass, each row tagged with the index of
        its prime; return their distinct rows, sorted set by set, and the
        size of each set. `raws` holds one set per prime, or is a tuple
        (sizes, rows) of arrays."""
        n = self.dimension
        values = ps**v
        blocks, segs, loose, loose_seg = [], [], [], []
        if isinstance(raws, tuple):
            sizes, rows = raws
            blocks.append(rows)
            segs.append(np.arange(len(ps)).repeat(sizes))
        else:
            for i, raw in zip(range(len(ps)), raws, strict=True):
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
                    raise ValueError(f"coordinates of {t} not canonical mod {ps[i]}^{v}") from None
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
            raise ValueError(f"coordinates of {tuple(rows[j].tolist())} not canonical mod {ps[seg[j]]}^{v}")
        # a row equal to its predecessor in the same set is a duplicate
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = (seg[1:] != seg[:-1]) | (rows[1:] != rows[:-1]).any(axis=1)
        return rows[keep], np.bincount(seg[keep], minlength=len(ps))

    def _read(self, p, v):
        """(start, size) of the stored set at p^v, storing the rule's set
        first when there is none."""
        got = self._cache.find(p, v)
        return self._load(p, v) if got is None else got

    def _load(self, p, v):
        """Store the rule's set at p^v, which the store lacks; return its
        (start, size)."""
        self._check_support(p, v)
        require_int64(p**v, f"prime power {p}^{v}")
        rows, _ = self._store(np.array([p], dtype=np.int64), v, [self.rule(p, v)])
        return self._cache.add(p, v, rows)

    def _missing_size(self, p, v):
        """The size of the set at p^v, which the store lacks: from
        `size_rule`, or by storing the set."""
        if self.size_rule is None:
            return self._load(p, v)[1]
        self._check_support(p, v)
        return self.size_rule(p, v)

    def _rows(self, p, v=1):
        """The set for p^v as a view into the store, which `local_set`
        does not keep."""
        return self._cache.slice(*self._read(p, v))

    def local_set(self, p, v=1):
        """The set for p^v: a read-only (L, n) int64 array, rows distinct and sorted."""
        try:
            return self._cache[p, v]
        except KeyError:
            self._read(p, v)
            return self._cache[p, v]

    def prefill(self, primes):
        """Store the sets at v = 1 of the primes not stored yet, from one
        call of the bulk rule, as one batch; without a bulk rule, do
        nothing."""
        if self.bulk_rule is None:
            return
        primes = np.asarray(primes, dtype=np.int64)
        todo = primes[self._cache.locate(primes)[1] < 0]
        over = todo > self.support_limit
        if over.any():
            self._check_support(int(todo[over.argmax()]), 1)
        if len(todo):
            rows, sizes = self._store(todo, 1, self.bulk_rule(todo))
            self._cache.add_batch(todo, 1, rows, sizes)

    def local_size(self, p, v=1):
        got = self._cache.find(p, v)
        return self._missing_size(p, v) if got is None else got[1]

    def _sizes(self, ps, vs=1):
        """`local_size` at int64 arrays of p and v, from one read of the
        store; each p^v it lacks is asked for once, in the order the p^v
        first occur, with no second lookup."""
        vs = np.broadcast_to(vs, ps.shape)
        pvs = ps**vs
        sizes = self._cache.locate(pvs)[1]
        miss = np.flatnonzero(sizes < 0)
        if len(miss):
            got, new = {}, []
            for p, v, pv in zip(ps[miss].tolist(), vs[miss].tolist(), pvs[miss].tolist()):
                if pv not in got:
                    got[pv] = self._missing_size(p, v)
                new.append(got[pv])
            if max(new) >= INT64_LIMIT:
                sizes = sizes.astype(object)
            sizes[miss] = new
        return sizes


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


class ModuliColumns(NamedTuple):
    """Moduli as int64 columns: q, the part count of each q, the flat p and
    v of the parts, q by q in ascending p, and rho = |A_q| (None where it
    is not known). q = 1 has no parts. Blocks of supported moduli and the
    chunks cut from them take this form."""

    q: np.ndarray
    count: np.ndarray
    p: np.ndarray
    v: np.ndarray
    rho: np.ndarray = None

    @classmethod
    def of_items(cls, items):
        """The columns of (q, parts, ...) items, every q below 2^63; rho is
        not read."""
        q = np.array([item[0] for item in items], dtype=np.int64)
        count = np.array([len(item[1]) for item in items], dtype=np.int64)
        p, v = np.array([part for item in items for part in item[1]], dtype=np.int64).reshape(-1, 2).T
        return cls(q, count, p, v)

    def cut(self, start, stop):
        """The moduli start .. stop - 1, with their parts."""
        first, last = self.count[:start].sum(), self.count[:stop].sum()
        return ModuliColumns(
            self.q[start:stop], self.count[start:stop], self.p[first:last], self.v[first:last], self.rho[start:stop]
        )

    def items(self):
        """The (q, parts, rho) tuples, `parts` the (p, v) pairs of q."""
        parts = list(zip(self.p.tolist(), self.v.tolist()))
        ends = self.count.cumsum().tolist()
        return [
            (q, tuple(parts[end - c : end]), r)
            for q, c, end, r in zip(self.q.tolist(), self.count.tolist(), ends, self.rho.tolist())
        ]


def _read_sets(system, moduli):
    """The (3, parts) int64 table of the parts of the moduli, flattened,
    where a q without parts has the part 1^0: the size of each part's local
    set, the start of its rows in the store (the part 1^0 reads the zero
    row at 0) and its p^v, taken as 1 for an empty set; and the part count
    of each q, 1 for q = 1. Many parts are looked up in one vectorized
    read, and the sets the store lacks are then read in order, each q's in
    ascending p up to its first empty set; its later parts count as empty,
    so that a refusal names what a per-modulus loop meets first. A few
    parts are read one by one in that order."""
    count, ps, vs = moduli.count, moduli.p, moduli.v
    if not count.all():
        at = (count.cumsum() - count)[count == 0]
        ps, vs, count = np.insert(ps, at, 1), np.insert(vs, at, 0), np.maximum(count, 1)
    if len(ps) <= _FEW_PARTS:
        read, dead = [], None
        owners = [i for i, c in enumerate(count.tolist()) for _ in range(c)]
        for i, p, v in zip(owners, ps.tolist(), vs.tolist()):
            start, size = (0, 1) if p == 1 else (0, 0) if i == dead else system._read(p, v)
            dead = i if size == 0 else dead
            read.append((size, start, p**v if size else 1))
        return np.array(read, dtype=np.int64).reshape(-1, 3).T, count
    pvs = ps**vs
    starts, sizes = system._cache.locate(pvs)
    sizes[pvs == 1] = 1
    miss = np.flatnonzero(sizes < 0)
    if len(miss):
        first = (count.cumsum() - count).repeat(count)
        for i in miss.tolist():
            if (sizes[first[i] : i] == 0).any():
                sizes[i] = 0
            else:
                starts[i], sizes[i] = system._read(int(ps[i]), int(vs[i]))
    return np.array((sizes, starts, np.where(sizes > 0, pvs, 1))), count


def _join_order(owner, pv):
    """The parts grouped by their modulus, `owner` (ascending), and by
    descending p^v within it, by one stable sort: the key is owner * 2^33
    minus p^v clamped to 2^32. Clamping keeps the order, since no two
    prime powers of one q < 2^63 reach 2^32, and the key stays below 2^63
    for fewer than 2^30 moduli."""
    return ((owner << 33) - np.minimum(pv, 1 << 32)).argsort(kind="stable")


def _row_order(seg, rows, count, top):
    """The order of the rows of a 2-D array by segment (below `count`),
    then lexicographically, for entries below `top`: one stable argsort of
    the packed key seg * top^n + sum of x_i * top^(n - 1 - i) over the n
    columns where count * top^n < 2^63, else `np.lexsort`. Rows within a
    segment are distinct, so both give the same order."""
    if count * top ** rows.shape[1] >= INT64_LIMIT:
        return np.lexsort((*rows.T[::-1], seg))
    key = seg.copy()
    for column in rows.T:
        key *= top
        key += column
    return key.argsort(kind="stable")


# a table slot (size, offset, p^v, m, inverse) where a modulus joins no set:
# its rows meet one local row mod 1 with inverse 0, which keeps them
_IDLE = np.array([1, 0, 1, 1, 0])[:, None, None]


def _crt_fold(system, moduli):
    """Assemble A_q for every modulus at once, as one (T, n) int64 array:
    the rows of each A_q in lexicographic order, the sets one after another
    in the order of the moduli. `moduli` is a `ModuliColumns` block, or a
    list of (q, parts, ...) items, which is read as its columns; a q >= 2^63
    among the items is refused after the sets of the items before it are
    read. The local sets are read as `_read_sets` reads them; when every
    modulus has one set, the result is those sets.

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
    2^63. The joined rows are put in order at the end by `_row_order`,
    with the largest q as the base of the packed key."""
    if not isinstance(moduli, ModuliColumns):
        for i, item in enumerate(moduli):
            if item[0] >= INT64_LIMIT:
                _read_sets(system, ModuliColumns.of_items(moduli[:i]))
                require_int64(item[0], "modulus q")
        moduli = ModuliColumns.of_items(moduli)
    fields, counts = _read_sets(system, moduli)
    locs, fields[1] = system._cache.gather(fields[1], fields[0])
    if fields.shape[1] == len(counts):
        return locs
    steps, count = int(counts.max()), len(counts)
    # slot (i, j) of the table holds the j-th set that modulus i joins; the
    # slots in use, row by row, take the parts in the join order
    used = np.arange(steps) < counts[:, None]
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
    return arr[_row_order(seg, arr, count, int(moduli.q.max()))]


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
    arr = system._rows(p, v)
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
    rho = system._sizes(all_primes)
    primes, rho = all_primes[rho > 0], rho[rho > 0]
    lam = [hyperplane_max_local(system, p, 1) if system.dimension > 1 else 1 for p in primes.tolist()]
    profile = (primes, rho, np.array(lam, dtype=np.int64))
    for a in profile:
        a.setflags(write=False)
    return system._profile.setdefault(x, profile)


def supported_blocks(system, x, k=None):
    """The q <= x with a nonempty A_q, in ascending q, as `ModuliColumns`
    blocks with rho = |A_q|, the product of the local sizes; a block for
    each _Q_BLOCK span of q that holds one. With k set, only q with exactly
    k distinct prime factors; otherwise q = 1 comes first, alone."""
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _iter_supported(system, x, k)


def iter_supported(system, x, k=None):
    """Yield (q, parts, rho) for every q <= x with a nonempty A_q, in
    ascending q: `parts` are the (p, v) pairs of q and rho = |A_q|; the
    items of `supported_blocks`."""
    return (item for block in supported_blocks(system, x, k) for item in block.items())


# the q per block of `_iter_supported`, and the span of `spf` that
# `_support_mask` compares per block to find the primes
_Q_BLOCK = 1 << 12
_SPF_BLOCK = 1 << 16


def _iter_supported(system, x, k):
    if x >= 1 and k is None:
        one, none = np.ones(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        yield ModuliColumns(one, np.zeros(1, dtype=np.int64), none, none, one)
    if x < 2:
        return
    spf = spf_table(x)
    supported = _support_mask(system, x, k, spf)
    if supported is None:
        return
    # each block of supported q is factored at once and takes its rho from
    # one read of the sizes
    for a in range(2, x + 1, _Q_BLOCK):
        qs = np.flatnonzero(supported[a : a + _Q_BLOCK]) + a
        if not len(qs):
            continue
        count, p, v = spf_factor(qs, spf)
        if k is not None:
            keep = count == k
            qs, count, p, v = qs[keep], count[keep], p[keep.repeat(count)], v[keep.repeat(count)]
            if not len(qs):
                continue
        sizes = system._sizes(p, v)
        # rho <= q^n, so int64 holds it unless x^n reaches 2^63
        if x**system.dimension >= INT64_LIMIT:
            sizes = sizes.astype(object)
        yield ModuliColumns(qs, count, p, v, np.multiply.reduceat(sizes, count.cumsum() - count))


def _support_mask(system, x, k, spf):
    """The boolean mask of the q <= x that no empty p^v divides exactly,
    after the sets of the primes are stored; None when no q <= x has k
    distinct prime factors. Its arrays of prime powers are freed on
    return, so that the stream holds only `spf` and the mask."""
    # the primes are the q with spf[q] = q, compared block by block in int32
    ends = [*range(2, x + 1, _SPF_BLOCK), x + 1]
    primes = np.concatenate(
        [np.flatnonzero(spf[a:b] == np.arange(a, b, dtype=spf.dtype)) + a for a, b in zip(ends, ends[1:])]
    )
    system.prefill(primes)
    # every p^v <= x, and the smallest q with k distinct prime factors that
    # p^v divides exactly: p^v times the k - 1 smallest other primes (p^v
    # itself without k)
    root = math.isqrt(x)
    small = primes[: np.searchsorted(primes, root, side="right")].tolist()
    higher = [(p, v) for p in small for v in range(2, x.bit_length()) if p**v <= x]
    ps = np.concatenate([primes, np.array([p for p, _ in higher], dtype=np.int64)])
    vs = np.concatenate([np.ones_like(primes), np.array([v for _, v in higher], dtype=np.int64)])
    least = ps**vs
    if k is not None and k > 1:
        head = primes[:k].tolist()
        if len(head) < k or math.prod(head) > x:
            return None
        least *= np.where(np.isin(ps, head[:-1]), math.prod(head) // ps, math.prod(head[:-1]))
    # read the local sets of the p^v with least <= x in that order, as a
    # loop over ascending q would, so that a refusal names the prime power
    # such a loop meets first; clear the q that an empty p^v divides
    # exactly, so that only the supported q are factored
    order = np.lexsort((ps, least))
    order = order[: np.searchsorted(least[order], x, side="right")]
    ps, vs = ps[order], vs[order]
    empty = system._sizes(ps, vs) == 0
    supported = np.ones(x + 1, dtype=bool)
    supported[:2] = False
    low = empty & (ps <= root)
    for p, pv in zip(ps[low].tolist(), (ps**vs)[low].tolist()):
        # clear the multiples of p^v, then restore those of p^(v+1)
        keep = supported[pv * p :: pv * p].copy()
        supported[pv::pv] = False
        supported[pv * p :: pv * p] = keep
    # an empty p > sqrt(x) has v = 1 and no multiple of p^2 up to x, and its
    # multiples m * p have m < sqrt(x): one pass per cofactor m. These p
    # come in ascending order, since least is p times a constant for them
    high = ps[empty & (ps > root)]
    for m in range(1, x // int(high[0]) + 1 if len(high) else 1):
        supported[m * high[: high.searchsorted(x // m, side="right")]] = False
    return supported


def supported_moduli(system, x, k=None):
    """All q <= x with a nonempty assembled set, ascending; with k set,
    only q with exactly k distinct prime factors. q = 1 belongs to the
    unrestricted set."""
    members = tuple(q for block in supported_blocks(system, x, k) for q in block.q.tolist())
    return ModulusSet(x=x, k=k, members=members)


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
    """The sorted int64 numerators of A_q for each modulus of a
    1-dimensional system, a `ModuliColumns` block or a list of (q, parts,
    ...) items, concatenated into one flat array: one CRT fold for all of
    them."""
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
