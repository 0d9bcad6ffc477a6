"""Equidistribution measurements: Weyl sums and spectra, the frequency
modulus bracket, exact interval/box discrepancy, Erdos-Turan bounds,
second-moment checks, reciprocal prime sums, theorem right-hand sides,
and aggregation over supported moduli."""

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from types import MappingProxyType

import numpy as np

from .crt_sets import (
    ModuliColumns, ResidueSet, TorusPointSet, fractional_points, hyperplane_max, local_profile, numerators_1d,
    point_count, residue_set, supported_blocks
)
from .modarith import INT64_LIMIT, factor_tuples, require_int64


@dataclass(eq=False)
class WeylSpectrum:
    """Normalized exponential sums W(h) for all nonzero integer frequency
    vectors with max-norm at most H: `freqs` is the (F, n) int64 array of
    frequencies in lexicographic order, `values` the matching complex sums."""

    q: int
    H: int
    freqs: np.ndarray
    values: np.ndarray

    @property
    def dimension(self):
        return self.freqs.shape[1]

    @cached_property
    def entries(self):
        """Read-only dict view {frequency tuple: W(h)}."""
        return MappingProxyType(dict(zip(map(tuple, self.freqs.tolist()), self.values.tolist())))

    def to_json(self):
        return {
            "q": self.q,
            "H": self.H,
            "method": "weyl_spectrum",
            "value": [[h, w.real, w.imag] for h, w in zip(self.freqs.tolist(), self.values.tolist())],
            "witness": None,
            "seed": None,
        }


@dataclass
class DiscrepancyResult:
    method: str
    value: float = None
    bounds: tuple = None
    witness: dict = None
    q: int = None
    H: int = None
    seed: int = None
    fraction: Fraction = field(default=None, repr=False, compare=False)
    spectrum: WeylSpectrum = field(default=None, repr=False, compare=False)

    def to_json(self):
        out = {"q": self.q, "H": self.H, "method": self.method}
        if self.value is not None:
            out["value"] = self.value
        if self.bounds is not None:
            out["bounds"] = list(self.bounds)
        out["witness"] = self.witness
        out["seed"] = self.seed
        return out


def _points_of(source):
    if isinstance(source, ResidueSet):
        if source.size == 0:
            raise ValueError(f"A_{source.q} is empty")
        return source.q, source.array
    if isinstance(source, TorusPointSet):
        return source.denominator, source.array
    raise TypeError(f"expected ResidueSet or TorusPointSet, got {type(source).__name__}")


def _as_hvec(h, n, q):
    """The frequency as an int64 vector of least-absolute residues mod q,
    refused when a dot product with numerators in [0, q) could reach 2^63."""
    if isinstance(h, int):
        if n != 1:
            raise ValueError(f"scalar frequency given for dimension {n}")
        h = (h,)
    t = tuple(int(c) for c in h)
    if len(t) != n:
        raise ValueError(f"frequency {t} has wrong dimension for n={n}")
    r = [(c + q // 2) % q - q // 2 for c in t]
    require_int64(sum(map(abs, r)) * (q - 1), "sum|h_i|*(q-1)")
    return np.array(r, dtype=np.int64)


def weyl_sum(source, h):
    """(1/|A|) sum of e(h.x / q) over the set; the frequency-phase dot
    product is reduced mod q in exact integers first."""
    q, pts = _points_of(source)
    dots = (pts @ _as_hvec(h, pts.shape[1], q)) % q
    return complex(np.exp((2j * np.pi / q) * dots).mean())


@lru_cache(maxsize=4)
def _freq_box(n, H):
    """(box, weights) for dimension n and cutoff H, built once and shared:
    box holds the nonzero integer vectors with max-norm <= H as an (F, n)
    int64 array, lexicographic (the `itertools.product` order: the full grid
    of (2H+1)^n vectors, first axis major, without its centre row, the zero
    vector), and weights the matching Erdos-Turan weights
    M(h) = prod max(|h_i|, 1). Both arrays are read-only. Column i of the
    grid is -H..H with each value repeated (2H+1)^(n-1-i) times, tiled
    (2H+1)^i times; the weights are the outer product of the per-axis
    max(|h|, 1). So no (F, n) array is formed besides the box."""
    side = np.arange(-H, H + 1, dtype=np.int64)
    centre = ((2 * H + 1) ** n - 1) // 2
    box = np.empty((2 * centre, n), dtype=np.int64)
    for i in range(n):
        column = np.tile(side.repeat(len(side) ** (n - 1 - i)), len(side) ** i)
        box[:centre, i], box[centre:, i] = column[:centre], column[centre + 1 :]
    del column  # freed before the weights' grid is built
    weights = np.delete(reduce(np.multiply.outer, [np.maximum(np.abs(side), 1)] * n).ravel(), centre)
    box.flags.writeable = weights.flags.writeable = False
    return box, weights


# int64 elements (points x frequencies) per column block of `weyl_spectrum`
_WEYL_BLOCK = 1 << 18


def _add_mod(a, b, q):
    """(a + b) mod q for broadcastable int64 arrays a, b in [0, q): the sum
    stays below 2q - 1, so one conditional subtraction reduces it."""
    s = a + b
    np.subtract(s, q, out=s, where=s >= q)
    return s


def weyl_spectrum(source, H):
    """W(h) for every nonzero h with max-norm <= H; `freqs` is the shared
    read-only box of `_freq_box`.

    Each W(h) is the mean of e(d / q) over the dot products d = h.x mod q.
    No (N, F) product is formed (N points, F frequencies): axis i gives the
    (N, 2H+1) table of x_i * h mod q for h = -H..H, and the tables are added
    one axis at a time, first axis major as the box orders it. Axes 2..n
    are folded once, with q subtracted from each sum that reaches q. The
    first axis is added to that fold in blocks of h_1 values, about
    `_WEYL_BLOCK` elements and at least two columns each, and each block's
    column means are taken on their own. numpy sums a C-ordered (N, w)
    array along axis 0 row by row when w >= 2, so each mean has the bits of
    the mean over the whole (N, F) array. The blocks cover the full grid;
    its centre column, the zero frequency, is dropped from its block.

    When q <= N*F the phases come from a table of e(d / q) for d < q,
    built once and repeated for q <= d < 2q, so the last sums index it
    without a reduction; the table is at most twice the size of the (N, F)
    array of phases. Otherwise `exp` runs on the reduced dot products. Both
    give the same bits: (2j*pi/q) * d has real part exactly 0 and imaginary
    part (2*pi/q) * d rounded once, so `exp` sees the same input either
    way."""
    if H < 1:
        raise ValueError(f"H must be >= 1, got {H}")
    q, pts = _points_of(source)
    N, n = pts.shape
    # |x_i * h| <= H*(q-1), and a sum of two reduced values stays below
    # 2*(q-1) <= n*H*(q-1)
    require_int64(n * H * (q - 1), "n*H*(q-1)")
    freqs = _freq_box(n, H)[0]
    F = len(freqs)
    side = np.arange(-H, H + 1, dtype=np.int64)
    first, *others = [(pts[:, i, None] * side) % q for i in range(n)]
    rest = np.zeros((N, 1), dtype=np.int64)
    for part in others:
        rest = _add_mod(rest[:, :, None], part[:, None, :], q).reshape(N, -1)
    width = rest.shape[1]
    table = np.tile(np.exp((2j * np.pi / q) * np.arange(q)), 2) if q <= N * F else None
    step = max(2, _WEYL_BLOCK // (N * width))
    # blocks of `step` values of h_1; the last takes the short remainder
    # too, so no block is a single column
    cuts = [0, *range(step, 2 * H + 2 - step, step), 2 * H + 1]
    values, done = np.empty(F, dtype=complex), 0
    for lo, hi in zip(cuts, cuts[1:]):
        a, b = first[:, lo:hi, None], rest[:, None, :]
        if table is not None:
            phases = table[(a + b).reshape(N, -1)]
        else:
            phases = np.exp((2j * np.pi / q) * _add_mod(a, b, q).reshape(N, -1))
        means = phases.mean(axis=0)
        if lo * width <= F // 2 < hi * width:
            means = np.delete(means, F // 2 - lo * width)
        values[done : done + len(means)] = means
        done += len(means)
    return WeylSpectrum(q=q, H=H, freqs=freqs, values=values)


def frequency_modulus(h, q):
    """Product of the maximal prime powers p^v || q with h nonzero mod p^v
    (a divisor of q recording where the frequency survives)."""
    hv = h if isinstance(h, tuple) else ((h,) if isinstance(h, int) else tuple(h))
    if all(c == 0 for c in hv):
        raise ValueError("frequency must be nonzero")
    out = 1
    for p, v in factor_tuples(q):
        pv = p**v
        if any(c % pv for c in hv):
            out *= pv
    return out


def second_moment_check(system, q, h, tol=1e-9):
    """lhs = average over a mod q of |W(ah)|^2; rhs = hyperplane-max over
    size at the frequency modulus of h.

    By orthogonality the lhs is the share of pairs (x, y) in A_q^2 with
    h.x = h.y mod q, that is sum m_c^2 / N^2 over the multiplicities m_c of
    the values h.x mod q, computed exactly from the N dot products."""
    rs = residue_set(system, q)
    if rs.size == 0:
        raise ValueError(f"A_{q} is empty")
    qq, pts = _points_of(rs)
    dots = (pts @ _as_hvec(h, pts.shape[1], qq)) % qq
    mult = np.unique(dots, return_counts=True)[1]
    # int / int rounds correctly
    lhs = int(mult @ mult) / rs.size**2
    b = frequency_modulus(h, q)
    rhs = hyperplane_max(system, b) / point_count(system, b)
    return lhs, rhs, lhs <= rhs + tol


# ---------------------------------------------------------------------------
# discrepancy

def _closed_arc_scan(u, counts, moduli, lengths):
    """Exact sup over closed arcs of (mass - length), scaled by N*q, for
    each segment of a batch of 1-dimensional point sets.

    Segment s holds lengths[s] >= 1 sorted unique int64 positions in
    [0, moduli[s]) with their multiplicities `counts`; the segments lie one
    after another in u. Closed-arc deviations separate as end-score minus
    start-score, and the wrap-around case gives the same difference, so the
    sup is max(A) - min(B) over the segment. By circle complementation this
    also equals the sup over open arcs of (length - mass), hence the full
    discrepancy. Returns int64 arrays (numerator, start_index, end_index)
    with one entry per segment, the indices counted within the segment at
    their first occurrence; the denominator is N*q, which must stay below
    2^63.
    """
    starts = np.cumsum(lengths) - lengths
    N = np.add.reduceat(counts, starts)
    # N*q < 2^63 iff q <= (2^63 - 1) // N, which cannot overflow
    over = moduli > (INT64_LIMIT - 1) // N
    if over.any():
        s = int(np.argmax(over))
        require_int64(int(N[s]) * int(moduli[s]), "N*q")
    q = np.repeat(moduli, lengths)
    # prefix counts restart in each segment, so q * pref stays below N * q
    pref = np.cumsum(counts)
    pref -= np.repeat(pref[starts] - counts[starts], lengths)
    A = q * pref - np.repeat(N, lengths) * u
    B = A - q * counts
    top = np.maximum.reduceat(A, starts)
    bottom = np.minimum.reduceat(B, starts)
    pos = np.arange(len(u))
    j = np.minimum.reduceat(np.where(A == np.repeat(top, lengths), pos, len(u)), starts) - starts
    i = np.minimum.reduceat(np.where(B == np.repeat(bottom, lengths), pos, len(u)), starts) - starts
    return top - bottom, i, j


def interval_discrepancy(ps):
    """Exact discrepancy of a 1-dimensional point set against the uniform
    measure, with the extremal closed arc as witness."""
    if ps.dimension != 1:
        raise ValueError(f"interval discrepancy requires n=1, got n={ps.dimension}")
    q = ps.denominator
    raw = ps.array[:, 0]
    u, counts = np.unique(raw, return_counts=True)
    nums, starts, ends = _closed_arc_scan(u, counts, np.array([q]), np.array([len(u)]))
    num, i, j = int(nums[0]), int(starts[0]), int(ends[0])
    den = len(raw) * q
    frac = Fraction(num, den)
    witness = {
        "closed_arc": [f"{int(u[i])}/{q}", f"{int(u[j])}/{q}"],
        "deviation": f"{num}/{den}",
    }
    return DiscrepancyResult(method="exact", value=float(frac), witness=witness, q=q, fraction=frac)


def _arcs(coord, start, span, open_span, q):
    """Membership of the points `coord` in the arcs that start at start[k]:
    with d = (c - start[k]) mod q, the closed arc holds d <= span[k] and the
    open arc 0 < d < open_span[k]. Returns the (closed, open) boolean
    matrices, one row per arc and one column per point."""
    d = coord[None, :] - start[:, None]
    # d lies in (-q, q), so one conditional addition reduces it
    np.add(d, q, out=d, where=d < 0)
    return d <= span[:, None], (d > 0) & (d < open_span[:, None])


def _axis_candidates(coord, q):
    """Per-axis arc candidates for the 2-dimensional exact scan: row a*K + b
    is the arc from u[a] to u[b] over the K sorted distinct coordinates u,
    and the full circle is the last row.

    Closed arcs attain the positive side of the sup. Open arcs (point
    coordinates excluded) give the limit values for the negative side; for
    a = b the open arc is the circle without u[a], of length q. Returns
    boolean membership matrices over the N points and int64 lengths."""
    u = np.unique(coord)
    a, b = divmod(np.arange(len(u) ** 2), len(u))
    span = (u[b] - u[a]) % q
    open_span = (span - 1) % q + 1
    mc, mo = _arcs(coord, u[a], span, open_span, q)
    full = np.ones((1, len(coord)), dtype=bool)
    return np.vstack([mc, full]), np.append(span, q), np.vstack([mo, full]), np.append(open_span, q)


def _box_exact_2d(ps, budget):
    q = ps.denominator
    pts = ps.array
    N = len(pts)
    require_int64(N * q * q, "N*q^2")
    mcx, lcx, mox, lox = _axis_candidates(pts[:, 0], q)
    mcy, lcy, moy, loy = _axis_candidates(pts[:, 1], q)
    cost = len(lcx) * len(lcy)
    if cost * N > budget:
        raise ValueError(
            f"exact box scan needs {cost * N} operations, over budget {budget}; use mode='bounds'"
        )
    q2 = q * q
    counts = mcx.astype(np.int64) @ mcy.astype(np.int64).T
    plus = counts * q2 - N * (lcx[:, None] * lcy[None, :])
    ip = np.unravel_index(np.argmax(plus), plus.shape)
    counts_o = mox.astype(np.int64) @ moy.astype(np.int64).T
    minus = N * (lox[:, None] * loy[None, :]) - counts_o * q2
    im = np.unravel_index(np.argmax(minus), minus.shape)
    den = N * q2
    if plus[ip] >= minus[im]:
        num = int(plus[ip])
        witness = {"side": "closed", "box_index": [int(ip[0]), int(ip[1])]}
    else:
        num = int(minus[im])
        witness = {"side": "open", "box_index": [int(im[0]), int(im[1])]}
    frac = Fraction(num, den)
    witness["deviation"] = f"{num}/{den}"
    return DiscrepancyResult(method="exact", value=float(frac), witness=witness, q=q, fraction=frac)


# bool elements (trials x points) per block of the sampled box search
_BOX_BLOCK = 1 << 18


def box_discrepancy(ps, mode="exact", budget=50_000_000, seed=0, H=None):
    """Discrepancy over closed boxes on the n-torus. Exact mode enumerates
    per-axis candidate intervals with endpoints at point coordinates
    (n <= 2); bounds mode pairs a seeded coordinate-restricted random
    search (lower bound) with an Erdos-Turan bound (upper) at the largest
    H <= 64 that fits `budget`. An H over `budget`, given or automatic, is
    refused before any other work; in bounds mode, so is an H whose
    spectrum would pass int64 (n*H*(q-1) >= 2^63). Bounds mode, and every
    mode with H given, returns the Weyl spectrum at H as `spectrum`."""
    if mode not in ("exact", "bounds"):
        raise ValueError(f"unknown mode {mode!r}")
    q, pts = ps.denominator, ps.array
    N, n = pts.shape
    h_given = H is not None
    if n > 1 and mode == "bounds" and not h_given:
        H = max((h for h in range(2, 65) if N * (2 * h + 1) ** n <= budget), default=1)
    if H is not None:
        _require_spectrum_budget(N, n, H, budget, h_given)
    if n == 1 or mode == "exact":
        if n > 2:
            raise ValueError(f"exact box scan supports n <= 2, got n={n}; use mode='bounds'")
        result = interval_discrepancy(ps) if n == 1 else _box_exact_2d(ps, budget)
        if h_given:
            result.spectrum = weyl_spectrum(ps, H)
        return result
    # the spectrum before the search, so that its int64 bound
    # n*H*(q-1) < 2^63 refuses before any trial
    spectrum = weyl_spectrum(ps, H)
    # every corner first, in trial order: low corner, then high, axis by axis
    rng = random.Random(seed)
    axes = [np.unique(pts[:, a]).tolist() for a in range(n)]
    trials = max(64, min(4096, budget // max(1, 4 * N)))
    corners = np.array([[rng.choice(ax) for _ in "lh" for ax in axes] for _ in range(trials)], dtype=np.int64)
    lo, span = corners[:, :n], (corners[:, n:] - corners[:, :n]) % q
    # a box is the product of the arcs from lo to hi, closed or open (the
    # open arc is empty where lo = hi); the trials are counted in blocks
    counts = ([], [])
    step = max(1, _BOX_BLOCK // N)
    for s in range(0, trials, step):
        block = slice(s, s + step)
        arcs = [_arcs(pts[:, a], lo[block, a], span[block, a], span[block, a], q) for a in range(n)]
        for out, sides in zip(counts, zip(*arcs)):
            out += np.logical_and.reduce(sides).sum(axis=1).tolist()
    # integer scoring keeps the sampled bound a true lower bound; q^n may
    # pass int64
    qn = q**n
    vols = [N * math.prod(v) for v in span.tolist()]
    scores = [max(c * qn - v, v - o * qn) for c, o, v in zip(*counts, vols)]
    best = max(scores)
    # the witness is the first trial with the largest score, if it deviates
    box = corners[scores.index(best)].reshape(2, n).tolist() if best > 0 else None
    return DiscrepancyResult(
        method="sampled",
        bounds=(best / (N * qn), erdos_turan_bound(spectrum)),
        witness={"best_box": box},
        q=q,
        H=H,
        seed=seed,
        spectrum=spectrum,
    )


def _require_spectrum_budget(N, n, H, budget, h_given):
    """Refuse a cutoff H whose spectrum of N points would hold N*(2H+1)^n
    terms, over `budget`, before anything is allocated. The advice names
    what the caller chose: H where it was given, else the budget."""
    terms = N * (2 * H + 1) ** n
    if terms > budget:
        advice = "lower H" if h_given else "H was chosen automatically; raise --budget"
        raise ValueError(f"Weyl spectrum at H={H} needs {terms} terms, over budget {budget}; {advice}")


def erdos_turan_bound(spectrum):
    """(3/2)^n * (1/H + sum over 0 < max-norm(h) <= H of |W(h)| / M(h)),
    clamped to 1, with M(h) = prod max(|h_i|, 1). A spectrum whose `freqs`
    is the shared box of `_freq_box` reads the cached weights; any other
    gets them from its own `freqs`. The sum is `_exact_sum`, the correctly
    rounded sum that `math.fsum` gives."""
    n, H, freqs = spectrum.dimension, spectrum.H, spectrum.freqs
    # the cache is read only for a spectrum of the box's size, so a lookup
    # never builds a box larger than `freqs`
    box, weights = _freq_box(n, H) if len(freqs) == (2 * H + 1) ** n - 1 else (None, None)
    if freqs is not box:
        weights = np.prod(np.maximum(np.abs(freqs), 1), axis=1)
    terms = np.abs(spectrum.values)
    terms /= weights
    s = _exact_sum(terms)
    return min(1.0, 1.5**n * (1.0 / H + s))


# most terms `_exact_sum` adds exactly: each partial sums at most this many
# 27-bit integers, which stays below 2^53
_EXACT_SUM_TERMS = 1 << 26
# terms per block of `_exact_sum`, which bounds its temporaries
_EXACT_SUM_BLOCK = 1 << 16
# frexp gives finite float64 values exponents -1073 (the smallest
# subnormal) to 1024
_FREXP_LOW, _FREXP_SPAN = -1073, 1073 + 1024 + 1


def _exact_sum(t):
    """math.fsum(t.tolist()) for a float64 array t of nonnegative terms,
    without building the list.

    Each term is m * 2^(e-53) with m a 53-bit integer (`frexp`), split as
    m = a * 2^26 + b with a < 2^27 and b < 2^26. The terms go in blocks of
    _EXACT_SUM_BLOCK; per exponent e, one `bincount` sums a block's a and
    another its b, and both are added into one pair of arrays over every
    exponent. With at most 2^26 terms in all these sums are integers below
    2^53, so float64 holds them exactly, and scaled by 2^(e-27) and
    2^(e-53) they stay exact: their lowest bit is no finer than the terms'
    own, 2^-1074 at the least, and while e <= 960 they cannot overflow.
    These partials add up to the exact sum of the terms, and `fsum` of
    them rounds it once, correctly, as `fsum` of the terms does. Empty or
    non-finite input, more terms or a larger exponent go to `fsum` of the
    list."""
    if not 0 < len(t) <= _EXACT_SUM_TERMS:
        return math.fsum(t.tolist())
    sums = np.zeros((2, _FREXP_SPAN))
    lo, hi = _FREXP_LOW + _FREXP_SPAN, _FREXP_LOW
    for start in range(0, len(t), _EXACT_SUM_BLOCK):
        frac, exp = np.frexp(t[start : start + _EXACT_SUM_BLOCK])
        # frexp gives a finite term a frac in [0.5, 1) or 0, so the fracs sum
        # to a finite value unless some term is not finite
        low, high = int(exp.min()), int(exp.max())
        if not math.isfinite(frac.sum()) or high > 960:
            return math.fsum(t.tolist())
        lo, hi = min(lo, low), max(hi, high)
        # in place and exact: frac * 2^27 splits into its integer part `top`
        # and a fraction that 2^26 scales to the integer `frac`
        frac *= 2.0**27
        top = np.floor(frac)
        frac -= top
        frac *= 2.0**26
        exp -= low
        at = slice(low - _FREXP_LOW, high - _FREXP_LOW + 1)
        sums[0, at] += np.bincount(exp, weights=top)
        sums[1, at] += np.bincount(exp, weights=frac)
    power = np.arange(lo, hi + 1)
    part = sums[:, lo - _FREXP_LOW : hi - _FREXP_LOW + 1]
    return math.fsum(np.concatenate((np.ldexp(part[0], power - 27), np.ldexp(part[1], power - 53))).tolist())


# ---------------------------------------------------------------------------
# prime sums and theorem right-hand sides

# One fsum over `local_profile` arrays per sum: fsum rounds correctly, and
# + - * / and sqrt round correctly in numpy as in Python, so the sums equal
# the per-prime loops they replaced bit for bit.

def reciprocal_prime_sum(system, x):
    """Sum of 1/p over supported primes p <= x, plus 3."""
    return math.fsum(1.0 / local_profile(system, x)[0]) + 3.0


def damped_reciprocal_prime_sum(system, x):
    """Sum of sqrt(lambda(p)/rho(p))/p over supported primes p <= x, plus 3."""
    primes, rho, lam = local_profile(system, x)
    return math.fsum(np.sqrt(lam / rho) / primes) + 3.0


def theorem_bound(theorem, system, x, k=None, alpha=1.0, delta=None, strict=True):
    """The displayed right-hand side of one of the four average-discrepancy
    bounds, with every absolute constant set to 1. The exponential or power
    factor is reported separately so experiments can fit the constant.

    Returns a dict with keys: theorem, factor, rhs, alpha, delta, range_ok,
    k_range, sums."""
    if theorem not in (1, 2, 3, 4):
        raise ValueError(f"theorem id must be 1..4, got {theorem}")
    if x < 3:
        raise ValueError(f"x must be >= 3, got {x}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    n = system.dimension
    primes, rho, lam = local_profile(system, x)
    sums = {}
    range_ok = True
    k_range = None
    used_delta = None

    if theorem == 1:
        s = math.fsum(1.0 / primes[rho >= 2])
        sums["large_fiber_sum"] = s
        factor = math.exp(-s / 6.0)
    else:
        s = math.fsum((1.0 - lam / rho) / primes)
        sums["defect_sum"] = s
        if theorem == 2:
            factor = math.exp(-s / 3.0)
        elif theorem == 3:
            if k is None:
                raise ValueError("theorem 3 needs k")
            loglog = math.log(math.log(x))
            used_delta = delta if delta is not None else min(1.0, s / loglog)
            sums["loglog_x"] = loglog
            if used_delta <= 0:
                range_ok = False
                k_range = (math.inf, math.inf)
                factor = 1.0
            else:
                base = 20.0 * (6 + n)
                k_lo = (base / used_delta) * math.log(base / used_delta)
                k_hi = math.exp(math.sqrt(alpha * used_delta * loglog / base))
                k_range = (k_lo, k_hi)
                range_ok = k_lo <= k <= k_hi
                if strict and k < k_lo:
                    raise ValueError(
                        f"k = {k} violates the lower range bound "
                        f"(20(6+n)/delta)*log(20(6+n)/delta) = {k_lo:.6g}"
                    )
                if strict and k > k_hi:
                    raise ValueError(
                        f"k = {k} violates the upper range bound "
                        f"exp(sqrt(alpha*delta*loglog(x)/(20(6+n)))) = {k_hi:.6g}"
                    )
                factor = math.exp(-used_delta * k / 18.0) + math.log(x) ** (-alpha * used_delta / 18.0)
        else:
            if k is None:
                raise ValueError("theorem 4 needs k")
            loglog = math.log(math.log(x))
            total_den = math.fsum(1.0 / primes)
            ratio = math.fsum(lam / rho / primes) / total_den if total_den > 0 else 1.0
            sums["weighted_ratio"] = ratio
            sums["loglog_x"] = loglog
            used_delta = delta if delta is not None else max(ratio, 1.0 / loglog)
            if used_delta > 1.0 / math.e:
                if strict:
                    raise ValueError(
                        f"delta = {used_delta:.6g} violates the ceiling delta <= 1/e = {1.0 / math.e:.6g}"
                    )
                range_ok = False
            k_hi = alpha * used_delta * loglog
            k_range = (2.0, k_hi)
            if not 2 <= k <= k_hi:
                range_ok = False
                if strict:
                    raise ValueError(
                        f"k = {k} violates the range 2 <= k <= alpha*delta*loglog(x) = {k_hi:.6g}"
                    )
            factor = used_delta ** ((k - 1) / 10.0)

    return {
        "theorem": theorem,
        "factor": factor,
        "rhs": factor / alpha,
        "alpha": alpha,
        "delta": used_delta,
        "range_ok": range_ok,
        "k_range": k_range,
        "sums": sums,
    }


# ---------------------------------------------------------------------------
# aggregation over supported moduli

@dataclass
class AggregateStats:
    x: int
    k: object
    weighting: str
    modulus_count: int
    point_total: int
    disc_average: float
    region_mass: object
    method: str
    per_q: tuple = None


def _region_fractions(region, n):
    """One (lo, hi) pair of Fractions per axis: a region for n >= 2 lists n
    pairs, and a 1-D region is the bare pair (lo, hi)."""
    if region is None:
        return None
    pairs = (region,) if n == 1 else tuple(region)
    if len(pairs) != n or any(np.shape(pair) != (2,) for pair in pairs):
        want = "the bare pair (lo, hi)" if n == 1 else f"{n} (lo, hi) pairs, got {len(pairs)}"
        raise ValueError(f"a region for n={n} is {want}: {region!r}")
    return tuple((Fraction(lo), Fraction(hi)) for lo, hi in pairs)


class NoSupportedModuliError(ValueError):
    """No modulus q <= x (with the requested number of prime factors) has a
    nonempty A_q, so there is nothing to average."""


def aggregate_stats(
    system,
    x,
    weighting="uniform",
    k=None,
    region=None,
    include_per_q=False,
    disc_mode="auto",
    H="auto",
    budget=50_000_000,
):
    """Average discrepancy and optional region mass over all supported
    moduli q <= x. weighting='uniform' averages the per-q values; 'rho'
    weights each modulus by its point count (mass statistics of the
    point-count-weighted aggregate measure).

    Exact per-q discrepancy for 1-dimensional systems; higher dimensions
    default to Erdos-Turan upper bounds unless disc_mode='exact'. When the
    largest A_q, of N points, would need a spectrum of N*(2H+1)^n terms,
    over `budget`, the sweep is refused before any spectrum is built."""
    if weighting not in ("uniform", "rho"):
        raise ValueError(f"weighting must be 'uniform' or 'rho', got {weighting!r}")
    if disc_mode not in ("auto", "exact", "bounds"):
        raise ValueError(f"disc_mode must be auto, exact or bounds, got {disc_mode!r}")
    n = system.dimension
    reg = _region_fractions(region, n)
    method = "exact" if disc_mode == "exact" or (n == 1 and disc_mode == "auto") else "erdos_turan"
    blocks = supported_blocks(system, x, k)
    score = None
    if method == "erdos_turan":
        h_val = H if isinstance(H, int) else _auto_H(system, x)
        blocks = list(blocks)
        if blocks:
            # one check for the largest A_q refuses before any spectrum
            largest = max(int(block.rho.max()) for block in blocks)
            _require_spectrum_budget(largest, n, h_val, budget, h_given=isinstance(H, int))
        score = lambda ps: erdos_turan_bound(weyl_spectrum(ps, h_val))
    elif n > 1:
        score = lambda ps: box_discrepancy(ps, mode="exact", budget=budget).value
    chunks = [_chunk_columns(system, chunk, reg, score) for chunk in _point_chunks(blocks)]
    if not chunks:
        raise NoSupportedModuliError(f"no supported moduli up to {x}" + (f" with k={k}" if k else ""))
    # one int64 or float64 column per field; rho, mass and the point total
    # stay far below 2^53, so the float64 products and quotients round as
    # the Python ones do
    qs, rho, disc, mass = (None if c[0] is None else np.concatenate(c) for c in zip(*chunks))
    count = len(qs)
    total = int(rho.sum())
    if weighting == "uniform":
        disc_avg = math.fsum(disc) / count
        mass = math.fsum(mass / rho) / count if reg else None
    else:
        disc_avg = math.fsum(rho * disc) / total
        mass = int(mass.sum()) / total if reg else None
    return AggregateStats(
        x=x,
        k=k,
        weighting=weighting,
        modulus_count=count,
        point_total=total,
        disc_average=disc_avg,
        region_mass=mass,
        method=method,
        per_q=tuple(zip(qs.tolist(), rho.tolist(), disc.tolist())) if include_per_q else None,
    )


# points per chunk of supported moduli, which bounds the arrays that one
# chunk's CRT fold, arc scan and region test hold
_POINT_BUDGET = 1 << 11


def _point_chunks(blocks):
    """Cut `ModuliColumns` blocks, in their order, into chunks of moduli
    whose rho sum to at most _POINT_BUDGET; a modulus over the budget gets
    a chunk of its own. Each chunk ends where the running sum of rho first
    passes its start's sum plus the budget (one `searchsorted`); the moduli
    after a block's last closed chunk open the next block's first."""
    rest = None
    for block in blocks:
        if rest is not None:
            block = ModuliColumns(*map(np.concatenate, zip(rest, block)))
        ends = block.rho.cumsum()
        start = 0
        while start < len(ends):
            base = ends[start] - block.rho[start]
            stop = max(int(ends.searchsorted(base + _POINT_BUDGET, side="right")), start + 1)
            if stop == len(ends):
                break
            yield block.cut(start, stop)
            start = stop
        rest = block.cut(start, len(ends))
    if rest is not None:
        yield rest


def _chunk_columns(system, chunk, reg, score):
    """The q, rho, disc and mass_count columns (int64, int64, float64, and
    int64 or None without a region) of a chunk of supported moduli.

    With `score` None the system is 1-dimensional and the chunk takes one
    CRT fold and one exact arc scan. Otherwise each A_q is built on its own
    and `score` maps its torus points to the discrepancy value; its points
    are kept only for the region count."""
    # copies: the chunk's columns are views of a block that also holds the
    # moduli of the next chunk, which the aggregate would otherwise keep
    qs, rho = np.array(chunk.q), np.array(chunk.rho, dtype=np.int64)
    if score is None:
        nums = numerators_1d(system, chunk)
        num, _, _ = _closed_arc_scan(nums, np.ones(len(nums), dtype=np.int64), qs, rho)
        # the scan refused N*q >= 2^63; int / int is correctly rounded
        disc = [a / b for a, b in zip(num.tolist(), (rho * qs).tolist())]
        pts = nums[:, None]
    else:
        disc, kept = [], []
        for q in qs.tolist():
            # no `parts` here: the benchmark's span test expects the 2-D
            # sweep to reach `factor_tuples`, which factors q a second time
            ps = fractional_points(residue_set(system, q))
            disc.append(score(ps))
            if reg:
                kept.append(ps.array)
        pts = np.concatenate(kept) if reg else None
    mass = None
    if reg:
        inside = np.ones(len(pts), dtype=bool)
        for axis, (lo, hi) in enumerate(reg):
            # clamped to [-1, q], where they count the same points and fit int64
            lo_q = [min(max(math.ceil(lo * q), -1), q) for q in qs.tolist()]
            hi_q = [min(max(math.floor(hi * q), -1), q) for q in qs.tolist()]
            inside &= (pts[:, axis] >= np.repeat(lo_q, rho)) & (pts[:, axis] <= np.repeat(hi_q, rho))
        mass = np.add.reduceat(inside, np.cumsum(rho) - rho, dtype=np.int64)
    return qs, rho, np.array(disc, dtype=np.float64), mass


def _auto_H(system, x):
    p = reciprocal_prime_sum(system, x)
    return max(1, min(64, round(math.exp(min(p, 5.0)))))
