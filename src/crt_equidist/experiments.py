"""Desk-scale experiment drivers: theorem sweeps along x ladders, root-count
histograms with Poisson reference rows, the initial-segment counterexample
contrast, and averaged Weyl sums over prime moduli.

Every driver runs single-threaded, and its report is a deterministic
function of the config (seed included); timing goes to stderr only.
"""

import json
import math
from dataclasses import dataclass, field, fields as _dc_fields
from fractions import Fraction

import numpy as np

from .analysis import (
    NoSupportedModuliError,
    aggregate_stats,
    damped_reciprocal_prime_sum,
    reciprocal_prime_sum,
    theorem_bound,
)
from .crt_sets import load_local_system, local_profile, prime_support_stat
from .generators import (
    IntPolynomial,
    PseudoPoly,
    _as_pseudo,
    full_system,
    graph_system,
    image_system,
    initial_segment_system,
    pseudo_system,
    roots_mod_primes,
    roots_system,
    veronese_system,
)
from .modarith import prime_array, sieve_primes


def _parse_int_tuple(text):
    return tuple(int(t) for t in text.split(",") if t.strip())


def _fmt_int_tuple(value):
    return ",".join(str(t) for t in value)


@dataclass
class ExperimentConfig:
    """Settings shared by all experiment kinds; drivers read the keys they
    need and ignore the rest. Every value has a canonical string form so a
    written echo reloads to an equal config."""

    system: str = "poly:1,0,1"
    ladder: tuple = (1000,)
    x: int = None
    k: int = None
    q: int = None
    theorem: int = 1
    weighting: str = "uniform"
    H: str = "auto"
    disc_mode: str = "auto"
    budget: int = 50_000_000
    seed: int = 0
    alpha: float = None
    epsilon: str = "1/4"
    pseudo: str = None
    poly: str = None
    profile: str = None
    f1: str = None
    f2: str = "0,1"
    a: int = 1
    p_limit: int = None
    curve: str = None
    p_set: tuple = None
    h_set: tuple = (1,)

    def __post_init__(self):
        self.ladder = tuple(int(t) for t in self.ladder)
        if not self.ladder or any(b < 1 for b in self.ladder):
            raise ValueError("ladder must be a nonempty list of positive bounds")
        if list(self.ladder) != sorted(set(self.ladder)):
            raise ValueError(f"ladder must be strictly ascending, got {self.ladder}")
        if self.theorem not in (1, 2, 3, 4):
            raise ValueError(f"theorem must be 1..4, got {self.theorem}")
        if self.weighting not in ("uniform", "rho"):
            raise ValueError(f"weighting must be uniform or rho, got {self.weighting!r}")
        self.H = str(self.H)
        if self.H != "auto" and not (self.H.isdigit() and int(self.H) >= 1):
            raise ValueError(f"H must be 'auto' or a positive integer, got {self.H!r}")
        if self.disc_mode not in ("auto", "exact", "bounds"):
            raise ValueError(f"disc_mode must be auto, exact or bounds, got {self.disc_mode!r}")
        eps = Fraction(self.epsilon)
        if not 0 < eps <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.p_set is not None:
            self.p_set = tuple(int(t) for t in self.p_set)
        self.h_set = tuple(int(t) for t in self.h_set)

    @classmethod
    def from_mapping(cls, mapping):
        kwargs = {}
        for key, raw in mapping.items():
            if key not in _CONFIG_CODECS:
                raise ValueError(f"unknown config key {key!r}")
            parse = _CONFIG_CODECS[key][0]
            try:
                kwargs[key] = parse(raw)
            except (TypeError, ValueError):
                raise ValueError(f"bad value for config key {key!r}: {raw!r}") from None
        return cls(**kwargs)

    def to_lines(self):
        """Canonical echo, one 'key = value' per line, sorted; None omitted."""
        out = []
        for f in sorted(_dc_fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            if value is None:
                continue
            out.append(f"{f.name} = {_CONFIG_CODECS[f.name][1](value)}")
        return out


# per-key (parse, format) used by both the config file and the echo,
# chosen by each field's annotation
_CODECS_BY_TYPE = {
    str: (str, str),
    int: (int, str),
    float: (float, repr),
    tuple: (_parse_int_tuple, _fmt_int_tuple),
}
_CONFIG_CODECS = {f.name: _CODECS_BY_TYPE[f.type] for f in _dc_fields(ExperimentConfig)}


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % value
    return str(value)


@dataclass
class ExperimentReport:
    kind: str
    config: tuple
    columns: tuple
    rows: tuple
    extra: dict = field(default_factory=dict)

    def to_json(self):
        payload = {
            "kind": self.kind,
            "config": list(self.config),
            "columns": list(self.columns),
            "rows": [[_jsonable(v) for v in row] for row in self.rows],
            "extra": _jsonable(self.extra),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_csv(self):
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def render_text(self):
        return "\n".join(_align([list(self.columns)] + [[_cell(v) for v in row] for row in self.rows])) + "\n"


def _align(rows):
    """The lines of a table of string cells, each column right-aligned to
    its widest cell and the columns joined by two spaces."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows]


def _poly_from_string(text):
    try:
        coeffs = tuple(int(t) for t in text.split(","))
    except (AttributeError, ValueError):
        raise ValueError(
            f"bad coefficient list {text!r}: want comma-separated integers, constant term first"
        ) from None
    return IntPolynomial(coeffs)


def build_system(spec):
    """Turn a generator spec string into a local system. Forms:
    poly:COEFFS, pseudo:NAME, initial-segment, full[:N], file:PATH,
    veronese:D:COEFFS, graph:COEFFS:COEFFS, image:COEFFS:COEFFS."""
    kind, _, arg = spec.partition(":")
    if kind == "poly":
        return roots_system(_poly_from_string(arg))
    if kind == "pseudo":
        return pseudo_system(arg)
    if kind == "initial-segment":
        return initial_segment_system()
    if kind == "full":
        return full_system(int(arg) if arg else 1)
    if kind == "file":
        return load_local_system(arg)
    if kind == "veronese":
        d_text, _, coeffs = arg.partition(":")
        return veronese_system(_poly_from_string(coeffs), int(d_text))
    if kind == "graph":
        fa, _, fb = arg.partition(":")
        return graph_system(_poly_from_string(fa), _poly_from_string(fb))
    if kind == "image":
        fa, _, fb = arg.partition(":")
        return image_system(_poly_from_string(fa), _poly_from_string(fb))
    raise ValueError(f"unknown system spec {spec!r}")


def _parse_H(text):
    return "auto" if text == "auto" else int(text)


def run_theorem_sweep(config):
    """Average discrepancy over supported moduli at each ladder point,
    against the matching bound factor; the fitted constant is the ratio."""
    sys_obj = build_system(config.system)
    if config.theorem in (3, 4) and config.k is None:
        raise ValueError(f"theorem {config.theorem} sweeps need k")
    ratios = [prime_support_stat(sys_obj, x)[1] for x in config.ladder]
    if config.alpha is not None:
        alpha, alpha_source = config.alpha, "config"
    else:
        alpha, alpha_source = max(min(ratios), 1e-9), "fitted"
    H = _parse_H(config.H)
    rows = []
    for x in config.ladder:
        try:
            agg = aggregate_stats(
                sys_obj,
                x,
                weighting=config.weighting,
                k=config.k,
                disc_mode=config.disc_mode,
                H=H,
                budget=config.budget,
            )
        except NoSupportedModuliError:
            rows.append((x, 0, 0, None, None, None, None, None, None, False, "", True))
            continue
        tb = theorem_bound(config.theorem, sys_obj, x, k=config.k, alpha=alpha, strict=False)
        fitted = agg.disc_average / tb["factor"] if tb["factor"] > 0 else None
        rows.append(
            (
                x,
                agg.modulus_count,
                agg.point_total,
                agg.disc_average,
                tb["factor"],
                fitted,
                reciprocal_prime_sum(sys_obj, x),
                damped_reciprocal_prime_sum(sys_obj, x),
                tb["delta"],
                tb["range_ok"],
                agg.method,
                False,
            )
        )
    return ExperimentReport(
        kind="sweep",
        config=tuple(config.to_lines()),
        columns=(
            "x",
            "moduli",
            "points",
            "avg_disc",
            "rhs_factor",
            "fitted_constant",
            "recip_sum",
            "damped_recip_sum",
            "delta",
            "range_ok",
            "method",
            "flagged",
        ),
        rows=tuple(rows),
        extra={"alpha": alpha, "alpha_source": alpha_source, "support_ratios": list(ratios)},
    )


# ---------------------------------------------------------------------------
# root-count tables

# the float64 quotient below is exact while p^(B+1) < 2^51 for B steps per
# reduction: one step below 2^25, two below 2^17
_ROOT_COUNT_LIMIT = 2**25
_PAIR_LIMIT = 2**17
# steps whose residues are compared with the root target at once
_COUNT_BLOCK = 8


def _check_root_count_limit(bound, what):
    if bound >= _ROOT_COUNT_LIMIT:
        raise ValueError(
            f"the root-count kernel is exact only for primes below 2^25 = {_ROOT_COUNT_LIMIT}; got {what} = {bound}"
        )


def _root_count_chunk(pp, P):
    """Root counts of a pseudo-polynomial for sorted nonempty primes P < 2^25.

    One shared pass of F(n) = k_n F(n-1) + 1, with k_n = sign*n and
    F(0) = 1: column j tracks F mod P[j] through the steps n < P[j].

    A residue F is held in float64 as G = F + 1/2 and advanced B steps per
    reduction: B = 2 while the largest prime is below 2^17, else B = 1.
    With a = k_n ... k_{n+B-1} and d the image of 0 under those steps
    (d = 1 for B = 1, d = k_{n+1} + 1 for B = 2), one reduction forms the
    half-integer t = a*G + (d + 1/2 - a/2) = (a*F + d) + 1/2 and sets
    G = t - floor(t * (1/P))*P. Since |t| < P^(B+1), t/P lies at least
    1/(2P) from an integer and the rounding error of t * (1/P) is at most
    P^B * 2^-52, so the floor is the exact quotient while P^(B+1) < 2^51
    (P < 2^25 for B = 1, P < 2^17 for B = 2), and every value stays an
    exact multiple of 1/2 below 2^52.

    The pass reads F only after the last step of each group. A root at that
    step leaves F = T, the root target. For B = 2, a root at the pair's
    first step n leaves F = k_{n+1}*T + 1, because k_{n+1} is a unit mod p
    for n + 1 <= p - 1. For T = 0 (f1, f2) both read G < B. For f3 (T = 1,
    sign -1) the first-step image is p - n, so that hit reads
    G + n - 1/2 = p.

    Groups start at n = 1, 1 + B, ..., so the _COUNT_BLOCK steps of one block
    fill the _COUNT_BLOCK/B rows of one buffer, which is compared with the
    hit rule once; a column whose steps end inside the block holds NaN in
    its later rows. The hit columns are kept per block and counted with
    np.bincount, 64 blocks with hits at a time. An odd prime's last step
    p - 1 closes a pair; p = 2 has only step 1 and is counted directly. The
    pass costs about sum(P)/B reductions."""
    P = np.ascontiguousarray(P, dtype=np.int64)
    last = int(P[-1])
    _check_root_count_limit(last, "largest prime")
    B = 2 if last < _PAIR_LIMIT else 1
    m = len(P)
    primes = memoryview(P)  # Python ints for the retirement compares, without a copy
    Pf = P.astype(np.float64)
    inv = 1.0 / Pf
    sign, T = pp.sign, pp.root_target
    R = (1 % P == T).astype(np.int64)
    j = 0
    if primes[0] == 2:
        R[0] += pp.value(1) % 2 == 0
        j = 1
    rows = np.empty((_COUNT_BLOCK // B, m))
    rows[-1] = 1.5  # F(0) = 1
    t = np.empty(m)
    found = []
    for n0 in range(1, last - B + 1, _COUNT_BLOCK):
        # a column stays while its prime p leaves a whole group: n0 + B - 1 <= p - 1
        while primes[j] < n0 + B:
            j += 1
        # the last row holds the residues after step n0 - 1
        G, tj, invj, Pj = rows[-1, j:], t[j:], inv[j:], Pf[j:]
        block = rows[:, j:]
        for row, n in zip(block, range(n0, n0 + _COUNT_BLOCK, B)):
            a, d = (n * (n + 1), sign * (n + 1) + 1) if B == 2 else (sign * n, 1)
            np.multiply(G, a, tj)
            np.add(tj, d + 0.5 - 0.5 * a, tj)
            np.multiply(tj, invj, row)
            np.floor(row, row)
            np.multiply(row, Pj, row)
            np.subtract(tj, row, row)
            G = row
        c = j
        while c < m and primes[c] < n0 + _COUNT_BLOCK:
            rows[(primes[c] - n0) // B :, c] = np.nan
            c += 1
        if T == 0:
            # G = 1/2 is a root at the group's last step, G = 3/2 at a pair's first
            hits = block < B
        else:
            hits = block == T + 0.5
            if B == 2:
                # f3: a root at the pair's first step n leaves F = p - n;
                # each row is compared through the scratch t
                for hit, row, n in zip(hits, block, range(n0, n0 + _COUNT_BLOCK, B)):
                    np.add(row, n - 0.5, tj)
                    hit |= tj == Pj
        # roots are rare, so keep the few hit columns rather than sum every column
        flat = np.flatnonzero(hits)
        if flat.size:
            found.append(j + flat % (m - j))
            if len(found) == 64:  # each small array holds about 100 bytes of header
                R += np.bincount(np.concatenate(found), minlength=m)
                found = []
    if found:
        R += np.bincount(np.concatenate(found), minlength=m)
    return R


def pseudo_root_counts(which, x):
    """(primes <= x, root count mod each prime) for a pseudo-polynomial.

    One shared float64 pass over all primes; _root_count_chunk gives its
    exactness argument and cost. Refuses x >= 2^25, past which the kernel
    would not be exact."""
    pp = _as_pseudo(which)
    _check_root_count_limit(x, "x")
    primes = prime_array(x)
    if len(primes) == 0:
        return primes, np.zeros(0, dtype=np.int64)
    return primes, _root_count_chunk(pp, primes)


def poisson_table(spec, x, profile=None):
    """Histogram of root counts mod p over p <= x, the first four moments,
    and a reference row: Poisson mass pi(x)/(e k!) for pseudo-polynomials,
    or a supplied fixed-point probability profile for polynomials."""
    if isinstance(spec, (str, PseudoPoly)):
        primes, counts = pseudo_root_counts(spec, x)
        poisson_ref = profile is None
    elif isinstance(spec, IntPolynomial):
        primes = prime_array(x)
        counts = np.array([len(r) for r in roots_mod_primes(spec, primes)], dtype=np.int64)
        poisson_ref = False
    else:
        raise TypeError(f"expected a pseudo-polynomial name or IntPolynomial, got {type(spec).__name__}")
    pi_x = len(primes)
    if pi_x == 0:
        raise ValueError(f"no primes up to {x}")
    hist = np.bincount(counts)
    moments = tuple(int((counts**j).sum()) / pi_x for j in (1, 2, 3, 4))
    if poisson_ref:
        reference = tuple(pi_x * math.exp(-1) / math.factorial(k) for k in range(len(hist)))
    elif profile is not None:
        probs = [float(t) for t in str(profile).split(",")]
        reference = tuple(pi_x * (probs[k] if k < len(probs) else 0.0) for k in range(len(hist)))
    else:
        reference = None
    return hist, moments, reference


def render_poisson_text(hist, moments, reference, moment_reference=(1.0, 2.0, 5.0, 15.0)):
    """Aligned two-block table: per-k counts vs the reference row, then the
    four moments."""
    ks = list(range(len(hist)))
    rows = [["k"] + [str(k) for k in ks], ["empirical"] + [str(int(c)) for c in hist]]
    if reference is not None:
        rows.append(["reference"] + ["%.1f" % r for r in reference])
    mrows = [["moment"] + [str(j) for j in (1, 2, 3, 4)], ["empirical"] + ["%.5g" % m for m in moments]]
    if moment_reference is not None:
        mrows.append(["reference"] + ["%.5g" % m for m in moment_reference])
    return "\n".join(_align(rows) + [""] + _align(mrows)) + "\n"


# ---------------------------------------------------------------------------
# counterexample contrast and prime-moduli averages

def counterexample_contrast(config):
    """Mass of [0, epsilon] under the point-count-weighted aggregate
    measure for the initial-segment system, side by side with the
    uniform-weighted average discrepancy, per ladder point. Also reports
    the explicit prime-only lower bound for the mass. One rho-weighted pass
    per ladder point yields both: its per-modulus discrepancies give the
    uniform average."""
    eps = Fraction(config.epsilon)
    sys_obj = initial_segment_system()
    rows = []
    for x in config.ladder:
        mass_stats = aggregate_stats(sys_obj, x, weighting="rho", region=(Fraction(0), eps), include_per_q=True)
        uniform_disc = math.fsum(d for _, _, d in mass_stats.per_q) / mass_stats.modulus_count
        primes, rho, _ = local_profile(sys_obj, x)
        # rho/p <= eps in Python ints, since eps may have any denominator
        inside = sum(r for p, r in zip(primes.tolist(), rho.tolist()) if r * eps.denominator <= eps.numerator * p)
        rows.append(
            (
                x,
                mass_stats.modulus_count,
                mass_stats.point_total,
                float(mass_stats.region_mass),
                inside / mass_stats.point_total,
                uniform_disc,
            )
        )
    return ExperimentReport(
        kind="counterexample",
        config=tuple(config.to_lines()),
        columns=("x", "moduli", "points", "mass", "prime_lower_bound", "uniform_avg_disc"),
        rows=tuple(rows),
        extra={"epsilon": config.epsilon, "region": ["0", config.epsilon]},
    )


def prime_weyl_averages(system, x, h_set):
    """Per frequency h: the plain average of W(h;p) over supported primes
    p <= x, and the root-count-weighted sum normalized by pi(x)."""
    if system.dimension != 1:
        raise ValueError("prime-moduli averages are defined for 1-dimensional systems")
    primes = sieve_primes(x)
    pi_x = len(primes)
    if pi_x == 0:
        raise ValueError(f"no primes up to {x}")
    system.prefill(primes)
    supported = [(p, arr) for p in primes if len(arr := system.local_set(p)[:, 0])]
    if not supported:
        raise ValueError(f"no supported primes up to {x}")
    out = {}
    for h in h_set:
        ws = [complex(np.exp((2j * np.pi / p) * ((h * arr) % p)).mean()) for p, arr in supported]
        plain = complex(math.fsum(w.real for w in ws) / len(ws), math.fsum(w.imag for w in ws) / len(ws))
        terms = [(len(arr) * w.real, len(arr) * w.imag) for (_, arr), w in zip(supported, ws)]
        weighted = complex(math.fsum(a for a, _ in terms) / pi_x, math.fsum(b for _, b in terms) / pi_x)
        out[int(h)] = (plain, weighted)
    return out, len(supported), pi_x
