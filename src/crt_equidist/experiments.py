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
from .crt_sets import load_local_system, local_array, local_profile, prime_support_stat
from .generators import (
    IntPolynomial,
    PseudoPoly,
    _as_pseudo,
    full_system,
    graph_system,
    image_system,
    initial_segment_system,
    pseudo_system,
    roots_mod_prime,
    roots_system,
    veronese_system,
)
from .modarith import prime_array, sieve_primes


def _parse_int_tuple(text):
    return tuple(int(t) for t in text.split(",") if t.strip())


def _fmt_int_tuple(value):
    return ",".join(str(t) for t in value)


# per-key (parse, format) used by both the config file and the echo
_CONFIG_CODECS = {
    "system": (str, str),
    "ladder": (_parse_int_tuple, _fmt_int_tuple),
    "x": (int, str),
    "k": (int, str),
    "q": (int, str),
    "theorem": (int, str),
    "weighting": (str, str),
    "H": (str, str),
    "disc_mode": (str, str),
    "budget": (int, str),
    "seed": (int, str),
    "alpha": (float, repr),
    "epsilon": (str, str),
    "pseudo": (str, str),
    "poly": (str, str),
    "profile": (str, str),
    "f1": (str, str),
    "f2": (str, str),
    "a": (int, str),
    "p_limit": (int, str),
    "curve": (str, str),
    "p_set": (_parse_int_tuple, _fmt_int_tuple),
    "h_set": (_parse_int_tuple, _fmt_int_tuple),
}


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
        cells = [list(self.columns)] + [[_cell(v) for v in row] for row in self.rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.columns))]
        return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells) + "\n"


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

def _root_count_chunk(pp, P):
    """Root counts of a pseudo-polynomial for sorted primes P.

    One shared pass of f(n) = 1 + sign*n*f(n-1): column j tracks f mod P[j]
    and retires once n reaches P[j], so the pass costs sum(P) steps."""
    P = np.ascontiguousarray(P, dtype=np.int64)
    m = len(P)
    sign = pp.sign
    target = np.full(m, pp.root_target, dtype=np.int64)
    F = np.ones(m, dtype=np.int64)
    R = (1 % P == target).astype(np.int64)
    j = 0
    for n in range(1, int(P[-1])):
        while j < m and P[j] <= n:
            j += 1
        if j >= m:
            break
        F[j:] = (sign * n * F[j:] + 1) % P[j:]
        R[j:] += F[j:] == target[j:]
    return R


def pseudo_root_counts(which, x):
    """(primes <= x, root count mod each prime) for a pseudo-polynomial.

    One shared pass over all primes; total work is sum of p over p <= x."""
    pp = _as_pseudo(which)
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
        counts = np.fromiter(
            (len(roots_mod_prime(spec, int(p))) for p in primes),
            dtype=np.int64,
            count=len(primes),
        )
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
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    out = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows]
    out.append("")
    mrows = [["moment"] + [str(j) for j in (1, 2, 3, 4)], ["empirical"] + ["%.5g" % m for m in moments]]
    if moment_reference is not None:
        mrows.append(["reference"] + ["%.5g" % m for m in moment_reference])
    mwidths = [max(len(r[i]) for r in mrows) for i in range(len(mrows[0]))]
    out.extend("  ".join(c.rjust(w) for c, w in zip(row, mwidths)) for row in mrows)
    return "\n".join(out) + "\n"


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
    supported = []
    for p in primes:
        arr = local_array(system, p)[:, 0]
        if len(arr):
            supported.append((p, arr))
    if not supported:
        raise ValueError(f"no supported primes up to {x}")
    out = {}
    for h in h_set:
        re1, im1, re2, im2 = [], [], [], []
        for p, arr in supported:
            w = complex(np.exp((2j * np.pi / p) * ((h * arr) % p)).mean())
            re1.append(w.real)
            im1.append(w.imag)
            re2.append(len(arr) * w.real)
            im2.append(len(arr) * w.imag)
        plain = complex(math.fsum(re1) / len(supported), math.fsum(im1) / len(supported))
        weighted = complex(math.fsum(re2) / pi_x, math.fsum(im2) / pi_x)
        out[int(h)] = (plain, weighted)
    return out, len(supported), pi_x
