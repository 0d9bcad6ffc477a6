"""Outside-in span tracer for the crt_equidist package.

The package binds functions across modules with `from .x import f`, so
patching only the defining module would miss most callers. `Tracer.install`
replaces every binding of each traced function in every loaded
`crt_equidist.*` namespace, plus a few class attributes, with a wrapper that
records one span per call. A span's self time is its duration minus the
durations of the spans it directly encloses; a counter's own cost is part
of its span's self time.

Per-element helpers (`mixed_norm`, `_freq_box`) are deliberately not
wrapped: they run millions of times per 2-D sweep and the wrapper would cost
more than the work. Wrappers return the wrapped result unchanged, so traced
runs write byte-identical reports.
"""

import functools
import sys
import time

PACKAGE = "crt_equidist"


def _count_local_set(stats, seen, result, args, kwargs):
    # a miss is the first request of (system, p, v); `_cache` is not read
    key = (args[0], args[1], args[2] if len(args) > 2 else kwargs.get("v", 1))
    if key not in seen:
        seen.add(key)
        stats["misses"] += 1
        stats["points"] += len(result)


def _count_assembly(stats, seen, result, args, kwargs):
    stats["points"] += result.size if hasattr(result, "factorization") else len(result)


def _count_aggregate(stats, seen, result, args, kwargs):
    stats["moduli_scanned"] += args[1] if len(args) > 1 else kwargs["x"]
    stats["moduli_supported"] += result.modulus_count


def _count_arc_scan(stats, seen, result, args, kwargs):
    stats["points"] += len(args[0])


def _count_weyl(stats, seen, result, args, kwargs):
    source = args[0]
    n_points = len(source.numerators) if hasattr(source, "numerators") else source.size
    stats["terms"] += n_points * len(result.entries)
    stats["max_H"] = max(stats["max_H"], result.H)


def _count_erdos_turan(stats, seen, result, args, kwargs):
    stats["freqs"] += len(args[0].entries)


def _count_kernel(stats, seen, result, args, kwargs):
    primes = args[1]
    stats["steps"] += int(primes.sum()) - len(primes)


def _count_write_text(stats, seen, result, args, kwargs):
    stats["bytes"] += len(args[2].encode("utf-8"))


def _count_write_manifest(stats, seen, result, args, kwargs):
    stats["bytes"] += (args[0].outdir / "manifest.json").stat().st_size


# (module, function) -> (span name, counter, extra counter fields)
FUNCTIONS = {
    ("modarith", "sieve_primes"): ("modarith.sieve", None, ()),
    ("modarith", "prime_array"): ("modarith.sieve", None, ()),
    ("modarith", "spf_factor"): ("modarith.spf_factor", None, ()),
    ("modarith", "spf_table"): ("modarith.spf_table", None, ()),
    ("modarith", "factor_tuples"): ("modarith.factor_tuples", None, ()),
    ("generators", "poly_roots_mod_prime_power"): ("generators.roots", None, ()),
    ("crt_sets", "residue_set"): ("crt_sets.assembly", _count_assembly, ("points",)),
    ("crt_sets", "numerators_1d"): ("crt_sets.assembly", _count_assembly, ("points",)),
    ("crt_sets", "hyperplane_max_local"): ("crt_sets.hyperplane_max_local", None, ()),
    ("analysis", "aggregate_stats"): (
        "analysis.aggregate_stats",
        _count_aggregate,
        ("moduli_scanned", "moduli_supported"),
    ),
    ("analysis", "_closed_arc_scan"): ("analysis.arc_scan", _count_arc_scan, ("points",)),
    ("analysis", "weyl_spectrum"): ("analysis.weyl_spectrum", _count_weyl, ("terms", "max_H")),
    ("analysis", "erdos_turan_bound"): ("analysis.erdos_turan", _count_erdos_turan, ("freqs",)),
    ("analysis", "reciprocal_prime_sum"): ("analysis.prime_sums", None, ()),
    ("analysis", "damped_reciprocal_prime_sum"): ("analysis.prime_sums", None, ()),
    ("experiments", "_root_count_chunk"): ("experiments.root_count_kernel", _count_kernel, ("steps",)),
    ("experiments", "run_theorem_sweep"): ("experiments.driver", None, ()),
    ("experiments", "poisson_table"): ("experiments.driver", None, ()),
}

# (module, class, method) -> (span name, counter, extra counter fields)
METHODS = {
    ("crt_sets", "LocalSystem", "local_set"): (
        "crt_sets.local_set",
        _count_local_set,
        ("misses", "points"),
    ),
    ("cli", "_OutputWriter", "write_text"): ("cli.write", _count_write_text, ("bytes",)),
    ("cli", "_OutputWriter", "write_manifest"): ("cli.write", _count_write_manifest, ("bytes",)),
}

SPANS = tuple(dict.fromkeys(spec[0] for spec in (*FUNCTIONS.values(), *METHODS.values())))


class Tracer:
    """Span recorder. `stats[name]` holds `calls`, `self_ns` and the span's
    counters, summed over every call."""

    def __init__(self):
        self.stats = {}
        # time covered by the finished child spans of the innermost open span
        self._child_ns = [0]

    def wrap(self, name, fn, counter=None, fields=()):
        stats = self.stats.setdefault(name, {"calls": 0, "self_ns": 0})
        for f in fields:
            stats.setdefault(f, 0)
        child_ns = self._child_ns
        clock = time.perf_counter_ns
        seen = set()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = child_ns[0]
            child_ns[0] = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(stats, seen, result, args, kwargs)
                return result
            finally:
                elapsed = clock() - start
                stats["calls"] += 1
                stats["self_ns"] += elapsed - child_ns[0]
                child_ns[0] = outer + elapsed

        return traced

    def install(self):
        """Wrap every traced function and method of the imported package.
        A renamed or missing target raises, so the trace never reports
        silent zeros."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for (mod, attr), (name, counter, fields) in FUNCTIONS.items():
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)
            wrapped = self.wrap(name, original, counter, fields)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for (mod, cls_name, attr), (name, counter, fields) in METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{mod}"], cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), counter, fields))
