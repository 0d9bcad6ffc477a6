"""Command-line front end. Subcommands wrap the experiment drivers; every
run writes its effective config first, then the reports, then a manifest
with checksums. Exit codes: 0 success, 1 computational error, 2 usage or
config error."""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from .analysis import box_discrepancy
from .crt_sets import fractional_points, residue_set
from .experiments import (
    _CONFIG_CODECS,
    ExperimentConfig,
    ExperimentReport,
    _poly_from_string,
    build_system,
    counterexample_contrast,
    poisson_table,
    prime_weyl_averages,
    render_poisson_text,
    run_theorem_sweep,
)
from .expsums import RationalExpSumSpec, curve_exp_sums, normalized_exp_sum, weil_bound_scan
from .generators import BivariatePoly


class UsageError(Exception):
    pass


_EPILOG = """\
polynomials are comma-separated coefficient lists, constant term first:
'1,0,1' means 1 + X^2. curves are ';'-joined 'degX,degY,coeff' terms:
'0,2,1;3,0,-1;0,0,-17' means Y^2 - X^3 - 17. config files hold one
'key = value' per line with '#' comments; explicit flags override the file.
"""


def _add_global_flags(p, toplevel):
    # subparsers get SUPPRESS defaults so they never clobber values parsed
    # before the subcommand name
    d = (lambda v: v) if toplevel else (lambda v: argparse.SUPPRESS)
    p.add_argument("--config", default=d(None), help="config file of 'key = value' lines")
    p.add_argument("--out", default=d("out"), help="output directory (default: out)")
    p.add_argument(
        "--threads",
        type=int,
        default=d(None),
        help="accepted and checked to be >= 1 (default: CRT_EQUIDIST_THREADS or 1); every run is single-threaded",
    )
    p.add_argument("--quiet", action="store_true", default=d(False), help="suppress timing on stderr")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="crt-equidist",
        description="Equidistribution experiments for CRT residue systems.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_global_flags(ap, toplevel=True)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, help_text, keys):
        p = sub.add_parser(name, help=help_text)
        _add_global_flags(p, toplevel=False)
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None)
        return p

    add(
        "sweep",
        "average discrepancy vs theorem bound along an x ladder",
        ("system", "poly", "pseudo", "ladder", "theorem", "k", "weighting", "H", "disc_mode", "budget", "alpha"),
    )
    add("table", "root-count histogram, moments, reference row", ("pseudo", "poly", "x", "profile"))
    add("counterexample", "aggregate-measure mass vs uniform average disc", ("epsilon", "ladder"))
    add("primes", "averaged Weyl sums over prime moduli", ("system", "poly", "pseudo", "x", "h_set"))
    add("expsum", "normalized rational exponential sums", ("f1", "f2", "a", "q", "p_limit"))
    add("ffield", "point-count Weyl sums along a plane curve", ("curve", "p_set", "h_set"))
    add("disc", "discrepancy of a single modulus", ("system", "poly", "pseudo", "q", "H", "disc_mode", "budget", "seed"))
    return ap


def load_config(path):
    """Parse a config file into a raw string mapping; duplicate and unknown
    keys are rejected with the offending line number."""
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    mapping = {}
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        if key in mapping:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        if key not in _CONFIG_CODECS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        mapping[key] = value.strip()
    return mapping


def _cli_overrides(args):
    out = {}
    for key in _CONFIG_CODECS:
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def _resolve_threads(args):
    """Validate --threads or CRT_EQUIDIST_THREADS. The count selects nothing:
    every run is single-threaded, so its reports match at any value."""
    if args.threads is not None:
        n = args.threads
    else:
        raw = os.environ.get("CRT_EQUIDIST_THREADS", "1").strip() or "1"
        try:
            n = int(raw)
        except ValueError:
            raise UsageError(f"CRT_EQUIDIST_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise UsageError(f"thread count must be >= 1, got {n}")


def _system_spec(cfg):
    if cfg.poly:
        return f"poly:{cfg.poly}"
    if cfg.pseudo:
        return f"pseudo:{cfg.pseudo}"
    return cfg.system


class _OutputWriter:
    def __init__(self, outdir):
        self.outdir = outdir
        self.names = []

    def write_text(self, name, text):
        (self.outdir / name).write_text(text, encoding="utf-8")
        self.names.append(name)

    def write_manifest(self):
        entries = []
        for name in sorted(self.names):
            data = (self.outdir / name).read_bytes()
            entries.append({"name": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)})
        (self.outdir / "manifest.json").write_text(
            json.dumps({"files": entries}, indent=2) + "\n", encoding="utf-8"
        )
        self.names.append("manifest.json")


def _write_report(writer, report):
    writer.write_text("report.json", report.to_json())
    writer.write_text("report.csv", report.to_csv())


def _cmd_sweep(cfg, writer):
    if cfg.theorem in (3, 4) and cfg.k is None:
        raise UsageError(f"theorem {cfg.theorem} sweeps need --k")
    if cfg.ladder[0] < 3:
        raise UsageError(f"sweep ladder points must be >= 3, got {cfg.ladder[0]}")
    _write_report(writer, run_theorem_sweep(cfg))


def _cmd_table(cfg, writer):
    if (cfg.pseudo is None) == (cfg.poly is None):
        raise UsageError("table needs exactly one of --pseudo or --poly")
    if cfg.x is None:
        raise UsageError("table needs --x")
    spec = cfg.pseudo if cfg.pseudo else _poly_from_string(cfg.poly)
    hist, moments, reference = poisson_table(spec, cfg.x, profile=cfg.profile)
    is_poisson = cfg.pseudo is not None and cfg.profile is None
    rows = tuple(
        (k, int(hist[k]), float(reference[k]) if reference is not None else None)
        for k in range(len(hist))
    )
    report = ExperimentReport(
        kind="table",
        config=tuple(cfg.to_lines()),
        columns=("k", "empirical", "reference"),
        rows=rows,
        extra={
            "pi_x": int(hist.sum()),
            "moments": list(moments),
            "moment_reference": [1.0, 2.0, 5.0, 15.0] if is_poisson else None,
        },
    )
    writer.write_text("report.json", report.to_json())
    writer.write_text("histogram.csv", report.to_csv())
    writer.write_text(
        "moments.csv",
        "j,value\n" + "\n".join(f"{j},{'%.12g' % m}" for j, m in zip((1, 2, 3, 4), moments)) + "\n",
    )
    writer.write_text(
        "table.txt",
        render_poisson_text(hist, moments, reference, moment_reference=(1.0, 2.0, 5.0, 15.0) if is_poisson else None),
    )


def _cmd_counterexample(cfg, writer):
    _write_report(writer, counterexample_contrast(cfg))


def _cmd_primes(cfg, writer):
    if cfg.x is None:
        raise UsageError("primes needs --x")
    system = build_system(_system_spec(cfg))
    data, supported, pi_x = prime_weyl_averages(system, cfg.x, cfg.h_set)
    rows = tuple(
        (h, plain.real, plain.imag, abs(plain), weighted.real, weighted.imag, abs(weighted))
        for h, (plain, weighted) in data.items()
    )
    report = ExperimentReport(
        kind="primes",
        config=tuple(cfg.to_lines()),
        columns=("h", "plain_re", "plain_im", "plain_abs", "weighted_re", "weighted_im", "weighted_abs"),
        rows=rows,
        extra={"supported_primes": supported, "pi_x": pi_x, "x": cfg.x},
    )
    _write_report(writer, report)


def _cmd_expsum(cfg, writer):
    if cfg.f1 is None:
        raise UsageError("expsum needs --f1")
    spec = RationalExpSumSpec(_poly_from_string(cfg.f1), _poly_from_string(cfg.f2))
    if cfg.p_limit is not None:
        scan = weil_bound_scan(spec, cfg.p_limit)
        report = ExperimentReport(
            kind="expsum-scan",
            config=tuple(cfg.to_lines()),
            columns=("p", "max_abs"),
            rows=tuple(scan["per_prime"]),
            extra={"global_max": scan["global_max"], "argmax_p": scan["argmax_p"]},
        )
    else:
        if cfg.q is None:
            raise UsageError("expsum needs --q (single sum) or --p-limit (scan)")
        value = normalized_exp_sum(spec, cfg.a, cfg.q)
        report = ExperimentReport(
            kind="expsum",
            config=tuple(cfg.to_lines()),
            columns=("a", "q", "re", "im", "abs"),
            rows=((cfg.a, cfg.q, value.real, value.imag, abs(value)),),
        )
    _write_report(writer, report)


def _cmd_ffield(cfg, writer):
    if cfg.curve is None:
        raise UsageError("ffield needs --curve")
    if not cfg.p_set:
        raise UsageError("ffield needs --p-set")
    f = BivariatePoly.from_string(cfg.curve)
    rows = []
    peak = {}
    for p in cfg.p_set:
        for h in cfg.h_set:
            c1, c2, z = curve_exp_sums(f, p, h)
            rows.append((p, h, z, c1.real, c1.imag, abs(c1), c2.real, c2.imag, abs(c2)))
            peak[p] = max(peak.get(p, 0.0), abs(c2))
    extra = {"curve": str(f)}
    if len(peak) >= 2 and all(v > 0 for v in peak.values()):
        import numpy as np

        ps = sorted(peak)
        slope = float(np.polyfit(np.log([float(p) for p in ps]), np.log([peak[p] for p in ps]), 1)[0])
        extra["fitted_exponent"] = slope
    report = ExperimentReport(
        kind="ffield",
        config=tuple(cfg.to_lines()),
        columns=("p", "h", "Z", "c1_re", "c1_im", "c1_abs", "c2_re", "c2_im", "c2_abs"),
        rows=tuple(rows),
        extra=extra,
    )
    _write_report(writer, report)


def _cmd_disc(cfg, writer):
    if cfg.q is None:
        raise UsageError("disc needs --q")
    system = build_system(_system_spec(cfg))
    rs = residue_set(system, cfg.q)
    if rs.size == 0:
        raise ValueError(f"A_{cfg.q} is empty, no discrepancy to report")
    ps = fractional_points(rs)
    mode = "exact" if cfg.disc_mode == "auto" else cfg.disc_mode
    h_int = None if cfg.H == "auto" else int(cfg.H)
    result = box_discrepancy(ps, mode=mode, budget=cfg.budget, seed=cfg.seed, H=h_int)
    payload = result.to_json()
    payload["rho"] = rs.size
    writer.write_text("result.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if h_int is not None:
        writer.write_text("spectrum.json", json.dumps(result.spectrum.to_json(), indent=2, sort_keys=True) + "\n")


_HANDLERS = {
    "sweep": _cmd_sweep,
    "table": _cmd_table,
    "counterexample": _cmd_counterexample,
    "primes": _cmd_primes,
    "expsum": _cmd_expsum,
    "ffield": _cmd_ffield,
    "disc": _cmd_disc,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    start = time.monotonic()
    try:
        mapping = {}
        if args.config:
            mapping.update(load_config(args.config))
        mapping.update(_cli_overrides(args))
        try:
            cfg = ExperimentConfig.from_mapping(mapping)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        _resolve_threads(args)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        writer = _OutputWriter(outdir)
        writer.write_text("config.txt", "\n".join(cfg.to_lines()) + "\n")
        _HANDLERS[args.cmd](cfg, writer)
        writer.write_manifest()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        elapsed = time.monotonic() - start
        print(f"{args.cmd}: wrote {len(writer.names)} files to {outdir} in {elapsed:.2f}s", file=sys.stderr)
    return 0


def entry():
    sys.exit(main(sys.argv[1:]))
