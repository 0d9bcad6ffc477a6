"""Benchmark of the crt-equidist CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Each measured run spawns one CLI invocation (perfbench/launch.py), single
threaded, against the package under ./src, and checks every artifact it
writes against the SHA-256 pins in perfbench/pins.json. With --trace 0 the
invocation is repeated for S seconds on one CPU, which it shares with a
reference loop, and end-to-end metrics are reported, scaled to the loop's
nominal speed (see Reference); with --trace 1 untraced and traced
invocations alternate and per-layer metrics come from the traced ones
(perfbench/tracer.py). `--workload all`
interleaves every workload invocation by invocation and reports each.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
each metric with its unit and sample count, and the environment.
"""

import argparse
import hashlib
import itertools
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

TABLE_X = 70000


def _family(template, values):
    return {value: [arg.format(value) for arg in template] for value in values}


# Equal-cost input families; seed N runs member N mod 3, so seed 0 runs the
# first (canonical) member. See README.md for why each workload is here.
WORKLOADS = {
    "table_f1": _family(["table", "--pseudo", "{}", "--x", str(TABLE_X)], ["f1", "f2", "f3"]),
    "sweep_1d": _family(["sweep", "--poly", "{}", "--ladder", "1000,10000,100000"], ["1,0,1", "1,1,1", "2,0,1"]),
    "sweep_2d": _family(["sweep", "--system", "graph:1,0,1:{}", "--ladder", "400"], ["0,0,1", "0,0,0,1", "1,1"]),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed beside the end-to-end metrics: (label, sample key, unit)
UNSCALED = (("raw wall", "raw_wall", "s"), ("raw setup", "raw_setup", "s"), ("ref chunk", "ref_ms", "ms"))

# span.field metrics read from the trace; units follow from the field
PER_LAYER = (
    "modarith.sieve.calls",
    "modarith.sieve.self_s",
    "modarith.spf_factor.calls",
    "modarith.spf_factor.self_s",
    "modarith.spf_table.self_s",
    "modarith.factor_tuples.calls",
    "generators.roots.calls",
    "generators.roots.self_s",
    "generators.roots.us_per_call",
    "crt_sets.local_set.calls",
    "crt_sets.local_set.misses",
    "crt_sets.local_set.hit_ratio",
    "crt_sets.local_set.points",
    "crt_sets.local_set.self_s",
    "crt_sets.local_set.ns_per_point",
    "crt_sets.assembly.calls",
    "crt_sets.assembly.points",
    "crt_sets.assembly.self_s",
    "crt_sets.assembly.ns_per_point",
    "crt_sets.hyperplane_max_local.calls",
    "crt_sets.hyperplane_max_local.self_s",
    "analysis.aggregate_stats.moduli_scanned",
    "analysis.aggregate_stats.moduli_supported",
    "analysis.aggregate_stats.supported_ratio",
    "analysis.aggregate_stats.self_s",
    "analysis.aggregate_stats.ns_per_modulus",
    "analysis.arc_scan.calls",
    "analysis.arc_scan.self_s",
    "analysis.arc_scan.ns_per_point",
    "analysis.weyl_spectrum.calls",
    "analysis.weyl_spectrum.terms",
    "analysis.weyl_spectrum.max_H",
    "analysis.weyl_spectrum.self_s",
    "analysis.weyl_spectrum.ns_per_term",
    "analysis.erdos_turan.calls",
    "analysis.erdos_turan.freqs",
    "analysis.erdos_turan.self_s",
    "analysis.erdos_turan.ns_per_freq",
    "analysis.prime_sums.calls",
    "analysis.prime_sums.self_s",
    "experiments.root_count_kernel.steps",
    "experiments.root_count_kernel.self_s",
    "experiments.root_count_kernel.ns_per_step",
    "experiments.driver.self_s",
    "cli.write.bytes",
    "cli.write.self_s",
)
TRACE_TOTALS = ("trace.wall_s", "trace.unattributed_s", "trace.overhead_s")

_PER_UNIT = {"point": "points", "term": "terms", "freq": "freqs", "step": "steps", "modulus": "moduli_scanned"}

SETUP_RUNS = 10  # set-up-only spawns per run
CHILD_LIMIT_S = 120.0
MIN_ROUNDS = 3
# Nominal time of one reference chunk. A scaled time is a child's raw time
# times REF_NOMINAL_MS over the chunk time measured beside it; 1.6 ms puts
# scaled times near the raw times of a child alone on a quiet core of the
# 2-core Xeon VM the benchmark was written on.
REF_NOMINAL_MS = 1.6


class BenchError(Exception):
    """The benchmark cannot run here: no result is printed."""


def layer_unit(name):
    field = name.rpartition(".")[2]
    if field.endswith("_s"):
        return "s"
    if field.startswith("ns_per_"):
        return "ns"
    if field == "us_per_call":
        return "us"
    if field.endswith("_ratio"):
        return "ratio"
    if field == "bytes":
        return "B"
    return "count"


def layer_value(name, spans):
    span, _, field = name.rpartition(".")
    st = spans[span]

    def per(num, den):
        return num / den if den else 0.0

    if field == "self_s":
        return st["self_ns"] / 1e9
    if field == "us_per_call":
        return per(st["self_ns"] / 1e3, st["calls"])
    if field.startswith("ns_per_"):
        return per(st["self_ns"], st[_PER_UNIT[field[len("ns_per_"):]]])
    if field == "hit_ratio":
        return per(st["calls"] - st["misses"], st["calls"])
    if field == "supported_ratio":
        return per(st["moduli_supported"], st["moduli_scanned"])
    return st[field]


def prime_count(x):
    """pi(x) by a plain sieve, independent of the package under test."""
    flags = bytearray([1]) * (x + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, int(x**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, x + 1, p)))
    return sum(flags)


def _reference_loop(count, parent):
    """The reference process: run chunks until the harness is gone.

    A chunk does interpreter work, numpy integer division and numpy complex
    exponentials, the kinds of work that dominate sweep_1d, table_f1 and
    sweep_2d, in time shares of about 1:1:2. numpy is imported here and
    never in the harness: a child starts as a vfork of the harness, so its
    ru_maxrss would report the harness's RSS if that were the larger.
    """
    import numpy as np

    table = list(range(1 << 12))
    moduli = np.arange(1001, 9193, 2, dtype=np.int64)
    values = np.ones(len(moduli), dtype=np.int64)
    angles = np.linspace(0.0, 1.0, len(moduli))
    while os.getppid() == parent:
        acc, seen = 0, {}
        for i in range(2000):
            key = (i * 7919) & 0xFFF
            acc += table[key] * i % 7
            seen[key] = acc
        for n in range(1, 18):
            values[:] = (3 * n * values + 1) % moduli
        for n in range(1, 7):
            acc += int(abs(np.exp(2j * np.pi * n * angles).sum()))
        count.value += 1


class Reference:
    """A fixed loop that shares one CPU with every timed child,
    as a gauge of how fast that CPU runs at that moment.

    On a shared VM the host slows the guest's CPUs by up to 2.5x, for
    seconds to minutes at a time. While the benchmark holds it, this process,
    the loop and every child are pinned to one CPU, so the scheduler splits
    that CPU evenly between the loop and the child, and a slow spell slows
    both about alike. Scaling a child's time by REF_NOMINAL_MS over the loop's
    chunk time during that child's life cancels the spell. The loop never
    touches the program, so a change to the program moves scaled times as it
    moves raw ones.
    """

    def __enter__(self):
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})  # children inherit it
        ctx = multiprocessing.get_context("fork")
        self.count = ctx.Value("q", 0, lock=False)
        self.proc = ctx.Process(target=_reference_loop, args=(self.count, os.getpid()), daemon=True)
        self.proc.start()
        deadline = time.monotonic() + 10.0
        while self.count.value < 10:  # warm: the loop is running
            if time.monotonic() > deadline or not self.proc.is_alive():
                self.__exit__()
                raise BenchError("the reference loop does not run")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        self.proc.join()
        os.sched_setaffinity(0, self.cpus)

    def mark(self):
        return time.monotonic(), self.count.value

    def chunk_ms(self, since):
        """Mean chunk time since the mark `since`."""
        now, count = self.mark()
        if count == since[1]:
            raise BenchError("the reference loop stalled")
        return (now - since[0]) * 1e3 / (count - since[1])


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Spawns CLI invocations and checks their artifacts."""

    def __init__(self, work=WORK):
        if not (SRC / "crt_equidist" / "cli.py").is_file():
            raise BenchError(f"no crt_equidist package under {SRC}")
        self.pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("CRT_EQUIDIST_THREADS", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(var, None)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.numpy = None
        self.pi_x = prime_count(TABLE_X)
        self.work = Path(work)
        self.work.mkdir(exist_ok=True)
        self.reference = None  # a Reference while one runs

    def spawn(self, args=(), trace=False):
        """One child run. Returns dict(ok, wall, setup, rss_mb, trace, ref_ms);
        ref_ms is the reference loop's chunk time over the run, if one runs."""
        out, stamp, trace_file, err = (self.work / n for n in ("out", "stamp.json", "trace.json", "stderr.txt"))
        for path in (stamp, trace_file):
            path.unlink(missing_ok=True)
        if out.exists():
            for f in out.iterdir():
                f.unlink()
        cmd = [sys.executable, str(HERE / "launch.py"), str(stamp), str(trace_file) if trace else "-"]
        if args:
            cmd += [*args, "--quiet", "--out", str(out)]
        with open(err, "wb") as err_fh:
            mark = self.reference.mark() if self.reference else None
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err_fh)
            watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.monotonic() - start
            ref_ms = self.reference.chunk_ms(mark) if mark else None
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0 and stamp.is_file()
        result = {"ok": ok, "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "setup": None, "trace": None}
        result["ref_ms"] = ref_ms
        if not ok:
            tail = err.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
            print(f"# child failed (exit {proc.returncode}): {' | '.join(tail)}", file=sys.stderr)
            return result
        info = json.loads(stamp.read_text(encoding="utf-8"))
        if Path(info["package"]).resolve() != (SRC / "crt_equidist" / "cli.py").resolve():
            raise BenchError(f"child imported {info['package']}, not the package under {SRC}")
        self.numpy = info["numpy"]
        result["setup"] = info["ready"] - start
        if trace:
            result["trace"] = json.loads(trace_file.read_text(encoding="utf-8"))
        return result

    def check(self, workload, label):
        """True iff the artifacts match the pins (and table_f1's pi_x)."""
        out = self.work / "out"
        pins = self.pins[workload][label]
        try:
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            listed = {e["name"]: e["sha256"] for e in manifest["files"]}
            on_disk = {f.name: _sha256(f) for f in out.iterdir() if f.name != "manifest.json"}
            ok = listed == pins and on_disk == pins
            if ok and workload == "table_f1":
                report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                ok = report["extra"]["pi_x"] == self.pi_x
        except (OSError, ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            print(f"# {workload} [{label}]: artifacts differ from the pinned hashes", file=sys.stderr)
        return ok

    def setup(self):
        """One spawn that only imports the CLI."""
        res = self.spawn()
        if not res["ok"]:
            raise BenchError("the crt_equidist CLI does not import")
        return res

    def invoke(self, workload, label, trace=False):
        res = self.spawn(WORKLOADS[workload][label], trace)
        res["ok"] = res["ok"] and self.check(workload, label)
        return res


def summarize(values):
    """Median, quartiles and the highest percentile with at least ten
    samples beyond it (None when there are too few samples)."""
    vals = sorted(values)
    n = len(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if n >= 2 else (vals[0], None, vals[0])
    tail = None
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            idx = min(n - 1, -(-n * pct // 100) - 1)
            tail = (pct, vals[idx])
            break
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "min": vals[0], "tail": tail, "n": n}


def _fmt(name, unit, s):
    tail = f" p{s['tail'][0]} {s['tail'][1]:.6g}" if s["tail"] else " (no tail percentile: < 20 samples)"
    return f"  {name:14s} median {s['median']:.6g} {unit}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  min {s['min']:.6g}{tail}  n={s['n']}"


def repeat(seconds, one_round):
    """Call one_round() until `seconds` have passed. After MIN_ROUNDS calls,
    stop as soon as the next call is predicted (from the last one) to end
    past that deadline."""
    deadline = time.monotonic() + seconds
    for done in itertools.count(1):
        start = time.monotonic()
        one_round()
        end = time.monotonic()
        if end >= deadline or (done >= MIN_ROUNDS and end + (end - start) > deadline):
            return


def scaled(seconds, ref_ms):
    """A child's time at the reference loop's nominal speed."""
    return seconds * REF_NOMINAL_MS / ref_ms


def measure(runner, picks, seconds):
    """Set-up spawns, then untraced runs round-robin over picks
    [(workload, label)], beside the reference loop, for `seconds` in all.
    Returns {workload: samples}."""
    started = time.monotonic()
    runner.setup()  # compiles bytecode; untimed
    spawns = [runner.setup() for _ in range(SETUP_RUNS)]
    setup = {"setup": [scaled(r["setup"], r["ref_ms"]) for r in spawns], "raw_setup": [r["setup"] for r in spawns]}
    samples = {w: dict(setup, wall=[], raw_wall=[], ref_ms=[], rss=[], attempted=0, failed=0) for w, _ in picks}

    def one_round():
        for workload, label in picks:
            res = runner.invoke(workload, label)
            s = samples[workload]
            s["attempted"] += 1
            if res["ok"]:
                s["wall"].append(scaled(res["wall"], res["ref_ms"]))
                s["raw_wall"].append(res["wall"])
                s["ref_ms"].append(res["ref_ms"])
                s["rss"].append(res["rss_mb"])
            else:
                s["failed"] += 1

    repeat(seconds - (time.monotonic() - started), one_round)
    return samples


def measure_traced(runner, workload, label, seconds):
    runner.setup()  # compiles bytecode; untimed
    plain, traced, failed = [], [], []

    def one_round():
        for trace, bucket in ((False, plain), (True, traced)):
            res = runner.invoke(workload, label, trace)
            (bucket if res["ok"] else failed).append(res)

    repeat(seconds, one_round)
    attempted, failed = len(plain) + len(traced) + len(failed), len(failed)
    if not plain or not traced:
        return attempted, failed, None
    first = traced[0]["trace"]["spans"]
    spans = {
        name: dict(st, self_ns=statistics.median(r["trace"]["spans"][name]["self_ns"] for r in traced))
        for name, st in first.items()
    }
    main_s = statistics.median(r["trace"]["main_ns"] for r in traced) / 1e9
    unattributed = statistics.median(
        (r["trace"]["main_ns"] - sum(st["self_ns"] for st in r["trace"]["spans"].values())) / 1e9 for r in traced
    )
    overhead = statistics.median(r["wall"] for r in traced) - statistics.median(r["wall"] for r in plain)
    metrics = {name: {"value": layer_value(name, spans), "unit": layer_unit(name)} for name in PER_LAYER}
    for name, value in zip(TRACE_TOTALS, (main_s, unattributed, overhead)):
        metrics[name] = {"value": value, "unit": "s"}
    print(f"# {workload} traced runs: {len(traced)}, untraced runs: {len(plain)}")
    ranked = sorted(spans.items(), key=lambda kv: -kv[1]["self_ns"])
    for name, st in ranked:
        if st["calls"]:
            print(f"  {name:32s} {st['self_ns'] / 1e9 / main_s:7.1%} of trace.wall_s")
    print(f"  {'(unattributed)':32s} {unattributed / main_s:7.1%} of trace.wall_s")
    return attempted, failed, metrics


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(runner):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": runner.numpy,
        "commit": _commit(),
        "threads": 1,
    }


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)  # unwinds, so every child is stopped


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all" and args.trace:
        ap.error("--trace 1 takes a single workload")
    try:
        runner = Runner()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        picks = [(w, list(WORKLOADS[w])[args.seed % len(WORKLOADS[w])]) for w in names]
        for w, label in picks:
            print(f"# workload {w}: seed {args.seed} -> {' '.join(WORKLOADS[w][label])}")
        if args.trace:
            attempted, failed, metrics = measure_traced(runner, *picks[0], args.seconds)
        else:
            with Reference() as runner.reference:
                samples = measure(runner, picks, args.seconds)
            runner.reference = None
            attempted = sum(s["attempted"] for s in samples.values())
            failed = sum(s["failed"] for s in samples.values())
            metrics = {}
            for w, s in samples.items():
                frac = s["failed"] / s["attempted"]
                print(f"# {w}: failed_frac {frac:.6g} ({s['failed']} of {s['attempted']} runs)")
                if not s["wall"]:
                    metrics = None
                    break
                for metric, key in (("wall_s", "wall"), ("setup_s", "setup"), ("peak_rss_mb", "rss")):
                    stats = summarize(s[key])
                    print(_fmt(metric, END_TO_END[metric], stats))
                    name = metric if len(samples) == 1 else f"{w}.{metric}"
                    metrics[name] = {"value": stats["median"], "unit": END_TO_END[metric]}
                for label, key, unit in UNSCALED:
                    print(_fmt(label, unit, summarize(s[key])) + "  (unscaled)")
        print("# env " + json.dumps(environment(runner), sort_keys=True))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = metrics is not None and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics or {}}))
    return 0 if metrics is not None else 1


if __name__ == "__main__":
    sys.exit(main())
