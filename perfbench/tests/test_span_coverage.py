"""Span coverage of the benchmark's tracer, on scaled-down workloads.

Every span the benchmark maps to a workload must record at least one call
there, so a renamed or rerouted function fails here instead of reporting
zeros; and tracing must not change a single report byte.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

SMALL = {
    "table_f1": ["table", "--pseudo", "f1", "--x", "2000"],
    "sweep_1d": ["sweep", "--poly", "1,0,1", "--ladder", "100,1000"],
    "sweep_2d": ["sweep", "--system", "graph:1,0,1:0,0,1", "--ladder", "60"],
}

_COMMON = {"experiments.driver", "cli.write"}

# the layers each workload is meant to exercise (see README.md)
SPANS = {
    "table_f1": _COMMON | {"experiments.root_count_kernel", "modarith.sieve"},
    "sweep_1d": _COMMON
    | {
        "modarith.sieve",
        "modarith.spf_factor",
        "modarith.spf_table",
        "generators.roots",
        "crt_sets.local_set",
        "crt_sets.assembly",
        "analysis.aggregate_stats",
        "analysis.arc_scan",
        "analysis.prime_sums",
    },
    "sweep_2d": _COMMON
    | {
        "modarith.sieve",
        "modarith.factor_tuples",
        "crt_sets.assembly",
        "crt_sets.hyperplane_max_local",
        "analysis.aggregate_stats",
        "analysis.weyl_spectrum",
        "analysis.erdos_turan",
        "analysis.prime_sums",
    },
}


@pytest.mark.parametrize("workload", list(SMALL))
def test_spans_recorded_and_reports_unchanged(workload, tmp_path):
    runner = run.Runner(tmp_path)
    manifest = tmp_path / "out" / "manifest.json"
    plain = runner.spawn(SMALL[workload])
    assert plain["ok"]
    plain_bytes = manifest.read_bytes()
    traced = runner.spawn(SMALL[workload], trace=True)
    assert traced["ok"]
    assert manifest.read_bytes() == plain_bytes
    spans = traced["trace"]["spans"]
    assert set(spans) == set(tracer.SPANS)
    assert sorted(s for s in SPANS[workload] if spans[s]["calls"] == 0) == []


def test_every_span_is_mapped_and_reported():
    assert set().union(*SPANS.values()) == set(tracer.SPANS)
    assert {name.rpartition(".")[0] for name in run.PER_LAYER} == set(tracer.SPANS)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = {name: run.layer_unit(name) for name in run.PER_LAYER}
    layers.update((name, "s") for name in run.TRACE_TOTALS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers


def test_every_seeded_input_is_pinned():
    pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))
    assert {w: set(f) for w, f in run.WORKLOADS.items()} == {w: set(p) for w, p in pins.items()}
