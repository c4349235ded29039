"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run small slices of each workload and take about a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from oracles import ring_counts, zn_factors  # noqa: E402
from spans import ROOT, Tracer  # noqa: E402

cx = run.import_package()

def pair_slice(items: list) -> list:
    """Every 8th row of pairs, and the rings those rows use."""
    rows = [item for item in items if len(item) == 2][::8]
    rings = dict.fromkeys(t for text, partners in rows for t in (text, *partners))
    return [(text,) for text in rings] + rows


# A slice of each workload: a few dozen cheap items, the same on every run.
SLICES = {
    "zn_core": lambda items: items[::25],
    "corpus_sweep": lambda items: items[::20],
    "pair_claims": pair_slice,
    "large_rings": lambda items: items[:1],
}


def traced_slice(name: str, seed: int):
    expected = workloads.load_expected()
    workload = workloads.WORKLOADS[name]()
    workload.items = SLICES[name](workload.items)
    return run.traced_pass(cx, name, expected, workload.ordered(random.Random(seed)))


def counts_only(values: dict) -> dict:
    return {k: v for k, v in values.items() if run.per_layer_unit(k) in ("count", "ratio")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_agree_and_counts_repeat(name):
    """Runs in one order and in another give the same outputs and counts.

    The first run in a process also fills the package's module-level caches
    (the Z/2 x Z/2 ring that `claims` keeps), so counts are compared from
    the second run on; `test_counts_repeat_across_processes` covers the
    first run.
    """
    runs = [traced_slice(name, seed) for seed in (1, 1, 2)]
    for traced, untraced, tracer, problems in runs:
        assert problems == []
        assert traced.errors == [] and untraced.errors == []
        assert traced.outputs == untraced.outputs
        assert len(tracer.spans) > len(traced.outputs)
    layer_counts = [
        counts_only(run.per_layer(tracer, traced, untraced, calib_ms=1.0))
        for traced, untraced, tracer, _ in runs
    ]
    assert layer_counts[1] == layer_counts[2]
    assert layer_counts[0]["construct.calls"] > 0
    assert layer_counts[0]["graphs.edges"] > 0


def run_command(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=HERE.parent,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_counts_repeat_across_processes():
    results = [run_command("pair_claims", seed, trace=1) for seed in (1, 2)]
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "ratio")}
        for r in results
    ]
    assert counts[0] == counts[1]
    assert counts[0]["isomorphism.graph.calls"] > 0
    assert counts[0]["claims.pass"] == 247 + 78


def test_metric_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    traced, untraced, tracer, _ = traced_slice("zn_core", seed=1)
    values = run.per_layer(tracer, traced, untraced, calib_ms=1.0)
    assert [m["name"] for m in bench["per_layer"]] == list(values)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in bench["per_layer"])
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


def test_uninstall_restores_every_original():
    import comaximal.claims as claims
    import comaximal.graphs as graphs
    import comaximal.rings as rings

    before = (cx.metrics, claims.build_comaximal_graph, rings.maximal_ideals_bruteforce,
              rings.RingTable.__dict__["unit_flags"], graphs.SimpleGraph.__init__,
              claims.SINGLE_CLAIMS["JOIN"])
    tracer = Tracer()
    tracer.install()
    assert cx.metrics is not before[0]
    assert claims.SINGLE_CLAIMS["JOIN"] is not before[5]
    tracer.uninstall()
    after = (cx.metrics, claims.build_comaximal_graph, rings.maximal_ideals_bruteforce,
             rings.RingTable.__dict__["unit_flags"], graphs.SimpleGraph.__init__,
             claims.SINGLE_CLAIMS["JOIN"])
    assert all(a is b for a, b in zip(before, after))


def test_consistency_check_reports_broken_spans():
    tracer = Tracer()
    tracer.spans = [
        ["item", 0, ROOT, 100, 200],
        ["graphs.build", 1, 0, 150, 250],
    ]
    errors = tracer.consistency_errors(wall_ns=1000)
    assert any("does not nest" in e for e in errors)
    assert any("has item 1" in e for e in errors)
    assert tracer.consistency_errors(wall_ns=50)[-1].startswith("self times sum")


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["item", 0, ROOT, 0, 100],
        ["claims.JOIN", 0, 0, 10, 60],
        ["graphs.build", 0, 1, 20, 50],
    ]
    assert tracer.self_times() == [50, 20, 30]
    busy = tracer.busy_s()
    assert busy["claims"] == pytest.approx(20e-9)
    assert busy["graphs.build"] == pytest.approx(30e-9)


def test_scaled_times_cancel_the_machine_speed():
    """The same items on a machine twice as slow give the same scaled metrics."""
    workload = workloads.ZnCore()

    def one_run(slowdown: int):
        speed = run.SpeedProbe()
        speed.at_ns = [i * 10**8 for i in range(40)]
        speed.took_ns = [run.REFERENCE_PROBE_NS * slowdown] * 40
        passes = []
        for p in range(2):
            current = run.Pass(workload)
            items = workload.items[: 20 if p == 0 else 7]
            current.order = list(items)
            current.latencies_ns = [(n % 5 + 1) * 10**6 * slowdown for n in items]
            current.ended_ns = [(p * 20 + i) * 10**8 for i in range(len(items))]
            passes.append(current)
        return run.end_to_end(passes, len(workload.items), [0.3], speed.scale)

    fast, slow = one_run(1), one_run(2)
    assert slow == pytest.approx(fast)
    # Items 4..23 at 1..5 ms; throughput counts each item once, at its mean.
    assert fast["items_per_s"] == pytest.approx(20 / (60 / 1e3))
    assert fast["item_ms_p50"] == pytest.approx(3.0)


def brute_force_counts(n: int) -> dict:
    """Comaximal graph of Z/n from gcds: a ~ b exactly when gcd(a, b, n) == 1."""
    units = [a for a in range(n) if gcd(a, n) == 1]
    radical = [a for a in range(n) if pow(a, n, n) == 0]
    core = [a for a in range(n) if a not in units and a not in radical]
    full_edges = sum(1 for a in range(n) for b in range(a + 1, n) if gcd(gcd(a, b), n) == 1)
    core_edges = sum(1 for i, a in enumerate(core) for b in core[i + 1:] if gcd(gcd(a, b), n) == 1)
    return {
        "units": len(units),
        "radical": len(radical),
        "full_edges": full_edges,
        "core_vertices": len(core),
        "core_edges": core_edges,
    }


@pytest.mark.parametrize("n", [2, 4, 6, 12, 30, 36, 60, 90, 105])
def test_closed_forms_match_brute_force(n):
    counts = ring_counts(zn_factors(n))
    assert {k: counts[k] for k in brute_force_counts(n)} == brute_force_counts(n)


def test_closed_forms_of_the_large_rings():
    by_text = {text: ring_counts(factors) for text, (factors, _) in workloads.LARGE_RINGS.items()}
    assert by_text["Z/4095"]["full_edges"] == 6_966_432
    assert by_text[" x ".join(["Z/2"] * 12)]["full_edges"] == 265_720


def test_corpus_matches_the_acceptance_corpus():
    specs = dict.fromkeys(cx.zn_family(200))
    specs.update(dict.fromkeys(cx.product_family([t for t, _ in workloads.PRODUCT_BASES], 3, 512)))
    assert [t for t, _ in workloads.corpus()] == list(specs)
    assert len(workloads.PairClaims.pair_items()) == 884


def test_command_prints_one_result_line():
    result = run_command("pair_claims", seed=3, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.PairClaims().items)
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zn_core",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
