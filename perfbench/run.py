"""Benchmark of the comaximal pipeline: one workload per run.

    python3 perfbench/run.py --workload zn_core --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.

``--trace 0`` makes passes over the workload's items, each in an order drawn
from the seed: one whole pass, then more until ``--seconds`` seconds have
gone, and prints the end-to-end metrics, with times scaled to a reference
machine speed (see `SpeedProbe`).  ``--trace 1`` makes one pass in which every
item runs twice, first under the span wrappers of `spans`, then without
them; it checks that both runs of each item give the same output and that
the spans are consistent, and prints the per-layer metrics.  Every output is
checked against an oracle that does not use the package.

Both modes print ``name=value unit`` lines, then one JSON object as the last
line, and write the full record (environment, metrics, errors, and in traced
runs every span) to ``perfbench/out``.  The exit code is 0 when every check
passed, 1 when one failed, and 2 when the package cannot be imported from
this checkout.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer
from workloads import CLAIM_IDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_REPEATS = 9
# Tail latency is the highest of these percentiles that leaves at least ten
# items of one pass beyond it; with fewer items per pass, the maximum.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
CALIBRATION_LOOPS = 300_000
# The speed probe: integer arithmetic and a fixed mix of everyday Python work,
# timed between items at least every PROBE_EVERY_NS; each item is scaled by
# the median of the PROBE_WINDOW probes nearest it on either side.
# REFERENCE_PROBE_NS is about the probe's time in the faster of two speeds a
# shared 2-vCPU x86_64 VM ran at (Python 3.11.7), so that there scaled times
# are close to measured ones.
PROBE_LOOPS = 10_000
PROBE_DATA = {f"k{i}": [i, str(i), (i, i * 2.5)] for i in range(120)}
PROBE_ROUNDS = 3
PROBE_EVERY_NS = 50_000_000
PROBE_WINDOW = 5
REFERENCE_PROBE_NS = 1_700_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def import_package():
    """The package from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import comaximal
    except ImportError as exc:
        print(f"perfbench: cannot import comaximal from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    location = Path(comaximal.__file__).resolve()
    if SRC.resolve() not in location.parents:
        print(f"perfbench: comaximal was imported from {location}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return comaximal


def set_up(name: str, seed: int):
    """Import the package and make the workload's inputs: what a user waits for."""
    cx = import_package()
    return cx, workloads.WORKLOADS[name](), random.Random(seed)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def probe_ns() -> int:
    """Nanoseconds for the speed probe.

    Integer arithmetic alone slows less than the package when the host is
    slow, and object work alone slows more; the probe does some of each.
    The collector is off while it runs, so the probe neither pays for
    collections nor moves the workload's.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
    for _ in range(PROBE_ROUNDS):
        items = sorted(json.loads(json.dumps(PROBE_DATA)).items(), key=lambda kv: kv[1][0] % 17)
        {value[1] for _, value in items}
        "".join(key for key, _ in items).upper().count("K")
        sum(p.a * p.b for p in [_Pair(i, i) for i in range(300)])
    elapsed = time.perf_counter_ns() - start
    if enabled:
        gc.enable()
    return elapsed


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop: the machine's speed right now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter_ns()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, (time.perf_counter_ns() - start) / 1e6)
    return best


class SpeedProbe:
    """The machine's speed through a run, from `probe_ns` timed between items.

    The host this benchmark was tuned on runs the same code up to 1.6 times
    slower for a minute or more at a time, so measured times alone spread
    past any useful bound from run to run.  Scaling each time by how long the
    probe took around it, relative to `REFERENCE_PROBE_NS`, cancels most of
    that; the times as measured are printed and recorded beside the scaled
    ones.  The probe uses nothing from the package.
    """

    def __init__(self):
        self.at_ns: list[int] = []
        self.took_ns: list[int] = []

    def take(self) -> None:
        self.took_ns.append(probe_ns())
        self.at_ns.append(time.perf_counter_ns())

    def take_if_due(self) -> None:
        if not self.at_ns or time.perf_counter_ns() - self.at_ns[-1] >= PROBE_EVERY_NS:
            self.take()

    def scale(self, at_ns: int) -> float:
        """Reference speed over the speed around `at_ns`: multiply a time by it."""
        i = bisect.bisect_left(self.at_ns, at_ns)
        window = self.took_ns[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW]
        return REFERENCE_PROBE_NS / statistics.median(window)

    def median_ms(self) -> float:
        return statistics.median(self.took_ns) / 1e6


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh process until its set-up is done.

    Returns the times as measured and as scaled by probes taken just before
    and just after each process.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        speed = SpeedProbe()
        for _ in range(PROBE_WINDOW):
            speed.take()
        started = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds = (int(done.stdout.split()[-1]) - started) / 1e9
        for _ in range(PROBE_WINDOW):
            speed.take()
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_PROBE_NS / statistics.median(speed.took_ns))
    return raw, scaled


class Pass:
    """Outputs, latencies and check results of one pass over a workload's items."""

    def __init__(self, workload):
        self.workload = workload
        self.order: list = []
        self.latencies_ns: list[int] = []
        self.ended_ns: list[int] = []
        self.wall_ns = 0
        self.outputs: dict = {}
        self.errors: list[str] = []
        self.failed_items: set = set()
        workload.start_pass()

    def run(self, cx, item, tracer: Tracer | None = None) -> None:
        started = time.perf_counter_ns()
        if tracer is not None:
            tracer.item = self.workload.index[item]
            span = tracer.open("item")
        t0 = time.perf_counter_ns()
        try:
            output = self.workload.run(cx, item)
        except Exception:
            output = None
            self.errors.append(f"{item!r} raised:\n{traceback.format_exc()}")
            self.failed_items.add(item)
        t1 = time.perf_counter_ns()
        self.order.append(item)
        self.latencies_ns.append(t1 - t0)
        self.ended_ns.append(t1)
        if tracer is not None:
            tracer.close(span)
        self.outputs[item] = output
        self.wall_ns += time.perf_counter_ns() - started

    def check(self, cx) -> None:
        """Check each item, then the whole pass when it covered every item."""
        for item, output in self.outputs.items():
            if item in self.failed_items:
                continue
            problem = self.workload.check(item, output)
            if problem:
                self.errors.append(problem)
                self.failed_items.add(item)
        if len(self.outputs) == len(self.workload.items) and not self.failed_items:
            problems = self.workload.check_pass(cx, self.outputs)
            if problems:
                self.errors.extend(problems)
                self.failed_items.update(self.outputs)


def timed_passes(cx, workload, rng: random.Random, seconds: float, speed: SpeedProbe) -> list[Pass]:
    """One whole pass, then passes in fresh orders until `seconds` have gone.

    The last pass usually stops part way; only whole passes get the
    whole-pass check, every item gets its own.
    """
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    passes: list[Pass] = []
    while not passes or time.perf_counter_ns() < deadline:
        gc.collect()
        current = Pass(workload)
        for item in workload.ordered(rng):
            if passes and time.perf_counter_ns() >= deadline:
                break
            speed.take_if_due()
            current.run(cx, item)
        speed.take()
        current.check(cx)
        passes.append(current)
    return passes


def traced_pass(cx, name: str, expected: dict, order: list):
    """Each item traced, then again untraced; and what disagrees between the two.

    Running the two copies of an item back to back keeps machine-speed drift
    out of the overhead estimate.  Each copy has its own workload object, so
    state a workload keeps within a pass is not shared between them.
    """
    traced = Pass(workloads.WORKLOADS[name](expected))
    untraced = Pass(workloads.WORKLOADS[name](expected))
    tracer = Tracer()
    for item in order:
        tracer.install()
        try:
            traced.run(cx, item, tracer)
        finally:
            tracer.uninstall()
        untraced.run(cx, item)
    traced.check(cx)
    untraced.check(cx)
    problems = [f"traced output of {item!r} differs from the untraced one"
                for item, output in traced.outputs.items() if output != untraced.outputs[item]]
    problems += tracer.consistency_errors(traced.wall_ns)
    return traced, untraced, tracer, problems


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(items_per_pass: int) -> float:
    for pct in TAIL_PERCENTILES:
        if items_per_pass * (100 - pct) / 100 >= TAIL_BEYOND:
            return pct
    return 100.0


def end_to_end(passes: list[Pass], items_per_pass: int, setup: list[float], scale) -> dict:
    """The end-to-end metrics, from item times multiplied by `scale(at_ns)`.

    Each item counts once, at its mean time over the passes that ran it, so
    the part of a pass that a run ends with does not weigh the items it
    happened to reach.
    """
    per_item: dict = {}
    for p in passes:
        for item, ns, ended in zip(p.order, p.latencies_ns, p.ended_ns):
            per_item.setdefault(item, []).append(ns / 1e6 * scale(ended - ns // 2))
    item_ms = sorted(map(statistics.mean, per_item.values()))
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": len(item_ms) / (sum(item_ms) / 1e3),
        "item_ms_p50": statistics.median(item_ms),
        "item_ms_tail": percentile(item_ms, tail_percentile(items_per_pass)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, traced: Pass, untraced: Pass, calib_ms: float) -> dict:
    busy = tracer.busy_s()
    counts = tracer.counts

    def share(part: str, whole: str) -> float:
        return counts[part] / counts[whole] if counts[whole] else 0.0

    outcomes = {"pass": 0, "fail": 0, "skip": 0}
    for item, output in traced.outputs.items():
        for outcome in traced.workload.outcomes(item, output):
            outcomes[outcome] += 1
    values = {
        "construct.calls": counts["construct.calls"],
        "construct.busy_s": busy["construct"],
        "construct.table_share": share("construct.table_rings", "construct.calls"),
        "rings.busy_s": busy["rings"],
        "rings.units.busy_s": busy["rings.units"],
        "rings.radical.busy_s": busy["rings.radical"],
        "rings.maximal_ideals.busy_s": busy["rings.maximal_ideals"],
        "rings.quotient.busy_s": busy["rings.quotient"],
        "rings.crosscheck.calls": counts["rings.crosscheck.calls"],
        "rings.crosscheck.busy_s": busy["rings.crosscheck"],
        "graphs.build.calls": counts["graphs.build.calls"],
        "graphs.build.busy_s": busy["graphs.build"],
        "graphs.init.busy_s": busy["graphs.init"],
        "graphs.vertices": counts["graphs.vertices"],
        "graphs.edges": counts["graphs.edges"],
        "graphs.signature_class_share": share("graphs.signature_classes", "graphs.vertices"),
        "graphs.metrics.busy_s": busy["graphs.metrics"],
        "graphs.clique.busy_s": busy["graphs.clique"],
        "graphs.chromatic.busy_s": busy["graphs.chromatic"],
        "graphs.multipartite.busy_s": busy["graphs.multipartite"],
        "isomorphism.graph.calls": counts["isomorphism.graph.calls"],
        "isomorphism.graph.busy_s": busy["isomorphism.graph"],
        "isomorphism.graph.found_share": share("isomorphism.graph.found", "isomorphism.graph.calls"),
        "isomorphism.ring.calls": counts["isomorphism.ring.calls"],
        "isomorphism.ring.busy_s": busy["isomorphism.ring"],
        "claims.busy_s": busy["claims"],
    }
    for cid in CLAIM_IDS:
        values[f"claims.{cid}.busy_s"] = busy[f"claims.{cid}"]
    values.update({f"claims.{k}": v for k, v in outcomes.items()})
    values["trace.overhead_s"] = (sum(traced.latencies_ns) - sum(untraced.latencies_ns)) / 1e9
    values["host.calib_ms"] = calib_ms
    return values


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    return "count"


def environment(name: str, seed: int, cx) -> dict:
    import numpy

    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "comaximal": cx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git; "unknown" elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cx, workload, rng = set_up(args.workload, args.seed)
    except KeyError:
        parser.error(f"unknown workload {args.workload!r}")
    workload.expected = workloads.load_expected()
    env = environment(args.workload, args.seed, cx)
    calib_start = calibrate()
    if args.trace:
        order = workload.ordered(rng)
        traced, untraced, tracer, problems = traced_pass(cx, args.workload, workload.expected, order)
        passes = [traced, untraced]
        calib_end = calibrate()
        values = per_layer(tracer, traced, untraced, (calib_start + calib_end) / 2)
        units = {k: per_layer_unit(k) for k in values}
        spans_record = tracer.spans
        measured = speed = None
        notes = [f"one pass, each item traced then untraced; spans={len(tracer.spans)} "
                 f"hook_errors={tracer.counts['trace.hook_errors']}"]
    else:
        setup_raw, setup = measure_setup(args.workload, args.seed)
        speed = SpeedProbe()
        passes = timed_passes(cx, workload, rng, args.seconds, speed)
        problems = []
        calib_end = calibrate()
        items = len(workload.items)
        values = end_to_end(passes, items, setup, speed.scale)
        measured = end_to_end(passes, items, setup_raw, lambda _: 1.0)
        units = dict(END_TO_END_UNITS)
        spans_record = None
        notes = [
            f"times are scaled by the speed probe: {len(speed.took_ns)} probes, median "
            f"{speed.median_ms():.4f} ms, reference {REFERENCE_PROBE_NS / 1e6:g} ms",
            "setup_s is the median of these fresh processes, scaled: "
            + " ".join(f"{s:.4f}" for s in setup),
            f"item_ms_tail is p{tail_percentile(items):g} of {items} items, "
            f"each the mean of its {sum(len(p.order) for p in passes) / items:.2f} runs on average",
        ]
        notes += [f"measured.{k}={v!r} {units[k]}" for k, v in measured.items()]

    attempted = sum(len(p.outputs) for p in passes)
    failed = sum(len(p.failed_items) for p in passes)
    errors = [e for p in passes for e in p.errors] + problems
    correct = not errors

    lines = [f"{k}={v!r}" for k, v in env.items()]
    lines.append(f"passes={len(passes)} items_per_pass={len(workload.items)} pass_s="
                 + " ".join(f"{p.wall_ns / 1e9:.3f}" for p in passes))
    lines.append(f"host.calib_ms start={calib_start:.3f} end={calib_end:.3f}")
    lines += notes
    lines += [f"{k}={v!r} {units[k]}" for k, v in values.items()]
    lines.append(f"error_share={failed / attempted!r} ({failed} of {attempted} items)")
    for e in errors[:20]:
        print(f"ERROR {e}", file=sys.stderr)

    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record = {
        "environment": env,
        "host.calib_ms": {"start": calib_start, "end": calib_end},
        "notes": notes,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "measured": measured,
        "speed_probes_ns": speed and speed.took_ns,
        "spans": spans_record,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))
        fh.write("\n")
    lines.append(f"record={out_path.relative_to(ROOT)}")

    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
