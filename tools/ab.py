"""A/B comparison of two checkouts on one benchmark workload.

    python tools/ab.py PARENT CHANGE --workload W --pairs N --seed S [--seconds 25]

Runs ``perfbench/run.py`` in each checkout, one pair of runs per seed S, S + 1, ...,
S + N - 1, alternating which side runs first, and reads the JSON object on the last
line of each run's stdout.  For each end-to-end metric it prints each side's median
and quartiles, and in how many pairs the change was better; then the items each side
attempted.  The exit code is 1 when any run reads ``correct: false`` or prints no
result line.  Standard library only; nothing is written beyond what ``run.py`` writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The result object of one ``run.py`` run in `checkout`, or None when it printed none."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(f"{checkout} seed {seed}: no result line (exit {proc.returncode})\n{proc.stderr}")
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method; one value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """Table lines for (parent, change) result objects of the same seeds.

    `better` maps each end-to-end metric to "lower" or "higher".  A pair is won when the
    change's value is strictly better; the last column says whether the medians differ by
    more than the parent's interquartile range.
    """
    lines = [f"{'metric':14} {'parent median [q1, q3]':31}{'change median [q1, q3]':31}{'won':10}"
             "|diff| > parent IQR"]
    for name, direction in better.items():
        values = [[p["metrics"][name]["value"] for p in side] for side in zip(*pairs)]
        (p1, pm, p3), (c1, cm, c3) = (quartiles(v) for v in values)
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(*values))
        lines.append(f"{name:14} " + f"{pm:.6g} [{p1:.6g}, {p3:.6g}]".ljust(31)
                     + f"{cm:.6g} [{c1:.6g}, {c3:.6g}]".ljust(31) + f"{won} of {len(pairs)}".ljust(10)
                     + ("yes" if abs(cm - pm) > p3 - p1 else "no"))
    for label, side in zip(SIDES, zip(*pairs)):
        attempted = [r["attempted"] for r in side]
        failed = sum(r["failed"] for r in side)
        lines.append(f"attempted {label}: median {statistics.median(attempted):g}, runs "
                     + " ".join(map(str, attempted)) + f"; failed items {failed}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)

    better = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    pairs, ok = [], True
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {}
        for side in order:
            results[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
            result = results[side]
            ok &= result is not None and result["correct"]
            print(f"pair {i + 1} seed {seed} {side}: "
                  + ("no result" if result is None else
                     f"correct={result['correct']} attempted={result['attempted']} "
                     f"item_ms_p50={result['metrics']['item_ms_p50']['value']:.4f}"), flush=True)
        if all(results.values()):
            pairs.append((results["parent"], results["change"]))
    if pairs:
        print(f"workload {args.workload}, {len(pairs)} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
              f"{args.seconds:g} s")
        print("\n".join(summarize(pairs, better)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
