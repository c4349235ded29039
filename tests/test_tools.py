"""The A/B summary of `tools/ab.py` on canned benchmark result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

AB_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", AB_PATH)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

BETTER = {"items_per_s": "higher", "item_ms_p50": "lower"}


def result_line(items_per_s: float, p50: float, attempted: int, correct: bool = True) -> dict:
    """One run's last stdout line, in the shape `perfbench/run.py` prints it, parsed."""
    metrics = {"setup_s": {"value": 0.2, "unit": "s"},
               "items_per_s": {"value": items_per_s, "unit": "1/s"},
               "item_ms_p50": {"value": p50, "unit": "ms"},
               "item_ms_tail": {"value": 5.0, "unit": "ms"},
               "peak_rss_mb": {"value": 80.0, "unit": "MB"}}
    line = json.dumps({"correct": correct, "attempted": attempted, "failed": 0, "metrics": metrics})
    return json.loads(line)


# Five pairs: the change is faster in four (pair 3 is a tie on p50 and a loss on items_per_s).
PAIRS = [
    (result_line(1000, 0.44, 19000), result_line(1050, 0.37, 20000)),
    (result_line(990, 0.45, 18800), result_line(1040, 0.38, 19900)),
    (result_line(1010, 0.43, 19100), result_line(1000, 0.43, 19000)),
    (result_line(1005, 0.44, 19050), result_line(1060, 0.36, 20100)),
    (result_line(995, 0.46, 18900), result_line(1055, 0.37, 20050)),
]


def test_summary_counts_wins_in_each_metrics_direction():
    lines = ab.summarize(PAIRS, BETTER)
    rows = {line.split()[0]: line for line in lines[1:3]}
    assert rows["items_per_s"].split()[1:2] == ["1000"]  # parent median of 990..1010
    # Parent p50 quartiles 0.44 and 0.45 (IQR 0.01); the medians differ by 0.07.
    assert rows["item_ms_p50"].split() == ["item_ms_p50", "0.44", "[0.44,", "0.45]", "0.37", "[0.37,",
                                           "0.38]", "4", "of", "5", "yes"]
    assert rows["items_per_s"].split()[-4:] == ["4", "of", "5", "yes"]


def test_summary_lists_the_items_each_side_attempted():
    lines = ab.summarize(PAIRS, BETTER)
    assert lines[-2] == "attempted parent: median 19000, runs 19000 18800 19100 19050 18900; failed items 0"
    assert lines[-1] == "attempted change: median 20000, runs 20000 19900 19000 20100 20050; failed items 0"


def test_summary_says_no_when_the_medians_are_within_the_parents_spread():
    pairs = [(result_line(1000 + 10 * i, 0.40 + 0.01 * i, 100), result_line(1001 + 10 * i, 0.405, 100))
             for i in range(4)]
    rows = ab.summarize(pairs, BETTER)
    assert rows[1].split()[-4:] == ["4", "of", "4", "no"]  # items_per_s: won by less than the IQR
    assert rows[2].split()[-4:] == ["3", "of", "4", "no"]  # item_ms_p50: pair 1 lost


@pytest.mark.parametrize("correct", [True, False])
def test_exit_code_follows_correctness(correct, monkeypatch, capsys):
    monkeypatch.setattr(ab, "run_once", lambda *args: result_line(1000, 0.4, 10, correct))
    status = ab.main(["a", "b", "--workload", "pair_claims", "--pairs", "2", "--seed", "1"])
    assert status == (0 if correct else 1)
    assert "2 pairs, seeds 1-2" in capsys.readouterr().out
