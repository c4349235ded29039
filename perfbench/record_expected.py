"""Record the seed results that the corpus_sweep and pair_claims checks compare with.

Run from the repository root, at the commit whose results become the
reference:

    python3 perfbench/record_expected.py

It writes ``perfbench/expected.json``: a digest of each corpus ring's sweep
entries, the digest of the merged sweep report, and the outcomes of each
pair.  The other two workloads need no recording; their oracles are closed
forms.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import comaximal as cx  # noqa: E402

from workloads import EXPECTED_PATH, STRUCTURE_CLAIMS, CorpusSweep, PairClaims, digest  # noqa: E402


def main() -> int:
    sweep = CorpusSweep()
    outputs = {text: sweep.run(cx, text) for text in sweep.items}
    report = cx.sweep(sweep.items, STRUCTURE_CLAIMS)
    blob = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()

    pairs = PairClaims()
    pairs.start_pass()
    outcomes = {}
    for item in pairs.items:
        output = pairs.run(cx, item)
        if len(item) == 2:
            text, partners = item
            for other, reports in zip(partners, output):
                outcomes[f"{text} | {other}"] = [r["outcome"] for r in reports]

    expected = {
        "corpus_sweep": {
            "entries": {text: digest(entries) for text, entries in outputs.items()},
            "report_sha256": hashlib.sha256(blob).hexdigest(),
        },
        "pair_claims": outcomes,
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
