"""The four workloads: their inputs, one item of work each, and their checks.

An *item* is the unit that throughput and latency count.  A workload's
`items` are fixed; the seed only permutes their order (`Workload.ordered`), so the
checks compare results keyed by item and any hidden order dependence in the
package's caches shows up as a mismatch.  Every item calls the package only
through attributes of the ``comaximal`` module, so the wrappers that
`spans.Tracer` installs see every call.

`check` compares one item's output with an oracle that does not use the
package: closed forms from `oracles`, or the seed results recorded in
``expected.json`` by ``record_expected.py``.  `check_pass` runs once per
complete pass over all the items.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations_with_replacement
from math import prod
from pathlib import Path

from oracles import core_diameter, ring_counts, zn_factors

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Criterion 3 of the acceptance gate: Z/2..Z/200 plus products of up to three
# of these bases (with their sizes), at most 512 elements.
PRODUCT_BASES = (
    ("Z/2", 2), ("Z/3", 3), ("Z/4", 4), ("Z/5", 5), ("Z/8", 8), ("Z/9", 9),
    ("GF(4)", 4), ("Z/2[x]/(x^2)", 4), ("SQZ(2,2)", 8),
)
# Each base is local: (size, residue field size).  SQZ(2,2) is F_2 + F_2^2
# with square-zero vector part, so its maximal ideal is the vector part.
BASE_FACTORS = {
    "Z/2": (2, 2), "Z/3": (3, 3), "Z/4": (4, 2), "Z/5": (5, 5), "Z/8": (8, 2), "Z/9": (9, 3),
    "GF(4)": (4, 4), "Z/2[x]/(x^2)": (4, 2), "SQZ(2,2)": (8, 2),
}
STRUCTURE_CLAIMS = (
    "L2.1a", "L2.1b", "JOIN", "T2.2", "P2.3", "P2.4a", "T2.5",
    "T3.1", "L3.2", "P3.3b", "P4.7a", "P4.7b", "P4.7c", "SB-chi",
)
PAIR_CLAIMS = ("T4.4", "C4.6")
# Every claim id of the catalogue, each with a per-layer busy-time metric.
CLAIM_IDS = (
    "L2.1a", "L2.1b", "JOIN", "T2.2", "P2.3", "P2.4a", "P2.4b", "T2.5", "T3.1", "L3.2",
    "P3.3a", "P3.3b", "E3.4", "P4.7a", "P4.7b", "P4.7c", "SB-chi", "T4.4", "C4.6",
)
# Outcome counts over all 884 pairs at the commit that defined the benchmark.
PAIR_OUTCOME_COUNTS = {
    "T4.4": {"pass": 247, "skip": 637},
    "C4.6": {"pass": 78, "skip": 806},
}


def corpus() -> list[tuple[str, int]]:
    """The acceptance corpus as (expression, size), in criterion 3's order."""
    specs = {f"Z/{n}": n for n in range(2, 201)}
    for r in (1, 2, 3):
        for combo in combinations_with_replacement(PRODUCT_BASES, r):
            size = prod(s for _, s in combo)
            if size <= 512:
                specs.setdefault(" x ".join(t for t, _ in combo), size)
    return list(specs.items())


def corpus_factors(text: str) -> list[tuple[int, int]]:
    """Local factors (size, residue field size) of a corpus ring."""
    factors = []
    for term in text.split(" x "):
        if term in BASE_FACTORS:
            factors.append(BASE_FACTORS[term])
        else:
            factors += zn_factors(int(term.removeprefix("Z/")))
    return factors


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""

    def __init__(self, expected: dict | None = None):
        self.expected = expected
        self.items = self.make_items()
        self.index = {item: i for i, item in enumerate(self.items)}

    def ordered(self, rng: random.Random) -> list:
        """Every item once, in an order drawn from `rng`."""
        order = list(self.items)
        rng.shuffle(order)
        return order

    def make_items(self) -> list:
        raise NotImplementedError

    def start_pass(self) -> None:
        """Drop state kept between the items of one pass."""

    def run(self, cx, item):
        raise NotImplementedError

    def check(self, item, output) -> str | None:
        raise NotImplementedError

    def check_pass(self, cx, outputs: dict) -> list[str]:
        return []

    def outcomes(self, item, output) -> list[str]:
        """Claim outcomes in one item's output."""
        return []


class ZnCore(Workload):
    """Criterion 2's loop: Z/n for n = 4..1000, core graph and its metrics."""

    name = "zn_core"

    def make_items(self) -> list:
        return list(range(4, 1001))

    def run(self, cx, n):
        ring = cx.ring_from_text(f"Z/{n}")
        m = cx.metrics(cx.build_comaximal_graph(ring, "core"))
        return [m.vertex_count, m.edge_count, m.diameter]

    def check(self, n, output) -> str | None:
        factors = zn_factors(n)
        counts = ring_counts(factors)
        expected = [counts["core_vertices"], counts["core_edges"], core_diameter(len(factors))]
        if output != expected:
            return f"Z/{n}: core [vertices, edges, diameter] {output}, expected {expected}"
        return None


class CorpusSweep(Workload):
    """Criterion 3: each corpus ring through `sweep` with the 14 structure claims."""

    name = "corpus_sweep"

    def make_items(self) -> list:
        return [text for text, _ in corpus()]

    def run(self, cx, text):
        return cx.sweep([text], STRUCTURE_CLAIMS)["entries"]

    def check(self, text, entries) -> str | None:
        bad = [e["claim"] for e in entries if e["outcome"] == "fail"]
        if bad:
            return f"{text}: claims failed: {bad}"
        if digest(entries) != self.expected["corpus_sweep"]["entries"][text]:
            return f"{text}: sweep entries differ from the recorded seed result"
        return None

    def outcomes(self, text, entries) -> list[str]:
        return [e["outcome"] for e in entries]

    def check_pass(self, cx, outputs: dict) -> list[str]:
        """The merged report, written as `save_report` writes it, has the seed digest."""
        rank = {cid: i for i, (cid, _, _) in enumerate(cx.claim_catalog())}
        entries = sorted(
            (e for chunk in outputs.values() for e in chunk),
            key=lambda e: (e["rings"], rank[e["claim"]]),
        )
        summary = {"pass": 0, "fail": 0, "skip": 0}
        for e in entries:
            summary[e["outcome"]] += 1
        report = {
            "tool_version": cx.__version__,
            "caps": cx.Caps().to_json(),
            "entries": entries,
            "summary": summary,
        }
        blob = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
        found = hashlib.sha256(blob).hexdigest()
        if found != self.expected["corpus_sweep"]["report_sha256"]:
            return [f"merged sweep report digest {found} differs from the seed digest"]
        return []


class PairClaims(Workload):
    """`verify_pair` (T4.4, C4.6) on every unordered pair of equal-size corpus rings.

    Each pass first prepares every ring that a pair uses, one item per ring
    ``(text,)``: its `RingAnalysis` with the full graph and the ring
    structure that the two claims read, as a caller comparing a family would
    build once.  Then each ring is checked against every equal-size ring
    after it in the corpus, one item per ring ``(text, partners)`` with one
    `verify_pair` call per partner.

    Had a ring's analysis been built by the first pair that needs it, what a
    pair costs would depend on the seed's order.  A single pair is too small
    an item: most take 25 to 100 us, and their median moved by half from
    pass to pass at the same machine speed.
    """

    name = "pair_claims"

    def make_items(self) -> list:
        pairs = self.pair_items()
        partners: dict = {}
        for first, second in pairs:
            partners.setdefault(first, []).append(second)
        rings = dict.fromkeys(text for pair in pairs for text in pair)
        return [(text,) for text in rings] + [(text, tuple(rest)) for text, rest in partners.items()]

    @staticmethod
    def pair_items() -> list:
        rings = corpus()
        return [
            (a, b)
            for i, (a, size_a) in enumerate(rings)
            for b, size_b in rings[i + 1:]
            if size_a == size_b
        ]

    def ordered(self, rng: random.Random) -> list:
        """Every ring in an order drawn from `rng`, then every row of pairs in another."""
        rings = [item for item in self.items if len(item) == 1]
        rows = [item for item in self.items if len(item) == 2]
        rng.shuffle(rings)
        rng.shuffle(rows)
        return rings + rows

    def start_pass(self) -> None:
        self.analyses = {}

    def run(self, cx, item):
        if len(item) == 1:
            return self.prepare(cx, item[0])
        text, partners = item
        first = self.analyses[text]
        return [
            [r.to_json() for r in cx.verify_pair(first, self.analyses[other], PAIR_CLAIMS)]
            for other in partners
        ]

    def prepare(self, cx, text) -> list:
        analysis = self.analyses[text] = cx.RingAnalysis(cx.ring_from_text(text), text=text)
        graph = analysis.graph("full")
        ring = analysis.ring
        # What T4.4, C4.6 and ring isomorphism read from a ring and keep.
        for name in ("maximal_ideals", "residue_field_sizes", "characteristic",
                     "unit_flags", "idempotent_elements", "nilpotent_elements"):
            getattr(ring, name)
        return [graph.n, graph.edge_count, ring.is_reduced]

    def check(self, item, output) -> str | None:
        if len(item) == 1:
            factors = corpus_factors(item[0])
            counts = ring_counts(factors)
            expected = [counts["full_vertices"], counts["full_edges"], all(s == q for s, q in factors)]
            if output != expected:
                return f"{item[0]}: full graph [vertices, edges, reduced] {output}, expected {expected}"
            return None
        text, partners = item
        for other, reports in zip(partners, output):
            outcomes = [r["outcome"] for r in reports]
            expected = self.expected["pair_claims"][f"{text} | {other}"]
            if outcomes != expected:
                return f"{(text, other)}: outcomes {outcomes}, expected {expected}"
        return None

    def outcomes(self, item, output) -> list[str]:
        return [r["outcome"] for reports in output for r in reports] if len(item) == 2 else []

    def check_pass(self, cx, outputs: dict) -> list[str]:
        counts = {cid: {} for cid in PAIR_CLAIMS}
        for item, output in outputs.items():
            for r in (r for reports in output for r in reports) if len(item) == 2 else ():
                per_claim = counts[r["claim"]]
                per_claim[r["outcome"]] = per_claim.get(r["outcome"], 0) + 1
        if counts != PAIR_OUTCOME_COUNTS:
            return [f"pair outcome counts {counts}, expected {PAIR_OUTCOME_COUNTS}"]
        return []


# expression -> (local factors as (size, residue field size), graphs built).
# The full graphs of Z/4095 (7.0 M edges, about 17 s on a 2-vCPU x86_64 VM)
# and (Z/2)^12 (about 10 s there, twin-free) are left out so that one pass fits a run; Z/2310 and the
# GF(8) product keep full graphs with millions of edges, and (Z/2)^12 keeps
# the twin-free core.
LARGE_RINGS = {
    "Z/4095": ([(9, 3), (5, 5), (7, 7), (13, 13)], ("core",)),
    "Z/2310": ([(2, 2), (3, 3), (5, 5), (7, 7), (11, 11)], ("full", "core")),
    "GF(8) x Z/9 x Z/7 x Z/5": ([(8, 8), (9, 3), (7, 7), (5, 5)], ("full", "core")),
    " x ".join(["Z/2"] * 12): ([(2, 2)] * 12, ("core",)),
}
FULL_DIAMETER = 2


class LargeRings(Workload):
    """Desk-scale rings: ring structure, then each graph with its metrics."""

    name = "large_rings"

    def make_items(self) -> list:
        return list(LARGE_RINGS)

    def run(self, cx, text):
        ring = cx.ring_from_text(text)
        out = {
            "units": len(ring.units),
            "radical": len(ring.jacobson_radical),
            "residue_fields": list(ring.residue_field_sizes),
        }
        for selector in LARGE_RINGS[text][1]:
            m = cx.metrics(cx.build_comaximal_graph(ring, selector))
            out[selector] = [m.vertex_count, m.edge_count, m.diameter]
        return out

    def check(self, text, output) -> str | None:
        factors, selectors = LARGE_RINGS[text]
        counts = ring_counts(factors)
        expected = {key: counts[key] for key in ("units", "radical", "residue_fields")}
        for selector in selectors:
            diameter = FULL_DIAMETER if selector == "full" else core_diameter(len(factors))
            expected[selector] = [counts[f"{selector}_vertices"], counts[f"{selector}_edges"], diameter]
        if output != expected:
            return f"{text}: {output}, expected {expected}"
        return None


WORKLOADS = {w.name: w for w in (ZnCore, CorpusSweep, LargeRings, PairClaims)}
