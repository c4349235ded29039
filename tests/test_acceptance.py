"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Each test records `criterion N: pass|FAIL (elapsed)`; conftest.py echoes
the collected lines in the terminal summary so they are visible in normal
captured runs. Stated runtime budgets are enforced with assertions.
"""

import hashlib
import json
import time
from functools import lru_cache
from itertools import combinations

from comaximal import (
    RingAnalysis,
    SimpleGraph,
    are_isomorphic,
    build_comaximal_graph,
    disjoint_union,
    expression_size,
    join,
    load_table_ring,
    maximal_ideals_bruteforce,
    metrics,
    parse_expression,
    product_family,
    revalidate_report,
    ring_from_text,
    ring_isomorphic,
    save_report,
    sweep,
    verify_pair,
    verify_ring,
    zn_family,
)
from comaximal.errors import RingAxiomError

from oracles import distinct_primes

PRODUCT_BASES = (
    "Z/2", "Z/3", "Z/4", "Z/5", "Z/8", "Z/9",
    "GF(4)", "Z/2[x]/(x^2)", "SQZ(2,2)",
)
STRUCTURE_CLAIMS = (
    "L2.1a", "L2.1b", "JOIN", "T2.2", "P2.3", "P2.4a", "T2.5",
    "T3.1", "L3.2", "P3.3b", "P4.7a", "P4.7b", "P4.7c", "SB-chi",
)


VERDICTS: list[str] = []


def announce(number, ok, elapsed, detail=""):
    verdict = "pass" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    line = f"criterion {number}: {verdict} ({elapsed:.2f}s){suffix}"
    VERDICTS.append(line)
    print(line)


@lru_cache(maxsize=1)
def corpus_specs():
    seen = dict.fromkeys(zn_family(200))
    seen.update(dict.fromkeys(product_family(PRODUCT_BASES, 3, 512)))
    return tuple(seen)


def complete(n):
    return SimpleGraph.from_edges(n, list(combinations(range(n), 2)))


def edgeless(n):
    return SimpleGraph.from_edges(n, [])


def complete_bipartite(a, b):
    return SimpleGraph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def full_graph(spec):
    return build_comaximal_graph(ring_from_text(spec), "full")


def test_criterion_1_worked_example_graphs():
    start = time.monotonic()
    failures = []

    quartets = [
        (["Z/4", "Z/2[x]/(x^2)"], join(complete(2), edgeless(2))),
        (["Z/8", "Z/2[x]/(x^3)", "SQZ(2,2)"], join(complete(4), edgeless(4))),
        (
            ["Z/2 x Z/8", "Z/4 x Z/4"],
            join(disjoint_union(complete_bipartite(4, 4), edgeless(4)), complete(4)),
        ),
    ]
    for specs, model in quartets:
        graphs = [full_graph(s) for s in specs]
        for g, spec in zip(graphs, specs):
            if are_isomorphic(g, model) is None:
                failures.append(f"{spec} does not match its closed-form graph")
        for (sa, ga), (sb, gb) in combinations(zip(specs, graphs), 2):
            if are_isomorphic(ga, gb) is None:
                failures.append(f"{sa} and {sb} graphs not isomorphic")

    core = build_comaximal_graph(ring_from_text("Z/2 x Z/8"), "core")
    if are_isomorphic(core, complete_bipartite(4, 4)) is None:
        failures.append("core of Z/2 x Z/8 is not K_{4,4}")
    if ring_isomorphic(ring_from_text("Z/2 x Z/8"), ring_from_text("Z/4 x Z/4")) is not None:
        failures.append("Z/2 x Z/8 and Z/4 x Z/4 reported ring-isomorphic")

    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 1.0
    announce(1, ok, elapsed)
    assert not failures, failures
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"


def test_criterion_2_composite_modulus_diameters():
    start = time.monotonic()
    failures = []
    for n in range(4, 1001):
        primes = distinct_primes(n)
        if primes == [n]:
            continue
        ring = ring_from_text(f"Z/{n}")
        m = metrics(build_comaximal_graph(ring, "core"))
        if len(primes) == 1:
            if not m.is_empty:
                failures.append(f"n={n}: expected empty core, got {m.n} vertices")
        elif len(primes) == 2:
            if m.diameter != 2:
                failures.append(f"n={n}: expected diameter 2, got {m.diameter}")
        else:
            if m.diameter != 3:
                failures.append(f"n={n}: expected diameter 3, got {m.diameter}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    announce(2, ok, elapsed)
    assert not failures, failures[:10]
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.2f}s"


def test_criterion_3_structure_corpus():
    start = time.monotonic()
    report = sweep(corpus_specs(), STRUCTURE_CLAIMS)
    entries = report["entries"]
    fails = [e for e in entries if e["outcome"] == "fail"]
    broken = [e for e in entries if e["outcome"] == "skip"
              and str(e.get("skip_reason", "")).startswith("construction failed")]
    passed_ids = {e["claim"] for e in entries if e["outcome"] == "pass"}
    missing = [cid for cid in STRUCTURE_CLAIMS if cid not in passed_ids]

    elapsed = time.monotonic() - start
    ok = not fails and not broken and not missing and elapsed < 600.0
    announce(3, ok, elapsed, f"rings={len(corpus_specs())} entries={len(entries)}")
    assert len(entries) == len(corpus_specs()) * len(STRUCTURE_CLAIMS)
    assert not broken, broken[:5]
    assert not missing, f"claims with no passing instance: {missing}"
    assert not fails, fails[:5]
    assert elapsed < 600.0, f"runtime budget exceeded: {elapsed:.2f}s"


def test_criterion_4_oracle_equivalence():
    start = time.monotonic()
    failures = []
    small = [s for s in corpus_specs() if expression_size(parse_expression(s)) <= 64]
    for spec in small:
        ring = ring_from_text(spec)
        for a in range(ring.size):
            for b in range(a, ring.size):
                if ring.is_comaximal(a, b) != ring.is_comaximal_via_closure(a, b):
                    failures.append(f"{spec}: adjacency oracles disagree at ({a},{b})")
        if set(ring.maximal_ideals) != set(maximal_ideals_bruteforce(ring)):
            failures.append(f"{spec}: maximal ideal oracles disagree")
    elapsed = time.monotonic() - start
    ok = not failures
    announce(4, ok, elapsed, f"rings={len(small)}")
    assert len(small) > 100
    assert not failures, failures[:10]


def test_criterion_5_reduced_rigidity_desk_check():
    start = time.monotonic()
    failures = []
    specs = product_family(("Z/2", "Z/3", "GF(4)", "Z/5"), 3, 32)
    rings = [ring_from_text(s) for s in specs]
    graphs = [build_comaximal_graph(r, "full") for r in rings]
    assert all(r.is_reduced for r in rings)
    for i in range(len(specs)):
        for j in range(i, len(specs)):
            graph_iso = are_isomorphic(graphs[i], graphs[j]) is not None
            ring_iso = ring_isomorphic(rings[i], rings[j]) is not None
            if graph_iso != ring_iso:
                failures.append(
                    f"{specs[i]} vs {specs[j]}: graph_iso={graph_iso} ring_iso={ring_iso}"
                )
    elapsed = time.monotonic() - start
    ok = not failures
    announce(5, ok, elapsed, f"rings={len(specs)}")
    assert len(specs) == 23
    assert not failures, failures[:10]


# sha256 of the JSON list [ring, ring, witness] over criterion 6's isomorphic pairs, in its order.
CRITERION_6_WITNESS_SHA256 = "0d29c01c7d1f2c437827be189353419e887a98098e76d7db5af45eb553ca945f"


def test_criterion_6_residue_transfer_across_isomorphic_graphs():
    start = time.monotonic()
    failures = []
    groups = {}
    for spec in corpus_specs():
        ring = ring_from_text(spec)
        g = build_comaximal_graph(ring, "full")
        key = (ring.size, len(ring.units), tuple(sorted(g.degrees())))
        groups.setdefault(key, []).append(spec)

    iso_pairs = []
    witnesses = []
    for members in groups.values():
        if len(members) < 2:
            continue
        analyses = [RingAnalysis(ring_from_text(s), text=s) for s in members]
        for (sa, aa), (sb, ab) in combinations(zip(members, analyses), 2):
            witness = are_isomorphic(aa.graph("full"), ab.graph("full"))
            if witness is None:
                continue
            iso_pairs.append((sa, sb))
            witnesses.append([sa, sb, list(witness)])
            if sorted(aa.ring.residue_field_sizes) != sorted(ab.ring.residue_field_sizes):
                failures.append(f"{sa} vs {sb}: residue field multisets differ")
                continue
            (report,) = verify_pair(aa, ab, ["T4.4"])
            if report.outcome != "pass":
                failures.append(f"{sa} vs {sb}: T4.4 {report.outcome} ({report.skip_reason})")

    elapsed = time.monotonic() - start
    found = set(iso_pairs)
    expected_pairs = [("Z/4", "Z/2[x]/(x^2)"), ("Z/2 x Z/8", "Z/4 x Z/4")]
    for pair in expected_pairs:
        if pair not in found and (pair[1], pair[0]) not in found:
            failures.append(f"known isomorphic-graph pair missing: {pair}")
    digest = hashlib.sha256(json.dumps(witnesses).encode()).hexdigest()
    ok = not failures and len(iso_pairs) >= 5 and digest == CRITERION_6_WITNESS_SHA256
    announce(6, ok, elapsed, f"pairs={len(iso_pairs)}")
    assert len(iso_pairs) >= 5
    # The witnesses themselves are pinned: a faster search must find the same maps.
    assert digest == CRITERION_6_WITNESS_SHA256
    assert not failures, failures[:10]


def test_criterion_7_sweep_determinism(tmp_path):
    start = time.monotonic()
    specs = zn_family(48) + product_family(("Z/2", "Z/9", "GF(4)"), 2, 96)
    blobs = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        save_report(sweep(specs), str(path))
        blobs.append(path.read_bytes())
    elapsed = time.monotonic() - start
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    announce(7, ok, elapsed)
    assert ok, "repeated sweep runs differ byte for byte"


def test_criterion_8_negative_controls(tmp_path):
    start = time.monotonic()
    failures = []

    add = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    mul = [[(i * j) % 6 for j in range(6)] for i in range(6)]
    mul[2][3] = mul[3][2] = 1
    flat = {
        "size": 6,
        "one": 1,
        "add": [x for row in add for x in row],
        "mul": [x for row in mul for x in row],
    }
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(flat))
    try:
        load_table_ring(str(corrupted))
        failures.append("corrupted table was accepted")
    except RingAxiomError as exc:
        w = exc.witness
        if exc.law == "associativity(mul)":
            a, b, c = w
            recheck = mul[mul[a][b]][c] != mul[a][mul[b][c]]
        elif exc.law == "distributivity":
            a, b, c = w
            recheck = mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]
        elif exc.law == "commutativity(mul)":
            a, b = w
            recheck = mul[a][b] != mul[b][a]
        else:
            recheck = False
        if not recheck:
            failures.append(f"witness {w} for {exc.law} does not recheck")

    analysis = RingAnalysis(ring_from_text("Z/30"), text="Z/30")
    core = analysis.graph("core")
    rows = list(core.rows)
    for j in range(core.n):
        rows[j] &= ~1
    rows[0] = 0
    analysis._graphs["core"] = SimpleGraph(
        core.n, rows, labels=core.labels, vertex_keys=core.vertex_keys
    )
    (tampered,) = verify_ring(analysis, ["T3.1"])
    if tampered.outcome != "fail":
        failures.append("hand-edited graph did not produce a fail report")
    elif revalidate_report(tampered):
        failures.append("self-audit accepted a report contradicting the ring")

    honest = verify_ring(ring_from_text("Z/30"), ["T3.1"], text="Z/30")[0]
    if not revalidate_report(honest):
        failures.append("self-audit rejected an honest report")

    elapsed = time.monotonic() - start
    ok = not failures
    announce(8, ok, elapsed)
    assert not failures, failures
