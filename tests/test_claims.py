"""Claim checker, sweep, and report audit tests."""

import copy
import dataclasses
import json
import random
import tracemalloc

import pytest

import comaximal
from comaximal import (
    CapacityError,
    Caps,
    RingAnalysis,
    SimpleGraph,
    build_comaximal_graph,
    claim_catalog,
    corpus_family,
    join,
    product_family,
    revalidate_report,
    ring_from_text,
    ring_isomorphic,
    save_report,
    sweep,
    verify_pair,
    verify_isomorphism,
    verify_ring,
    zn_family,
)
from comaximal.claims import CLAIM_ORDER, PAIR_CLAIMS, SINGLE_CLAIMS, _sweep_one
from comaximal.rings import RingTable

from conftest import run_python
from oracles import (
    coset_lifting_witness,
    coset_units_witness,
    distinct_primes,
    first_difference_by_rows,
    join_witness,
    quotient_graph_witness,
    residue_match_witness,
)


def one_report(text: str, claim: str):
    ring = ring_from_text(text)
    reports = verify_ring(ring, [claim], text=text)
    assert len(reports) == 1
    return reports[0]


def outcome(text: str, claim: str) -> str:
    return one_report(text, claim).outcome


def counted_checks(monkeypatch) -> list[str]:
    """Replace every registered spec by one whose check logs its claim id."""
    calls: list[str] = []
    for registry in (SINGLE_CLAIMS, PAIR_CLAIMS):
        for cid, spec in list(registry.items()):

            def check(*args, _cid=cid, _inner=spec.check):
                calls.append(_cid)
                return _inner(*args)

            monkeypatch.setitem(registry, cid, dataclasses.replace(spec, check=check))
    return calls


class TestCatalog:
    def test_registry_contents(self):
        ids = [cid for cid, _, _ in claim_catalog()]
        assert ids == list(SINGLE_CLAIMS) + list(PAIR_CLAIMS)
        for expected in ("L2.1a", "L2.1b", "JOIN", "T2.2", "P2.3", "P2.4a",
                         "P2.4b", "T2.5", "T3.1", "L3.2", "P3.3a", "P3.3b",
                         "E3.4", "P4.7a", "P4.7b", "P4.7c", "SB-chi"):
            assert expected in SINGLE_CLAIMS
        assert list(PAIR_CLAIMS) == ["T4.4", "C4.6"]

    def test_claim_order_is_total(self):
        assert sorted(CLAIM_ORDER.values()) == list(range(len(CLAIM_ORDER)))

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            verify_ring(ring_from_text("Z/6"), ["NOPE"])

    def test_unknown_claim_rejected_before_any_checker_runs(self, monkeypatch):
        calls = counted_checks(monkeypatch)
        with pytest.raises(ValueError, match="BOGUS"):
            verify_ring(ring_from_text("Z/6"), ["T3.1", "BOGUS"])
        with pytest.raises(ValueError, match="BOGUS"):
            verify_pair(ring_from_text("Z/6"), ring_from_text("Z/10"), ["T4.4", "BOGUS"])
        assert calls == []

    def test_replaced_spec_is_the_one_called(self, monkeypatch):
        """Every driver reads the check from the registry when it runs it."""
        calls = counted_checks(monkeypatch)
        rings = [ring_from_text("Z/6"), ring_from_text("Z/10")]
        verify_ring(rings[0], ["T3.1"])
        (pair_report,) = verify_pair(*rings, ["T4.4"])
        (entry,) = sweep(["Z/6"], ["T3.1"])["entries"]
        assert revalidate_report(entry) and revalidate_report(pair_report, rings)
        assert calls == ["T3.1", "T4.4", "T3.1", "T3.1", "T4.4"]


class TestSingleClaims:
    def test_all_pass_on_z12(self):
        reports = verify_ring(ring_from_text("Z/12"), text="Z/12")
        by_id = {r.claim: r for r in reports}
        assert len(reports) == len(SINGLE_CLAIMS)
        assert all(r.outcome != "fail" for r in reports)
        assert by_id["P3.3a"].outcome == "skip"
        assert by_id["T3.1"].outcome == "pass"
        assert by_id["T3.1"].witness == {"diameter": 2}

    def test_t22_both_sides(self):
        assert outcome("Z/12", "T2.2") == "pass"
        assert outcome("Z/30", "T2.2") == "pass"

    def test_p23_skips_local(self):
        report = one_report("Z/8", "P2.3")
        assert report.outcome == "skip"
        assert "two maximal ideals" in report.skip_reason

    def test_p23_counts(self):
        report = one_report("Z/30", "P2.3")
        assert report.outcome == "pass"
        assert report.witness["clique"] == 3
        assert report.witness["chromatic"] == 3

    def test_p24b_z2_x_field(self):
        report = one_report("Z/2 x GF(4)", "P2.4b")
        assert report.outcome == "pass"
        assert report.witness["ring_isomorphism"] == "verified"

    def test_p24b_verified_above_the_ring_isomorphism_cap(self):
        report = one_report("Z/2 x GF(64)", "P2.4b")
        assert report.outcome == "pass"
        assert report.witness == {
            "universal_vertices": 1,
            "field_size": 64,
            "ring_isomorphism": "verified",
        }

    @pytest.mark.parametrize("text", ["Z/2 x GF(4)", "Z/34", "Z/2 x GF(64)", "Z/12", "Z/30"])
    def test_p24b_ignores_the_ring_isomorphism_cap(self, text):
        ring = ring_from_text(text)
        (capped,) = verify_ring(ring, ["P2.4b"], text=text, caps=Caps(max_ringiso_size=2))
        (default,) = verify_ring(ring, ["P2.4b"], text=text)
        assert capped.to_json() == default.to_json()

    @pytest.mark.parametrize("text", ["Z/2 x GF(4)", "Z/106"])
    def test_p24b_builds_and_searches_no_ring(self, text, monkeypatch):
        ring = ring_from_text(text)
        calls = []
        for name in ("ring_from_text", "ring_isomorphic"):
            monkeypatch.setattr(comaximal.claims, name, lambda *a, name=name, **k: calls.append(name))
        (report,) = verify_ring(ring, ["P2.4b"], text=text)
        assert report.outcome == "pass"
        assert report.witness["ring_isomorphism"] == "verified"
        assert calls == []

    def test_p24b_no_universal_vertex(self):
        report = one_report("Z/30", "P2.4b")
        assert report.outcome == "pass"
        assert report.witness == {"universal_vertices": 0}

    def test_t25_product_decomposition(self):
        report = one_report("Z/12", "T2.5")
        assert report.outcome == "pass"
        assert report.witness["local_factor_sizes"] == [3, 4]

    def test_t25_local(self):
        report = one_report("Z/8", "T2.5")
        assert report.outcome == "pass"
        assert report.witness["core"] == "empty"

    def test_l32_on_z2xz2(self):
        report = one_report("Z/2 x Z/2", "L3.2")
        assert report.outcome == "pass"
        assert report.witness["diameter"] == "1"
        assert report.witness["is_z2xz2"] is True

    def test_l32_elsewhere(self):
        report = one_report("Z/2 x Z/4", "L3.2")
        assert report.outcome == "pass"
        assert report.witness["is_z2xz2"] is False

    def test_p33b_two_ideals(self):
        report = one_report("Z/12", "P3.3b")
        assert report.outcome == "pass"
        assert report.witness["diameter"] == "2"

    def test_e34_diameters(self):
        for n, expected in ((8, "empty-core"), (12, 2), (30, 3), (210, 3)):
            report = one_report(f"Z/{n}", "E3.4")
            assert report.outcome == "pass"
            assert report.witness["distinct_primes"] == len(distinct_primes(n))
            if expected == "empty-core":
                assert report.witness["core_vertices"] == 0
            else:
                assert report.witness["diameter"] == str(expected)

    def test_e34_skips_non_zn(self):
        assert outcome("Z/2 x Z/2", "E3.4") == "skip"
        assert outcome("GF(4)", "E3.4") == "skip"

    def test_sb_chi_values(self):
        report = one_report("Z/12", "SB-chi")
        assert report.outcome == "pass"
        assert report.witness == {"clique": 6, "chromatic": 6, "expected": 6}

    def test_sb_chi_respects_ring_size_limit(self):
        report = one_report("Z/128", "SB-chi")
        assert report.outcome == "skip"
        assert "64" in report.skip_reason

    def test_p47_on_nontrivial_radical(self):
        for claim in ("P4.7a", "P4.7b", "P4.7c"):
            report = one_report("Z/12", claim)
            assert report.outcome == "pass", (claim, report.skip_reason)

    def test_p47_trivial_radical_shortcut(self):
        for claim in ("P4.7a", "P4.7b"):
            report = one_report("Z/30", claim)
            assert report.outcome == "pass"
            assert "radical is zero" in report.witness["note"]

    def test_p47c_quotient_size(self):
        report = one_report("Z/2 x Z/8", "P4.7c")
        assert report.outcome == "pass"
        assert report.witness["quotient_size"] == 4

    def test_coset_claims_unpack_the_full_graph_in_blocks(self):
        # The full graph of Z/2 x Z/2048 unpacks to a 16.8 MB matrix; P4.7a/b/c read it in blocks.
        a = RingAnalysis(ring_from_text("Z/2 x Z/2048"), text="Z/2 x Z/2048")
        a.graph("full").packed  # the graph's packed rows are made when first read
        a.ring.quotient(a.ring.jacobson_radical)
        tracemalloc.start()
        try:
            reports = verify_ring(a, ["P4.7a", "P4.7b", "P4.7c"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.outcome for r in reports] == ["pass"] * 3
        assert [r.witness for r in reports] == [
            {"cosets": 4},
            {"cosets": 4, "unit_cosets": 1},
            {"quotient_size": 4},
        ]
        assert peak < 4_000_000

    def test_join_reads_the_graphs_in_blocks(self):
        # Z/2 x Z/2048's graphs have 4,096 vertices: a dense matrix on them takes 16.8 MB.
        a = RingAnalysis(ring_from_text("Z/2 x Z/2048"), text="Z/2 x Z/2048")
        for selector in ("full", "units", "nonunits"):
            a.graph(selector).packed  # the graphs' packed rows are made when first read
        tracemalloc.start()
        try:
            (report,) = verify_ring(a, ["JOIN"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.outcome, report.witness) == ("pass", {"edges": 4_718_080})
        assert peak < 8_000_000

    def test_capacity_becomes_skip(self):
        caps = Caps(max_exact_vertices=2)
        reports = verify_ring(ring_from_text("Z/30"), ["P2.3"], caps=caps)
        assert reports[0].outcome == "skip"

    def test_analysis_reuse(self):
        analysis = RingAnalysis(ring_from_text("Z/36"), text="Z/36")
        first = verify_ring(analysis, ["T2.2"])
        second = verify_ring(analysis, ["T3.1"])
        assert first[0].outcome == "pass"
        assert second[0].outcome == "pass"


# The single-ring claims that apply to every ring, as the corpus benchmark runs them.
STRUCTURE_CLAIMS = [
    "L2.1a", "L2.1b", "JOIN", "T2.2", "P2.3", "P2.4a", "T2.5",
    "T3.1", "L3.2", "P3.3b", "P4.7a", "P4.7b", "P4.7c", "SB-chi",
]


class TestStructureFromKernel:
    """T2.5, L3.2 and P3.3b read the kernel's certified structure instead of building rings."""

    @pytest.mark.parametrize("text", ["Z/4", "GF(4)", "Z/2[x]/(x^2)", "Z/2 x Z/2"])
    def test_is_z2xz2_matches_ring_isomorphism(self, text):
        ring = ring_from_text(text)
        expected = ring_isomorphic(ring, ring_from_text("Z/2 x Z/2")) is not None
        assert RingAnalysis(ring).is_z2xz2 is expected
        assert expected is (text == "Z/2 x Z/2")

    @pytest.mark.parametrize("text", ["Z/2", "Z/3", "Z/6", "Z/8", "Z/2 x Z/4", "Z/2 x Z/2 x Z/2"])
    def test_is_z2xz2_false_for_other_sizes(self, text):
        assert RingAnalysis(ring_from_text(text)).is_z2xz2 is False

    @pytest.mark.parametrize("text", ["Z/2 x Z/2", "Z/12", "GF(4) x Z/9"])
    def test_structure_claims_build_no_rings(self, text, monkeypatch):
        calls = []

        def logged(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return call

        component = RingTable.idempotent_component
        monkeypatch.setattr(RingTable, "idempotent_component", logged("component", component))
        for module in (comaximal.rings, comaximal.claims):
            monkeypatch.setattr(module, "ring_isomorphic", logged("isomorphic", ring_isomorphic))
        reports = verify_ring(ring_from_text(text), STRUCTURE_CLAIMS, text=text)
        assert [r.claim for r in reports] == STRUCTURE_CLAIMS
        assert all(r.outcome != "fail" for r in reports)
        assert calls == []


def test_claims_build_no_graph_from_rows(monkeypatch):
    """Claims read graphs built from their classes; none goes through `SimpleGraph(n, rows)`."""
    calls = []
    build = SimpleGraph.__init__

    def counted(self, n, *args, **kwargs):
        calls.append(n)
        build(self, n, *args, **kwargs)

    monkeypatch.setattr(SimpleGraph, "__init__", counted)
    report = sweep(["Z/12", "Z/8 x Z/9", "GF(16)"], STRUCTURE_CLAIMS)
    assert {e["outcome"] for e in report["entries"]} == {"pass", "skip"}
    reports = verify_pair(ring_from_text("Z/30"), ring_from_text("Z/2 x Z/3 x Z/5"))
    assert [r.outcome for r in reports] == ["pass", "pass"]
    assert reports[1].witness["graphs_isomorphic"]
    assert calls == []


def counted_reads(monkeypatch) -> list[str]:
    """Log every read of `SimpleGraph.rows` and `SimpleGraph.packed`, the per-vertex forms."""
    reads: list[str] = []
    for name in ("rows", "packed"):
        get = getattr(SimpleGraph, name).fget
        logged = property(lambda g, get=get, name=name: reads.append(name) or get(g))
        monkeypatch.setattr(SimpleGraph, name, logged)
    return reads


def test_passing_claims_read_no_rows(monkeypatch):
    """Passing claims decide on each graph's classes and Q: no per-vertex row is made, on unit
    heavy rings, with universal core vertices (`Z/2 x GF(4)`) and on 4,096 elements."""
    reads = counted_reads(monkeypatch)
    texts = ["Z/12", "Z/8 x Z/9", "GF(16)", "Z/2 x GF(4)", "Z/2 x Z/2048"]
    report = sweep(texts, STRUCTURE_CLAIMS)
    assert {e["outcome"] for e in report["entries"]} == {"pass", "skip"}
    passed = {e["claim"] for e in report["entries"] if e["outcome"] == "pass"}
    assert passed >= {"L2.1a", "L2.1b", "JOIN", "T2.2", "P2.4a", "P4.7a", "P4.7b", "P4.7c"}
    (report,) = verify_pair(ring_from_text("Z/30"), ring_from_text("Z/2 x Z/3 x Z/5"), ["T4.4"])
    assert report.outcome == "pass"
    assert reads == []


def test_tampered_graphs_read_no_rows(monkeypatch):
    """A full graph with flipped pairs keeps the classes of its rows; JOIN, P4.7c and
    `verify_isomorphism` still read only classes and Q, and decide as the pair-by-pair
    references do, with the same witnesses."""
    reads = counted_reads(monkeypatch)
    fails = 0
    for text in ["Z/12", "SQZ(2,3)", "Z/8 x Z/9"]:
        for a, rep_of in tampered_analyses(text):
            before = len(reads)
            join_report, quotient_report = verify_ring(a, ["JOIN", "P4.7c"])
            full, built = a.graph("full"), build_comaximal_graph(a.ring)
            same = verify_isomorphism(full, built, tuple(range(full.n)))
            assert reads[before:] == []
            assert same == (first_difference_by_rows(full, built) is None)
            joined = join(a.graph("units"), a.graph("nonunits"))
            assert (join_report.outcome, join_report.witness) == join_witness(full, joined)
            reps = sorted(set(rep_of))
            quotient = build_comaximal_graph(a.ring.quotient(a.ring.jacobson_radical)[0])
            expected = quotient_graph_witness(full, reps, quotient) or {"quotient_size": len(reps)}
            assert quotient_report.witness == expected
            fails += (join_report.outcome, quotient_report.outcome).count("fail")
    assert fails > 0


class TestPairClaims:
    def test_graph_isomorphic_product_pair(self):
        reports = verify_pair(
            ring_from_text("Z/2 x Z/8"),
            ring_from_text("Z/4 x Z/4"),
            texts=("Z/2 x Z/8", "Z/4 x Z/4"),
        )
        by_id = {r.claim: r for r in reports}
        assert by_id["T4.4"].outcome == "pass"
        assert by_id["T4.4"].witness["residues"] == [2, 2]
        assert by_id["C4.6"].outcome == "skip"

    def test_crt_pair(self):
        reports = verify_pair(ring_from_text("Z/30"), ring_from_text("Z/2 x Z/3 x Z/5"))
        assert all(r.outcome == "pass" for r in reports)

    def test_c46_detects_agreement_on_nonisomorphic(self):
        reports = verify_pair(ring_from_text("Z/6"), ring_from_text("Z/10"))
        by_id = {r.claim: r for r in reports}
        assert by_id["C4.6"].outcome == "pass"
        assert by_id["C4.6"].witness == {
            "graphs_isomorphic": False,
            "rings_isomorphic": False,
        }

    def test_t44_skips_nonisomorphic_graphs(self):
        reports = verify_pair(ring_from_text("Z/9"), ring_from_text("Z/3 x Z/3"))
        by_id = {r.claim: r for r in reports}
        assert by_id["T4.4"].outcome == "skip"

    def test_nonreduced_local_pair(self):
        reports = verify_pair(ring_from_text("Z/4"), ring_from_text("Z/2[x]/(x^2)"))
        by_id = {r.claim: r for r in reports}
        assert by_id["T4.4"].outcome == "pass"
        assert by_id["C4.6"].outcome == "skip"
        assert "reduced" in by_id["C4.6"].skip_reason


PAIR_ORDERS = [("T4.4", "C4.6"), ("C4.6", "T4.4")]


class TestSharedGraphIsomorphism:
    """One `verify_pair` call runs `are_isomorphic` at most once for T4.4 and C4.6."""

    @staticmethod
    def count_calls(monkeypatch, fn) -> list:
        calls = []

        def counted(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr("comaximal.claims.are_isomorphic", counted)
        return calls

    @staticmethod
    def each_alone(order, caps=None) -> list[dict]:
        rings = ring_from_text("Z/6"), ring_from_text("Z/2 x Z/3")
        return [verify_pair(*rings, [cid], caps=caps)[0].to_json() for cid in order]

    @pytest.mark.parametrize("order", PAIR_ORDERS)
    def test_one_call_for_both_claims(self, monkeypatch, order):
        alone = self.each_alone(order)
        calls = self.count_calls(monkeypatch, comaximal.isomorphism.are_isomorphic)
        together = verify_pair(ring_from_text("Z/6"), ring_from_text("Z/2 x Z/3"), order)
        assert len(calls) == 1
        assert [r.to_json() for r in together] == alone
        assert [r.outcome for r in together] == ["pass", "pass"]

    @pytest.mark.parametrize("order", PAIR_ORDERS)
    def test_capacity_error_is_shared(self, monkeypatch, order):
        def capped(*args):
            raise CapacityError("graph isomorphism refused")

        calls = self.count_calls(monkeypatch, capped)
        alone = self.each_alone(order)
        calls.clear()
        together = verify_pair(ring_from_text("Z/6"), ring_from_text("Z/2 x Z/3"), order)
        assert len(calls) == 1
        assert [r.to_json() for r in together] == alone
        assert [(r.outcome, r.skip_reason) for r in together] == [("skip", "graph isomorphism refused")] * 2

    @pytest.mark.parametrize("order", PAIR_ORDERS)
    def test_graph_cap_skips_unchanged(self, monkeypatch, order):
        caps = Caps(max_graphiso_vertices=4)
        alone = self.each_alone(order, caps)
        calls = self.count_calls(monkeypatch, comaximal.isomorphism.are_isomorphic)
        together = verify_pair(ring_from_text("Z/6"), ring_from_text("Z/2 x Z/3"), order, caps=caps)
        assert len(calls) == 1  # C4.6's call; T4.4 skips on the vertex count first
        assert [r.to_json() for r in together] == alone
        reasons = {r.claim: r.skip_reason for r in together}
        assert reasons == {
            "T4.4": "graph isomorphism capped at 4 vertices",
            "C4.6": "graph isomorphism capped at 4 vertices (graphs have 6)",
        }


class TestFamilies:
    def test_zn_family(self):
        assert zn_family(5) == ["Z/2", "Z/3", "Z/4", "Z/5"]

    def test_product_family_bounds(self):
        texts = product_family(["Z/2", "Z/3"], max_factors=2, max_size=6)
        assert texts == ["Z/2", "Z/3", "Z/2 x Z/2", "Z/2 x Z/3"]

    def test_corpus_family(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("# comment\nZ/6\n\nZ/2 x Z/2\n")
        assert corpus_family(str(path)) == ["Z/6", "Z/2 x Z/2"]


class TestSweep:
    def test_summary_counts(self):
        report = sweep(zn_family(20), ["E3.4", "T3.1"])
        assert report["summary"]["fail"] == 0
        entries = report["entries"]
        assert len(entries) == 2 * len(zn_family(20))
        assert all("elapsed" not in e for e in entries)

    def test_entry_order_is_canonical(self):
        report = sweep(["Z/6", "Z/4"], ["T3.1", "L2.1a"])
        keys = [(tuple(e["rings"]), e["claim"]) for e in report["entries"]]
        assert keys == [
            (("Z/4",), "L2.1a"),
            (("Z/4",), "T3.1"),
            (("Z/6",), "L2.1a"),
            (("Z/6",), "T3.1"),
        ]

    def test_construction_failure_is_skip(self):
        report = sweep(["Z/6", "Z/banana"], ["L2.1a"])
        bad = [e for e in report["entries"] if e["rings"] == ["Z/banana"]]
        assert len(bad) == 1
        assert bad[0]["outcome"] == "skip"
        assert "construction failed" in bad[0]["skip_reason"]

    def test_deterministic_and_serialisable(self, tmp_path):
        texts = zn_family(30)
        r1 = sweep(texts, ["E3.4", "L2.1b", "JOIN"])
        r2 = sweep(texts, ["E3.4", "L2.1b", "JOIN"])
        assert r1 == r2
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_report(r1, str(p1))
        save_report(r2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_shape(self):
        report = sweep(["Z/6"], ["T3.1"])
        assert set(report) == {"tool_version", "caps", "entries", "summary"}
        assert report["caps"]["max_ring_size"] == 4096
        entry = report["entries"][0]
        assert set(entry) == {"claim", "rings", "outcome", "skip_reason", "witness"}


class TestRevalidation:
    def test_pass_reports_validate(self):
        reports = verify_ring(ring_from_text("Z/12"), text="Z/12")
        for r in reports:
            assert revalidate_report(r)

    def test_tampered_diameter_witness_rejected(self):
        base = one_report("Z/30", "T3.1")
        assert base.outcome == "pass"
        forged = {
            "claim": "T3.1",
            "rings": ["Z/30"],
            "outcome": "fail",
            "skip_reason": None,
            "witness": {"kind": "diameter", "pair": [7, 11], "distance": 4},
        }
        assert revalidate_report(forged) is False

    def test_fail_without_witness_rejected(self):
        forged = {
            "claim": "L2.1a",
            "rings": ["Z/6"],
            "outcome": "fail",
            "skip_reason": None,
            "witness": None,
        }
        assert revalidate_report(forged) is False

    def test_forged_adjacency_witness_rejected(self):
        forged = {
            "claim": "L2.1a",
            "rings": ["Z/12"],
            "outcome": "fail",
            "skip_reason": None,
            "witness": {"non_adjacent_units": [1, 5]},
        }
        assert revalidate_report(forged) is False

    def test_malformed_witness_rejected(self):
        forged = {
            "claim": "T3.1",
            "rings": ["Z/30"],
            "outcome": "fail",
            "skip_reason": None,
            "witness": {"kind": "diameter", "pair": "not a pair"},
        }
        assert revalidate_report(forged) is False

    def test_fail_on_actually_true_claim_rejected(self):
        forged = {
            "claim": "L3.2",
            "rings": ["Z/2 x Z/2"],
            "outcome": "fail",
            "skip_reason": None,
            "witness": {"diameter": "1", "is_z2xz2": True},
        }
        assert revalidate_report(forged) is False

    def test_whole_report_sweepable(self, tmp_path):
        report = sweep(zn_family(12), ["T3.1", "L3.2"])
        path = tmp_path / "r.json"
        save_report(report, str(path))
        loaded = json.loads(path.read_text())
        assert all(revalidate_report(e) for e in loaded["entries"])

    def test_tampering_a_sweep_entry_is_caught(self):
        report = sweep(["Z/30"], ["T3.1"])
        tampered = copy.deepcopy(report)
        entry = tampered["entries"][0]
        entry["outcome"] = "fail"
        entry["witness"] = {"kind": "disconnected", "pair": [2, 3]}
        assert revalidate_report(entry) is False

    def test_hand_edited_graph_fail_is_caught(self):
        analysis = RingAnalysis(ring_from_text("Z/30"), text="Z/30")
        core = analysis.graph("core")
        rows = list(core.rows)
        victim = 0
        for j in range(core.n):
            rows[j] &= ~(1 << victim)
        rows[victim] = 0
        analysis._graphs["core"] = type(core)(
            core.n, rows, labels=core.labels, vertex_keys=core.vertex_keys
        )
        reports = verify_ring(analysis, ["T3.1"])
        assert reports[0].outcome == "fail"
        assert reports[0].witness["kind"] == "disconnected"
        assert revalidate_report(reports[0]) is False

    @pytest.mark.parametrize(
        "claim,text,witness",
        [
            ("P2.3", "Z/8", {"max_ideal_count": 1, "clique": 0, "chromatic": 0}),
            ("P2.4a", "Z/9", {"core_complete_multipartite": True, "parts": 0}),
            ("P2.4b", "Z/12", {"kind": "radical_nonzero", "radical_size": 2}),
            ("T2.5", "Z/12", {"kind": "sum_not_one", "sum": 5}),
            ("T2.5", "Z/12", {"kind": "factor_not_local", "idempotent": 1}),
            ("T2.5", "Z/12", {"kind": "not_orthogonal", "pair": [1, 1]}),
            ("P4.7c", "Z/4", {"rep_pair": [1, 3], "ring_adjacent": True}),
        ],
    )
    def test_forged_single_ring_witnesses_rejected(self, claim, text, witness):
        forged = {
            "claim": claim,
            "rings": [text],
            "outcome": "fail",
            "skip_reason": None,
            "witness": witness,
        }
        assert revalidate_report(forged) is False

    def test_forged_pair_witnesses_rejected(self):
        c46 = {
            "claim": "C4.6",
            "rings": ["Z/2 x Z/8", "Z/4 x Z/4"],
            "outcome": "fail",
            "skip_reason": None,
            "witness": {"graphs_isomorphic": True, "rings_isomorphic": False},
        }
        assert revalidate_report(c46) is False
        t44 = {
            "claim": "T4.4",
            "rings": ["Z/30", "Z/2 x Z/3 x Z/5"],
            "outcome": "fail",
            "skip_reason": None,
            "witness": {
                "kind": "non_neighbour_count",
                "ring": "Z/30",
                "element": 2,
                "count": 14,
                "ideal_size": 20,
            },
        }
        assert revalidate_report(t44) is False


def sweep_entry(text: str, claim: str, caps: Caps | None = None) -> dict:
    (entry,) = sweep([text], [claim], caps=caps)["entries"]
    return entry


def edited(entry: dict, **fields) -> dict:
    out = copy.deepcopy(entry)
    out.update(fields)
    return out


def break_graph(monkeypatch, selector: str, victim: int = 0) -> None:
    """Make every RingAnalysis drop all edges at one vertex of one graph."""
    original = RingAnalysis.graph

    def graph(self, sel):
        g = original(self, sel)
        if sel != selector or g.n < 2:
            return g
        rows = [row & ~(1 << victim) for row in g.rows]
        rows[victim] = 0
        return type(g)(g.n, rows, labels=g.labels, vertex_keys=g.vertex_keys)

    monkeypatch.setattr(RingAnalysis, "graph", graph)


class TestRecomputedAudit:
    def test_forged_pass_rejected(self):
        entry = sweep_entry("Z/30", "T3.1")
        assert entry["outcome"] == "pass" and revalidate_report(entry)
        assert not revalidate_report(edited(entry, witness={"diameter": 7}))

    def test_pass_to_fail_rejected(self):
        entry = sweep_entry("Z/30", "T3.1")
        assert not revalidate_report(edited(entry, outcome="fail"))

    def test_skip_to_pass_rejected(self):
        entry = sweep_entry("Z/8", "P2.3")
        assert entry["outcome"] == "skip" and revalidate_report(entry)
        assert not revalidate_report(edited(entry, outcome="pass"))
        assert not revalidate_report(edited(entry, outcome="pass", skip_reason=None))

    def test_edited_skip_reason_rejected(self):
        entry = sweep_entry("Z/8", "P2.3")
        reason = entry["skip_reason"].replace("two", "three")
        assert not revalidate_report(edited(entry, skip_reason=reason))

    def test_deleted_witness_key_rejected(self):
        entry = sweep_entry("Z/30", "P2.3")
        witness = dict(entry["witness"])
        del witness["chromatic"]
        assert not revalidate_report(edited(entry, witness=witness))

    def test_fail_to_skip_rejected(self, monkeypatch):
        break_graph(monkeypatch, "core")
        entry = sweep_entry("Z/30", "T3.1")
        assert entry["outcome"] == "fail"
        # With the same broken graph recomputation reproduces the fail, and
        # T3.1 has no element audit, so only the flip is caught.
        assert revalidate_report(entry)
        flipped = edited(entry, outcome="skip", witness=None, skip_reason="the core is empty")
        assert not revalidate_report(flipped)

    def test_construction_failure_skip_round_trips(self):
        entry = sweep_entry("Z/banana", "L2.1a")
        assert entry["outcome"] == "skip" and revalidate_report(entry)
        assert not revalidate_report(edited(entry, skip_reason="construction failed: no"))

    def test_honest_sweep_accepted(self):
        report = json.loads(json.dumps(sweep(zn_family(12))))
        assert len(report["entries"]) == 11 * len(SINGLE_CLAIMS)
        assert all(revalidate_report(e) for e in report["entries"])

    def test_honest_pair_report_accepted(self):
        rings = [ring_from_text("Z/6"), ring_from_text("Z/10")]
        reports = verify_pair(*rings, texts=("Z/6", "Z/10"))
        assert [r.claim for r in reports] == list(PAIR_CLAIMS)
        for r in reports:
            assert revalidate_report(r)
            assert revalidate_report(r.to_json(), rings)
            assert not revalidate_report(edited(r.to_json(), outcome="fail"))

    def test_caps_must_be_the_reports(self):
        caps = Caps(max_exact_vertices=2, exact_chromatic_ring_size=4)
        report = sweep(["Z/6", "Z/30"], ["P2.3", "SB-chi"], caps=caps)
        assert all(revalidate_report(e, caps=caps) for e in report["entries"])
        assert all(
            revalidate_report(e, caps=Caps(**report["caps"])) for e in report["entries"]
        )
        capped = [e for e in report["entries"] if e["outcome"] == "skip"]
        assert capped
        assert not any(revalidate_report(e) for e in capped)

    def test_closure_audit_rejects_reproducible_fail(self, monkeypatch):
        break_graph(monkeypatch, "units")
        (entry,) = _sweep_one("Z/30", ["L2.1a"], Caps())
        assert entry["outcome"] == "fail"
        assert _sweep_one("Z/30", ["L2.1a"], Caps()) == [entry]
        assert revalidate_report(entry) is False
        # The audit is what rejects it: without the audit, or with an oracle
        # that agrees with the broken graph, the entry is accepted.
        with monkeypatch.context() as m:
            m.setattr(RingTable, "is_comaximal_via_closure", lambda *_: False)
            assert revalidate_report(entry) is True
        blind = dataclasses.replace(SINGLE_CLAIMS["L2.1a"], audit=None)
        monkeypatch.setitem(SINGLE_CLAIMS, "L2.1a", blind)
        assert revalidate_report(entry) is True

    @pytest.mark.parametrize("text", ["Z/12", "Z/8 x Z/9", "SQZ(2,3)"])
    def test_graph_audits_reject_reproducible_fails(self, text, monkeypatch):
        """JOIN's and P4.7c's audits on a full graph with element 0 cut off: each fail is
        reproduced, the closure oracle rejects it, and one that agrees with the broken graph
        accepts it."""
        runs = []
        for cid in ("JOIN", "P4.7c"):
            audit = SINGLE_CLAIMS[cid].audit

            def counted(witness, ring, audit=audit, cid=cid):
                runs.append(cid)
                return audit(witness, ring)

            monkeypatch.setitem(
                SINGLE_CLAIMS, cid, dataclasses.replace(SINGLE_CLAIMS[cid], audit=counted)
            )
        break_graph(monkeypatch, "full")
        entries = _sweep_one(text, ["JOIN", "P4.7c"], Caps())
        assert [e["outcome"] for e in entries] == ["fail", "fail"]
        assert _sweep_one(text, ["JOIN", "P4.7c"], Caps()) == entries
        assert [revalidate_report(e) for e in entries] == [False, False]
        size, closure = ring_from_text(text).size, RingTable.is_comaximal_via_closure

        def agrees(ring, x, y):  # element 0 of the ring, not of its quotient, meets nothing
            return closure(ring, x, y) and not (ring.size == size and 0 in (x, y))

        monkeypatch.setattr(RingTable, "is_comaximal_via_closure", agrees)
        assert [revalidate_report(e) for e in entries] == [True, True]
        assert runs == ["JOIN", "P4.7c"] * 2

    def test_element_audits_registered_next_to_checkers(self):
        audited = {cid for cid, spec in {**SINGLE_CLAIMS, **PAIR_CLAIMS}.items() if spec.audit}
        assert audited == {"L2.1a", "JOIN", "T2.5", "P4.7a", "P4.7b", "P4.7c"}


def toggled(g, pairs):
    """`g` with the edge state of each vertex pair flipped."""
    rows = list(g.rows)
    for i, j in pairs:
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
    return type(g)(g.n, rows, labels=g.labels, vertex_keys=g.vertex_keys)


def tampered_analyses(text: str, trials: int = 12):
    """Analyses of `text` whose full graph has 0-4 vertex pairs flipped.

    The pairs are drawn from all pairs, pairs inside one radical coset and
    pairs of coset representatives, in turn.
    """
    ring = ring_from_text(text)
    _, rep_of = ring.coset_representatives(ring.jacobson_radical)
    n = ring.size
    rng = random.Random(text)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    inner = [(i, j) for i, j in pairs if rep_of[i] == rep_of[j]]
    reps = [(i, j) for i, j in pairs if rep_of[i] == i and rep_of[j] == j]
    for trial in range(trials):
        a = RingAnalysis(ring, text=text)
        pool = [pairs, inner, reps][trial % 3] or pairs
        flips = rng.sample(pool, min(len(pool), trial % 5))
        a._graphs["full"] = toggled(a.graph("full"), flips)
        yield a, rep_of.tolist()


class TestGraphPathsMatchReference:
    @pytest.mark.parametrize("text", ["Z/12", "Z/30", "GF(16)", "SQZ(2,3)", "Z/8 x Z/9"])
    def test_join_witness_on_tampered_full_graphs(self, text):
        for trial, (a, _) in enumerate(tampered_analyses(text)):
            if trial % 3 == 2:  # vertex order other than element order
                full = a.graph("full")
                a._graphs["full"] = full.induced_subgraph(range(full.n - 1, -1, -1))
            (report,) = verify_ring(a, ["JOIN"])
            joined = join(a.graph("units"), a.graph("nonunits"))
            assert (report.outcome, report.witness) == join_witness(a.graph("full"), joined)

    @pytest.mark.parametrize("text", ["Z/12", "SQZ(2,3)", "Z/2 x Z/8", "Z/8 x Z/9"])
    def test_coset_witnesses_on_tampered_full_graphs(self, text):
        """P4.7a, P4.7b and P4.7c against their pair-by-pair references."""
        outcomes = set()
        for a, rep_of in tampered_analyses(text):
            g, reps = a.graph("full"), sorted(set(rep_of))
            units = a.ring.unit_flags.tolist()
            quotient = build_comaximal_graph(a.ring.quotient(a.ring.jacobson_radical)[0])
            lifting, coset_units, lifted = verify_ring(a, ["P4.7a", "P4.7b", "P4.7c"])
            expected = coset_lifting_witness(g, rep_of) or {"cosets": len(reps)}
            assert lifting.witness == expected
            expected = coset_units_witness(g, rep_of, units) or {
                "cosets": len(reps),
                "unit_cosets": sum(units[r] for r in reps),
            }
            assert coset_units.witness == expected
            expected = quotient_graph_witness(g, reps, quotient) or {"quotient_size": len(reps)}
            assert lifted.witness == expected
            outcomes.add((lifting.outcome, coset_units.outcome, lifted.outcome))
        assert {o[:2] for o in outcomes} >= {("fail", "pass"), ("pass", "fail")}
        assert {o[2] for o in outcomes} == {"pass", "fail"}

    @pytest.mark.parametrize("text", ["Z/12", "Z/30", "SQZ(2,3)", "Z/2 x Z/8"])
    def test_residue_witness_on_tampered_full_graphs(self, text):
        """T4.4 on a ring paired with itself, so only its count check can fail."""
        outcomes = set()
        for a, _ in tampered_analyses(text):
            (report,) = verify_pair(a, a, ["T4.4"])
            ideals = [m.members() for m in a.ring.maximal_ideals]
            expected = residue_match_witness(a.graph("full"), ideals, text) or {
                "residues": list(a.ring.residue_field_sizes)
            }
            assert report.witness == expected
            outcomes.add(report.outcome)
        assert outcomes == {"pass", "fail"}

    @pytest.mark.parametrize("text", ["Z/12", "SQZ(2,3)", "Z/8 x Z/9"])
    def test_coset_claims_scan_the_cosets_once(self, text, monkeypatch):
        """P4.7a-c and `quotient` all read the one scan of the radical's cosets the ring keeps."""
        calls = []
        scan = RingTable._scan_cosets

        def counted(self, ideal):
            calls.append(len(ideal))
            return scan(self, ideal)

        monkeypatch.setattr(RingTable, "_scan_cosets", counted)
        ring = ring_from_text(text)
        reports = verify_ring(ring, ["P4.7a", "P4.7b", "P4.7c"], text=text)
        assert [r.outcome for r in reports] == ["pass"] * 3
        assert calls == [len(ring.jacobson_radical)] and calls[0] > 1

    @pytest.mark.parametrize("text", ["Z/12", "SQZ(2,3)", "Z/8 x Z/9"])
    def test_quotient_claim_counts_no_coset_edges(self, text):
        """P4.7c run alone reads the coset representatives, not the edge counts P4.7a/b read."""
        a = RingAnalysis(ring_from_text(text), text=text)
        (report,) = verify_ring(a, ["P4.7c"])
        assert report.outcome == "pass"
        assert "radical_cosets" in vars(a) and "coset_edges" not in vars(a)
        verify_ring(a, ["P4.7a"])
        assert "coset_edges" in vars(a)

    @pytest.mark.parametrize("flip", [0, 1, 12, 13, 25])
    def test_coset_witnesses_on_tampered_units(self, flip):
        ring = ring_from_text("Z/8 x Z/9")
        a = RingAnalysis(ring, text="Z/8 x Z/9")
        _, rep_of = ring.coset_representatives(ring.jacobson_radical)
        a.radical_cosets, a.coset_edges  # graph and cosets from the true unit flags
        units = ring.unit_flags.copy()
        units[flip] = not units[flip]
        ring.__dict__["unit_flags"] = units
        (report,) = verify_ring(a, ["P4.7b"])
        assert report.outcome == "fail"
        assert report.witness == coset_units_witness(
            a.graph("full"), rep_of.tolist(), units.tolist()
        )


def loaded_after(statement: str, packages: tuple[str, ...]) -> list[str]:
    """Modules of `packages` that a fresh interpreter has loaded after `statement`."""
    script = (
        f"import sys; {statement}; "
        f"print([m for m in sorted(sys.modules) "
        f"if any(m == p or m.startswith(p + '.') for p in {packages!r})])"
    )
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.replace("'", '"'))


def test_import_loads_no_process_pool():
    assert loaded_after("import comaximal", ("concurrent", "multiprocessing")) == []


def test_sweep_loads_neither_masked_arrays_nor_package_metadata():
    statement = "import comaximal; comaximal.sweep(['Z/12', 'Z/2 x Z/8'])"
    assert loaded_after(statement, ("numpy.ma", "importlib.metadata")) == []


def test_sweep_with_workers_matches_one_process():
    texts = ["Z/12", "Z/30", "GF(4)", "Z/2 x Z/4"]
    assert sweep(texts, jobs=2) == sweep(texts)
