"""Graph construction, metrics, and exact solver tests."""

import json
import pickle
import random
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from comaximal import (
    CapacityError,
    InternalConsistencyError,
    SimpleGraph,
    build_comaximal_graph,
    chromatic_number,
    clique_number,
    complement,
    degree_profile,
    disjoint_union,
    distance,
    join,
    max_clique,
    metrics,
    multipartite_structure,
    ring_from_text,
    verify_ring,
)

from comaximal import graphs
from comaximal.graphs import twin_classes
from comaximal.rings import _unpack
from conftest import run_python
from oracles import (
    brute_chromatic,
    brute_clique,
    brute_diameter,
    brute_metrics,
    brute_twin_classes,
    comaximal_rows,
    validate_rows,
)
from test_acceptance import corpus_specs


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return SimpleGraph.from_edges(n, edges)


def small_graph_zoo() -> list[SimpleGraph]:
    return [
        SimpleGraph.edgeless(0),
        SimpleGraph.edgeless(1),
        SimpleGraph.edgeless(4),
        SimpleGraph.complete(1),
        SimpleGraph.complete(4),
        SimpleGraph.complete(6),
        path_graph(2),
        path_graph(5),
        cycle_graph(4),
        cycle_graph(5),
        cycle_graph(7),
        SimpleGraph.complete_multipartite([2, 3]),
        SimpleGraph.complete_multipartite([1, 1, 2]),
        SimpleGraph.complete_multipartite([2, 2, 2]),
        SimpleGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)]),
        join(SimpleGraph.complete(2), SimpleGraph.edgeless(2)),
        disjoint_union(cycle_graph(5), SimpleGraph.complete(3)),
    ]


class TestSimpleGraph:
    def test_round_trip_edges(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert g.edge_count == 3
        assert g.degree(1) == 2

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(3, [(1, 1)])

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, [0b10, 0b00])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(2, [(0, 2)])

    @pytest.mark.parametrize(
        "one_way",
        [[(599, 0)], [(450, 3), (451, 2)], [(120, 7), (5, 590), (300, 1)], [(0, 1), (1, 0), (2, 3)]],
    )
    def test_asymmetry_found_across_row_blocks(self, one_way):
        n = 600  # the check reads rows in blocks of about 2**16 entries, so 104 rows here
        g = SimpleGraph.complete_multipartite([200, 200, 200])
        rows = list(g.rows)
        for i, j in one_way:
            rows[i] ^= 1 << j
        expected = validate_rows(n, rows)
        assert expected is not None and expected.endswith("is not symmetric")
        with pytest.raises(ValueError) as exc:
            SimpleGraph(n, rows)
        assert str(exc.value) == expected

    @staticmethod
    def twin_heavy(case: str) -> tuple[int, list[int]]:
        """A complete tripartite graph on 600 vertices (parts 0-199, 200-399, 400-599), three
        twin classes, with the defect `case` names, if any; "universal" adds K_3 before the parts."""
        g = SimpleGraph.complete_multipartite([200, 200, 200])
        rows = list(g.rows)
        if case == "bit_inside_a_part":  # row 450 leaves its class and is not constant on 400-599
            rows[450] |= 1 << 460
        elif case == "part_misses_one_vertex":  # class 0's row is not constant on class 1
            for i in range(200):
                rows[i] ^= 1 << 350
        elif case == "one_way_between_classes":  # constant rows, but Q[2][1] = 0 and Q[1][2] = 1
            for i in range(400, 600):
                rows[i] &= ~(((1 << 200) - 1) << 200)
        elif case == "universal":  # K_3 joined on; class 2 forgets universal vertex 1
            g = join(SimpleGraph.complete(3), g)
            rows = list(g.rows)
            for i in range(403, 603):
                rows[i] ^= 1 << 1
        return len(rows), rows

    TWIN_HEAVY = [
        "bit_inside_a_part", "part_misses_one_vertex", "one_way_between_classes", "universal"
    ]

    @pytest.mark.parametrize("case", TWIN_HEAVY)
    def test_asymmetry_found_in_twin_classes(self, case):
        n, rows = self.twin_heavy(case)
        assert len(set(rows)) <= 6  # a handful of classes of equal rows
        expected = validate_rows(n, rows)
        assert expected is not None and expected.endswith("is not symmetric")
        with pytest.raises(ValueError) as exc:
            SimpleGraph(n, rows)
        assert str(exc.value) == expected

    def test_loops_of_a_whole_class_found(self):
        # Every vertex of part 0 has a loop and its part as neighbours: the rows of part 0 stay
        # equal and symmetric, so only the diagonal shows the defect.
        n, rows = self.twin_heavy("none")
        rows = [row | ((1 << 200) - 1) if i < 200 else row for i, row in enumerate(rows)]
        assert len(set(rows)) == 3 and validate_rows(n, rows) == "vertex 0 has a loop"
        with pytest.raises(ValueError, match="^vertex 0 has a loop$"):
            SimpleGraph(n, rows)

    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_loop_on_a_full_row_found(self, n):
        # K_n with a loop on its last vertex: that row has every bit set, as a clique class's row
        # of a class quotient may, but as a vertex's row it is a loop.
        rows = [(1 << n) - 1 - (1 << i) for i in range(n)]
        rows[-1] |= 1 << (n - 1)
        assert validate_rows(n, rows) == f"vertex {n - 1} has a loop"
        with pytest.raises(ValueError, match=f"^vertex {n - 1} has a loop$"):
            SimpleGraph(n, rows)

    def test_asymmetry_in_twin_classes_survives_python_O(self):
        script = (
            "import json, sys\n"
            "from comaximal import SimpleGraph\n"
            "for n, rows in json.load(sys.stdin):\n"
            "    try:\n"
            "        SimpleGraph(n, rows)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
            "    else:\n"
            "        print('accepted')\n"
        )
        cases = [self.twin_heavy(case) for case in self.TWIN_HEAVY]
        result = run_python("-O", "-c", script, input=json.dumps(cases))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [validate_rows(n, rows) for n, rows in cases]

    def test_rejects_vertex_keys_of_wrong_length(self):
        with pytest.raises(ValueError, match="one vertex key per vertex"):
            SimpleGraph(2, [0b10, 0b01], vertex_keys=[5])
        with pytest.raises(ValueError, match="one label per vertex"):
            SimpleGraph(2, [0b10, 0b01], labels=["a", "b", "c"])
        assert SimpleGraph(2, [0b10, 0b01], labels="ab", vertex_keys=[5, 7]).vertex_keys == (5, 7)

    def test_labels_made_on_demand(self):
        assert SimpleGraph.complete(3).labels == ("0", "1", "2")
        ring = ring_from_text("Z/6")
        core = build_comaximal_graph(ring, "core")
        metrics(core)
        assert "labels" not in vars(ring)  # neither the ring's labels nor the graph's are made yet
        joined = join(SimpleGraph.complete(1), core)
        assert joined.labels == ("0", "2", "3", "4") and core.labels == ("2", "3", "4")
        assert disjoint_union(core, core).labels == ("2", "3", "4") * 2

    def test_pickles_with_labels_made_on_demand(self):
        g = build_comaximal_graph(ring_from_text("Z/12"), "full")
        copy = pickle.loads(pickle.dumps(g))
        assert (copy.rows, copy.labels, copy.vertex_keys) == (g.rows, g.labels, g.vertex_keys)
        assert twin_classes(copy) == twin_classes(g) and copy.packed.tobytes() == g.packed.tobytes()

    def test_induced_subgraph(self):
        g = SimpleGraph.complete(4)
        h = g.induced_subgraph([1, 3])
        assert h.n == 2
        assert h.edges() == [(0, 1)]

    @pytest.mark.parametrize("vertices", [[-1], [5], [0, 3], [0, 0], [2, 1, 2]])
    def test_induced_subgraph_rejects_bad_vertices(self, vertices):
        with pytest.raises(ValueError, match=r"needs distinct vertices in 0\.\.2"):
            SimpleGraph.complete(3).induced_subgraph(vertices)

    def test_neighbors(self):
        g = path_graph(3)
        assert g.neighbors(1) == [0, 2]

    @pytest.mark.parametrize(
        "read",
        [
            lambda g: g.has_edge(1, 99),
            lambda g: g.has_edge(0, -1),
            lambda g: g.has_edge(-1, 0),
            lambda g: g.degree(-1),
            lambda g: g.degree(6),
            lambda g: g.neighbors(-1),
            lambda g: g.neighbors(6),
            lambda g: distance(g, 0, -1),
        ],
    )
    def test_vertex_out_of_range_rejected(self, read):
        """No vertex is read by wrapping or shifting: numpy would read -1 as the last vertex."""
        g = build_comaximal_graph(ring_from_text("Z/6"))
        with pytest.raises(ValueError, match="^vertex out of range$"):
            read(g)


class TestCombinators:
    def test_join_edge_count(self):
        g = join(SimpleGraph.complete(2), SimpleGraph.edgeless(3))
        assert g.n == 5
        assert g.edge_count == 1 + 6

    def test_disjoint_union(self):
        g = disjoint_union(SimpleGraph.complete(3), SimpleGraph.complete(2))
        assert g.n == 5
        assert g.edge_count == 4
        assert not g.has_edge(0, 3)

    def test_complement(self):
        g = complement(path_graph(4))
        assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 3)]

    def test_complement_involution(self):
        g = cycle_graph(5)
        assert complement(complement(g)).edges() == g.edges()


class TestBuildGraph:
    def test_full_z4(self):
        g = build_comaximal_graph(ring_from_text("Z/4"), "full")
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_selectors_partition(self):
        ring = ring_from_text("Z/12")
        full = build_comaximal_graph(ring, "full")
        units = build_comaximal_graph(ring, "units")
        nonunits = build_comaximal_graph(ring, "nonunits")
        core = build_comaximal_graph(ring, "core")
        assert full.n == 12
        assert units.n == 4
        assert nonunits.n == 8
        assert core.n == 6
        assert units.n + nonunits.n == full.n

    def test_core_of_field_is_empty(self):
        g = build_comaximal_graph(ring_from_text("GF(4)"), "core")
        assert g.n == 0
        assert metrics(g).is_empty

    def test_core_z12_is_k42(self):
        g = build_comaximal_graph(ring_from_text("Z/12"), "core")
        assert sorted(g.vertex_keys) == [2, 3, 4, 8, 9, 10]
        assert g.edge_count == 8
        st = multipartite_structure(g)
        assert st.is_complete_bipartite
        assert sorted(len(p) for p in st.multipartite_parts) == [2, 4]

    def test_vertex_labels_are_ring_labels(self):
        g = build_comaximal_graph(ring_from_text("Z/2 x Z/3"), "core")
        assert set(g.labels) == {"(0,1)", "(0,2)", "(1,0)"}

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            build_comaximal_graph(ring_from_text("Z/4"), "everything")

    def test_edges_match_closure_oracle(self):
        ring = ring_from_text("Z/30")
        g = build_comaximal_graph(ring, "full")
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert g.has_edge(u, v) == ring.is_comaximal_via_closure(u, v)


def _flipping(real, a, b):
    """`_comaximal_quotient` with bit b of the quotient's row a flipped."""

    def planted(class_sig):
        bits = _unpack(real(class_sig), len(class_sig))
        bits[a, b] ^= True
        return np.packbits(bits, axis=1, bitorder="little")

    return planted


# Faults planted in the class quotient of a graph of Z/30: the selector, the flipped bit and the
# message that must be raised.  The core graph has six classes, Q[3][4] = Q[4][3] = 0.  A diagonal
# bit is a loop on a row that is not full; only a full row's marks a clique class.  Row 3 of the
# core's Q is not full, nor is row 0 of the full graph's (element 0), beside the units' class 1.
QUOTIENT_FAULTS = {
    "one_way": ("core", (3, 4), "class quotient is not symmetric at 3-4"),
    "loop": ("core", (3, 3), "class 3 has a loop"),
    "loop_beside_units": ("full", (0, 0), "class 0 has a loop"),
}


class TestClassCore:
    """Graphs built from their classes: the quotient check, and lazy rows that pickle."""

    @pytest.mark.parametrize("fault", list(QUOTIENT_FAULTS))
    def test_quotient_fault_raises(self, fault, monkeypatch):
        selector, (a, b), message = QUOTIENT_FAULTS[fault]
        real = graphs._comaximal_quotient
        monkeypatch.setattr(graphs, "_comaximal_quotient", _flipping(real, a, b))
        with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
            build_comaximal_graph(ring_from_text("Z/30"), selector)

    @pytest.mark.parametrize("fault", list(QUOTIENT_FAULTS))
    def test_quotient_fault_survives_python_O(self, fault, python_O):
        selector, (a, b), message = QUOTIENT_FAULTS[fault]
        plant = (
            "import comaximal.graphs as graphs\n"
            "from comaximal import build_comaximal_graph, ring_from_text\n"
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "import test_graphs\n"
            f"graphs._comaximal_quotient = test_graphs._flipping(graphs._comaximal_quotient, {a}, {b})\n"
        )
        out = python_O(plant, f"build_comaximal_graph(ring_from_text('Z/30'), {selector!r})")
        assert out == f"raised 1 {message}\n"

    @pytest.mark.parametrize("text, units", [("Z/3", [1, 2]), ("Z/30", [1, 7])])
    def test_cleared_unit_diagonal_fails_the_units_claim(self, text, units, monkeypatch):
        """The units graph is one class; without its diagonal bit its units are pairwise
        non-adjacent, and L2.1a, which reads the graph as built, names the first two."""
        ring = ring_from_text(text)
        assert [r.outcome for r in verify_ring(ring, ["L2.1a"], text=text)] == ["pass"]
        real = graphs._comaximal_quotient
        monkeypatch.setattr(graphs, "_comaximal_quotient", _flipping(real, 0, 0))
        g = build_comaximal_graph(ring, "units")
        assert (len(g._quotient), g.edge_count, twin_classes(g).universal) == (1, 0, [])
        (report,) = verify_ring(ring, ["L2.1a"], text=text)
        assert (report.outcome, report.witness) == ("fail", {"non_adjacent_units": units})

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickles_before_and_after_rows_are_read(self, read_first):
        g = build_comaximal_graph(ring_from_text("Z/2 x Z/30"), "full")
        if read_first:
            g.rows, g.packed
        copy = pickle.loads(pickle.dumps(g))
        for keys in (g._keys, copy._keys):  # the selected keys, kept as a read-only intp array
            assert keys.dtype == np.intp and not keys.flags.writeable
        assert not copy.packed.flags.writeable
        assert (copy.rows, copy.packed.tobytes()) == (g.rows, g.packed.tobytes())
        assert (copy.labels, copy.vertex_keys, copy.edge_count) == (g.labels, g.vertex_keys, g.edge_count)
        assert twin_classes(copy) == twin_classes(g) and metrics(copy) == metrics(g)


# Every form a graph makes when first read, as the cached properties of `SimpleGraph`.
CACHED_FORMS = ("vertex_keys", "labels", "rows", "packed", "class_degrees", "edge_count", "twins")


def _naive_forms(rows: list[int], keys, labels) -> dict:
    """Each cached form of the graph with these rows, keys and labels, read pair by pair, in the
    shape `_read_form` gives: degrees per vertex and the twin quotient as `brute_twin_classes`
    finds it."""
    n = len(rows)
    bits = np.array([[row >> j & 1 for j in range(n)] for row in rows], dtype=bool).reshape(n, n)
    twins = brute_twin_classes(SimpleNamespace(n=n, has_edge=lambda u, v: bool(rows[u] >> v & 1)))
    return {
        "vertex_keys": tuple(keys),
        "labels": tuple(labels),
        "rows": list(rows),
        "packed": np.packbits(bits, axis=1, bitorder="little").tobytes(),
        "class_degrees": [row.bit_count() for row in rows],
        "edge_count": sum(row.bit_count() for row in rows) // 2,
        "twins": twins[:3],
    }


def _read_form(g: SimpleGraph, form: str):
    value = getattr(g, form)
    if form == "packed":
        return value.tobytes()
    if form == "class_degrees":
        return value[g._class_of].tolist()
    return tuple(value) if form == "twins" else value


def _comaximal_case(text: str, selector: str):
    ring = ring_from_text(text)
    keys, rows = comaximal_rows(list(ring.signatures), ring.maximal_ideal_count, selector)
    labels = [ring.labels[k] for k in keys]
    return (lambda: build_comaximal_graph(ring, selector)), (rows, keys, labels)


def _joined_rows(rows1: list[int], rows2: list[int], cross: bool) -> list[int]:
    n1, n2 = len(rows1), len(rows2)
    other1, other2 = ((1 << n2) - 1) << n1 if cross else 0, (1 << n1) - 1 if cross else 0
    return [r | other1 for r in rows1] + [r << n1 | other2 for r in rows2]


def _cached_form_cases() -> dict:
    """name: (a maker of fresh graphs, their (rows, keys, labels), the forms the maker gives)."""
    cases = {}
    for text in ("Z/12", "Z/2 x GF(4)", "Z/8 x Z/9"):
        for selector in ("full", "units", "nonunits", "core"):
            cases[f"{text} {selector}"] = (*_comaximal_case(text, selector), ())
    path = [0b10, 0b101, 0b1010, 0b10100, 0b101000, 0b10000]
    cases["rows"] = (lambda: path_graph(6), (path, range(6), "012345"), ("rows", "packed"))
    cases["rows, labels and keys"] = (
        lambda: SimpleGraph(3, [0b010, 0b101, 0b010], labels="abc", vertex_keys=[5, 7, 9]),
        ([0b010, 0b101, 0b010], [5, 7, 9], "abc"), ("rows", "packed", "labels"),
    )
    core_of, (core, core_keys, core_labels) = _comaximal_case("Z/30", "core")
    units_of, (units, units_keys, units_labels) = _comaximal_case("Z/2 x GF(4)", "units")
    n = len(core)
    cases["join"] = (
        lambda: join(units_of(), core_of()),
        (_joined_rows(units, core, True), units_keys + core_keys, units_labels + core_labels), (),
    )
    cases["disjoint_union"] = (
        lambda: disjoint_union(core_of(), units_of()),
        (_joined_rows(core, units, False), core_keys + units_keys, core_labels + units_labels),
        ("rows", "packed"),
    )
    cases["complement"] = (
        lambda: complement(core_of()),
        ([(1 << n) - 1 & ~r & ~(1 << i) for i, r in enumerate(core)], core_keys, core_labels),
        ("rows", "packed", "labels"),
    )
    keep = [20, 3, 4, 11, 0, 7]
    cases["induced_subgraph"] = (
        lambda: core_of().induced_subgraph(keep),
        ([sum(1 << j for j, w in enumerate(keep) if core[v] >> w & 1) for v in keep],
         [core_keys[v] for v in keep], [core_labels[v] for v in keep]),
        ("rows", "packed", "labels"),
    )
    return cases


CACHED_FORM_CASES = _cached_form_cases()


class TestCachedForms:
    """Every form but n, the keys, the classes and Q is a cached property: absent until first
    read, then equal to the form read pair by pair, and carried by a pickled copy."""

    @pytest.mark.parametrize("case", list(CACHED_FORM_CASES))
    def test_made_when_first_read(self, case):
        make, naive, given = CACHED_FORM_CASES[case]
        expected = _naive_forms(*naive)
        for form in CACHED_FORMS:
            g = make()
            assert {f for f in CACHED_FORMS if f in vars(g)} == set(given), form
            assert _read_form(g, form) == expected[form], form
            assert form in vars(g)

    @pytest.mark.parametrize("case", list(CACHED_FORM_CASES))
    def test_pickled_copy_carries_every_form(self, case):
        make, naive, _ = CACHED_FORM_CASES[case]
        expected = _naive_forms(*naive)
        for form in CACHED_FORMS:
            g = make()
            before = pickle.loads(pickle.dumps(g))
            _read_form(g, form)
            after = pickle.loads(pickle.dumps(g))
            assert form in vars(after) and "labels" in vars(after)
            assert "_make_labels" not in vars(after)
            for copy in (before, after):
                assert {f: _read_form(copy, f) for f in CACHED_FORMS} == expected, form
                assert not copy._keys.flags.writeable and not copy.packed.flags.writeable
            assert {f: _read_form(g, f) for f in CACHED_FORMS} == expected, form


def test_one_class_per_signature_on_the_corpus():
    """Every comaximal graph keeps one class per signature among its vertices (a units graph has
    one), and reads as the graph that `SimpleGraph(n, rows)` makes of its rows, which checks
    them and keeps each universal vertex as a class of its own."""
    for text in corpus_specs():
        ring = ring_from_text(text)
        for selector in ("full", "units", "nonunits", "core"):
            g = build_comaximal_graph(ring, selector)
            signatures = np.unique(ring.signature_array[np.asarray(g.vertex_keys, dtype=np.intp)])
            assert len(g._quotient) == len(signatures), (text, selector)
            h = SimpleGraph(g.n, g.rows)
            assert (g.rows, g.packed.tobytes(), twin_classes(g), g.edge_count) == (
                h.rows, h.packed.tobytes(), twin_classes(h), h.edge_count
            ), (text, selector)


@pytest.mark.parametrize(
    "text, selector, classes, universal",
    [("GF(4096)", "full", 2, 4096), ("GF(4096)", "units", 1, 4095), ("Z/4095", "full", 16, 1728),
     ("Z/4095", "units", 1, 1728)],
)
def test_unit_heavy_graphs_keep_few_classes(text, selector, classes, universal):
    """The units are one class; a field's 0 is universal too, as a class of its own."""
    g = build_comaximal_graph(ring_from_text(text), selector)
    assert len(g._quotient) == classes
    assert len(twin_classes(g).universal) == universal


@pytest.mark.parametrize(
    "text",
    ["Z/12", "Z/300", "GF(16)", "SQZ(2,3)", "Z/8 x Z/9", "Z/2 x Z/2 x Z/2 x Z/2 x Z/2"],
)
def test_rows_match_pairwise_signatures(text):
    ring = ring_from_text(text)
    for selector in ("full", "units", "nonunits", "core"):
        g = build_comaximal_graph(ring, selector)
        keys, rows = comaximal_rows(list(ring.signatures), ring.maximal_ideal_count, selector)
        assert list(g.vertex_keys) == keys
        assert g.rows == rows
        assert not any(row >> i & 1 for i, row in enumerate(g.rows))


@pytest.mark.parametrize(
    "text", ["Z/12", "Z/30", "Z/2 x Z/2 x Z/3", "GF(4) x Z/9", "SQZ(2,2) x Z/3", "Z/8 x Z/9"]
)
def test_twin_classes_match_neighbourhood_oracle(text):
    ring = ring_from_text(text)
    for selector in ("full", "units", "nonunits", "core"):
        g = build_comaximal_graph(ring, selector)
        classes, universal, rows = twin_classes(g)
        assert (classes, universal, rows, g.edge_count) == brute_twin_classes(g)


class TestMetrics:
    def test_z30_core(self):
        g = build_comaximal_graph(ring_from_text("Z/30"), "core")
        m = metrics(g)
        assert m.vertex_count == 21
        assert m.edge_count == 80
        assert m.connected
        assert m.diameter == 3
        assert m.diameter_text() == "3"
        u, v = m.witness_pair
        assert distance(g, u, v) == 3

    def test_empty(self):
        m = metrics(SimpleGraph.edgeless(0))
        assert m.is_empty
        assert m.diameter_text() == "empty"

    def test_disconnected(self):
        g = disjoint_union(SimpleGraph.complete(2), SimpleGraph.complete(2))
        m = metrics(g)
        assert not m.connected
        assert m.components == 2
        assert m.diameter is None
        assert m.diameter_text() == "infinite"
        u, v = m.witness_pair
        assert distance(g, u, v) is None

    def test_single_vertex(self):
        m = metrics(SimpleGraph.edgeless(1))
        assert m.connected
        assert m.diameter == 0

    def test_diameter_matches_bruteforce(self):
        for g in small_graph_zoo():
            assert metrics(g).diameter == brute_diameter(g)

    def test_zoo_matches_bruteforce_metrics(self):
        for g in small_graph_zoo():
            m = metrics(g)
            got = (m.vertex_count, m.edge_count, m.connected, m.components, m.diameter, m.witness_pair)
            assert got == brute_metrics(g)

    def test_twin_in_last_layer_loses_to_lower_vertex(self):
        # A 5-cycle with vertex 0 doubled by its false twin 5: from 0 the last
        # layer is {2, 3, 5}, and its lowest vertex is 2, not the twin.
        g = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 1), (5, 4)])
        m = metrics(g)
        assert (m.diameter, m.witness_pair) == (2, (0, 2))

    def test_universal_vertex_witness(self):
        # 2 is universal; 0 is the first other vertex, and 3 its lowest non-neighbour.
        g = SimpleGraph.from_edges(5, [(0, 1), (0, 4), (1, 3), (2, 0), (2, 1), (2, 3), (2, 4)])
        m = metrics(g)
        assert (m.connected, m.diameter, m.witness_pair) == (True, 2, (0, 3))
        complete = metrics(SimpleGraph.complete(4))
        assert (complete.diameter, complete.witness_pair) == (1, (0, 1))

    def test_isolated_twins_count_as_components(self):
        g = disjoint_union(SimpleGraph.edgeless(3), SimpleGraph.complete_multipartite([2, 2]))
        m = metrics(g)
        assert (m.components, m.witness_pair) == (4, (0, 1))

    def test_distance(self):
        g = path_graph(4)
        assert distance(g, 0, 3) == 3
        assert distance(g, 2, 2) == 0


def boolean_core(k: int) -> SimpleGraph:
    """The core graph of (Z/2)^k: twin-free, with diameter 3 for k >= 3."""
    return build_comaximal_graph(ring_from_text(" x ".join(["Z/2"] * k)), "core")


def twin_free(g: SimpleGraph) -> SimpleGraph:
    """`g` less one vertex of each pair with equal rows, until no such pair is left."""
    while True:
        first: dict[int, int] = {}
        keep = [v for v, row in enumerate(g.rows) if first.setdefault(row, v) == v]
        if len(keep) == g.n:
            return g
        g = g.induced_subgraph(keep)


def random_twin_free(seed: int) -> SimpleGraph:
    rng = random.Random(seed)
    n, p = rng.randint(20, 60), rng.uniform(0.05, 0.5)
    g = SimpleGraph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )
    if seed % 3 == 0:  # a second component, whatever the density
        g = disjoint_union(g, path_graph(rng.randint(4, 8)))
    return twin_free(g)


def metrics_tuple(g: SimpleGraph) -> tuple:
    m = metrics(g)
    return (m.vertex_count, m.edge_count, m.connected, m.components, m.diameter, m.witness_pair)


class TestMetricsOnTwinFreeGraphs:
    """`metrics` on graphs whose twin quotient is the graph itself, against one BFS per vertex."""

    @pytest.mark.parametrize("k", range(3, 9))
    def test_boolean_cores(self, k):
        g = boolean_core(k)
        assert len(set(g.rows)) == g.n
        got = metrics_tuple(g)
        assert got == brute_metrics(g)
        assert got[4] == 3  # diameter

    def test_union_of_two_boolean_cores(self):
        g = disjoint_union(boolean_core(4), boolean_core(5))
        got = metrics_tuple(g)
        assert got == brute_metrics(g)
        assert got[3] == 2  # components

    def test_random_graphs(self):
        connected = set()
        for seed in range(60):
            g = random_twin_free(seed)
            got = metrics_tuple(g)
            assert got == brute_metrics(g), seed
            connected.add(got[2])
        assert connected == {True, False}

    def test_boolean_core_of_4094_vertices_is_fast(self):
        r = ring_from_text(" x ".join(["Z/2"] * 12))
        core, nonunits = build_comaximal_graph(r, "core"), build_comaximal_graph(r, "nonunits")
        start = time.perf_counter()
        m = metrics(core)
        assert time.perf_counter() - start < 5
        assert (m.vertex_count, m.diameter) == (4094, 3)
        start = time.perf_counter()
        m = metrics(nonunits)
        assert time.perf_counter() - start < 0.5
        assert (m.connected, m.components) == (False, 2)


class TestExactSolvers:
    def test_clique_zoo_matches_bruteforce(self):
        for g in small_graph_zoo():
            assert clique_number(g) == brute_clique(g)

    def test_chromatic_zoo_matches_bruteforce(self):
        for g in small_graph_zoo():
            assert chromatic_number(g) == brute_chromatic(g)

    def test_odd_cycle(self):
        assert chromatic_number(cycle_graph(7)) == 3
        assert clique_number(cycle_graph(7)) == 2

    def test_max_clique_is_a_clique(self):
        g = build_comaximal_graph(ring_from_text("Z/30"), "core")
        witness = max_clique(g)
        assert len(witness) == 3
        for i, u in enumerate(witness):
            for v in witness[i + 1 :]:
                assert g.has_edge(u, v)

    def test_full_z12_coloring(self):
        g = build_comaximal_graph(ring_from_text("Z/12"), "full")
        assert clique_number(g) == 6
        assert chromatic_number(g) == 6

    def test_core_z30(self):
        g = build_comaximal_graph(ring_from_text("Z/30"), "core")
        assert clique_number(g) == 3
        assert chromatic_number(g) == 3

    def test_cap_enforced(self):
        g = SimpleGraph.complete(10)
        with pytest.raises(CapacityError):
            max_clique(g, cap=5)
        with pytest.raises(CapacityError):
            chromatic_number(g, cap=5)

    def test_cap_error_carries_greedy_bound(self):
        g = SimpleGraph.complete(10)
        with pytest.raises(CapacityError) as err:
            max_clique(g, cap=5)
        assert err.value.lower == 10

    def test_large_structured_graph_fast(self):
        g = build_comaximal_graph(ring_from_text("Z/210"), "full")
        assert clique_number(g) == chromatic_number(g)

    def test_groetzsch_graph_needs_two_colours_above_its_clique(self):
        # Mycielski's graph of C_5: triangle-free, yet 4-chromatic.
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
        edges += [(10, 5 + i) for i in range(5)]
        g = SimpleGraph.from_edges(11, edges)
        assert (clique_number(g), chromatic_number(g)) == (2, 4) == (brute_clique(g), brute_chromatic(g))

    @pytest.mark.parametrize("k", [8, 10, 12])
    def test_disconnected_odd_cycle_colours_each_component_alone(self, k):
        # k copies of C_6 and one C_5: one search over the whole graph would prove that C_5 needs
        # three colours once for every 2-colouring of the hexagons it meets first.
        g = cycle_graph(5)
        for _ in range(k):
            g = disjoint_union(cycle_graph(6), g)
        start = time.perf_counter()
        assert chromatic_number(g) == 3
        assert time.perf_counter() - start < 0.1

    def test_chromatic_matches_bruteforce_on_random_disconnected_graphs(self):
        rng = random.Random(24)
        for _ in range(40):
            g = SimpleGraph.edgeless(0)
            for _ in range(rng.randint(2, 3)):
                n, p = rng.randint(1, 4), rng.uniform(0.3, 1.0)
                edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
                g = disjoint_union(g, SimpleGraph.from_edges(n, edges))
            assert chromatic_number(g) == brute_chromatic(g), g.edges()

    def test_long_odd_cycle_needs_no_recursion(self):
        assert chromatic_number(cycle_graph(1201), cap=5000) == 3

    def test_boolean_core_of_1022_classes(self):
        g = build_comaximal_graph(ring_from_text(" x ".join(["Z/2"] * 10)), "core")
        start = time.perf_counter()
        assert chromatic_number(g, cap=5000) == 10
        assert time.perf_counter() - start < 2.0

    def test_colouring_memory_follows_colours_not_degrees(self):
        g = build_comaximal_graph(ring_from_text(" x ".join(["Z/2"] * 10)), "core")
        twin_classes(g)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as err:
                chromatic_number(g, cap=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A count per vertex and degree would take 1,022 x 512 entries, over 4 MB.
        assert err.value.upper == 10 and peak < 1 << 20

    def test_over_cap_bounds_read_off_the_quotient(self):
        g = build_comaximal_graph(ring_from_text("Z/4095"), "full")
        for solve, what, upper in ((clique_number, "clique", None), (chromatic_number, "colouring", 1732)):
            start = time.perf_counter()
            with pytest.raises(CapacityError) as err:
                solve(g)
            assert time.perf_counter() - start < 0.5
            assert str(err.value) == f"{what} solver capped at 512 vertices (graph has 4095)"
            assert (err.value.lower, err.value.upper) == (1732, upper)

    def test_improper_colouring_raises(self, monkeypatch):
        monkeypatch.setattr("comaximal.graphs._colouring", lambda rows, clique, enough: [0] * len(rows))
        with pytest.raises(InternalConsistencyError, match="two adjacent classes one colour"):
            chromatic_number(cycle_graph(5))

    def test_improper_colouring_survives_python_O(self, python_O):
        plant = (
            "import comaximal.graphs as graphs\n"
            "from comaximal import SimpleGraph\n"
            "graphs._colouring = lambda rows, clique, enough: [0] * len(rows)\n"
            "g = SimpleGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])\n"
        )
        out = python_O(plant, "graphs.chromatic_number(g)")
        assert out.startswith("raised 1 "), out
        assert "two adjacent classes one colour" in out


class TestMultipartite:
    def test_complete_bipartite(self):
        g = SimpleGraph.complete_multipartite([3, 4])
        st = multipartite_structure(g)
        assert st.bipartition is not None
        assert st.is_complete_bipartite

    def test_path_is_bipartite_not_complete(self):
        st = multipartite_structure(path_graph(4))
        assert st.bipartition is not None
        assert st.multipartite_parts is None

    def test_triangle(self):
        st = multipartite_structure(SimpleGraph.complete(3))
        assert st.bipartition is None
        assert st.multipartite_parts is not None
        assert len(st.multipartite_parts) == 3

    def test_bipartition_lifts_twin_classes(self):
        # Path 0-2-1-3 with 4 a false twin of 0: the class {0, 4} comes before
        # {1}, and both land on side 0.
        g = SimpleGraph.from_edges(5, [(0, 2), (4, 2), (2, 1), (1, 3)])
        st = multipartite_structure(g)
        assert st.bipartition == ((0, 1, 4), (2, 3))
        assert st.multipartite_parts is None

    def test_odd_cycle_is_neither(self):
        st = multipartite_structure(cycle_graph(5))
        assert st.bipartition is None
        assert st.multipartite_parts is None

    def test_parts_recover_input(self):
        g = SimpleGraph.complete_multipartite([2, 2, 3])
        st = multipartite_structure(g)
        assert sorted(len(p) for p in st.multipartite_parts) == [2, 2, 3]

    def test_empty_graph(self):
        st = multipartite_structure(SimpleGraph.edgeless(0))
        assert st.bipartition == ((), ())
        assert st.multipartite_parts == ()

    def test_edgeless_is_one_part(self):
        st = multipartite_structure(SimpleGraph.edgeless(3))
        assert st.multipartite_parts is not None
        assert len(st.multipartite_parts) == 1


class TestDegreeProfile:
    def test_regular_graph(self):
        prof = degree_profile(SimpleGraph.complete(4))
        assert prof == [(3, 0)] * 4

    def test_star(self):
        prof = degree_profile(SimpleGraph.complete_multipartite([1, 3]))
        assert sorted(prof) == [(1, 2), (1, 2), (1, 2), (3, 0)]
