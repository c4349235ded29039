"""Graph construction, metrics, and exact solver tests."""

import random
import time

import pytest

from comaximal import (
    CapacityError,
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
)

from oracles import (
    brute_chromatic,
    brute_clique,
    brute_diameter,
    brute_metrics,
    comaximal_rows,
    validate_rows,
)


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

    def test_induced_subgraph(self):
        g = SimpleGraph.complete(4)
        h = g.induced_subgraph([1, 3])
        assert h.n == 2
        assert h.edges() == [(0, 1)]

    def test_neighbors(self):
        g = path_graph(3)
        assert g.neighbors(1) == [0, 2]


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
