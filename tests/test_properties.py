"""Property-based checks over randomly generated rings and graphs."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from comaximal import (
    CapacityError,
    IdealSet,
    SimpleGraph,
    are_isomorphic,
    build_comaximal_graph,
    build_ring,
    canonical_certificate,
    chromatic_number,
    clique_number,
    format_expression,
    join,
    max_clique,
    metrics,
    multipartite_structure,
    parse_expression,
    ring_from_text,
    verify_ring,
)
from comaximal.graphs import _difference, _greedy_clique, _label_edges, twin_classes

from oracles import (
    additive_span,
    brute_chromatic,
    brute_clique,
    brute_diameter,
    brute_metrics,
    brute_partitions,
    brute_twin_classes,
    first_difference_by_rows,
    is_ideal_by_definition,
    maps_edges,
    relabelled,
    structure_by_definition,
    structure_of,
    validate_rows,
    zn_comaximal,
    zn_unit,
)
from test_acceptance import PRODUCT_BASES, STRUCTURE_CLAIMS, corpus_specs

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

moduli = st.integers(min_value=2, max_value=96)
small_moduli = st.integers(min_value=2, max_value=24)


def random_graph_strategy(max_n):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda p: p[0] < p[1]),
            ),
        )
    )


class TestRingProperties:
    @given(moduli)
    def test_zn_units_match_gcd(self, n):
        ring = ring_from_text(f"Z/{n}")
        assert ring.units == frozenset(a for a in range(n) if zn_unit(a, n))

    @given(small_moduli, small_moduli)
    def test_product_arithmetic(self, n, m):
        ring = ring_from_text(f"Z/{n} x Z/{m}")
        assert ring.size == n * m
        assert ring.characteristic == (n * m) // math.gcd(n, m)

    @given(moduli, st.data())
    def test_zn_comaximal_matches_gcd(self, n, data):
        ring = ring_from_text(f"Z/{n}")
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        assert ring.is_comaximal(a, b) == zn_comaximal(a, b, n)

    @given(small_moduli, st.data())
    def test_signature_matches_closure(self, n, data):
        ring = ring_from_text(f"Z/{n}")
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        assert ring.is_comaximal(a, b) == ring.is_comaximal_via_closure(a, b)

    @given(small_moduli)
    def test_quotient_size_law(self, n):
        ring = ring_from_text(f"Z/{n}")
        radical = ring.jacobson_radical
        quotient, projection = ring.quotient(radical)
        assert quotient.size * len(radical) == ring.size
        assert projection.verify()

    @given(small_moduli)
    def test_radical_is_unit_shifter(self, n):
        ring = ring_from_text(f"Z/{n}")
        for j in ring.jacobson_radical.members():
            assert all(
                ring.is_unit(ring.sub(ring.one, ring.mul(j, r)))
                for r in range(ring.size)
            )


class TestRingStructureProperties:
    @settings(max_examples=40)
    @given(st.lists(st.sampled_from(PRODUCT_BASES), min_size=1, max_size=3))
    def test_structure_matches_definitions(self, bases):
        ring = ring_from_text(" x ".join(bases))
        assume(ring.size <= 128)
        reference = structure_by_definition(ring)
        assert structure_of(ring) == reference
        radical = tuple(x for x, member in enumerate(reference["radical"]) if member)
        assert ring.nilpotent_elements == radical


# Rings of 12 to 243 elements: cyclic, local, reduced and mixed, with several additive shapes.
IDEAL_RINGS = (
    "Z/12", "Z/64", "Z/2 x Z/4", "Z/9 x Z/3", "GF(4) x Z/4", "SQZ(2,3)",
    "Z/2[x]/(x^6)", "Z/8 x GF(4)", "Z/2 x Z/2 x Z/3", "Z/9 x SQZ(3,2)",
)


@lru_cache(maxsize=None)
def _built(text):
    return ring_from_text(text)


@st.composite
def ring_subsets(draw):
    """A ring and a subset of it: a kernel ideal, a principal ideal, a random set with 0,
    the additive span of random elements, or the union of two principal ideals."""
    ring = _built(draw(st.sampled_from(IDEAL_RINGS)))
    element = st.integers(0, ring.size - 1)
    kind = draw(st.sampled_from(["kernel", "principal", "random", "span", "union"]))
    if kind == "kernel":
        members = draw(st.sampled_from([ring.jacobson_radical, *ring.maximal_ideals])).members()
    elif kind == "principal":
        members = ring.principal_ideal(draw(element)).members()
    elif kind == "random":
        members = {0} | draw(st.sets(element, max_size=ring.size))
    elif kind == "span":
        members = additive_span(ring, draw(st.lists(element, min_size=1, max_size=3)))
    else:
        a, b = draw(element), draw(element)
        members = {*ring.principal_ideal(a).members(), *ring.principal_ideal(b).members()}
    return ring, sorted(members)


class TestIdealProperties:
    @settings(max_examples=300)
    @given(ring_subsets())
    def test_is_ideal_matches_pairwise_definition(self, case):
        ring, members = case
        ideal = IdealSet(ring.size, sum(1 << x for x in members))
        assert ring.is_ideal(ideal) == is_ideal_by_definition(ring, members)


class TestParserProperties:
    @given(st.integers(min_value=2, max_value=10**6))
    def test_zn_round_trip(self, n):
        text = f"Z/{n}"
        assert format_expression(parse_expression(text)) == text

    @given(st.lists(st.sampled_from(["Z/2", "Z/3", "Z/4", "GF(4)", "SQZ(2,2)"]),
                    min_size=1, max_size=4))
    def test_product_round_trip(self, parts):
        text = " x ".join(parts)
        expr = parse_expression(text)
        assert parse_expression(format_expression(expr)) == expr


@st.composite
def row_sets(draw):
    """Rows of a random symmetric graph, then a few loops, bits past n or one-way edges."""
    n = draw(st.sampled_from([0, 1, 7, 8, 9, 16, 17]))
    rows = [0] * n
    if n == 0:
        return n, rows
    vertex = st.integers(0, n - 1)
    for i, j in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        if i != j:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    defects = st.tuples(st.sampled_from(["loop", "range", "one-way"]), vertex, vertex)
    for kind, i, j in draw(st.lists(defects, max_size=3)):
        if kind == "loop":
            rows[i] |= 1 << i
        elif kind == "range":
            rows[i] |= 1 << (n + j)
        else:
            rows[i] ^= 1 << j if i != j else 0
    return n, rows


@st.composite
def planted_twin_graphs(draw, max_n=7):
    """A random base graph with each vertex blown up into a class of false
    twins, plus universal vertices, in a shuffled vertex order."""
    universal = draw(st.integers(0, 2))
    k = draw(st.integers(1, 5))
    pairs = [(x, y) for x in range(k) for y in range(x + 1, k)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    base = {pair for pair, flag in zip(pairs, flags) if flag}
    sizes: list[int] = []
    for i in range(k):
        budget = max_n - universal - sum(sizes) - (k - i - 1)
        sizes.append(draw(st.integers(1, min(3, budget))))
    owner = [i for i in range(k) for _ in range(sizes[i])] + [None] * universal
    n = len(owner)
    perm = draw(st.permutations(range(n)))

    def adjacent(a: int, b: int) -> bool:
        x, y = owner[a], owner[b]
        return x is None or y is None or (min(x, y), max(x, y)) in base

    edges = [(perm[a], perm[b]) for a in range(n) for b in range(a + 1, n) if adjacent(a, b)]
    return SimpleGraph.from_edges(n, edges)


class TestGraphProperties:
    @settings(max_examples=400)
    @given(row_sets())
    def test_validation_matches_per_edge_reference(self, spec):
        n, rows = spec
        try:
            g = SimpleGraph(n, rows)
        except ValueError as exc:
            message = str(exc)
        else:
            message = None
        assert message == validate_rows(n, rows)
        if message is None:
            adj = g.adjacency()
            assert adj.shape == (n, n) and adj.dtype == bool
            assert [[bool(adj[i, j]) for j in range(n)] for i in range(n)] == [
                [g.has_edge(i, j) for j in range(n)] for i in range(n)
            ]
            width = (n + 7) // 8
            assert g.packed.shape == (n, width) and not g.packed.flags.writeable
            assert [bytes(row) for row in g.packed] == [r.to_bytes(width, "little") for r in rows]

    @given(random_graph_strategy(7))
    def test_exact_solvers_match_brute_force(self, spec):
        n, edges = spec
        g = SimpleGraph.from_edges(n, sorted(edges))
        assert clique_number(g) == brute_clique(g)
        assert chromatic_number(g) == brute_chromatic(g)

    @given(random_graph_strategy(8))
    def test_diameter_matches_brute_force(self, spec):
        n, edges = spec
        g = SimpleGraph.from_edges(n, sorted(edges))
        from comaximal import metrics

        assert metrics(g).diameter == brute_diameter(g)

    @settings(max_examples=300)
    @given(planted_twin_graphs(), st.randoms(use_true_random=False))
    def test_twin_quotient_matches_oracles(self, g, rng):
        m = metrics(g)
        got = (m.vertex_count, m.edge_count, m.connected, m.components, m.diameter, m.witness_pair)
        assert got == brute_metrics(g)
        clique = max_clique(g)
        assert len(clique) == clique_number(g) == brute_clique(g)
        assert all(g.has_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :])
        assert chromatic_number(g) == brute_chromatic(g)
        with pytest.raises(CapacityError) as clique_err:
            max_clique(g, cap=g.n - 1)
        with pytest.raises(CapacityError) as colour_err:
            chromatic_number(g, cap=g.n - 1)
        lower, upper = colour_err.value.lower, colour_err.value.upper
        assert clique_err.value.lower == lower == len(_greedy_clique(g.rows))
        assert lower <= brute_clique(g) <= brute_chromatic(g) <= upper
        parts = multipartite_structure(g)
        assert (parts.bipartition, parts.multipartite_parts) == brute_partitions(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled = SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        mapping = are_isomorphic(g, relabelled)
        assert mapping is not None and maps_edges(g, relabelled, mapping)

    @settings(max_examples=300)
    @given(planted_twin_graphs(max_n=14))
    def test_twin_classes_match_neighbourhood_oracle(self, g):
        classes, universal, rows = twin_classes(g)
        assert (classes, universal, rows, g.edge_count) == brute_twin_classes(g)

    @given(random_graph_strategy(7), st.randoms(use_true_random=False))
    def test_certificate_invariant_under_relabeling(self, spec, rng):
        n, edges = spec
        g = SimpleGraph.from_edges(n, sorted(edges))
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = SimpleGraph.from_edges(
            n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges())
        )
        assert canonical_certificate(g) == canonical_certificate(shuffled)
        mapping = are_isomorphic(g, shuffled)
        assert mapping is not None
        from comaximal import verify_isomorphism

        assert verify_isomorphism(g, shuffled, mapping)

    @given(random_graph_strategy(6), random_graph_strategy(6))
    def test_certificate_equality_decides_isomorphism(self, spec_a, spec_b):
        na, ea = spec_a
        nb, eb = spec_b
        ga = SimpleGraph.from_edges(na, sorted(ea))
        gb = SimpleGraph.from_edges(nb, sorted(eb))
        same_cert = canonical_certificate(ga) == canonical_certificate(gb)
        verdict = are_isomorphic(ga, gb)
        assert same_cert == (verdict is not None)


def joined_by_rows(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """`join` by its row formula, through `SimpleGraph(n, rows)`."""
    left, right = (1 << g1.n) - 1, ((1 << g2.n) - 1) << g1.n
    rows = [r | right for r in g1.rows] + [r << g1.n | left for r in g2.rows]
    return SimpleGraph(
        g1.n + g2.n, rows, g1.labels + g2.labels, g1.vertex_keys + g2.vertex_keys
    )


def graph_view(g: SimpleGraph) -> tuple:
    """What a graph reads as: its rows, packed rows, twin quotient, edge count, labels and
    vertex keys.  Not its classes and Q: a clique class of universal vertices that `join` keeps
    is one class per vertex in `SimpleGraph(n, rows)`."""
    return (
        g.rows, g.packed.shape, g.packed.tobytes(), twin_classes(g), g.edge_count, g.labels,
        g.vertex_keys,
    )


join_inputs = st.one_of(
    st.just(0).map(SimpleGraph.edgeless),
    st.integers(1, 9).map(SimpleGraph.edgeless),
    random_graph_strategy(9).map(lambda spec: SimpleGraph.from_edges(spec[0], sorted(spec[1]))),
    planted_twin_graphs(max_n=9),
)


class TestJoinFromClasses:
    """`join` builds from its inputs' classes; it must equal the graph its row formula gives."""

    @settings(max_examples=300)
    @given(join_inputs, join_inputs)
    def test_matches_the_row_formula(self, g1, g2):
        assert graph_view(join(g1, g2)) == graph_view(joined_by_rows(g1, g2))

    def test_matches_the_row_formula_on_corpus_rings(self):
        for text in corpus_specs():
            ring = ring_from_text(text)
            units, nonunits = (build_comaximal_graph(ring, s) for s in ("units", "nonunits"))
            assert graph_view(join(units, nonunits)) == graph_view(joined_by_rows(units, nonunits))


@st.composite
def class_built_graphs(draw, max_n=10):
    """A graph made by `SimpleGraph(n, rows)`, or one built from random classes and a random
    symmetric Q: classes may hold equal rows (class 1 may copy class 0's), and a full row,
    which one class may be made to have, may carry its diagonal bit (a clique class)."""
    n = draw(st.integers(0, max_n))
    if draw(st.booleans()):
        pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
        return SimpleGraph.from_edges(n, [(i, j) for i, j in draw(st.sets(pairs)) if i < j])
    first: dict[int, int] = {}
    labels = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
    class_of = [first.setdefault(c, len(first)) for c in labels]
    k = len(first)
    bits = np.zeros((k, k), dtype=bool)
    upper = np.triu_indices(k, 1)
    bits[upper] = draw(st.lists(st.booleans(), min_size=len(upper[0]), max_size=len(upper[0])))
    bits |= bits.T
    if k > 2 and draw(st.booleans()):
        bits[1, 2:] = bits[2:, 1] = bits[0, 2:]
    if k and draw(st.booleans()):
        u = draw(st.integers(0, k - 1))
        bits[u] = bits[:, u] = True
    np.fill_diagonal(bits, False)
    for a in np.flatnonzero(bits.sum(1) == k - 1).tolist():
        bits[a, a] = draw(st.booleans())
    quotient = np.packbits(bits, axis=1, bitorder="little").reshape(k, (k + 7) // 8)
    return SimpleGraph._from_classes(np.array(class_of, dtype=np.intp), quotient, np.arange(n))


def relabelled_by_classes(g: SimpleGraph, perm: list[int]) -> SimpleGraph:
    """g with its vertex perm[i] as vertex i, built from the same classes and Q renumbered."""
    first: dict[int, int] = {}
    class_of = [first.setdefault(c, len(first)) for c in g._class_of[perm].tolist()]
    old = list(first)
    k = len(g._quotient)
    bits = np.unpackbits(g._quotient, axis=1, count=k, bitorder="little").astype(bool)
    quotient = np.packbits(bits[np.ix_(old, old)], axis=1, bitorder="little")
    quotient = quotient.reshape(len(old), (len(old) + 7) // 8)
    return SimpleGraph._from_classes(np.array(class_of, dtype=np.intp), quotient, np.arange(g.n))


class TestClassLevelChecks:
    """The claims' class-level forms against pair-by-pair counts and comparisons."""

    @settings(max_examples=300)
    @given(class_built_graphs(), st.data())
    def test_label_edges_match_pair_count(self, g, data):
        m = data.draw(st.integers(1, max(g.n, 1)))
        label = data.draw(st.lists(st.integers(0, m - 1), min_size=g.n, max_size=g.n))
        expected = np.zeros((m, m), dtype=np.int64)
        for u in range(g.n):
            for v in range(g.n):
                if u != v and g.has_edge(u, v):
                    expected[label[u], label[v]] += 1
        assert _label_edges(g, np.array(label, dtype=np.intp), m).tolist() == expected.tolist()

    @settings(max_examples=300)
    @given(class_built_graphs())
    def test_degrees_and_neighbours_match_the_rows(self, g):
        """`degree`, `degrees` and `neighbors` read the classes and Q, on g and on the graph
        built from g's rows alike, and give what g's rows give."""
        rows = g.rows
        for h in (g, SimpleGraph(g.n, rows)):
            assert h.degrees() == [r.bit_count() for r in rows]
            assert [h.degree(i) for i in range(g.n)] == h.degrees()
            assert [h.neighbors(i) for i in range(g.n)] == [
                [j for j in range(g.n) if r >> j & 1] for r in rows
            ]

    @settings(max_examples=300)
    @given(class_built_graphs(max_n=24), st.data())
    def test_equal_classes_never_hide_a_difference(self, g, data):
        """`_difference` against the pair-by-pair oracle, in both argument orders, with and
        without vertex lists: on g relabelled, with flipped pairs, and on an unrelated graph.
        Up to 24 vertices: numpy sorts 16 keys or fewer by insertion, which keeps ties in
        order, so only longer lists show a sort that may reorder one pair's positions."""
        perm = data.draw(st.permutations(range(g.n)))
        m = data.draw(st.integers(0, g.n))
        same = relabelled_by_classes(g, perm)
        assert _difference(g, same, perm[:m], list(range(m))) is None
        rows = list(same.rows)
        for i, j in data.draw(st.lists(st.tuples(st.integers(0, g.n), st.integers(0, g.n)))):
            if i != j and max(i, j) < g.n:
                rows[i] ^= 1 << j
                rows[j] ^= 1 << i
        for h in (same, SimpleGraph(g.n, rows), data.draw(class_built_graphs(max_n=g.n))):
            if h.n == g.n:
                for gv, hv in ((perm[:m], list(range(m))), (None, None)):
                    assert _difference(g, h, gv, hv) == first_difference_by_rows(g, h, gv, hv)
                    assert _difference(h, g, hv, gv) == first_difference_by_rows(h, g, hv, gv)


class TestComaximalGraphProperties:
    @given(small_moduli)
    def test_units_section_is_complete_with_apex(self, n):
        ring = ring_from_text(f"Z/{n}")
        g = build_comaximal_graph(ring, "units")
        k = len(ring.units)
        assert g.n == k
        assert g.edge_count == k * (k - 1) // 2

    @given(small_moduli)
    def test_full_graph_edge_split(self, n):
        ring = ring_from_text(f"Z/{n}")
        full = build_comaximal_graph(ring, "full")
        units = build_comaximal_graph(ring, "units")
        nonunits = build_comaximal_graph(ring, "nonunits")
        k = len(ring.units)
        cross = k * (ring.size - k)
        assert full.edge_count == units.edge_count + nonunits.edge_count + cross

    @given(small_moduli)
    def test_radical_vertices_isolated_among_nonunits(self, n):
        ring = ring_from_text(f"Z/{n}")
        g = build_comaximal_graph(ring, "nonunits")
        keys = g.vertex_keys
        radical = set(ring.jacobson_radical.members())
        for i, key in enumerate(keys):
            if key in radical:
                assert g.rows[i] == 0


@lru_cache(maxsize=1)
def small_corpus() -> tuple[str, ...]:
    """The acceptance corpus rings of at most 256 elements."""
    return tuple(text for text in corpus_specs() if ring_from_text(text).size <= 256)


def index_free_view(ring) -> list:
    """What relabelling the elements cannot change: per selector graph the class sizes, edge
    count and diameter, omega and chi of the full and core graphs, and the structure claims'
    outcomes and skip reasons."""
    view = []
    for selector in ("full", "units", "nonunits", "core"):
        g = build_comaximal_graph(ring, selector)
        t = twin_classes(g)
        sizes = sorted([len(c) for c in t.classes] + [1] * len(t.universal))
        view.append((selector, sizes, g.edge_count, metrics(g).diameter))
        if selector in ("full", "core"):
            view.append((clique_number(g), chromatic_number(g)))
    view.append([(r.claim, r.outcome, r.skip_reason) for r in verify_ring(ring, STRUCTURE_CLAIMS)])
    return view


@lru_cache(maxsize=None)
def plain_view(text: str) -> list:
    return index_free_view(ring_from_text(text))


class TestRelabelledRings:
    """A ring whose nonzero elements are permuted is the same ring: every index-free fact of its
    class-built graphs and every structure claim must come out the same."""

    @settings(max_examples=40)
    @given(st.deferred(lambda: st.sampled_from(small_corpus())), st.integers(0, 2**32 - 1))
    def test_class_path_ignores_element_order(self, text, seed):
        copy = relabelled(ring_from_text(text), np.random.default_rng(seed))
        assert index_free_view(copy) == plain_view(text)
