"""Graph isomorphism and canonical certificate tests."""

import hashlib
import itertools
import json
import random
from collections import defaultdict
from functools import lru_cache

import pytest

from comaximal import (
    CapacityError,
    InternalConsistencyError,
    SimpleGraph,
    are_isomorphic,
    build_comaximal_graph,
    canonical_certificate,
    disjoint_union,
    expression_size,
    join,
    parse_expression,
    refined_colors,
    ring_from_text,
    verify_isomorphism,
)

from conftest import run_python
from oracles import brute_isomorphic
from test_acceptance import corpus_specs


def graph_of(text: str, selector: str = "full") -> SimpleGraph:
    return build_comaximal_graph(ring_from_text(text), selector)


def shuffled(g: SimpleGraph, seed: int) -> SimpleGraph:
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return SimpleGraph.from_edges(g.n, edges)


@lru_cache(maxsize=1)
def corpus_rings() -> dict:
    return {spec: ring_from_text(spec) for spec in corpus_specs()}


def cayley_z4z4(connection: set[tuple[int, int]]) -> SimpleGraph:
    """The Cayley graph of Z/4 x Z/4 with a symmetric connection set; (a, b) is vertex 4a + b."""
    points = [(a, b) for a in range(4) for b in range(4)]
    return SimpleGraph.from_edges(16, [
        (4 * a + b, 4 * c + d)
        for (a, b), (c, d) in itertools.combinations(points, 2)
        if ((a - c) % 4, (b - d) % 4) in connection
    ])


# Strongly regular (16, 6, 2, 2) and twin-free: refinement leaves one colour in each.
SHRIKHANDE = cayley_z4z4({(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)})
ROOK_4X4 = cayley_z4z4({(i, 0) for i in (1, 2, 3)} | {(0, i) for i in (1, 2, 3)})


def cubic_graph(n: int, seed: int) -> SimpleGraph:
    """The n-cycle plus a random perfect matching of chords: 3-regular, so refinement
    splits nothing."""
    rng = random.Random(seed)
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        chords = [(perm[i], perm[i + 1]) for i in range(0, n, 2)]
        if all((b - a) % n not in (1, n - 1) for a, b in chords):
            return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)] + chords)


def random_graph(n: int, p: float, seed: int) -> SimpleGraph:
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return SimpleGraph.from_edges(n, edges)


class TestAreIsomorphic:
    def test_size4_local_pair(self):
        witness = are_isomorphic(graph_of("Z/4"), graph_of("Z/2[x]/(x^2)"))
        assert witness is not None

    def test_size8_local_trio(self):
        g_z8 = graph_of("Z/8")
        g_poly = graph_of("Z/2[x]/(x^3)")
        g_sqz = graph_of("SQZ(2,2)")
        assert are_isomorphic(g_z8, g_poly) is not None
        assert are_isomorphic(g_z8, g_sqz) is not None
        synthetic = join(SimpleGraph.complete(4), SimpleGraph.edgeless(4))
        assert are_isomorphic(g_z8, synthetic) is not None

    def test_unit_count_reject(self):
        assert are_isomorphic(graph_of("Z/9"), graph_of("Z/3 x Z/3")) is None

    def test_size16_product_pair(self):
        g_r = graph_of("Z/2 x Z/8")
        g_s = graph_of("Z/4 x Z/4")
        assert are_isomorphic(g_r, g_s) is not None
        synthetic = join(
            disjoint_union(SimpleGraph.complete_multipartite([4, 4]), SimpleGraph.edgeless(4)),
            SimpleGraph.complete(4),
        )
        assert are_isomorphic(g_r, synthetic) is not None
        core = graph_of("Z/2 x Z/8", "core")
        assert are_isomorphic(core, SimpleGraph.complete_multipartite([4, 4])) is not None

    def test_witness_verified(self):
        g1 = graph_of("Z/30", "core")
        g2 = shuffled(g1, seed=7)
        witness = are_isomorphic(g1, g2)
        assert witness is not None
        assert verify_isomorphism(g1, g2, witness)

    def test_relabeling_invariance(self):
        for text in ("Z/12", "Z/30", "Z/2 x Z/8"):
            g = graph_of(text)
            for seed in (1, 2, 3):
                assert are_isomorphic(g, shuffled(g, seed)) is not None

    @pytest.mark.parametrize(
        "first, second, expected",
        [
            ("Z/2 x Z/8", "Z/4 x Z/4", [0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7, 12, 13, 14, 15]),
            ("Z/6", "Z/2 x Z/3", [0, 4, 1, 3, 2, 5]),
            ("Z/5", "GF(5)", [0, 1, 2, 3, 4]),  # every vertex is universal
        ],
    )
    def test_pinned_witnesses(self, first, second, expected):
        assert are_isomorphic(graph_of(first), graph_of(second)) == tuple(expected)

    def test_pinned_corpus_mappings(self):
        """Every mapping, or None, on the full graphs of the equal-size corpus pairs."""
        size = {spec: expression_size(parse_expression(spec)) for spec in corpus_specs()}
        specs = list(size)
        pairs = [(a, b) for i, a in enumerate(specs) for b in specs[i + 1:] if size[a] == size[b]]
        assert len(pairs) == 884
        rings = corpus_rings()
        graphs = {spec: build_comaximal_graph(rings[spec]) for pair in pairs for spec in pair}
        results = [are_isomorphic(graphs[a], graphs[b]) for a, b in pairs]
        assert sum(r is not None for r in results) == 247
        found = json.dumps([r if r is None else list(r) for r in results]).encode()
        assert hashlib.sha256(found).hexdigest() == (
            "2fc55d2ef9812446773a1a2a4f91687406182dacc0fb006e036792fb36140ee9"
        )

    def test_universal_vertices_paired_in_ascending_order(self):
        rest = random_graph(5, 0.5, 3)
        assert max(rest.degrees()) < 4  # so U is exactly the K_3
        g = join(SimpleGraph.complete(3), rest)
        h = join(rest, SimpleGraph.complete(3))
        witness = are_isomorphic(g, h)
        assert witness is not None and witness[:3] == (5, 6, 7)

    def test_universal_count_mismatch(self):
        star = SimpleGraph.complete_multipartite([1, 3])
        triangle_and_point = disjoint_union(SimpleGraph.complete(3), SimpleGraph.edgeless(1))
        assert star.edge_count == triangle_and_point.edge_count == 3
        assert are_isomorphic(star, triangle_and_point) is None
        assert are_isomorphic(triangle_and_point, star) is None

    def test_matches_bruteforce_on_random_pairs(self):
        cases = []
        for seed in range(12):
            cases.append((random_graph(6, 0.4, seed), random_graph(6, 0.4, seed + 100)))
        for seed in range(6):
            g = random_graph(6, 0.5, seed + 200)
            cases.append((g, shuffled(g, seed)))
        # Graphs joined with K_u: u universal vertices, placed first or shuffled in.
        for seed in range(24):
            u = seed % 4
            g = join(SimpleGraph.complete(u), random_graph(5, 0.5, seed + 300))
            other = join(SimpleGraph.complete(u), random_graph(5, 0.5, seed + 400))
            cases.append((g, other))
            cases.append((g, shuffled(g, seed)))
            cases.append((shuffled(g, seed + 1), shuffled(other, seed + 2)))
        for g1, g2 in cases:
            got = are_isomorphic(g1, g2)
            expected = brute_isomorphic(g1, g2)
            assert (got is not None) == expected
            if got is not None:
                assert verify_isomorphism(g1, g2, got)

    def test_same_degree_sequence_different_graphs(self):
        g1 = disjoint_union(
            SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
            SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
        )
        g2 = SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert are_isomorphic(g1, g2) is None

    def test_backtracks_on_strongly_regular_pair(self):
        assert are_isomorphic(SHRIKHANDE, ROOK_4X4) is None
        assert are_isomorphic(ROOK_4X4, SHRIKHANDE) is None
        for seed, g in enumerate((SHRIKHANDE, ROOK_4X4)):
            assert len(set(refined_colors(g))) == 1
            relabelled = shuffled(g, seed)
            witness = are_isomorphic(g, relabelled)
            assert witness is not None and verify_isomorphism(g, relabelled, witness)

    def test_maps_regular_graphs_to_relabellings(self):
        for seed in range(8):
            g = cubic_graph(16, seed)
            relabelled = shuffled(g, seed)
            witness = are_isomorphic(g, relabelled)
            assert witness is not None and verify_isomorphism(g, relabelled, witness)

    def test_cap(self):
        g = SimpleGraph.edgeless(10)
        with pytest.raises(CapacityError):
            are_isomorphic(g, g, cap=5)

    def test_empty_graphs(self):
        assert are_isomorphic(SimpleGraph.edgeless(0), SimpleGraph.edgeless(0)) == ()


class TestVerifyIsomorphism:
    def test_accepts_identity(self):
        g = graph_of("Z/12")
        assert verify_isomorphism(g, g, list(range(g.n)))

    def test_rejects_wrong_map(self):
        g = SimpleGraph.from_edges(3, [(0, 1)])
        h = SimpleGraph.from_edges(3, [(1, 2)])
        assert verify_isomorphism(g, h, [0, 1, 2]) is False
        assert verify_isomorphism(g, h, [1, 2, 0])

    def test_rejects_non_bijection(self):
        g = SimpleGraph.edgeless(3)
        assert verify_isomorphism(g, g, [0, 0, 1]) is False

    def test_rejects_permutation_that_moves_an_edge(self):
        g = graph_of("Z/30", "core")
        witness = list(are_isomorphic(g, g))
        # Composing an automorphism with a swap of two vertices of unequal degree is none.
        i = next(i for i in range(g.n) if g.degree(i) != g.degree(0))
        witness[0], witness[i] = witness[i], witness[0]
        assert verify_isomorphism(g, g, witness) is False

    def test_rejects_wrong_length(self):
        g = graph_of("Z/12")
        assert verify_isomorphism(g, g, list(range(g.n - 1))) is False
        assert verify_isomorphism(g, g, list(range(g.n + 1))) is False


class TestSelfCheck:
    """A witness that the check rejects raises InternalConsistencyError, also under -O."""

    def test_rejected_witness_raises(self, monkeypatch):
        monkeypatch.setattr("comaximal.isomorphism.verify_isomorphism", lambda g1, g2, m: False)
        with pytest.raises(InternalConsistencyError, match="bad witness"):
            are_isomorphic(graph_of("Z/6"), graph_of("Z/2 x Z/3"))

    def test_rejected_witness_raises_without_search(self, monkeypatch):
        # Every vertex of Z/5's graph is universal: no search runs, the pairing is the witness.
        monkeypatch.setattr("comaximal.isomorphism.verify_isomorphism", lambda g1, g2, m: False)
        with pytest.raises(InternalConsistencyError, match="bad witness"):
            are_isomorphic(graph_of("Z/5"), graph_of("GF(5)"))

    @staticmethod
    def plant(first: str, second: str) -> str:
        return (
            "import comaximal.isomorphism as isomorphism\n"
            "from comaximal import build_comaximal_graph, ring_from_text\n"
            "isomorphism.verify_isomorphism = lambda g1, g2, m: False\n"
            f"g1, g2 = (build_comaximal_graph(ring_from_text(t)) for t in {(first, second)!r})\n"
        )

    def test_rejected_witness_survives_python_O(self, python_O):
        out = python_O(self.plant("Z/6", "Z/2 x Z/3"), "isomorphism.are_isomorphic(g1, g2)")
        assert out.startswith("raised 1 "), out
        assert "bad witness" in out

    def test_rejected_witness_without_search_survives_python_O(self, python_O):
        out = python_O(self.plant("Z/5", "GF(5)"), "isomorphism.are_isomorphic(g1, g2)")
        assert out.startswith("raised 1 "), out
        assert "bad witness" in out


class TestRefinement:
    def test_distinguishes_degrees(self):
        g = SimpleGraph.complete_multipartite([1, 3])
        colors = refined_colors(g)
        assert colors[0] != colors[1]
        assert colors[1] == colors[2] == colors[3]

    def test_regular_graph_single_class(self):
        g = SimpleGraph.complete(5)
        assert len(set(refined_colors(g))) == 1


class TestCertificates:
    def test_triangle_orderings(self):
        base = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        for perm in itertools.permutations(range(3)):
            edges = [(perm[u], perm[v]) for u, v in base.edges()]
            assert canonical_certificate(SimpleGraph.from_edges(3, edges)) == canonical_certificate(base)

    def test_size4_local_pair_certificates(self):
        synthetic = join(SimpleGraph.complete(2), SimpleGraph.edgeless(2))
        assert canonical_certificate(graph_of("Z/4")) == canonical_certificate(synthetic)
        assert canonical_certificate(graph_of("Z/2[x]/(x^2)")) == canonical_certificate(synthetic)

    def test_star_vs_triangle(self):
        star = SimpleGraph.complete_multipartite([1, 2])
        triangle = SimpleGraph.complete(3)
        assert canonical_certificate(star) != canonical_certificate(triangle)

    def test_agrees_with_are_isomorphic(self):
        graphs = [random_graph(7, 0.4, s) for s in range(10)]
        graphs += [shuffled(graphs[0], 5), shuffled(graphs[3], 6)]
        for g1 in graphs:
            for g2 in graphs:
                same_cert = canonical_certificate(g1) == canonical_certificate(g2)
                assert same_cert == (are_isomorphic(g1, g2) is not None)

    def test_strongly_regular_pair(self):
        shrikhande, rook = canonical_certificate(SHRIKHANDE), canonical_certificate(ROOK_4X4)
        assert shrikhande != rook
        assert canonical_certificate(shuffled(SHRIKHANDE, 3)) == shrikhande
        assert canonical_certificate(shuffled(ROOK_4X4, 4)) == rook

    def test_regular_graphs_match_relabellings(self):
        # The search must follow ties in the placed prefix to the best leaf, not stop at the first.
        for seed in range(8):
            g = cubic_graph(16, seed)
            assert canonical_certificate(shuffled(g, seed)) == canonical_certificate(g)

    @pytest.mark.parametrize(
        "graph",
        [
            'build_comaximal_graph(ring_from_text("Z/2 x Z/4 x Z/8"))',  # 64 vertices, at the cap
            "SimpleGraph.complete_multipartite([2] * 32)",  # its twin quotient is K_32
        ],
    )
    def test_twin_heavy_graphs_certify_quickly(self, graph):
        script = (
            "import random\n"
            "from comaximal import SimpleGraph, build_comaximal_graph, canonical_certificate\n"
            "from comaximal import ring_from_text\n"
            f"g = {graph}\n"
            "perm = list(range(g.n))\n"
            "random.Random(1).shuffle(perm)\n"
            "h = SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])\n"
            "print(g.n, canonical_certificate(g) == canonical_certificate(h))\n"
        )
        result = run_python("-c", script, timeout=10)
        assert result.stdout == "64 True\n", result.stderr

    def test_agrees_with_are_isomorphic_on_corpus(self):
        """Every pair of nonempty corpus graphs of at most 64 vertices with equal vertex and
        edge counts."""
        groups = defaultdict(list)
        for ring in corpus_rings().values():
            for selector in ("full", "units", "nonunits", "core"):
                g = build_comaximal_graph(ring, selector)
                if 0 < g.n <= 64:
                    groups[g.n, g.edge_count].append((g, canonical_certificate(g)))
        pairs = 0
        for group in groups.values():
            for (g1, c1), (g2, c2) in itertools.combinations(group, 2):
                pairs += 1
                assert (c1 == c2) == (are_isomorphic(g1, g2) is not None)
        assert pairs == 5062

    def test_cap(self):
        with pytest.raises(CapacityError):
            canonical_certificate(SimpleGraph.edgeless(65))

    def test_deterministic(self):
        g = graph_of("Z/30", "core")
        assert canonical_certificate(g) == canonical_certificate(g)
