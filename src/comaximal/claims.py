"""Mechanised checks of structural claims about comaximal graphs.

Each claim has a stable id and a checker that returns pass, fail, or
skip.  A fail always carries a witness dict of concrete elements or
counts.  Checkers read the ring structure the kernel certifies (units,
maximal ideals, primitive idempotents) rather than rebuilding rings to
rederive it.  `revalidate_report` audits a report entry by recomputing it
from the ring text and the caps and requiring the same JSON, whatever
the outcome.  Where a fail witness names concrete elements, the claim
also registers an audit, defined just above its checker, that rechecks
the witness through the ideal-closure oracle or scalar ring operations,
independently of the signature path the checkers share.

The graph claims decide on each graph's classes and class quotient Q
(see `graphs`), never on its per-vertex rows, passing or failing: L2.1a,
L2.1b and T4.4 read the class degrees, P4.7a/b the edge counts between
radical cosets, N Q N^T, and JOIN and P4.7c compare two graphs
(`graphs._difference`).  Every vertex pair a witness names is read through
`graphs._adjacent`.  The classes come from the graph as built, not from the
signatures, so a tampered graph is checked as it is.

`_run_claims`, behind `verify_ring` and `verify_pair`, is the one place
where an exception from a checker becomes an outcome: a CapacityError
is reported as a skip, anything else propagates.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Callable, Sequence

import numpy as np

from .construct import _prime_factors, expression_size, parse_expression, ring_from_text
from .errors import (
    CapacityError,
    InternalConsistencyError,
    ParseError,
    RingAxiomError,
    TableFormatError,
)
from .graphs import (
    SimpleGraph,
    _adjacent,
    _difference,
    _label_edges,
    build_comaximal_graph,
    chromatic_number,
    clique_number,
    join,
    metrics,
    multipartite_structure,
    twin_classes,
)
from .isomorphism import are_isomorphic
from .limits import (
    DEFAULT_EXACT_VERTEX_CAP,
    DEFAULT_GRAPH_ISO_CAP,
    DEFAULT_MAX_RING_SIZE,
    DEFAULT_RING_ISO_CAP,
)
from .rings import RingTable, _distinct, ring_isomorphic
from .version import __version__


@dataclass(frozen=True)
class Caps:
    """Effective size caps, embedded into every persisted report."""

    max_ring_size: int = DEFAULT_MAX_RING_SIZE
    max_exact_vertices: int = DEFAULT_EXACT_VERTEX_CAP
    max_ringiso_size: int = DEFAULT_RING_ISO_CAP
    max_graphiso_vertices: int = DEFAULT_GRAPH_ISO_CAP
    exact_chromatic_ring_size: int = 64

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class ClaimReport:
    claim: str
    rings: tuple[str, ...]
    outcome: str  # "pass" | "fail" | "skip"
    skip_reason: str | None = None
    witness: dict | None = None
    elapsed: float = 0.0  # excluded from files so reports stay byte-reproducible

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "rings": list(self.rings),
            "outcome": self.outcome,
            "skip_reason": self.skip_reason,
            "witness": self.witness,
        }


class RingAnalysis:
    """Shared per-ring context so claim checkers reuse graphs and metrics."""

    def __init__(self, ring: RingTable, text: str | None = None, caps: Caps | None = None):
        self.ring = ring
        self.text = text if text is not None else ring.name
        self.caps = caps or Caps()
        self._graphs: dict[str, SimpleGraph] = {}

    def graph(self, selector: str) -> SimpleGraph:
        if selector not in self._graphs:
            self._graphs[selector] = build_comaximal_graph(self.ring, selector)
        return self._graphs[selector]

    @cached_property
    def core_metrics(self):
        return metrics(self.graph("core"))

    @cached_property
    def core_structure(self):
        return multipartite_structure(self.graph("core"))

    @cached_property
    def core_clique(self) -> int:
        return clique_number(self.graph("core"), self.caps.max_exact_vertices)

    @cached_property
    def core_chromatic(self) -> int:
        return chromatic_number(self.graph("core"), self.caps.max_exact_vertices)

    @cached_property
    def radical_cosets(self) -> tuple[np.ndarray, np.ndarray]:
        """(reps, coset) for the cosets of the Jacobson radical.

        `reps` are the sorted coset representatives and `coset[x]` is the
        index of the coset of element x.
        """
        reps, rep_of = self.ring.coset_representatives(self.ring.jacobson_radical)
        return reps, np.searchsorted(reps, rep_of)

    @cached_property
    def coset_edges(self) -> np.ndarray:
        """`coset_edges[i, j]` counts the full-graph edges from radical coset i to coset j
        (inner edges twice), read off the graph's classes (`graphs._label_edges`)."""
        reps, coset = self.radical_cosets
        return _label_edges(self.graph("full"), coset, len(reps))

    @property
    def is_z2xz2(self) -> bool:
        # R/J = F_2 x F_2 has four elements, so a ring of size 4 has J = 0 and is R/J.
        return self.ring.size == 4 and self.ring.residue_field_sizes == (2, 2)


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimSpec:
    """A registered claim.

    `check(analysis)` decides a single-ring claim.  A pair claim's
    `check(a1, a2, graph_iso)` calls `graph_iso()` for `are_isomorphic`
    on the pair's full graphs, which `verify_pair` runs once per pair.
    `audit(witness, ring) -> bool`, when set, rechecks a fail witness that
    names concrete elements without the signature path, and is true when
    the witness really contradicts the claim.
    """

    claim_id: str
    summary: str
    arity: int
    check: Callable
    audit: Callable[[dict, RingTable], bool] | None = None


SINGLE_CLAIMS: dict[str, ClaimSpec] = {}
PAIR_CLAIMS: dict[str, ClaimSpec] = {}


def _claim(claim_id: str, summary: str, arity: int = 1, audit: Callable | None = None):
    def register(fn: Callable) -> Callable:
        spec = ClaimSpec(claim_id, summary, arity, fn, audit)
        (SINGLE_CLAIMS if arity == 1 else PAIR_CLAIMS)[claim_id] = spec
        return fn

    return register


def _passed(witness: dict | None = None):
    return "pass", witness, None


def _failed(witness: dict):
    return "fail", witness, None


def _skipped(reason: str):
    return "skip", None, reason


# -- single-ring claims -----------------------------------------------------------


def _audit_units_complete(witness: dict, ring: RingTable) -> bool:
    x, y = witness["non_adjacent_units"]
    return (
        ring.is_unit(x)
        and ring.is_unit(y)
        and x != y
        and not ring.is_comaximal_via_closure(x, y)
    )


@_claim("L2.1a", "the subgraph induced by the units is complete", audit=_audit_units_complete)
def _check_units_complete(a: RingAnalysis):
    g = a.graph("units")
    short = np.flatnonzero(g.class_degrees[g._class_of] != g.n - 1)
    if not len(short):
        return _passed({"unit_count": g.n, "edges": g.edge_count})
    # The first vertex short of a neighbour, and the first other vertex it misses.
    i = int(short[0])
    missing = ~_adjacent(g, [i], np.arange(g.n))[0]
    missing[i] = False
    return _failed({"non_adjacent_units": [int(g._keys[i]), int(g._keys[missing.argmax()])]})


@_claim("L2.1b", "isolated vertices of the nonunit subgraph are exactly the radical")
def _check_radical_isolated(a: RingAnalysis):
    g = a.graph("nonunits")
    radical = a.ring.jacobson_radical
    degree = g.class_degrees[g._class_of]  # the isolated vertices fill the classes of degree 0
    isolated = degree == 0
    wrong = isolated != radical.member_flags()[g._keys]
    if wrong.any():
        i = int(wrong.argmax())
        key, in_rad = int(g._keys[i]), not isolated[i]
        return _failed({"element": key, "degree": int(degree[i]), "in_radical": in_rad})
    return _passed({"radical_size": len(radical), "isolated": int(isolated.sum())})


def _audit_join(witness: dict, ring: RingTable) -> bool:
    x, y = witness["edge"]
    full_has = x != y and ring.is_comaximal_via_closure(x, y)
    join_has = x != y and (ring.is_unit(x) != ring.is_unit(y) or full_has)
    return full_has != join_has and witness["in_full"] == full_has


@_claim(
    "JOIN", "the full graph is the join of the unit and nonunit subgraphs", audit=_audit_join
)
def _check_join(a: RingAnalysis):
    full = a.graph("full")
    joined = join(a.graph("units"), a.graph("nonunits"))
    # Both graphs read on ring elements: the vertex of element x is at position x.
    diff = _difference(full, joined, *(np.argsort(g._keys) for g in (full, joined)))
    if diff is not None:
        x, y, in_full = diff
        return _failed({"edge": [x, y], "in_full": in_full})
    return _passed({"edges": full.edge_count})


@_claim("T2.2", "the core is complete bipartite exactly when there are two maximal ideals")
def _check_core_bipartite(a: RingAnalysis):
    st = a.core_structure
    t = a.ring.maximal_ideal_count
    is_cb = st.is_complete_bipartite
    witness = {
        "max_ideal_count": t,
        "core_complete_bipartite": is_cb,
        "part_sizes": sorted(len(p) for p in st.multipartite_parts or ()),
    }
    return _passed(witness) if is_cb == (t == 2) else _failed(witness)


@_claim("P2.3", "core clique and chromatic numbers both equal the maximal-ideal count")
def _check_core_counts(a: RingAnalysis):
    t = a.ring.maximal_ideal_count
    if t < 2:
        return _skipped("stated for rings with at least two maximal ideals")
    witness = {
        "max_ideal_count": t,
        "clique": a.core_clique,
        "chromatic": a.core_chromatic,
    }
    ok = a.core_clique == t and a.core_chromatic == t
    return _passed(witness) if ok else _failed(witness)


@_claim("P2.4a", "a complete multipartite core has exactly two parts")
def _check_core_multipartite(a: RingAnalysis):
    if a.ring.maximal_ideal_count < 2:
        return _skipped("stated for rings with at least two maximal ideals")
    st = a.core_structure
    if st.multipartite_parts is None:
        return _passed({"core_complete_multipartite": False})
    parts = len(st.multipartite_parts)
    witness = {"core_complete_multipartite": True, "parts": parts}
    return _passed(witness) if parts == 2 else _failed(witness)


@_claim("P2.4b", "a universal core vertex forces Z/2 x field structure")
def _check_universal_vertex(a: RingAnalysis):
    ring = a.ring
    if ring.maximal_ideal_count < 2:
        return _skipped("stated for rings with at least two maximal ideals")
    g = a.graph("core")
    universal = twin_classes(g).universal
    if not universal:
        return _passed({"universal_vertices": 0})
    if len(ring.jacobson_radical) != 1:
        return _failed({"kind": "radical_nonzero", "radical_size": len(ring.jacobson_radical)})
    if ring.maximal_ideal_count != 2:
        return _failed({"kind": "max_ideal_count", "count": ring.maximal_ideal_count})
    for i in universal:
        x = g.vertex_keys[i]
        mask = 1 | (1 << x)
        if not any(m.mask == mask for m in ring.maximal_ideals):
            return _failed({"kind": "pair_ideal_missing", "vertex": x})
    # J = 0, and the kernel certifies R = eR x (1-e)R with each factor local, so both are
    # fields and M_e = (1-e)R.  The two-element M_e = {0, x} makes R = GF(|R|/2) x Z/2.
    witness = {"universal_vertices": len(universal), "field_size": ring.size // 2}
    return _passed({**witness, "ring_isomorphism": "verified"})


def _audit_clean(witness: dict, ring: RingTable) -> bool:
    """Only a not_clean witness names an element; the other kinds are counts."""
    if witness["kind"] != "not_clean":
        return True
    x = witness["element"]
    idempotents = [e for e in range(ring.size) if ring.mul(e, e) == e]
    return not any(ring.is_unit(ring.sub(x, e)) for e in idempotents)


@_claim(
    "T2.5",
    "clean ring whose core clique count matches its local factor count",
    audit=_audit_clean,
)
def _check_clean_decomposition(a: RingAnalysis):
    ring = a.ring
    cd = ring.clean_decomposition()
    if not cd.clean:
        return _failed({"kind": "not_clean", "element": cd.counterexample})
    t = ring.maximal_ideal_count
    witness: dict = {"clean": True, "max_ideal_count": t}
    if t == 1:
        if a.graph("core").n != 0:
            return _failed({"kind": "local_core_nonempty", "core_vertices": a.graph("core").n})
        witness["core"] = "empty"
    else:
        witness["clique"] = a.core_clique
        if a.core_clique != t:
            return _failed({"kind": "clique_mismatch", "clique": a.core_clique, "expected": t})
    # The kernel certifies the primitive idempotents orthogonal with sum 1, one per maximal ideal.
    # Each e*R is local: an idempotent f of e*R outside {0, e} would make f + (1 - e) lie in
    # no M_j, so the kernel would claim it a unit, yet it kills e - f; the unit certificate
    # u**|U| == 1 (read by clean_decomposition above) raises on such a zero divisor.
    sizes = (len(_distinct(ring.mul_row(e), ring.size)) for e in ring.primitive_idempotents)
    witness["local_factor_sizes"] = sorted(sizes)
    return _passed(witness)


@_claim("T3.1", "the core is connected with diameter at most three")
def _check_core_connected(a: RingAnalysis):
    if a.ring.maximal_ideal_count < 2:
        return _skipped("the core of a local ring is empty")
    m = a.core_metrics
    g = a.graph("core")
    if not m.connected:
        u, v = m.witness_pair
        return _failed(
            {"kind": "disconnected", "pair": [g.vertex_keys[u], g.vertex_keys[v]]}
        )
    if m.diameter > 3:
        u, v = m.witness_pair
        return _failed(
            {
                "kind": "diameter",
                "pair": [g.vertex_keys[u], g.vertex_keys[v]],
                "distance": m.diameter,
            }
        )
    return _passed({"diameter": m.diameter})


@_claim("L3.2", "core diameter is one exactly for Z/2 x Z/2")
def _check_diameter_one(a: RingAnalysis):
    m = a.core_metrics
    lhs = m.diameter == 1
    rhs = a.is_z2xz2
    witness = {"diameter": m.diameter_text(), "is_z2xz2": rhs}
    return _passed(witness) if lhs == rhs else _failed(witness)


@_claim("P3.3a", "prime-radical diameter bound (no finite instances)")
def _check_prime_radical(a: RingAnalysis):
    return _skipped(
        "vacuous here: a finite ring with prime radical is local, "
        "and the statement assumes a non-local ring"
    )


@_claim("P3.3b", "core diameter is two exactly for two maximal ideals, except Z/2 x Z/2")
def _check_diameter_two(a: RingAnalysis):
    t = a.ring.maximal_ideal_count
    if t < 2:
        return _skipped("stated for non-local rings")
    m = a.core_metrics
    lhs = m.diameter == 2
    rhs = t == 2 and not a.is_z2xz2
    witness = {"diameter": m.diameter_text(), "max_ideal_count": t, "is_z2xz2": a.is_z2xz2}
    return _passed(witness) if lhs == rhs else _failed(witness)


@_claim("E3.4", "core diameter of Z/n follows its distinct prime count")
def _check_zn_pattern(a: RingAnalysis):
    ring = a.ring
    if ring.characteristic != ring.size:
        return _skipped("additive group is not cyclic of full order, so this is not Z/n")
    r = len(list(_prime_factors(ring.size)))
    m = a.core_metrics
    witness = {
        "n": ring.size,
        "distinct_primes": r,
        "core_vertices": m.vertex_count,
        "diameter": m.diameter_text(),
    }
    if r == 1:
        ok = m.vertex_count == 0
    elif r == 2:
        ok = m.diameter == 2
    else:
        ok = m.diameter == 3
    return _passed(witness) if ok else _failed(witness)


def _audit_coset_lifting(witness: dict, ring: RingTable) -> bool:
    _, rep_of = ring.coset_representatives(ring.jacobson_radical)
    u, v = witness["adjacent_pair"]
    p, q = witness["non_adjacent_pair"]
    return (
        rep_of[u] == rep_of[p]
        and rep_of[v] == rep_of[q]
        and ring.is_comaximal_via_closure(u, v)
        and not ring.is_comaximal_via_closure(p, q)
    )


@_claim("P4.7a", "adjacency is constant across radical cosets", audit=_audit_coset_lifting)
def _check_coset_lifting(a: RingAnalysis):
    ring = a.ring
    if len(ring.jacobson_radical) == 1:
        return _passed({"cosets": ring.size, "note": "radical is zero; cosets are singletons"})
    (reps, coset), edges = a.radical_cosets, a.coset_edges
    sizes = np.bincount(coset)
    mixed = (edges != 0) & (edges != np.outer(sizes, sizes))
    bad = np.flatnonzero(np.triu(mixed, 1))
    if not len(bad):
        return _passed({"cosets": len(reps)})
    i, j = divmod(int(bad[0]), len(reps))
    us, vs = np.flatnonzero(coset == i), np.flatnonzero(coset == j)
    adjacent = _adjacent(a.graph("full"), us, vs)  # i != j: every entry is a vertex pair
    (u, v), (p, q) = (divmod(int(bits.argmax()), len(vs)) for bits in (adjacent, ~adjacent))
    return _failed(
        {
            "coset_pair": [int(reps[i]), int(reps[j])],
            "adjacent_pair": [int(us[u]), int(vs[v])],
            "non_adjacent_pair": [int(us[p]), int(vs[q])],
        }
    )


def _audit_coset_units(witness: dict, ring: RingTable) -> bool:
    _, rep_of = ring.coset_representatives(ring.jacobson_radical)
    kind, rep = witness["kind"], witness["coset_rep"]
    if kind in ("nonunit_in_unit_coset", "unit_in_nonunit_coset"):
        x = witness["element"]
        return rep_of[x] == rep and ring.is_unit(x) != ring.is_unit(rep)
    u, v = witness["pair"]
    if rep_of[u] != rep or rep_of[v] != rep:
        return False
    adjacent = ring.is_comaximal_via_closure(u, v)
    if kind == "missing_internal_edge":
        return ring.is_unit(rep) and not adjacent
    return kind == "unexpected_internal_edge" and not ring.is_unit(rep) and adjacent


@_claim(
    "P4.7b",
    "within a radical coset, adjacency happens exactly on unit cosets",
    audit=_audit_coset_units,
)
def _check_coset_units(a: RingAnalysis):
    ring = a.ring
    if len(ring.jacobson_radical) == 1:
        return _passed({"cosets": ring.size, "note": "radical is zero; cosets are singletons"})
    (reps, coset), edges = a.radical_cosets, a.coset_edges
    units = ring.unit_flags
    sizes = np.bincount(coset)
    unit_counts = np.bincount(coset[units], minlength=len(reps))
    internal = np.diagonal(edges) // 2
    unit_coset = units[reps]
    bad = np.where(
        unit_coset,
        (unit_counts != sizes) | (internal != sizes * (sizes - 1) // 2),
        (unit_counts != 0) | (internal != 0),
    )
    if not bad.any():
        return _passed({"cosets": len(reps), "unit_cosets": int(unit_coset.sum())})
    c = int(np.argmax(bad))
    r, unit, mem = int(reps[c]), bool(unit_coset[c]), np.flatnonzero(coset == c)
    wrong = mem[units[mem] != unit]
    if len(wrong):
        kind = "nonunit_in_unit_coset" if unit else "unit_in_nonunit_coset"
        return _failed({"kind": kind, "coset_rep": r, "element": int(wrong[0])})
    # The first member pair u < v, row by row, whose adjacency is not the coset's unit flag.
    odd = np.triu(_adjacent(a.graph("full"), mem, mem) != unit, 1)
    u, v = divmod(int(odd.argmax()), len(mem))
    kind = "missing_internal_edge" if unit else "unexpected_internal_edge"
    return _failed({"kind": kind, "coset_rep": r, "pair": [int(mem[u]), int(mem[v])]})


def _audit_quotient_graph(witness: dict, ring: RingTable) -> bool:
    quotient, proj = ring.quotient(ring.jacobson_radical)
    _, rep_of = ring.coset_representatives(ring.jacobson_radical)
    x, y = witness["rep_pair"]
    if x == y or rep_of[x] != x or rep_of[y] != y:
        return False
    ring_adj = ring.is_comaximal_via_closure(x, y)
    quot_adj = quotient.is_comaximal_via_closure(proj(x), proj(y))
    return ring_adj != quot_adj and witness["ring_adjacent"] == ring_adj


@_claim(
    "P4.7c",
    "radical-coset representatives induce the quotient ring's graph",
    audit=_audit_quotient_graph,
)
def _check_quotient_graph(a: RingAnalysis):
    ring = a.ring
    quotient, proj = ring.quotient(ring.jacobson_radical)
    if quotient is ring:
        return _passed({"note": "radical is zero; the quotient is the ring itself"})
    reps = a.radical_cosets[0].tolist()
    if [proj(r) for r in reps] != list(range(len(reps))):
        raise InternalConsistencyError("representative order must match quotient element order")
    g, h = a.graph("full"), build_comaximal_graph(quotient, "full")
    diff = _difference(g, h, reps)
    if diff is not None:
        i, j, ring_adjacent = diff
        return _failed(
            {
                "rep_pair": [reps[i], reps[j]],
                "ring_adjacent": ring_adjacent,
                "quotient_adjacent": not ring_adjacent,
            }
        )
    return _passed({"quotient_size": quotient.size})


@_claim("SB-chi", "full-graph chromatic and clique numbers equal maximal ideals plus units")
def _check_full_coloring(a: RingAnalysis):
    ring = a.ring
    limit = a.caps.exact_chromatic_ring_size
    if ring.size > limit:
        return _skipped(f"exact chromatic number restricted to rings of size <= {limit}")
    g = a.graph("full")
    expected = ring.maximal_ideal_count + ring.unit_count
    omega = clique_number(g, a.caps.max_exact_vertices)
    chi = chromatic_number(g, a.caps.max_exact_vertices)
    witness = {"clique": omega, "chromatic": chi, "expected": expected}
    ok = omega == expected and chi == expected
    return _passed(witness) if ok else _failed(witness)


# -- pair claims -------------------------------------------------------------------


@_claim("T4.4", "isomorphic graphs force matching residue field multisets", arity=2)
def _check_residue_match(a1: RingAnalysis, a2: RingAnalysis, graph_iso: Callable):
    g1, g2 = a1.graph("full"), a2.graph("full")
    cap = a1.caps.max_graphiso_vertices
    if max(g1.n, g2.n) > cap:
        return _skipped(f"graph isomorphism capped at {cap} vertices")
    if graph_iso() is None:
        return _skipped("graphs are not isomorphic, so the hypothesis is not met")
    res1 = list(a1.ring.residue_field_sizes)
    res2 = list(a2.ring.residue_field_sizes)
    if res1 != res2:
        return _failed({"kind": "residue_mismatch", "residues": [res1, res2]})
    for analysis in (a1, a2):
        ring = analysis.ring
        g = analysis.graph("full")
        for i, ideal in enumerate(ring.maximal_ideals):
            if 1 << i not in ring.signatures:
                raise InternalConsistencyError("a maximal ideal is covered by the others")
            x = ring.signatures.index(1 << i)  # the first element in ideal i alone
            non_neighbours = g.n - 1 - g.degree(x)
            if non_neighbours != len(ideal) - 1:
                return _failed(
                    {
                        "kind": "non_neighbour_count",
                        "ring": analysis.text,
                        "element": x,
                        "count": non_neighbours,
                        "ideal_size": len(ideal),
                    }
                )
    return _passed({"residues": res1})


@_claim("C4.6", "for reduced rings, graph isomorphism coincides with ring isomorphism", arity=2)
def _check_reduced_rigidity(a1: RingAnalysis, a2: RingAnalysis, graph_iso: Callable):
    r1, r2 = a1.ring, a2.ring
    if not (r1.is_reduced or r2.is_reduced):
        return _skipped("neither ring is reduced")
    if r1.size != r2.size:
        return _passed({"graphs_isomorphic": False, "rings_isomorphic": False})
    cap = a1.caps.max_ringiso_size
    if r1.size > cap:
        return _skipped(f"ring isomorphism capped at size {cap}")
    giso = graph_iso()
    riso = ring_isomorphic(r1, r2, cap=cap)
    witness = {"graphs_isomorphic": giso is not None, "rings_isomorphic": riso is not None}
    ok = (giso is None) == (riso is None)
    return _passed(witness) if ok else _failed(witness)


CLAIM_ORDER: dict[str, int] = {
    cid: i for i, cid in enumerate([*SINGLE_CLAIMS, *PAIR_CLAIMS])
}


def claim_catalog() -> list[tuple[str, str, int]]:
    """(id, summary, arity) for every registered claim, in canonical order."""
    specs = [*SINGLE_CLAIMS.values(), *PAIR_CLAIMS.values()]
    return [(s.claim_id, s.summary, s.arity) for s in specs]


# -- driving ------------------------------------------------------------------------


def _as_analysis(target, text: str | None, caps: Caps | None) -> RingAnalysis:
    if isinstance(target, RingAnalysis):
        return target
    return RingAnalysis(target, text=text, caps=caps)


def _claim_ids(registry: dict[str, ClaimSpec], claims: Sequence[str] | None) -> list[str]:
    """`claims` (all of `registry` by default) as a list, every id checked."""
    ids = list(claims) if claims is not None else list(registry)
    for cid in ids:
        if cid not in registry:
            raise ValueError(f"unknown claim id {cid!r}")
    return ids


def _run_claims(
    registry: dict[str, ClaimSpec],
    claims: Sequence[str] | None,
    analyses: tuple[RingAnalysis, ...],
    *extra,
) -> list[ClaimReport]:
    """Check every id, then run `check(*analyses, *extra)` for each and report it.

    The check is read from `registry` at call time, so a spec replaced in
    the registry is the one that runs.
    """
    texts = tuple(a.text for a in analyses)
    reports = []
    for cid in _claim_ids(registry, claims):
        start = time.perf_counter()
        try:
            outcome, witness, reason = registry[cid].check(*analyses, *extra)
        except CapacityError as exc:
            outcome, witness, reason = "skip", None, str(exc)
        reports.append(
            ClaimReport(cid, texts, outcome, reason, witness, time.perf_counter() - start)
        )
    return reports


def verify_ring(
    target: RingTable | RingAnalysis,
    claims: Sequence[str] | None = None,
    *,
    text: str | None = None,
    caps: Caps | None = None,
) -> list[ClaimReport]:
    """Run single-ring claims (all by default) and report each outcome."""
    return _run_claims(SINGLE_CLAIMS, claims, (_as_analysis(target, text, caps),))


def _graph_isomorphism_once(a1: RingAnalysis, a2: RingAnalysis) -> Callable:
    """`are_isomorphic` on the pair's full graphs, run at the first call only;
    later calls return the same mapping or raise the same CapacityError."""
    memo: list = []

    def graph_iso() -> tuple[int, ...] | None:
        if not memo:
            try:
                cap = a1.caps.max_graphiso_vertices
                memo.append(are_isomorphic(a1.graph("full"), a2.graph("full"), cap))
            except CapacityError as exc:
                memo.append(exc)
        if isinstance(memo[0], CapacityError):
            raise memo[0]
        return memo[0]

    return graph_iso


def verify_pair(
    first: RingTable | RingAnalysis,
    second: RingTable | RingAnalysis,
    claims: Sequence[str] | None = None,
    *,
    texts: tuple[str | None, str | None] = (None, None),
    caps: Caps | None = None,
) -> list[ClaimReport]:
    """Run two-ring claims (all by default) against an ordered pair."""
    caps = caps or Caps()
    pair = (_as_analysis(first, texts[0], caps), _as_analysis(second, texts[1], caps))
    return _run_claims(PAIR_CLAIMS, claims, pair, _graph_isomorphism_once(*pair))


# -- sweeps ------------------------------------------------------------------------


def zn_family(max_n: int) -> list[str]:
    return [f"Z/{n}" for n in range(2, max_n + 1)]


def product_family(
    base_texts: Sequence[str],
    max_factors: int = 3,
    max_size: int = 512,
) -> list[str]:
    """All products of 1..max_factors base rings, capped by total size."""
    sizes = [expression_size(parse_expression(t)) for t in base_texts]
    out = []
    for r in range(1, max_factors + 1):
        for combo in combinations_with_replacement(range(len(base_texts)), r):
            total = 1
            for i in combo:
                total *= sizes[i]
            if total <= max_size:
                out.append(" x ".join(base_texts[i] for i in combo))
    return out


def corpus_family(path: str) -> list[str]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line)
    return out


def _sweep_one(text: str, ids: list[str], caps: Caps) -> list[dict]:
    try:
        ring = ring_from_text(text, max_size=caps.max_ring_size)
    except (ParseError, TableFormatError, RingAxiomError, CapacityError, ValueError) as exc:
        reason = f"construction failed: {exc}"
        return [
            ClaimReport(cid, (text,), "skip", reason, None).to_json() for cid in ids
        ]
    return [r.to_json() for r in verify_ring(ring, ids, text=text, caps=caps)]


def sweep(
    texts: Sequence[str],
    claims: Sequence[str] | None = None,
    *,
    caps: Caps | None = None,
    jobs: int = 1,
) -> dict:
    """Check claims across a family of rings; the result dict is JSON-ready.

    Entries are sorted by (ring, claim) so identical inputs always produce
    identical reports, regardless of worker count.
    """
    caps = caps or Caps()
    ids = _claim_ids(SINGLE_CLAIMS, claims)
    entries: list[dict] = []
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for chunk in pool.map(_sweep_one, texts, [ids] * len(texts), [caps] * len(texts)):
                entries.extend(chunk)
    else:
        for text in texts:
            entries.extend(_sweep_one(text, ids, caps))
    entries.sort(key=lambda e: (e["rings"], CLAIM_ORDER[e["claim"]]))
    return make_report(entries, caps)


def make_report(entries: list[dict], caps: Caps) -> dict:
    """The JSON-ready report envelope: tool version, caps, entries and outcome counts."""
    summary = {"pass": 0, "fail": 0, "skip": 0}
    for e in entries:
        summary[e["outcome"]] += 1
    return {
        "tool_version": __version__,
        "caps": caps.to_json(),
        "entries": entries,
        "summary": summary,
    }


def save_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


# -- report auditing -----------------------------------------------------------------


def revalidate_report(
    report: ClaimReport | dict,
    rings: Sequence[RingTable] | None = None,
    *,
    caps: Caps | None = None,
) -> bool:
    """Audit one report entry by recomputing it.

    The entry's claim is rerun on its rings (built from the entry's texts
    unless `rings` is given) under `caps`, which must be the caps the
    report was made with.  The entry validates only when the recomputed
    entry has the same canonical JSON, so an edit to any field of a pass,
    fail or skip is rejected.  A fail whose claim registers an audit must
    in addition survive that independent recheck of its witness.
    """
    entry = report.to_json() if isinstance(report, ClaimReport) else report
    caps = caps or Caps()
    try:
        claim, texts = entry["claim"], list(entry["rings"])
        spec = {**SINGLE_CLAIMS, **PAIR_CLAIMS}[claim]
        if len(texts) != spec.arity:
            return False
        if spec.arity == 1 and rings is None:
            (recomputed,) = _sweep_one(texts[0], [claim], caps)
        else:
            if rings is None:
                rings = [ring_from_text(t, max_size=caps.max_ring_size) for t in texts]
            if spec.arity == 1:
                (fresh,) = verify_ring(rings[0], [claim], text=texts[0], caps=caps)
            else:
                (fresh,) = verify_pair(*rings, [claim], texts=tuple(texts), caps=caps)
            recomputed = fresh.to_json()
        if json.dumps(recomputed, sort_keys=True) != json.dumps(entry, sort_keys=True):
            return False
        if entry["outcome"] != "fail" or spec.audit is None:
            return True
        ring = rings[0] if rings else ring_from_text(texts[0], max_size=caps.max_ring_size)
        return bool(spec.audit(entry["witness"], ring))
    except (KeyError, TypeError, ValueError, IndexError, CapacityError):
        return False
