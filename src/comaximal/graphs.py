"""Simple undirected graphs over ring elements, plus exact invariants.

Adjacency rows are arbitrary-precision Python integers used as bitsets,
which keeps neighbourhood operations cheap without any solver
dependencies.  Vertices are 0..n-1 in a fixed order; comaximal graphs
remember which ring element each vertex came from in `vertex_keys`.

`SimpleGraph.adjacency()` unpacks the rows into one n x n boolean matrix.
Whole-graph comparisons go through it instead of per-edge Python:
claim checkers compare or count edges on it, and every construction
checks symmetry on the packed rows, unpacking one row block and the
matching columns at a time, so the check needs about n*n/8 bytes.  A
comaximal graph's rows depend only on each element's maximal-ideal
signature, so `build_comaximal_graph` packs one row per distinct
signature and its members share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError
from .limits import DEFAULT_EXACT_VERTEX_CAP
from .rings import _BLOCK, RingTable, _iter_bits, _mask_from_bool


class SimpleGraph:
    """Loop-free undirected graph with bitset adjacency rows."""

    __slots__ = ("n", "rows", "labels", "vertex_keys")

    def __init__(
        self,
        n: int,
        rows: Sequence[int],
        labels: Sequence[str] | None = None,
        vertex_keys: Sequence[int] | None = None,
    ):
        if len(rows) != n:
            raise ValueError("need one adjacency row per vertex")
        self.n = n
        self.rows = list(rows)
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise ValueError("need one label per vertex")
        self.vertex_keys = tuple(vertex_keys) if vertex_keys is not None else tuple(range(n))
        full = (1 << n) - 1
        for i, row in enumerate(self.rows):
            if row >> i & 1:
                raise ValueError(f"vertex {i} has a loop")
            if row & ~full:
                raise ValueError(f"adjacency row {i} mentions nonexistent vertices")
        # Blocks of a multiple of 8 rows, about _BLOCK entries, so that the
        # block's columns are whole bytes of the packed rows.
        packed = self._packed()
        step = 8 * max(1, _BLOCK // (8 * max(n, 1)))
        for lo in range(0, n, step):
            rows = packed[lo : lo + step]
            block = np.unpackbits(rows, axis=1, count=n, bitorder="little").view(bool)
            columns = packed[:, lo // 8 : (lo + step) // 8]
            column_bits = np.unpackbits(columns, axis=1, count=len(rows), bitorder="little")
            one_way = np.flatnonzero(block & ~column_bits.view(bool).T)
            if len(one_way):
                i, j = divmod(int(one_way[0]), n)
                raise ValueError(f"edge {lo + i}-{j} is not symmetric")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ) -> "SimpleGraph":
        rows = [0] * n
        for i, j in edges:
            if i == j:
                raise ValueError("loops are not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge {i}-{j} out of range for {n} vertices")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(n, rows, labels)

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << i) for i in range(n)])

    @classmethod
    def edgeless(cls, n: int) -> "SimpleGraph":
        return cls(n, [0] * n)

    @classmethod
    def complete_multipartite(cls, sizes: Sequence[int]) -> "SimpleGraph":
        n = sum(sizes)
        rows, start = [], 0
        full = (1 << n) - 1
        for s in sizes:
            part = ((1 << s) - 1) << start
            rows.extend([full & ~part] * s)
            start += s
        return cls(n, rows)

    def _packed(self) -> np.ndarray:
        """The rows as an n x ceil(n/8) byte matrix; bit j of row i is bit j % 8 of byte j // 8."""
        width = (self.n + 7) // 8
        raw = b"".join(r.to_bytes(width, "little") for r in self.rows)
        return np.frombuffer(raw, dtype=np.uint8).reshape(self.n, width)

    def adjacency(self) -> np.ndarray:
        """The n x n boolean adjacency matrix; entry [i, j] is bit j of row i."""
        return np.unpackbits(self._packed(), axis=1, count=self.n, bitorder="little").view(bool)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    @property
    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i, row in enumerate(self.rows):
            out.extend((i, j) for j in _iter_bits(row >> (i + 1) << (i + 1)))
        return out

    def neighbors(self, i: int) -> list[int]:
        return list(_iter_bits(self.rows[i]))

    def induced_subgraph(self, vertices: Sequence[int]) -> "SimpleGraph":
        vs = list(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        rows = []
        for v in vs:
            row = 0
            for u in _iter_bits(self.rows[v]):
                if u in pos:
                    row |= 1 << pos[u]
            rows.append(row)
        return SimpleGraph(
            len(vs),
            rows,
            labels=[self.labels[v] for v in vs],
            vertex_keys=[self.vertex_keys[v] for v in vs],
        )


def build_comaximal_graph(ring: RingTable, selector: str = "full") -> SimpleGraph:
    """Graph on ring elements with edges a-b exactly when Ra + Rb = R.

    Selectors: "full" (all elements), "units", "nonunits", and "core"
    (nonunits outside the Jacobson radical).  A local ring has an empty
    core graph, which is a legitimate graph, not an error.
    """
    sig = ring.signature_array
    all_ideals = (1 << len(ring.maximal_ideals)) - 1
    if selector == "full":
        keep = np.ones(ring.size, dtype=bool)
    elif selector == "units":
        keep = sig == 0
    elif selector == "nonunits":
        keep = sig != 0
    elif selector == "core":
        keep = (sig != 0) & (sig != all_ideals)
    else:
        raise ValueError(f"unknown selector {selector!r}")
    keys = np.flatnonzero(keep)
    sub = sig[keys]
    # Adjacency depends only on the signature: one packed row per class.
    classes, class_of = np.unique(sub, return_inverse=True)
    class_rows = [_mask_from_bool((sub & s) == 0) for s in classes]
    rows = [class_rows[c] for c in class_of.tolist()]
    # Only units (signature 0) are disjoint from themselves; drop their self-bit.
    for i in np.flatnonzero(sub == 0).tolist():
        rows[i] ^= 1 << i
    keys = keys.tolist()
    return SimpleGraph(
        len(keys),
        rows,
        labels=[ring.labels[k] for k in keys],
        vertex_keys=keys,
    )


# -- combinators ------------------------------------------------------------


def join(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Disjoint union plus every edge between the two sides."""
    n1, n2 = g1.n, g2.n
    left = (1 << n1) - 1
    right = ((1 << n2) - 1) << n1
    rows = [r | right for r in g1.rows]
    rows += [(r << n1) | left for r in g2.rows]
    return SimpleGraph(
        n1 + n2,
        rows,
        labels=list(g1.labels) + list(g2.labels),
        vertex_keys=list(g1.vertex_keys) + list(g2.vertex_keys),
    )


def disjoint_union(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    rows = list(g1.rows) + [r << g1.n for r in g2.rows]
    return SimpleGraph(
        g1.n + g2.n,
        rows,
        labels=list(g1.labels) + list(g2.labels),
        vertex_keys=list(g1.vertex_keys) + list(g2.vertex_keys),
    )


def complement(g: SimpleGraph) -> SimpleGraph:
    full = (1 << g.n) - 1
    rows = [full & ~r & ~(1 << i) for i, r in enumerate(g.rows)]
    return SimpleGraph(g.n, rows, labels=g.labels, vertex_keys=g.vertex_keys)


# -- metrics ------------------------------------------------------------------


@dataclass(frozen=True)
class GraphMetrics:
    vertex_count: int
    edge_count: int
    connected: bool
    components: int
    diameter: int | None  # None when empty or disconnected
    witness_pair: tuple[int, int] | None  # attains the diameter, or unreachable

    @property
    def is_empty(self) -> bool:
        return self.vertex_count == 0

    def diameter_text(self) -> str:
        if self.is_empty:
            return "empty"
        if self.diameter is None:
            return "infinite"
        return str(self.diameter)


def _bfs(rows: list[int], source: int) -> tuple[int, int, int]:
    """Return (eccentricity, visited_mask, farthest_vertex)."""
    visited = 1 << source
    frontier = visited
    depth = 0
    last = source
    while True:
        gathered = 0
        for v in _iter_bits(frontier):
            gathered |= rows[v]
        fresh = gathered & ~visited
        if not fresh:
            break
        depth += 1
        visited |= fresh
        frontier = fresh
        last = (fresh & -fresh).bit_length() - 1
    return depth, visited, last


def metrics(g: SimpleGraph) -> GraphMetrics:
    """Connectivity, components, diameter, and a witness pair.

    Vertices with identical adjacency rows have identical eccentricities,
    so BFS runs once per row class rather than once per vertex.
    """
    n = g.n
    if n == 0:
        return GraphMetrics(0, 0, False, 0, None, None)
    all_mask = (1 << n) - 1
    rows = g.rows

    seen = 0
    components = 0
    comp_rep = []
    for v in range(n):
        if seen >> v & 1:
            continue
        components += 1
        comp_rep.append(v)
        _, visited, _ = _bfs(rows, v)
        seen |= visited
    if components > 1:
        first = comp_rep[0]
        _, visited, _ = _bfs(rows, first)
        other = ((all_mask & ~visited) & -(all_mask & ~visited)).bit_length() - 1
        return GraphMetrics(n, g.edge_count, False, components, None, (first, other))

    classes: dict[int, int] = {}
    best = (0, (0, 0))
    for v in range(n):
        row = rows[v]
        if row in classes:
            continue
        classes[row] = v
        ecc, _, far = _bfs(rows, v)
        if ecc > best[0]:
            best = (ecc, (v, far))
    diameter, pair = best
    return GraphMetrics(n, g.edge_count, True, 1, diameter, pair if n > 1 else None)


def distance(g: SimpleGraph, u: int, v: int) -> int | None:
    """Length of a shortest path, or None when unreachable."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    if u == v:
        return 0
    visited = 1 << u
    frontier = visited
    depth = 0
    while frontier:
        gathered = 0
        for w in _iter_bits(frontier):
            gathered |= g.rows[w]
        fresh = gathered & ~visited
        depth += 1
        if fresh >> v & 1:
            return depth
        visited |= fresh
        frontier = fresh
    return None


# -- exact solvers --------------------------------------------------------------


def _false_twin_classes(g: SimpleGraph) -> tuple[SimpleGraph, list[int]]:
    """Quotient by identical-row classes (mutually non-adjacent twins).

    Such vertices are interchangeable in any clique or proper colouring,
    so both invariants survive the collapse unchanged.
    """
    reps: dict[int, int] = {}
    order = []
    for v, row in enumerate(g.rows):
        if row not in reps:
            reps[row] = v
            order.append(v)
    if len(order) == g.n:
        return g, list(range(g.n))
    return g.induced_subgraph(order), order


def _greedy_clique(g: SimpleGraph) -> list[int]:
    best: list[int] = []
    for start in range(g.n):
        clique = [start]
        allowed = g.rows[start]
        while allowed:
            v = (allowed & -allowed).bit_length() - 1
            clique.append(v)
            allowed &= g.rows[v]
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def _colour_order(rows: list[int], cand: int) -> tuple[list[int], list[int]]:
    """Greedy colour classes of the candidate set; returns vertices ordered
    by colour with the colour index as a clique-size bound."""
    order: list[int] = []
    bounds: list[int] = []
    colour = 0
    remaining = cand
    while remaining:
        colour += 1
        cls = remaining
        while cls:
            v = (cls & -cls).bit_length() - 1
            order.append(v)
            bounds.append(colour)
            cls &= ~rows[v]
            cls &= ~(1 << v)
            remaining &= ~(1 << v)
    return order, bounds


def max_clique(g: SimpleGraph, cap: int = DEFAULT_EXACT_VERTEX_CAP) -> list[int]:
    """A maximum clique, exactly, by branch and bound with colour bounds."""
    if g.n > cap:
        raise CapacityError(
            f"clique solver capped at {cap} vertices (graph has {g.n})",
            lower=len(_greedy_clique(g)),
        )
    if g.n == 0:
        return []
    reduced, back = _false_twin_classes(g)
    rows = reduced.rows
    best_local = _greedy_clique(reduced)

    def expand(cand: int, current: list[int]) -> None:
        nonlocal best_local
        order, bounds = _colour_order(rows, cand)
        for i in range(len(order) - 1, -1, -1):
            if len(current) + bounds[i] <= len(best_local):
                return
            v = order[i]
            current.append(v)
            nxt = cand & rows[v]
            if nxt:
                expand(nxt, current)
            elif len(current) > len(best_local):
                best_local = current.copy()
            current.pop()
            cand &= ~(1 << v)

    expand((1 << reduced.n) - 1, [])
    return sorted(back[v] for v in best_local)


def clique_number(g: SimpleGraph, cap: int = DEFAULT_EXACT_VERTEX_CAP) -> int:
    return len(max_clique(g, cap))


def _dsatur_greedy(rows: list[int], n: int) -> tuple[int, list[int]]:
    colours = [-1] * n
    neighbour_colours: list[set[int]] = [set() for _ in range(n)]
    degrees = [rows[v].bit_count() for v in range(n)]
    for _ in range(n):
        v = max(
            (u for u in range(n) if colours[u] == -1),
            key=lambda u: (len(neighbour_colours[u]), degrees[u], -u),
        )
        c = 0
        while c in neighbour_colours[v]:
            c += 1
        colours[v] = c
        for u in _iter_bits(rows[v]):
            neighbour_colours[u].add(c)
    return max(colours) + 1 if n else 0, colours


def _colourable(rows: list[int], n: int, k: int, clique: list[int]) -> bool:
    """Exact k-colourability with the clique precoloured."""
    if len(clique) > k:
        return False
    colours = [-1] * n
    for idx, v in enumerate(clique):
        colours[v] = idx
    used = len(clique)

    def pick() -> int:
        bestv, bestkey = -1, (-1, -1)
        for v in range(n):
            if colours[v] != -1:
                continue
            sat = len({colours[u] for u in _iter_bits(rows[v]) if colours[u] != -1})
            key = (sat, rows[v].bit_count())
            if key > bestkey:
                bestv, bestkey = v, key
        return bestv

    def solve(assigned: int, used: int) -> bool:
        if assigned == n:
            return True
        v = pick()
        banned = {colours[u] for u in _iter_bits(rows[v]) if colours[u] != -1}
        limit = min(k, used + 1)
        for c in range(limit):
            if c in banned:
                continue
            colours[v] = c
            if solve(assigned + 1, max(used, c + 1)):
                return True
            colours[v] = -1
        return False

    return solve(len(clique), used)


def chromatic_number(g: SimpleGraph, cap: int = DEFAULT_EXACT_VERTEX_CAP) -> int:
    """Exact chromatic number (clique bound, DSATUR bound, then search)."""
    if g.n > cap:
        lower = len(_greedy_clique(g))
        upper, _ = _dsatur_greedy(g.rows, g.n)
        raise CapacityError(
            f"colouring solver capped at {cap} vertices (graph has {g.n})",
            lower=lower,
            upper=upper,
        )
    if g.n == 0:
        return 0
    reduced, _ = _false_twin_classes(g)
    rows, n = reduced.rows, reduced.n
    clique = max_clique(reduced, cap)
    lower = len(clique)
    upper, _ = _dsatur_greedy(rows, n)
    if upper == lower:
        return lower
    for k in range(lower, upper):
        if _colourable(rows, n, k, clique):
            return k
    return upper


@dataclass(frozen=True)
class PartitionStructure:
    """Bipartition and complete-multipartite decomposition, when they exist."""

    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None
    multipartite_parts: tuple[tuple[int, ...], ...] | None

    @property
    def is_complete_bipartite(self) -> bool:
        return self.multipartite_parts is not None and len(self.multipartite_parts) == 2


def multipartite_structure(g: SimpleGraph) -> PartitionStructure:
    n = g.n
    if n == 0:
        return PartitionStructure(((), ()), ())

    colour = [-1] * n
    ok = True
    for start in range(n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        queue = [start]
        while queue and ok:
            v = queue.pop()
            for u in _iter_bits(g.rows[v]):
                if colour[u] == -1:
                    colour[u] = colour[v] ^ 1
                    queue.append(u)
                elif colour[u] == colour[v]:
                    ok = False
                    break
        if not ok:
            break
    if ok:
        side0 = tuple(v for v in range(n) if colour[v] == 0)
        side1 = tuple(v for v in range(n) if colour[v] == 1)
        bipartition = (side0, side1)
    else:
        bipartition = None

    comp = complement(g)
    seen = 0
    parts: list[tuple[int, ...]] = []
    complete_mp = True
    for v in range(n):
        if seen >> v & 1:
            continue
        _, visited, _ = _bfs(comp.rows, v)
        seen |= visited
        members = tuple(_iter_bits(visited))
        for u in members:
            inside = visited & ~(1 << u)
            if comp.rows[u] & visited != inside:
                complete_mp = False
        parts.append(members)
    multipartite = tuple(parts) if complete_mp else None
    return PartitionStructure(bipartition, multipartite)


def degree_profile(g: SimpleGraph) -> list[tuple[int, int]]:
    """Per vertex: (degree, count of distinct non-neighbours)."""
    return [(d, g.n - 1 - d) for d in g.degrees()]
