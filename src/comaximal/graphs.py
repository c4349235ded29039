"""Simple undirected graphs over ring elements, plus exact invariants.

Adjacency rows are Python integers used as bitsets.  Vertices are 0..n-1
in a fixed order; comaximal graphs remember which ring element each vertex
came from in `vertex_keys`.  Each construction packs the rows once, in the
layout of `rings._pack`, into the read-only `SimpleGraph.packed`: the
graph's one packed form.  Every numpy reader of the graph reads it: the
symmetry check, one row block and the matching columns at a time, and the
n x n matrix `adjacency()`, which whole-graph comparisons read instead of
per-edge Python.  A comaximal graph's rows depend only on each element's
maximal-ideal signature, so `build_comaximal_graph` builds one row per signature.

The invariants read `twin_classes`: the universal vertices U (adjacent to
every other vertex; in a full comaximal graph, the units), and the twin quotient
of G - U: the classes of equal open rows (false twins: independent sets of
interchangeable vertices) and the graph on one vertex per class.  G is K_U
joined with G - U, and lifting is exact:

- omega and chi are |U| plus those of the quotient;
- with U nonempty, G is connected with diameter 1 (complete) or 2;
  otherwise one BFS per class gives every distance, and two members of a
  class are at distance 2 when it has a neighbour, unreachable otherwise;
- the twin classes of G are those of G - U plus one singleton per
  universal vertex; a 2-colouring of their quotient gives each member its
  class's colour, and G is complete multipartite, with these classes as
  parts, exactly when that quotient is complete.

Results keep vertex indices and per-vertex tie-breaks (see `metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError
from .limits import DEFAULT_EXACT_VERTEX_CAP
from .rings import RingTable, _blocks, _iter_bits, _lowest, _mask_from_bool, _pack, _unpack


class SimpleGraph:
    """Loop-free undirected graph with bitset adjacency rows."""

    __slots__ = ("n", "rows", "labels", "vertex_keys", "packed")

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
        self.packed = _pack(self.rows, n)
        # Blocks of a multiple of 8 rows, about _BLOCK entries, so that the
        # block's columns are whole bytes of the packed rows.
        for part in _blocks(n, n, 8):
            block = _unpack(self.packed[part], n)
            columns = _unpack(self.packed[:, part.start // 8 : part.stop // 8], len(block))
            one_way = np.flatnonzero(block & ~columns.T)
            if len(one_way):
                i, j = divmod(int(one_way[0]), n)
                raise ValueError(f"edge {part.start + i}-{j} is not symmetric")

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

    def adjacency(self) -> np.ndarray:
        """The n x n boolean adjacency matrix; entry [i, j] is bit j of row i."""
        return _unpack(self.packed, self.n)

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
        return SimpleGraph(
            len(vs),
            _induced_rows(self.packed, self.n, vs),
            labels=[self.labels[v] for v in vs],
            vertex_keys=[self.vertex_keys[v] for v in vs],
        )


def _induced_rows(packed: np.ndarray, n: int, keep: Sequence[int]) -> list[int]:
    """Rows of the subgraph induced on `keep`, renumbered by position in `keep`, read from the
    packed rows of all n vertices, about _BLOCK entries of the kept rows at a time."""
    columns = np.asarray(keep, dtype=np.int64)
    out: list[int] = []
    for block in _blocks(len(keep), n):
        bits = _unpack(packed[columns[block]], n)
        out.extend(_mask_from_bool(row) for row in bits[:, columns])
    return out


class TwinClasses(NamedTuple):
    """The twin quotient of G - U, where U is the set of universal vertices.

    `classes` are the classes of equal open rows of G - U, members
    ascending, ordered by first member; `universal` lists U ascending; bit j
    of the quotient row `rows[i]` means classes i and j are adjacent.
    """

    classes: list[list[int]]
    universal: list[int]
    rows: list[int]


def twin_classes(g: SimpleGraph) -> TwinClasses:
    by_row: dict[int, list[int]] = {}
    universal: list[int] = []
    for v, row in enumerate(g.rows):
        if row.bit_count() == g.n - 1:
            universal.append(v)
        else:
            by_row.setdefault(row, []).append(v)
    classes = list(by_row.values())
    if len(classes) == g.n:
        return TwinClasses(classes, universal, list(g.rows))
    return TwinClasses(classes, universal, _induced_rows(g.packed, g.n, [c[0] for c in classes]))


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


def _layers(rows: list[int], source: int) -> Iterator[int]:
    """The BFS layers at distance 1, 2, ... from `source`, as masks."""
    visited = frontier = 1 << source
    while True:
        gathered = 0
        for v in _iter_bits(frontier):
            gathered |= rows[v]
        frontier = gathered & ~visited
        if not frontier:
            return
        visited |= frontier
        yield frontier


def _bfs(rows: list[int], source: int) -> tuple[int, int, int]:
    """Return (eccentricity, visited_mask, lowest vertex of the last layer)."""
    depth, visited, last = 0, 1 << source, 1 << source
    for depth, last in enumerate(_layers(rows, source), 1):
        visited |= last
    return depth, visited, _lowest(last)


def metrics(g: SimpleGraph) -> GraphMetrics:
    """Connectivity, components, diameter, and a witness pair.

    The witness of a disconnected graph is (0, the lowest vertex that 0
    cannot reach).  That of a connected one with two or more vertices is
    (v, w): v is the first vertex of maximal eccentricity in index order,
    w the lowest vertex of the last layer of a BFS from v.

    A graph with a universal vertex is connected, with diameter 1 when it
    is complete and 2 otherwise.  Any other graph is read off its twin
    quotient, one BFS per class: two vertices of different classes are as
    far apart as their classes, and two members of one class are at
    distance 2 when the class has a neighbour and unreachable otherwise.
    """
    n = g.n
    if n == 0:
        return GraphMetrics(0, 0, False, 0, None, None)
    edges = g.edge_count
    t = twin_classes(g)
    if t.universal:
        v = next((u for u in range(n) if g.rows[u].bit_count() < n - 1), None)
        if v is None:
            return GraphMetrics(n, edges, True, 1, min(n - 1, 1), (0, 1) if n > 1 else None)
        far = _lowest(((1 << n) - 1) & ~g.rows[v] & ~(1 << v))
        return GraphMetrics(n, edges, True, 1, 2, (v, far))

    classes, rows = t.classes, t.rows
    seen = components = 0
    for c, members in enumerate(classes):
        if not seen >> c & 1:
            _, visited, _ = _bfs(rows, c)
            seen |= visited
            components += 1 if rows[c] else len(members)
    if components > 1:
        _, visited, _ = _bfs(rows, 0)
        unreached = ((1 << len(rows)) - 1) & ~visited
        other = classes[_lowest(unreached)][0] if rows[0] else 1
        return GraphMetrics(n, edges, False, components, None, (0, other))

    best = (0, (0, 0))
    for c, members in enumerate(classes):
        ecc, _, last = _bfs(rows, c)
        far = classes[last][0]
        if len(members) > 1 and ecc <= 2:
            far = members[1] if ecc < 2 else min(far, members[1])
            ecc = 2
        if ecc > best[0]:
            best = (ecc, (members[0], far))
    diameter, pair = best
    return GraphMetrics(n, edges, True, 1, diameter, pair)


def distance(g: SimpleGraph, u: int, v: int) -> int | None:
    """Length of a shortest path, or None when unreachable."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    if u == v:
        return 0
    return next((d for d, layer in enumerate(_layers(g.rows, u), 1) if layer >> v & 1), None)


# -- exact solvers --------------------------------------------------------------


def _greedy_clique(rows: list[int]) -> list[int]:
    best: list[int] = []
    for start in range(len(rows)):
        clique = [start]
        allowed = rows[start]
        while allowed:
            v = _lowest(allowed)
            clique.append(v)
            allowed &= rows[v]
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
            v = _lowest(cls)
            order.append(v)
            bounds.append(colour)
            cls &= ~rows[v]
            cls &= ~(1 << v)
            remaining &= ~(1 << v)
    return order, bounds


def max_clique(g: SimpleGraph, cap: int = DEFAULT_EXACT_VERTEX_CAP) -> list[int]:
    """A maximum clique, exactly: U plus branch and bound with colour bounds on the rest."""
    if g.n > cap:
        raise CapacityError(
            f"clique solver capped at {cap} vertices (graph has {g.n})",
            lower=len(_greedy_clique(g.rows)),
        )
    t = twin_classes(g)
    return sorted(t.universal + [t.classes[v][0] for v in _clique(t.rows)])


def _clique(rows: list[int]) -> list[int]:
    best = _greedy_clique(rows)

    def expand(cand: int, current: list[int]) -> None:
        nonlocal best
        order, bounds = _colour_order(rows, cand)
        for i in range(len(order) - 1, -1, -1):
            if len(current) + bounds[i] <= len(best):
                return
            v = order[i]
            current.append(v)
            nxt = cand & rows[v]
            if nxt:
                expand(nxt, current)
            elif len(current) > len(best):
                best = current.copy()
            current.pop()
            cand &= ~(1 << v)

    expand((1 << len(rows)) - 1, [])
    return best


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
    """Exact chromatic number: |U| plus clique bound, DSATUR bound, then search on the rest."""
    if g.n > cap:
        lower = len(_greedy_clique(g.rows))
        upper, _ = _dsatur_greedy(g.rows, g.n)
        raise CapacityError(
            f"colouring solver capped at {cap} vertices (graph has {g.n})",
            lower=lower,
            upper=upper,
        )
    t = twin_classes(g)
    rows, n = t.rows, len(t.rows)
    clique = _clique(rows)
    upper, _ = _dsatur_greedy(rows, n)
    k = next((k for k in range(len(clique), upper) if _colourable(rows, n, k, clique)), upper)
    return len(t.universal) + k


@dataclass(frozen=True)
class PartitionStructure:
    """Bipartition and complete-multipartite decomposition, when they exist."""

    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None
    multipartite_parts: tuple[tuple[int, ...], ...] | None

    @property
    def is_complete_bipartite(self) -> bool:
        return self.multipartite_parts is not None and len(self.multipartite_parts) == 2


def _two_colouring(rows: list[int]) -> list[int] | None:
    """A proper 2-colouring that gives each component's first vertex colour 0, or None.

    A vertex's colour is the parity of its BFS layer; an edge inside a layer closes an odd cycle."""
    colour = [-1] * len(rows)
    for start in range(len(rows)):
        if colour[start] == -1:
            colour[start] = 0
            for depth, layer in enumerate(_layers(rows, start), 1):
                for v in _iter_bits(layer):
                    if rows[v] & layer:
                        return None
                    colour[v] = depth & 1
    return colour


def multipartite_structure(g: SimpleGraph) -> PartitionStructure:
    """The bipartition and the complete-multipartite parts, from the twin classes of G:
    those of G - U, and each universal vertex on its own."""
    if g.n == 0:
        return PartitionStructure(((), ()), ())
    classes, universal, rows = twin_classes(g)
    if universal:
        classes = sorted(classes + [[u] for u in universal], key=lambda c: c[0])
        rows = _induced_rows(g.packed, g.n, [c[0] for c in classes])
    colour = _two_colouring(rows)
    bipartition = None
    if colour is not None:
        sides: tuple[list[int], list[int]] = ([], [])
        for c, members in zip(colour, classes):
            sides[c].extend(members)
        bipartition = (tuple(sorted(sides[0])), tuple(sorted(sides[1])))
    k = len(rows)
    complete = all(row.bit_count() == k - 1 for row in rows)
    parts = tuple(tuple(members) for members in classes) if complete else None
    return PartitionStructure(bipartition, parts)


def degree_profile(g: SimpleGraph) -> list[tuple[int, int]]:
    """Per vertex: (degree, count of distinct non-neighbours)."""
    return [(d, g.n - 1 - d) for d in g.degrees()]
