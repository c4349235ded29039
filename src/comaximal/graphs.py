"""Simple undirected graphs over ring elements, plus exact invariants.

Adjacency rows are Python integers used as bitsets.  Vertices are 0..n-1
in a fixed order; comaximal graphs remember which ring element each vertex
came from in a read-only intp key array, and `vertex_keys` is that array as a
tuple, made when first read.

Every graph is kept as its classes, numbered by first member, and its class
quotient Q, packed in the layout of `rings._pack`: Q[a][b] = A[a_0][b_0] for
the first members of classes a != b, and Q[a][a] is set when the members of
a are pairwise adjacent.  `SimpleGraph._from_classes` builds a graph from
these alone, with A[i][j] = Q[c(i)][c(j)] for i != j, c(i) the class of i:
A is symmetric when Q is, A[i][j] = Q[c(i)][c(j)] = Q[c(j)][c(i)] = A[j][i].
Q may set a diagonal bit only on a full row, a clique of universal vertices,
so every other class holds false twins.  So only Q is checked, in row
blocks, and a defect there is an InternalConsistencyError.

A comaximal graph's rows depend only on each element's maximal-ideal
signature, so `build_comaximal_graph` makes one class per signature and Q
straight from the signatures: Q[a][b] = (sig_a & sig_b) == 0, with a
diagonal bit on the units' class alone (signature 0).  `join` takes its
inputs' classes and Q.  Such a graph makes `rows` and the read-only packed
matrix `packed` (which every numpy reader reads, the n x n `adjacency()`
among them) when first read.  What the claims read comes from the classes
and Q alone: each class's degree (`_class_degrees`, with `edge_count`),
`twin_classes` and `metrics`, the edge counts between labelled vertex sets,
N Q N^T (`_label_edges`), and `_difference`, which finds the first pair
where two graphs differ, each on a list of its vertices, or shows them
equal: positions that share a pair of classes, one in each graph, are
interchangeable in both, so Q is compared on the two lowest positions of
each pair, in O(m log m + p^2) for p pairs.  `SimpleGraph(n, rows)` packs the
rows it is given, checks the whole matrix in row blocks and raises
ValueError (only a failed check loops over the rows, to word its message),
then groups equal rows in one dict pass and reads Q off the first members'
rows.

The invariants read `twin_classes`, made from the classes and Q once per
graph: the universal vertices U (adjacent to every other vertex; read off
degrees, since a field's 0 is one outside the units' class), and the twin
quotient of G - U: the classes of equal open rows (false twins: independent
sets of interchangeable vertices) and the graph on one vertex per class.
G is K_U joined with G - U, and lifting is exact:

- omega and chi are |U| plus those of the quotient;
- with U nonempty, G is connected with diameter 1 (complete) or 2;
  otherwise the balls of all classes, grown together one radius a round,
  give every eccentricity, and two members of a class are at distance 2
  when it has a neighbour, unreachable otherwise;
- the twin classes of G are those of G - U plus one singleton per
  universal vertex; a 2-colouring of their quotient gives each member its
  class's colour, and G is complete multipartite, with these classes as
  parts, exactly when that quotient is complete.

The exact solvers read only the quotient.  The chromatic number comes from
one DSATUR branch and bound (Brelaz 1979) on an explicit stack, from a
precoloured maximum clique, checked proper.  Above the vertex cap the
bounds are |U| plus a greedy clique (as on G: each universal vertex joins
every greedy clique, the lowest allowed vertex heads the lowest allowed
class) and |U| plus the search's first leaf, the greedy DSATUR colouring.

Results keep vertex indices and per-vertex tie-breaks (see `metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain
from operator import or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, InternalConsistencyError
from .limits import DEFAULT_EXACT_VERTEX_CAP
from .rings import (
    RingTable, _blocks, _iter_bits, _lowest, _masks, _pack, _unpack
)


class SimpleGraph:
    """Loop-free undirected graph with bitset adjacency rows.

    Every graph is kept as its classes: the class of each vertex, classes
    numbered by first member, and the packed class quotient Q, whose diagonal
    bit marks a clique of universal vertices.  `SimpleGraph(n, rows)` checks
    the rows it is given, then groups equal rows; `build_comaximal_graph` and
    `join` give the classes and Q directly, and then `rows` and `packed` are
    made when first read.  Labels not given are made when first read too.
    """

    __slots__ = ("n", "_keys", "_vertex_keys", "_labels", "_class_of", "_quotient", "_rows",
                 "_packed", "_degrees", "_twins", "_edges")

    def __init__(
        self,
        n: int,
        rows: Sequence[int],
        labels: Sequence[str] | None = None,
        vertex_keys: Sequence[int] | None = None,
    ):
        if len(rows) != n:
            raise ValueError("need one adjacency row per vertex")
        rows = list(rows)
        self._labels: tuple[str, ...] | Callable[[], Iterable[str]] | None = None
        if labels is not None:
            self._labels = tuple(labels)
            if len(self._labels) != n:
                raise ValueError("need one label per vertex")
        keys = np.arange(n) if vertex_keys is None else np.fromiter(vertex_keys, np.intp)
        if len(keys) != n:
            raise ValueError("need one vertex key per vertex")
        try:
            packed = _pack(rows, n)
        except OverflowError:  # a negative row, or one far past n
            raise ValueError(_row_defect(rows, n)) from None
        spare = n & 7 and (packed[:, -1] >> (n & 7)).any()  # bits past n, in the last byte
        # A loop on a full row, which `_defect` reads as a clique class, sets n bits.
        if spare or n in map(int.bit_count, rows) or _defect(packed, n):
            # The per-row loop words loops and bits past n; A itself names the first one-way pair.
            message = _row_defect(rows, n)
            raise ValueError(message or "edge %d-%d is not symmetric" % _defect(packed, n))
        number: dict[int, int] = {}  # each distinct row's class, numbered by first member
        class_of = np.fromiter((number.setdefault(r, len(number)) for r in rows), np.intp, n)
        reps = np.full(len(number), n)
        np.minimum.at(reps, class_of, np.arange(n))  # each class's first member
        self._adopt(n, keys, class_of, _pack(_induced_rows(packed, n, reps), len(reps)))
        self._rows, self._packed = rows, packed

    def _adopt(self, n: int, keys: np.ndarray, class_of: np.ndarray, quotient: np.ndarray) -> None:
        """Keep the vertex keys (read-only intp), the classes and Q that both constructors make;
        the rest is made when first read."""
        keys.flags.writeable = False
        self.n, self._keys, self._class_of, self._quotient = n, keys, class_of, quotient
        self._vertex_keys = self._rows = self._packed = self._degrees = self._twins = None
        self._edges = None

    @classmethod
    def _from_classes(
        cls, class_of: np.ndarray, quotient: np.ndarray, keys: np.ndarray
    ) -> "SimpleGraph":
        """The loop-free graph with A[i][j] = Q[c(i)][c(j)], classes c numbered by first member.

        Such rows are constant on every class, so Q alone is checked: symmetric, with a diagonal
        bit only on a full row (a clique of universal vertices), or InternalConsistencyError.
        """
        defect = _defect(quotient, len(quotient))
        if defect is not None:
            a, b = defect
            raise InternalConsistencyError(
                f"class {a} has a loop" if a == b else f"class quotient is not symmetric at {a}-{b}"
            )
        g = cls.__new__(cls)
        g._labels = None
        g._adopt(len(class_of), keys, class_of, quotient)
        return g

    @property
    def vertex_keys(self) -> tuple[int, ...]:
        """Each vertex's ring element (or given key), made from the key array when first read."""
        if self._vertex_keys is None:
            self._vertex_keys = tuple(self._keys.tolist())
        return self._vertex_keys

    @property
    def rows(self) -> list[int]:
        """One adjacency mask per vertex, made when first read."""
        if self._rows is None:
            self._rows = _masks(self.packed)
        return self._rows

    @property
    def packed(self) -> np.ndarray:
        """The rows packed as by `rings._pack`, read-only, made when first read."""
        if self._packed is None:
            k, n = len(self._quotient), self.n
            class_rows = np.empty((k, (n + 7) // 8), dtype=np.uint8)  # bit j of row a: Q[a][c(j)]
            for part in _blocks(k, n):
                bits = _unpack(self._quotient[part], k)[:, self._class_of]
                class_rows[part] = np.packbits(bits, axis=1, bitorder="little")
            self._packed = class_rows[self._class_of]
            v = np.arange(n)  # a clique class's members read its diagonal bit as their own
            self._packed[v, v >> 3] &= ~(np.uint8(1) << (v & 7).astype(np.uint8))
            self._packed.flags.writeable = False
        return self._packed

    @property
    def labels(self) -> tuple[str, ...]:
        """One label per vertex: those given, or else made when first read."""
        if not isinstance(self._labels, tuple):
            make = self._labels
            self._labels = tuple(make()) if make is not None else tuple(map(str, range(self.n)))
        return self._labels

    def __getstate__(self):
        self.labels  # made before pickling: what makes them may not pickle
        return None, {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state[1].items():
            setattr(self, name, value)
        for kept in (self._keys, self._packed):  # pickled arrays come back writeable
            if kept is not None:
                kept.flags.writeable = False

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
        _class_degrees(self)
        return self._edges

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, r in enumerate(self.rows) for j in _iter_bits(r >> i + 1 << i + 1)]

    def neighbors(self, i: int) -> list[int]:
        return list(_iter_bits(self.rows[i]))

    def induced_subgraph(self, vertices: Sequence[int]) -> "SimpleGraph":
        vs = list(vertices)
        if not all(0 <= v < self.n for v in vs) or len(set(vs)) < len(vs):
            raise ValueError(f"induced subgraph needs distinct vertices in 0..{self.n - 1}")
        return SimpleGraph(
            len(vs),
            _induced_rows(self.packed, self.n, vs),
            labels=[self.labels[v] for v in vs],
            vertex_keys=self._keys[vs],
        )


def _induced_rows(packed: np.ndarray, n: int, keep: Sequence[int]) -> list[int]:
    """Rows of the subgraph induced on `keep`, renumbered by position in `keep`, read from the
    packed rows of all n vertices, about _BLOCK entries of the kept rows at a time."""
    columns = np.asarray(keep, dtype=np.int64)
    out: list[int] = []
    for block in _blocks(len(keep), n):
        bits = _unpack(packed[columns[block]], n)[:, columns]
        out.extend(_masks(np.packbits(bits, axis=1, bitorder="little")))
    return out


def _row_defect(rows: list[int], n: int) -> str | None:
    """The message for the first row, in order, with a loop or a bit past n, if any."""
    full = (1 << n) - 1
    for i, row in enumerate(rows):
        if row >> i & 1:
            return f"vertex {i} has a loop"
        if row & ~full:
            return f"adjacency row {i} mentions nonexistent vertices"
    return None


def _defect(packed: np.ndarray, n: int) -> tuple[int, int] | None:
    """The first (i, j), row by row, with bit j of row i set and bit i of row j clear, or with
    i == j and bit i set on a row that is not full (a loop, not a clique class); else None.

    Reads blocks of a multiple of 8 rows, about _BLOCK entries, so that the
    block's columns are whole bytes of the packed rows."""
    for part in _blocks(n, n, 8):
        block = _unpack(packed[part], n)
        whole = len(block) == n  # then the block is the whole matrix, its own columns
        columns = block if whole else _unpack(packed[:, part.start // 8 : part.stop // 8], len(block))
        defects = block > columns.T
        # Bit i of row i sits at flat position (i - start) * (n + 1) + start of the block.  Only a
        # block with a diagonal bit pays for finding its full rows.
        diagonal = block.ravel()[part.start :: n + 1]
        if diagonal.any():
            defects.ravel()[part.start :: n + 1] = diagonal & ~block.all(1)
        if defects.any():
            i, j = divmod(int(defects.argmax()), n)
            return part.start + i, j
    return None


def _difference(
    g: SimpleGraph, h: SimpleGraph, gv: Sequence[int] | None = None,
    hv: Sequence[int] | None = None,
) -> tuple[int, int, bool] | None:
    """The first (i, j), row by row, where g induced on `gv` differs from h induced on `hv`, and
    g's bit there; None when they are equal.  Each list holds distinct vertices, as many on both
    sides, and a side with no list is read in vertex order.

    Reads the classes and Q alone.  For i != j, A[i][j] = Q[c(i)][c(j)], so the positions that
    share a pair of classes (c_g(i), c_h(i)) are interchangeable on both sides.  So A is compared
    on the two lowest positions of each pair, which meet every pair and each pair's own diagonal
    where it holds two positions, in blocks of about _BLOCK entries: the first difference there
    is the first of all."""
    cg, ch = (x._class_of if v is None else x._class_of[np.asarray(v, dtype=np.intp)]
              for x, v in ((g, gv), (h, hv)))
    key = cg * len(h._quotient) + ch
    order = key.argsort(kind="stable")  # each pair's positions together, ascending
    ordered = key[order]
    kept = np.ones(len(key), dtype=bool)
    kept[order[2:][ordered[2:] == ordered[:-2]]] = False  # all but each pair's first two
    r = kept.nonzero()[0]
    a, b, qg, qh = cg[r], ch[r], g._quotient, h._quotient
    for part in _blocks(len(r), max(g.n, h.n)):
        g_bits = _unpack(qg[a[part]], len(qg))[:, a]
        differ = g_bits != _unpack(qh[b[part]], len(qh))[:, b]
        np.fill_diagonal(differ[:, part.start :], False)  # A has no loop
        if differ.any():
            i, j = divmod(int(differ.argmax()), len(r))
            return int(r[part.start + i]), int(r[j]), bool(g_bits[i, j])
    return None


def _label_edges(g: SimpleGraph, label: np.ndarray, m: int) -> np.ndarray:
    """`edges[i, j]` counts the edges from the vertices labelled i to those labelled j (edges
    inside one label twice), for labels 0..m-1, one per vertex: N Q N^T less the loops
    N[i, a] Q[a][a] of clique classes, where N[i, a] counts the members of class a labelled i.

    Counts are below 2^53, so the products run in float64."""
    k = len(g._quotient)
    members = np.bincount(label * k + g._class_of, minlength=m * k).reshape(m, k).astype(float)
    reach = np.zeros((m, k))  # reach[i, b]: the pairs from label i into class b, loops included
    loops = np.zeros(m)
    for part in _blocks(k, k):
        bits = _unpack(g._quotient[part], k)
        reach += members[:, part] @ bits
        loops += members[:, part] @ bits.diagonal(part.start)
    edges = reach @ members.T
    edges[np.diag_indices(m)] -= loops
    return edges.astype(np.int64)


class TwinClasses(NamedTuple):
    """The twin quotient of G - U, where U is the set of universal vertices.

    `classes` are the classes of equal open rows of G - U, members
    ascending, ordered by first member; `universal` lists U ascending; bit j
    of the quotient row `rows[i]` means classes i and j are adjacent.
    """

    classes: list[list[int]]
    universal: list[int]
    rows: list[int]


def _class_degrees(g: SimpleGraph) -> np.ndarray:
    """Each class's degree, made when first read with the edge count: d_a = sum of |b| over the
    classes b with Q[a][b], less Q[a][a], and 2|E| = sum of |a| d_a.

    Q[a][a] is set on a full row only, so exactly the rows whose sum is n lose one, and the
    diagonal is never read."""
    if g._degrees is None:
        k = len(g._quotient)
        counts = np.bincount(g._class_of, minlength=k)
        degree = np.zeros(k, dtype=np.int64)
        for part in _blocks(k, k):
            degree[part] = _unpack(g._quotient[part], k) @ counts
        degree -= degree == g.n
        g._degrees, g._edges = degree, int(counts @ degree) // 2
    return g._degrees


def twin_classes(g: SimpleGraph) -> TwinClasses:
    """The twin quotient of G - U, made when first read from the graph's classes and Q: U is
    every member of a class of degree n - 1 (`_class_degrees`).
    """
    if g._twins is None:
        n, class_of, quotient = g.n, g._class_of, g._quotient
        k = len(quotient)
        degree = _class_degrees(g).tolist()
        sizes = np.bincount(class_of, minlength=k).tolist()
        members = np.argsort(class_of, kind="stable").tolist()
        by_class = [members[end - size : end] for size, end in zip(sizes, accumulate(sizes))]
        keep = [c for c, d in enumerate(degree) if d != n - 1]
        # Degree n - 1: a universal singleton, or a clique class.
        universal = chain.from_iterable(by_class[c] for c, d in enumerate(degree) if d == n - 1)
        rows = _masks(quotient) if len(keep) == k else _induced_rows(quotient, k, keep)
        g._twins = TwinClasses([by_class[c] for c in keep], sorted(universal), rows)
    return g._twins


def build_comaximal_graph(ring: RingTable, selector: str = "full") -> SimpleGraph:
    """Graph on ring elements with edges a-b exactly when Ra + Rb = R.

    Selectors: "full" (all elements), "units", "nonunits", and "core"
    (nonunits outside the Jacobson radical).  A local ring has an empty
    core graph, which is a legitimate graph, not an error.

    The graph is built from its classes, one per signature, and the quotient
    on them.  The units (signature 0) are one clique class of universal
    vertices.  Two nonunit signatures differ on an ideal i in one only, and
    1 - e_i, in M_i alone, is adjacent to one class and not the other, so
    every other class is a class of equal rows.
    """
    sig = ring.signature_array
    all_ideals = (1 << len(ring.maximal_ideals)) - 1
    if selector == "full":
        keys = np.arange(ring.size)
    elif selector == "units":
        keys = (sig == 0).nonzero()[0]
    elif selector == "nonunits":
        keys = sig.nonzero()[0]
    elif selector == "core":
        keys = ((sig != 0) & (sig != all_ideals)).nonzero()[0]
    else:
        raise ValueError(f"unknown selector {selector!r}")
    class_of, class_sig = _signature_classes(sig[keys], all_ideals)
    # The quotient's k x k `&` reads the signatures in the fewest bytes.
    quotient = _comaximal_quotient(class_sig.astype(np.min_scalar_type(all_ideals)))
    g = SimpleGraph._from_classes(class_of, quotient, keys)
    g._labels = lambda: (ring.labels[k] for k in keys.tolist())  # made when first read
    return g


def _signature_classes(sig: np.ndarray, all_ideals: int) -> tuple[np.ndarray, np.ndarray]:
    """The class of each vertex, numbered by first member, and each class's signature: one class
    per signature, the units (signature 0) among them."""
    n = len(sig)
    vertex = np.arange(n)
    first = np.full(all_ideals + 1, n)
    np.minimum.at(first, sig, vertex)
    head = first[sig]  # the first vertex with each vertex's signature
    starts = head == vertex
    return starts.cumsum()[head] - 1, sig[starts]


def _comaximal_quotient(class_sig: np.ndarray) -> np.ndarray:
    """The packed quotient: classes are adjacent when their signatures share no ideal."""
    k = len(class_sig)
    packed = np.empty((k, (k + 7) // 8), dtype=np.uint8)
    for part in _blocks(k, k):
        bits = (class_sig[part, None] & class_sig) == 0
        packed[part] = np.packbits(bits, axis=1, bitorder="little")
    return packed


# -- combinators ------------------------------------------------------------


def join(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Disjoint union plus every edge between the two sides, on g1's vertices, then g2's.

    Built from the classes: g1's, then g2's numbered on from g1's k1, with
    the quotient [[Q1, 1], [1, Q2]], made in row blocks.  A class of equal
    rows stays one, since a vertex lacks itself but is adjacent to every
    vertex of the other side, and a clique class's full row stays full.
    """
    q1, q2 = g1._quotient, g2._quotient
    k1, k = len(q1), len(q1) + len(q2)
    quotient = np.empty((k, (k + 7) // 8), dtype=np.uint8)
    for q, start in ((q1, 0), (q2, k1)):
        for part in _blocks(len(q), k):
            block = _unpack(q[part], len(q))
            bits = np.ones((len(block), k), dtype=bool)  # every class of the other side
            bits[:, start : start + len(q)] = block
            lo = start + part.start
            quotient[lo : lo + len(block)] = np.packbits(bits, axis=1, bitorder="little")
    class_of = np.concatenate([g1._class_of, g2._class_of + k1])
    g = SimpleGraph._from_classes(class_of, quotient, np.concatenate([g1._keys, g2._keys]))
    g._labels = lambda: g1.labels + g2.labels
    return g


def disjoint_union(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    rows = list(g1.rows) + [r << g1.n for r in g2.rows]
    g = SimpleGraph(g1.n + g2.n, rows, vertex_keys=np.concatenate([g1._keys, g2._keys]))
    g._labels = lambda: g1.labels + g2.labels
    return g


def complement(g: SimpleGraph) -> SimpleGraph:
    full = (1 << g.n) - 1
    rows = [full & ~r & ~(1 << i) for i, r in enumerate(g.rows)]
    return SimpleGraph(g.n, rows, labels=g.labels, vertex_keys=g._keys)


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


def _components(rows: list[int]) -> Iterator[tuple[int, int]]:
    """The connected components as (lowest vertex, mask) pairs, in order of that vertex."""
    seen = 0
    for v in range(len(rows)):
        if not seen >> v & 1:
            component = reduce(or_, _layers(rows, v), 1 << v)
            seen |= component
            yield v, component


def metrics(g: SimpleGraph) -> GraphMetrics:
    """Connectivity, components, diameter, and a witness pair.

    The witness of a disconnected graph is (0, the lowest vertex that 0
    cannot reach).  That of a connected one with two or more vertices is
    (v, w): v is the first vertex of maximal eccentricity in index order,
    w the lowest vertex of the last layer of a BFS from v.

    A graph with a universal vertex is connected, with diameter 1 when it
    is complete and 2 otherwise.  Any other graph is read off its twin
    quotient.  One BFS per component counts the components; on a connected
    quotient, the balls of all classes grow together to give every
    eccentricity.  Two vertices of different classes are as far apart as
    their classes, and two members of one class are at distance 2 when the
    class has a neighbour and unreachable otherwise.
    """
    n = g.n
    if n == 0:
        return GraphMetrics(0, 0, False, 0, None, None)
    edges = g.edge_count
    t = twin_classes(g)
    if t.universal:
        if not t.classes:
            return GraphMetrics(n, edges, True, 1, min(n - 1, 1), (0, 1) if n > 1 else None)
        # The first vertex that is not universal, and the lowest other vertex it misses: a twin,
        # or the first member of the lowest class that its class misses.
        members = t.classes[0]
        missed = ((1 << len(t.classes)) - 1) & ~t.rows[0] & ~1
        far = min(members[1:2] + ([t.classes[_lowest(missed)][0]] if missed else []))
        return GraphMetrics(n, edges, True, 1, 2, (members[0], far))

    classes, rows = t.classes, t.rows
    starts, components = [], 0
    for c, _ in _components(rows):
        starts.append(c)
        components += 1 if rows[c] else len(classes[c])
    if components > 1:
        # The second BFS starts at the lowest class that class 0 cannot reach.
        other = classes[starts[1]][0] if rows[0] else 1
        return GraphMetrics(n, edges, False, components, None, (0, other))

    # Connected, with two or more classes: ball[c] is the ball of radius ecc[c] around c.  The
    # next radius's ball, the union of the neighbours' balls, is larger until it is everything.
    full = (1 << len(rows)) - 1
    ball = [row | 1 << c for c, row in enumerate(rows)]
    ecc = [1] * len(rows)
    growing = [c for c, b in enumerate(ball) if b != full]
    while growing:
        before = ball.copy()
        for c in growing:
            ball[c] = reduce(or_, (before[d] for d in _iter_bits(rows[c])))
            ecc[c] += 1
        growing = [c for c in growing if ball[c] != full]
    # Two members of one class are 2 apart, so a class of twins reads at least 2.
    score = [max(e, 2) if len(members) > 1 else e for e, members in zip(ecc, classes)]
    w = score.index(max(score))
    *_, last = _layers(rows, w)
    members = classes[w]
    far = classes[_lowest(last)][0]
    if len(members) > 1 and ecc[w] <= 2:
        far = members[1] if ecc[w] < 2 else min(far, members[1])
    return GraphMetrics(n, edges, True, 1, score[w], (members[0], far))


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


def _colour_order(rows: list[int], cand: int) -> list[tuple[int, int]]:
    """Greedy colour classes of the candidate set, as (vertex, colour) in colour order: no clique
    among a vertex and those before it has more vertices than its colour."""
    order: list[tuple[int, int]] = []
    colour = 0
    while cand:
        colour += 1
        free = cand
        while free:
            v = _lowest(free)
            order.append((v, colour))
            free &= ~rows[v] & ~(1 << v)
            cand &= ~(1 << v)
    return order


def max_clique(g: SimpleGraph, cap: int = DEFAULT_EXACT_VERTEX_CAP) -> list[int]:
    """A maximum clique, exactly: U plus branch and bound with colour bounds on the rest."""
    t = twin_classes(g)
    if g.n > cap:
        raise CapacityError(
            f"clique solver capped at {cap} vertices (graph has {g.n})",
            lower=len(t.universal) + len(_greedy_clique(t.rows)),
        )
    return sorted(t.universal + [t.classes[v][0] for v in _clique(t.rows)])


def _clique(rows: list[int]) -> list[int]:
    best = _greedy_clique(rows)

    def expand(cand: int, current: list[int]) -> None:
        nonlocal best
        for v, bound in reversed(_colour_order(rows, cand)):
            if len(current) + bound <= len(best):
                return
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


def _colouring(rows: list[int], clique: list[int], enough: int) -> list[int]:
    """A proper colouring, one colour per vertex, by DSATUR branch and bound on an explicit
    stack: the first found with at most `enough` colours, or else one with the fewest.

    The clique takes colours 0, 1, ...; then the uncoloured vertex with the most distinct
    neighbour colours, then the most neighbours, then the lowest index, tries each colour its
    neighbours lack, lowest first, up to one new colour and below the best count so far.  So the
    first leaf is the greedy DSATUR colouring.
    """
    n = len(rows)
    colour = [-1] * n
    # seen[c][v] counts v's neighbours of colour c, for each colour in use and the next one.
    seen = [[0] * n for _ in range(len(clique) + 1)]
    # The selection order as one integer: distinct neighbour colours, then degree, then the lower
    # index.  Colouring a vertex sinks it below every uncoloured one.
    scale, sink = n * n, (n + 1) ** 3
    priority = [row.bit_count() * n + n - 1 - v for v, row in enumerate(rows)]

    def paint(v: int, c: int, step: int) -> None:  # step 1 gives v colour c; -1 takes it back
        colour[v] = c if step > 0 else -1
        priority[v] -= step * sink
        for u in _iter_bits(rows[v]):
            seen[c][u] += step
            if seen[c][u] == (step > 0):  # the count went 0 -> 1, or 1 -> 0
                priority[u] += step * scale

    for c, v in enumerate(clique):
        paint(v, c, 1)
    best: list[int] = []
    bound, used = n + 1, len(clique)
    stack: list[tuple[int, int]] = []  # (vertex, colours in use before it)
    while True:
        if len(stack) < n - len(clique):
            stack.append((max(range(n), key=priority.__getitem__), used))
        else:
            best, bound = colour.copy(), used
            if bound <= enough:
                return best
        while stack:  # the top vertex takes its next colour; those with none left are popped
            v, before = stack[-1]
            c = colour[v] + 1
            if c:
                paint(v, c - 1, -1)
            stop = min(before + 1, bound - 1) if before < bound else 0
            while c < stop and seen[c][v]:
                c += 1
            if c < stop:
                paint(v, c, 1)
                used = max(before, c + 1)
                if used == len(seen):
                    seen.append([0] * n)
                break
            stack.pop()
        else:
            return best


def chromatic_number(g: SimpleGraph, cap: int = DEFAULT_EXACT_VERTEX_CAP) -> int:
    """Exact chromatic number: |U| plus that of the twin quotient, the largest of its connected
    components', each found by `_colouring`.  A component needs only as many colours as the
    largest count so far, or its own clique, so it proves a lower count only when it needs one
    more, and a search never spans two components.  The combined colouring is checked proper."""
    t = twin_classes(g)
    if g.n > cap:
        raise CapacityError(
            f"colouring solver capped at {cap} vertices (graph has {g.n})",
            lower=len(t.universal) + len(_greedy_clique(t.rows)),
            upper=len(t.universal) + len(set(_colouring(t.rows, [], len(t.rows)))),
        )
    k = len(t.rows)
    colour, enough = [0] * k, 0
    components = [component for _, component in _components(t.rows)]
    packed = _pack(t.rows, k) if len(components) > 1 else None
    for component in components:
        vertices = list(_iter_bits(component))
        rows = t.rows if packed is None else _induced_rows(packed, k, vertices)
        clique = _clique(rows)
        part = _colouring(rows, clique, max(len(clique), enough))
        enough = max(enough, max(part) + 1)
        for v, c in zip(vertices, part):
            colour[v] = c
    if any(colour[u] == c for v, c in enumerate(colour) for u in _iter_bits(t.rows[v])):
        raise InternalConsistencyError("the colouring gives two adjacent classes one colour")
    return len(t.universal) + len(set(colour))


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
    if universal:  # then G's classes, by first member, and the graph on those first members,
        # read off Q at their classes; a clique class's diagonal bit is no loop, so it is cleared
        classes = sorted(classes + [[u] for u in universal], key=lambda c: c[0])
        heads = g._class_of[[c[0] for c in classes]]
        rows = _induced_rows(g._quotient, len(g._quotient), heads)
        rows = [r & ~(1 << i) for i, r in enumerate(rows)]
    colour = _two_colouring(rows)
    bipartition = None
    if colour is not None:
        sides: tuple[list[int], list[int]] = ([], [])
        for c, members in zip(colour, classes):
            sides[c].extend(members)
        bipartition = (tuple(sorted(sides[0])), tuple(sorted(sides[1])))
    complete = all(row.bit_count() == len(rows) - 1 for row in rows)
    parts = tuple(tuple(members) for members in classes) if complete else None
    return PartitionStructure(bipartition, parts)


def degree_profile(g: SimpleGraph) -> list[tuple[int, int]]:
    """Per vertex: (degree, count of distinct non-neighbours)."""
    return [(d, g.n - 1 - d) for d in g.degrees()]
