"""Graph isomorphism testing and canonical certificates.

Both routines read one reduction, `graphs.twin_classes`: the universal
vertices U and the twin quotient of G - U, whose classes are the maximal
sets of equal rows.  G is K_U joined with G - U, so G and H are isomorphic
exactly when |U_G| = |U_H| and their quotients are isomorphic by a map that
keeps class sizes.  Colour refinement (seeded with the class sizes, then
split by neighbour colour multisets until stable) assigns canonical colour
ids from globally sorted keys, so the ids are comparable across graphs.

`are_isomorphic` matches the quotients' classes smallest refinement class
first, then by colour and index, on one stack of candidate iterators, and
pairs a class's members in ascending order and the i-th universal vertex of
G with the i-th of H.  `verify_isomorphism` checks the lifted mapping on
every vertex pair, independently of the twin quotient and the search, with
`graphs._difference`.  `canonical_certificate` orders the quotient's classes
by branch and bound, U first, then each class's members together, classes in
the best order found, and reads that order's adjacency through
`graphs._adjacent`.  All three read classes and Q, never `rows` or `packed`.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

import numpy as np

from .errors import CapacityError, InternalConsistencyError
from .graphs import SimpleGraph, _adjacent, _difference, twin_classes
from .limits import DEFAULT_CERTIFICATE_CAP, DEFAULT_GRAPH_ISO_CAP
from .rings import _iter_bits


def _refine_rounds(
    row_sets: list[list[int]],
    seeds: list[list[int]] | None = None,
) -> list[list[int]] | None:
    """Joint colour refinement over one or more vertex sets.

    `seeds` pre-partitions the vertices (weights of collapsed classes);
    refinement only ever splits seed classes. Returns per-graph colour
    vectors, or None as an early mismatch signal when the graphs' colour
    histograms diverge (only possible with two or more graphs).
    """
    if seeds is None:
        seeds = [[0] * len(rows) for rows in row_sets]
    keys = [[(s[v], r.bit_count()) for v, r in enumerate(rows)] for rows, s in zip(row_sets, seeds)]
    classes = 0
    while True:
        ranked = sorted({k for ks in keys for k in ks})
        rank = {k: i for i, k in enumerate(ranked)}
        colours = [[rank[k] for k in ks] for ks in keys]
        if any(Counter(cs) != Counter(colours[0]) for cs in colours[1:]):
            return None
        if len(ranked) == classes:
            return colours
        classes = len(ranked)
        keys = [
            [(cs[v], tuple(sorted(cs[u] for u in _iter_bits(rows[v])))) for v in range(len(rows))]
            for rows, cs in zip(row_sets, colours)
        ]


def refined_colors(g: SimpleGraph) -> tuple[int, ...]:
    """Stable vertex colours, canonical across isomorphic graphs."""
    return tuple(_refine_rounds([g.rows])[0])


def verify_isomorphism(g1: SimpleGraph, g2: SimpleGraph, mapping: tuple[int, ...]) -> bool:
    """Independent check that `mapping` (vertex v of g1 to mapping[v]) is an isomorphism.

    g2 induced on the mapping, its rows and columns permuted by it, must equal
    g1, as `graphs._difference` compares them on the graphs' own classes and
    class quotients.
    """
    n = g1.n
    if g2.n != n or len(mapping) != n or sorted(mapping) != list(range(n)):
        return False
    return _difference(g1, g2, None, mapping) is None


def are_isomorphic(
    g1: SimpleGraph,
    g2: SimpleGraph,
    cap: int = DEFAULT_GRAPH_ISO_CAP,
) -> tuple[int, ...] | None:
    """A vertex mapping g1 -> g2 if one exists, else None.

    The universal vertices are paired in ascending order, and a search on
    the twin quotients of G - U maps the rest.  The lifted mapping must pass
    `verify_isomorphism`, or InternalConsistencyError is raised.
    """
    if g1.n != g2.n:
        return None
    n = g1.n
    if n == 0:
        return ()
    if n > cap:
        raise CapacityError(f"graph isomorphism capped at {cap} vertices (graphs have {n})")
    if g1.edge_count != g2.edge_count:
        return None
    members1, universal1, rows1 = twin_classes(g1)
    members2, universal2, rows2 = twin_classes(g2)
    if len(universal1) != len(universal2):
        return None
    # Seeded with the class sizes, the first histograms already compare class counts and sizes.
    sizes = [[len(c) for c in members1], [len(c) for c in members2]]
    refined = _refine_rounds([rows1, rows2], seeds=sizes)
    if refined is None:
        return None
    col1, col2 = refined

    by_colour2: dict[int, list[int]] = {}
    for w, c in enumerate(col2):
        by_colour2.setdefault(c, []).append(w)
    class_size = Counter(col1)
    k = len(rows1)
    order = sorted(range(k), key=lambda v: (class_size[col1[v]], col1[v], v))

    fwd = [-1] * k
    mapped1 = mapped2 = 0

    def candidates(v: int) -> Iterator[int]:
        """The unused classes of v's colour that meet the mapped classes as v's image must."""
        needed = 0
        for u in _iter_bits(rows1[v] & mapped1):
            needed |= 1 << fwd[u]
        return iter(
            [
                w
                for w in by_colour2.get(col1[v], ())
                if not mapped2 >> w & 1 and rows2[w] & mapped2 == needed
            ]
        )

    # One candidate iterator per mapped level, for class order[level].
    stack: list[Iterator[int]] = []
    while len(stack) < k:
        stack.append(candidates(order[len(stack)]))
        while stack:
            v = order[len(stack) - 1]
            w = fwd[v]
            if w != -1:  # take back v's current image before trying its next
                fwd[v] = -1
                mapped1 ^= 1 << v
                mapped2 ^= 1 << w
            w = next(stack[-1], -1)
            if w != -1:
                fwd[v] = w
                mapped1 |= 1 << v
                mapped2 |= 1 << w
                break
            stack.pop()
        else:
            return None

    # The lift pairs U in order, and each class's members with its image's.
    mapping = [-1] * n
    for a, b in zip(universal1, universal2):
        mapping[a] = b
    for ci, cw in enumerate(fwd):
        for a, b in zip(members1[ci], members2[cw]):
            mapping[a] = b
    witness = tuple(mapping)
    if not verify_isomorphism(g1, g2, witness):
        raise InternalConsistencyError("search returned a bad witness")
    return witness


def canonical_certificate(g: SimpleGraph, cap: int = DEFAULT_CERTIFICATE_CAP) -> bytes:
    """A bytes string equal for exactly the isomorphic graphs.

    Branch and bound maximises the quotient's adjacency patterns over the
    orders of the twin classes of G - U that list the refinement colours
    (seeded with the class sizes) in ascending order; the colours are
    isomorphism-invariant, so the maximum is too.  The certificate is G's
    adjacency with U first, then each class's members together, classes in
    the best order: "CG", n in two bytes, then the packed upper triangle.
    Its values may change between versions of this package.
    """
    n = g.n
    if n > cap:
        raise CapacityError(f"certificates capped at {cap} vertices (graph has {n})")
    members, universal, rows = twin_classes(g)
    colours = _refine_rounds([rows], [[len(c) for c in members]])[0]
    by_colour: dict[int, list[int]] = {}
    for v, c in enumerate(colours):
        by_colour.setdefault(c, []).append(v)
    target = sorted(colours)

    k = len(rows)
    placed: list[int] = []
    placed_mask = 0
    patterns: list[int] = []  # bit i of patterns[pos]: placed[pos] is adjacent to placed[i]
    best_patterns: list[int] = []
    best_order: list[int] = []

    def rec(pos: int) -> None:
        nonlocal best_patterns, best_order, placed_mask
        if pos == k:
            if patterns > best_patterns:
                best_patterns, best_order = patterns.copy(), placed.copy()
            return
        # The quotient has no false twins.  Two candidates of one colour (so one
        # size) that meet the placed prefix alike and have equal closed rows on
        # the rest are true twins; swapping them keeps every completion.
        future = ~placed_mask
        reps: list[tuple[int, int, int]] = []
        for v in by_colour[target[pos]]:
            if placed_mask >> v & 1:
                continue
            pat = 0
            for i, u in enumerate(placed):
                if rows[v] >> u & 1:
                    pat |= 1 << i
            closed = rows[v] & future | 1 << v
            if not any(p == pat and c == closed for p, c, _ in reps):
                reps.append((pat, closed, v))
        reps.sort(key=lambda t: -t[0])
        for pat, _, v in reps:
            if patterns + [pat] < best_patterns[: pos + 1]:
                break  # so is every later candidate
            patterns.append(pat)
            placed.append(v)
            placed_mask |= 1 << v
            rec(pos + 1)
            placed_mask ^= 1 << v
            placed.pop()
            patterns.pop()

    rec(0)
    perm = np.array(universal + [u for c in best_order for u in members[c]], dtype=np.intp)
    # The upper triangle of the permuted adjacency, row by row, 8 bits to a byte, low bit first.
    bits = _adjacent(g, perm, perm)[np.triu_indices(n, 1)]
    return b"CG" + n.to_bytes(2, "big") + np.packbits(bits, bitorder="little").tobytes()
