"""Graph isomorphism testing and canonical certificates.

Both routines start from colour refinement (degree classes refined by
neighbour colour multisets until stable).  The refinement assigns
canonical colour ids from globally sorted keys, so the ids are
comparable across graphs.

`are_isomorphic` reads `graphs.twin_classes`: the universal vertices U
and the twin quotient of G - U.  G is K_U joined with G - U, so G and H are
isomorphic exactly when |U_G| = |U_H| and their quotients are isomorphic
by a map that keeps class sizes.  The search runs on the quotients only:
classes are matched smallest refinement class first, then by colour and
index, and a class's members are paired in ascending order.  The lift
pairs the i-th universal vertex of G with the i-th of H, which is the
whole map when the quotients are empty (complete graphs).
`verify_isomorphism` checks the lifted mapping on every vertex pair, one row
block at a time, independently of the quotient and the search.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

import numpy as np

from .errors import CapacityError, InternalConsistencyError
from .graphs import SimpleGraph, _first_difference, twin_classes
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
    result = _refine_rounds([g.rows])
    if result is None:
        raise InternalConsistencyError("refining a single graph cannot split its histogram")
    return tuple(result[0])


def verify_isomorphism(g1: SimpleGraph, g2: SimpleGraph, mapping: tuple[int, ...]) -> bool:
    """Independent check that `mapping` (vertex v of g1 to mapping[v]) is an isomorphism.

    g2 induced on the mapping, its rows and columns permuted by it, must equal
    g1, compared by `graphs._first_difference` in blocks of about _BLOCK entries.
    """
    n = g1.n
    if g2.n != n or len(mapping) != n or sorted(mapping) != list(range(n)):
        return False
    return _first_difference(g1, g2, None, mapping) is None


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
    weights1, weights2 = [len(c) for c in members1], [len(c) for c in members2]
    k = len(rows1)
    if len(rows2) != k or sorted(weights1) != sorted(weights2):
        return None
    refined = _refine_rounds([rows1, rows2], seeds=[weights1, weights2])
    if refined is None:
        return None
    col1, col2 = refined

    by_colour2: dict[int, list[int]] = {}
    for w, c in enumerate(col2):
        by_colour2.setdefault(c, []).append(w)
    class_size = Counter(col1)
    order = sorted(range(k), key=lambda v: (class_size[col1[v]], col1[v], v))

    fwd = [-1] * k
    rev = [-1] * k
    mapped1 = mapped2 = 0
    iters: list[Iterator[int] | None] = [None] * k
    chosen = [-1] * k

    def make_iter(depth: int) -> Iterator[int]:
        v = order[depth]
        needed = 0
        for u in _iter_bits(rows1[v] & mapped1):
            needed |= 1 << fwd[u]
        return iter(
            [
                w
                for w in by_colour2.get(col1[v], ())
                if rev[w] == -1 and rows2[w] & mapped2 == needed
            ]
        )

    def lift() -> tuple[int, ...]:
        """The verified mapping: U paired in order, each class's members paired with its image's."""
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

    if k == 0:
        return lift()
    depth = 0
    iters[0] = make_iter(0)
    while depth >= 0:
        v = order[depth]
        w = next(iters[depth], -1)
        if w == -1:
            iters[depth] = None
            depth -= 1
            if depth >= 0:
                pv, pw = order[depth], chosen[depth]
                fwd[pv] = -1
                rev[pw] = -1
                mapped1 &= ~(1 << pv)
                mapped2 &= ~(1 << pw)
            continue
        fwd[v] = w
        rev[w] = v
        mapped1 |= 1 << v
        mapped2 |= 1 << w
        chosen[depth] = w
        if depth + 1 == k:
            return lift()
        depth += 1
        iters[depth] = make_iter(depth)
    return None


def canonical_certificate(g: SimpleGraph, cap: int = DEFAULT_CERTIFICATE_CAP) -> bytes:
    """A bytes string equal for exactly the isomorphic graphs.

    Branch-and-bound maximisation of the adjacency bit string over all
    permutations that respect the refinement classes; the classes are
    isomorphism-invariant, so the maximum is too.
    """
    n = g.n
    if n > cap:
        raise CapacityError(f"certificates capped at {cap} vertices (graph has {n})")
    if n == 0:
        return b"CG\x00\x00"
    colours = refined_colors(g)
    by_colour: dict[int, list[int]] = {}
    for v, c in enumerate(colours):
        by_colour.setdefault(c, []).append(v)
    target_class: list[int] = []
    for c in sorted(by_colour):
        target_class.extend([c] * len(by_colour[c]))

    rows = g.rows
    used = [False] * n
    placed: list[int] = []
    placed_mask = 0
    patterns: list[int] = []
    best_patterns: list[int] | None = None
    best_perm: list[int] | None = None

    def rec(pos: int, better: bool) -> None:
        nonlocal best_patterns, best_perm, placed_mask
        if pos == n:
            if best_patterns is None or patterns > best_patterns:
                best_patterns = patterns.copy()
                best_perm = placed.copy()
            return
        # Candidates are interchangeable only when a swap provably preserves
        # every completion: equal adjacency to the placed prefix plus equal
        # open rows (false twins) or equal closed rows (true twins) on the
        # unplaced remainder.
        future = ~placed_mask
        reps: list[tuple[int, int, int, int]] = []
        for v in by_colour[target_class[pos]]:
            if used[v]:
                continue
            pat = 0
            for i, u in enumerate(placed):
                if rows[v] >> u & 1:
                    pat |= 1 << i
            open_key = rows[v] & future
            closed_key = open_key | (1 << v)
            if any(
                p == pat and (o == open_key or c == closed_key)
                for p, o, c, _ in reps
            ):
                continue
            reps.append((pat, open_key, closed_key, v))
        reps.sort(key=lambda t: -t[0])
        for pat, _, _, v in reps:
            branch_better = better
            if not better and best_patterns is not None:
                if pat < best_patterns[pos]:
                    break
                branch_better = pat > best_patterns[pos]
            used[v] = True
            placed.append(v)
            placed_mask |= 1 << v
            patterns.append(pat)
            rec(pos + 1, branch_better)
            patterns.pop()
            placed_mask &= ~(1 << v)
            placed.pop()
            used[v] = False

    rec(0, False)
    if best_perm is None:
        raise InternalConsistencyError("canonical search placed no permutation")
    # The upper triangle of the permuted adjacency, row by row, 8 bits to a byte, low bit first.
    bits = g.adjacency()[np.ix_(best_perm, best_perm)][np.triu_indices(n, 1)]
    return b"CG" + n.to_bytes(2, "big") + np.packbits(bits, bitorder="little").tobytes()
