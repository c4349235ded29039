"""Graph isomorphism testing and canonical certificates.

Both routines start from colour refinement (degree classes refined by
neighbour colour multisets until stable).  The refinement assigns
canonical colour ids from globally sorted keys, so the ids are
comparable across graphs.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from .errors import CapacityError, InternalConsistencyError
from .graphs import SimpleGraph
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
    colours = []
    all_keys = sorted(
        {
            (s[v], r.bit_count())
            for rows, s in zip(row_sets, seeds)
            for v, r in enumerate(rows)
        }
    )
    rank = {k: i for i, k in enumerate(all_keys)}
    for rows, s in zip(row_sets, seeds):
        colours.append([rank[(s[v], r.bit_count())] for v, r in enumerate(rows)])

    def histogram(cs: list[int]) -> Counter:
        return Counter(cs)

    if len(row_sets) > 1:
        base = histogram(colours[0])
        if any(histogram(c) != base for c in colours[1:]):
            return None

    classes = len({c for cs in colours for c in cs})
    while True:
        keys = []
        for rows, cs in zip(row_sets, colours):
            keys.append(
                [
                    (cs[v], tuple(sorted(cs[u] for u in _iter_bits(rows[v]))))
                    for v in range(len(rows))
                ]
            )
        all_sorted = sorted({k for ks in keys for k in ks})
        rank = {k: i for i, k in enumerate(all_sorted)}
        colours = [[rank[k] for k in ks] for ks in keys]
        if len(row_sets) > 1:
            base = histogram(colours[0])
            if any(histogram(c) != base for c in colours[1:]):
                return None
        new_classes = len(all_sorted)
        if new_classes == classes:
            return colours
        classes = new_classes


def refined_colors(g: SimpleGraph) -> tuple[int, ...]:
    """Stable vertex colours, canonical across isomorphic graphs."""
    result = _refine_rounds([g.rows])
    if result is None:
        raise InternalConsistencyError("refining a single graph cannot split its histogram")
    return tuple(result[0])


def _false_twin_quotient(rows: list[int]) -> tuple[list[int], list[int], list[list[int]]]:
    """Collapse vertices with equal open neighbourhoods into one class each.

    Such classes are independent sets whose members are interchangeable, so
    two graphs are isomorphic exactly when their weighted quotients are.
    Returns (quotient rows, class weights, class members by ascending index).
    """
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(rows):
        classes.setdefault(row, []).append(v)
    members = sorted(classes.values(), key=lambda ms: ms[0])
    k = len(members)
    qrows = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if rows[members[i][0]] >> members[j][0] & 1:
                qrows[i] |= 1 << j
                qrows[j] |= 1 << i
    return qrows, [len(ms) for ms in members], members


def verify_isomorphism(g1: SimpleGraph, g2: SimpleGraph, mapping: tuple[int, ...]) -> bool:
    """Independent edge-by-edge check that `mapping` is an isomorphism."""
    n = g1.n
    if g2.n != n or len(mapping) != n or sorted(mapping) != list(range(n)):
        return False
    for v in range(n):
        translated = 0
        for u in _iter_bits(g1.rows[v]):
            translated |= 1 << mapping[u]
        if translated != g2.rows[mapping[v]]:
            return False
    return True


def are_isomorphic(
    g1: SimpleGraph,
    g2: SimpleGraph,
    cap: int = DEFAULT_GRAPH_ISO_CAP,
) -> tuple[int, ...] | None:
    """A vertex mapping g1 -> g2 if one exists, else None.

    The graphs are first collapsed to their false-twin quotients, the
    search matches quotient classes (smallest refinement class first,
    ascending index), and any witness found is lifted back to the vertex
    level and re-verified edge by edge before being returned.
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
    rows1, weights1, members1 = _false_twin_quotient(g1.rows)
    rows2, weights2, members2 = _false_twin_quotient(g2.rows)
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
        mapping = [-1] * n
        for ci, cw in enumerate(fwd):
            for a, b in zip(members1[ci], members2[cw]):
                mapping[a] = b
        return tuple(mapping)

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
            mapping = lift()
            if not verify_isomorphism(g1, g2, mapping):
                raise InternalConsistencyError("search returned a bad witness")
            return mapping
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
    bits = []
    for i in range(n):
        for j in range(i + 1, n):
            bits.append(g.has_edge(best_perm[i], best_perm[j]))
    packed = bytearray()
    acc = cur = 0
    for b in bits:
        acc |= int(b) << cur
        cur += 1
        if cur == 8:
            packed.append(acc)
            acc = cur = 0
    if cur:
        packed.append(acc)
    return b"CG" + n.to_bytes(2, "big") + bytes(packed)
