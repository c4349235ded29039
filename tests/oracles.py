"""Independent brute-force oracles used to cross-check the fast paths.

Everything here is deliberately naive: permutation search, subset
enumeration, pairwise gcd reasoning.  Keep these slow and obvious so a
bug in the package cannot hide in a shared shortcut.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import gcd

import numpy as np

from comaximal import RingTable, SimpleGraph, maximal_ideals_bruteforce


def brute_clique(g: SimpleGraph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        if size <= best:
            break
        for combo in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
                best = size
                break
        if best:
            break
    return best


def brute_chromatic(g: SimpleGraph) -> int:
    if g.n == 0:
        return 0
    edges = g.edges()
    for k in range(1, g.n + 1):
        for colouring in product(range(k), repeat=g.n):
            if all(colouring[u] != colouring[v] for u, v in edges):
                return k
    raise AssertionError("unreachable: n colours always suffice")


def brute_isomorphic(g1: SimpleGraph, g2: SimpleGraph) -> bool:
    if g1.n != g2.n:
        return False
    edges1, edges2 = set(g1.edges()), set(g2.edges())
    for perm in permutations(range(g2.n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in edges1}
        if mapped == edges2:
            return True
    return False


def brute_diameter(g: SimpleGraph) -> int | None:
    """None when disconnected or empty; 0 for a single vertex."""
    if g.n == 0:
        return None
    dist = [[None] * g.n for _ in range(g.n)]
    for s in range(g.n):
        dist[s][s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in range(g.n):
                    if g.has_edge(u, v) and dist[s][v] is None:
                        dist[s][v] = d
                        nxt.append(v)
            frontier = nxt
    flat = [dist[u][v] for u in range(g.n) for v in range(g.n)]
    if any(x is None for x in flat):
        return None
    return max(flat)


def _neighbour_lists(g: SimpleGraph) -> list[list[int]]:
    """Each vertex's neighbours, ascending, by one `has_edge` call per ordered vertex pair."""
    return [[v for v in range(g.n) if g.has_edge(u, v)] for u in range(g.n)]


def _bfs_layers(adjacent: list[list[int]], source: int) -> list[list[int]]:
    layers = [[source]]
    seen = {source}
    while True:
        nxt = sorted({v for u in layers[-1] for v in adjacent[u]} - seen)
        if not nxt:
            return layers
        seen.update(nxt)
        layers.append(nxt)


def brute_metrics(g: SimpleGraph) -> tuple:
    """(vertices, edges, connected, components, diameter, witness) by one BFS per vertex.

    Connected: the first vertex of maximal eccentricity in index order and
    the lowest vertex of its last BFS layer (no witness for one vertex).
    Disconnected: 0 and the lowest vertex unreachable from 0.
    """
    n = g.n
    if n == 0:
        return (0, 0, False, 0, None, None)
    adjacent = _neighbour_lists(g)
    layers = [_bfs_layers(adjacent, v) for v in range(n)]
    reach = [{u for layer in layers[v] for u in layer} for v in range(n)]
    components = len({min(r) for r in reach})
    edges = len(g.edges())
    if components > 1:
        return (n, edges, False, components, None, (0, min(set(range(n)) - reach[0])))
    ecc = [len(layers[v]) - 1 for v in range(n)]
    v = ecc.index(max(ecc))
    witness = (v, layers[v][-1][0]) if n > 1 else None
    return (n, edges, True, 1, max(ecc), witness)


def brute_partitions(g: SimpleGraph) -> tuple:
    """(bipartition, complete multipartite parts), each None when it does not exist.

    The bipartition colours each vertex by the parity of its distance from
    the lowest vertex of its component.  The parts are the classes of
    "equal or non-adjacent", when that relation is transitive and so the
    graph is complete multipartite.
    """
    n = g.n
    side = [None] * n
    adjacent = _neighbour_lists(g)
    for s in range(n):
        if side[s] is None:
            for d, layer in enumerate(_bfs_layers(adjacent, s)):
                for v in layer:
                    side[v] = d % 2
    bipartite = all(side[u] != side[v] for u, v in g.edges())
    bipartition = (
        tuple(v for v in range(n) if side[v] == 0),
        tuple(v for v in range(n) if side[v] == 1),
    ) if bipartite else None
    apart = [[u == v or not g.has_edge(u, v) for v in range(n)] for u in range(n)]
    transitive = all(
        apart[u][w] for u in range(n) for v in range(n) for w in range(n) if apart[u][v] and apart[v][w]
    )
    parts = []
    for v in range(n):
        if not any(v in part for part in parts):
            parts.append(tuple(u for u in range(n) if apart[v][u]))
    return bipartition, (tuple(parts) if transitive else None)


def brute_twin_classes(g: SimpleGraph) -> tuple:
    """(classes, universal, quotient rows, edge count) by comparing open neighbourhoods.

    U is the set of vertices adjacent to every other vertex.  Two vertices
    of G - U are twins when their open neighbourhoods in G - U are equal,
    found by comparing each vertex with the first member of every class so
    far.  Classes list their members ascending, ordered by first member; bit
    j of quotient row i means classes i and j are adjacent.  The edge count
    counts the pairs u < v with an edge.
    """
    n = g.n
    universal = [u for u in range(n) if all(g.has_edge(u, v) for v in range(n) if v != u)]
    rest = [u for u in range(n) if u not in universal]
    neighbours = {u: {v for v in rest if g.has_edge(u, v)} for u in rest}
    classes: list[list[int]] = []
    for u in rest:
        for members in classes:
            if neighbours[members[0]] == neighbours[u]:
                members.append(u)
                break
        else:
            classes.append([u])
    rows = [
        sum(1 << j for j, other in enumerate(classes) if g.has_edge(members[0], other[0]))
        for members in classes
    ]
    edges = sum(1 for u in range(n) for v in range(u + 1, n) if g.has_edge(u, v))
    return classes, universal, rows, edges


def maps_edges(g1: SimpleGraph, g2: SimpleGraph, mapping) -> bool:
    """Whether `mapping` is a bijection that carries g1's edge set onto g2's."""
    if g1.n != g2.n or sorted(mapping) != list(range(g1.n)):
        return False
    mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in g1.edges()}
    return mapped == set(g2.edges())


def zn_unit(n: int, a: int) -> bool:
    return gcd(a, n) == 1


def zn_comaximal(n: int, a: int, b: int) -> bool:
    """In Z/n the ideal (a, b) is everything exactly when gcd(a, b, n) = 1."""
    return gcd(gcd(a, b), n) == 1


def distinct_primes(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def totient(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def validate_rows(n: int, rows: list[int]) -> str | None:
    """The per-edge check `SimpleGraph` made before it was vectorised.

    Returns the message for the first defect (loop, bit past n, one-way
    edge, scanned row by row and bit by bit), or None for a valid graph.
    """
    full = (1 << n) - 1
    for i, row in enumerate(rows):
        if row >> i & 1:
            return f"vertex {i} has a loop"
        if row & ~full:
            return f"adjacency row {i} mentions nonexistent vertices"
    for i, row in enumerate(rows):
        for j in range(n):
            if row >> j & 1 and not rows[j] >> i & 1:
                return f"edge {i}-{j} is not symmetric"
    return None


def comaximal_rows(signatures: list[int], ideal_count: int, selector: str):
    """(vertex keys, rows) of a comaximal graph, one signature pair at a time."""
    everything = (1 << ideal_count) - 1
    keep = {
        "full": lambda s: True,
        "units": lambda s: s == 0,
        "nonunits": lambda s: s != 0,
        "core": lambda s: s not in (0, everything),
    }[selector]
    keys = [x for x, s in enumerate(signatures) if keep(s)]
    rows = []
    for i, x in enumerate(keys):
        row = 0
        for j, y in enumerate(keys):
            if i != j and signatures[x] & signatures[y] == 0:
                row |= 1 << j
        rows.append(row)
    return keys, rows


def _key_edges(g: SimpleGraph) -> set[tuple[int, int]]:
    out = set()
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.has_edge(i, j):
                a, b = g.vertex_keys[i], g.vertex_keys[j]
                out.add((min(a, b), max(a, b)))
    return out


def join_witness(full: SimpleGraph, joined: SimpleGraph) -> tuple[str, dict]:
    """JOIN by tuple edge sets: the smallest element pair the graphs disagree on."""
    full_edges, join_edges = _key_edges(full), _key_edges(joined)
    if full_edges == join_edges:
        return "pass", {"edges": len(full_edges)}
    diff = sorted(full_edges ^ join_edges)[0]
    return "fail", {"edge": list(diff), "in_full": diff in full_edges}


def first_difference_by_rows(
    g: SimpleGraph, h: SimpleGraph, gv: list[int] | None = None, hv: list[int] | None = None
) -> tuple[int, int, bool] | None:
    """The first (i, j), row by row, where g induced on `gv` differs from h induced on `hv`, and
    g's bit there, pair by pair over `adjacency()`; None when they are equal."""
    a, b = g.adjacency().tolist(), h.adjacency().tolist()
    gv = range(g.n) if gv is None else list(gv)
    hv = range(h.n) if hv is None else list(hv)
    for i in range(len(gv)):
        for j in range(len(gv)):
            if a[gv[i]][gv[j]] != b[hv[i]][hv[j]]:
                return i, j, a[gv[i]][gv[j]]
    return None


def units_complete_witness(g: SimpleGraph) -> dict | None:
    """L2.1a pair by pair: the first vertex pair, row by row, that is not an edge."""
    for i in range(g.n):
        for j in range(g.n):
            if i != j and not g.has_edge(i, j):
                return {"non_adjacent_units": [g.vertex_keys[i], g.vertex_keys[j]]}
    return None


def coset_lifting_witness(g: SimpleGraph, rep_of: list[int]) -> dict | None:
    """P4.7a by member pairs: the first coset pair with mixed adjacency."""
    reps = sorted(set(rep_of))
    members = {r: [x for x in range(len(rep_of)) if rep_of[x] == r] for r in reps}
    for i, r in enumerate(reps):
        for s in reps[i + 1 :]:
            pairs = [[u, v] for u in members[r] for v in members[s]]
            adjacent = [p for p in pairs if g.has_edge(*p)]
            if 0 < len(adjacent) < len(pairs):
                return {
                    "coset_pair": [r, s],
                    "adjacent_pair": adjacent[0],
                    "non_adjacent_pair": next(p for p in pairs if not g.has_edge(*p)),
                }
    return None


def coset_units_witness(g: SimpleGraph, rep_of: list[int], units: list[bool]) -> dict | None:
    """P4.7b by member pairs: the first coset whose units or inner edges are wrong."""
    for r in sorted(set(rep_of)):
        mem = [x for x in range(len(rep_of)) if rep_of[x] == r]
        pairs = [[u, v] for u in mem for v in mem if u < v]
        wrong = [x for x in mem if units[x] != units[r]]
        if wrong:
            kind = "nonunit_in_unit_coset" if units[r] else "unit_in_nonunit_coset"
            return {"kind": kind, "coset_rep": r, "element": wrong[0]}
        odd = [p for p in pairs if g.has_edge(*p) != units[r]]
        if odd:
            kind = "missing_internal_edge" if units[r] else "unexpected_internal_edge"
            return {"kind": kind, "coset_rep": r, "pair": odd[0]}
    return None


def quotient_graph_witness(g: SimpleGraph, reps: list[int], quotient: SimpleGraph) -> dict | None:
    """P4.7c pair by pair: the first representative pair whose adjacency the quotient changes."""
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            ring_adj, quot_adj = g.has_edge(reps[i], reps[j]), quotient.has_edge(i, j)
            if ring_adj != quot_adj:
                return {
                    "rep_pair": [reps[i], reps[j]],
                    "ring_adjacent": ring_adj,
                    "quotient_adjacent": quot_adj,
                }
    return None


def residue_match_witness(g: SimpleGraph, ideals: list[list[int]], text: str) -> dict | None:
    """T4.4's count check by member lists: in each maximal ideal in turn, the
    smallest element in no other ideal misses exactly |M| - 1 other vertices."""
    for i, ideal in enumerate(ideals):
        others = {x for j, other in enumerate(ideals) if j != i for x in other}
        x = min(set(ideal) - others)
        count = sum(1 for v in range(g.n) if v != x and not g.has_edge(x, v))
        if count != len(ideal) - 1:
            return {
                "kind": "non_neighbour_count",
                "ring": text,
                "element": x,
                "count": count,
                "ideal_size": len(ideal),
            }
    return None


def units_by_definition(ring) -> list[bool]:
    """a is a unit when a*b = 1 for some b, read off one multiplication row per element."""
    return [ring.one in ring.mul_row(a).tolist() for a in range(ring.size)]


def radical_by_definition(ring) -> list[bool]:
    """x lies in the Jacobson radical when 1 - r*x is a unit for every r."""
    n, one = ring.size, ring.one
    unit = units_by_definition(ring)
    # one_minus[y] is the z with y + z = 1.
    one_minus = [ring.add_row(y).tolist().index(one) for y in range(n)]
    return [all(unit[one_minus[y]] for y in ring.mul_row(x).tolist()) for x in range(n)]


def primitive_idempotents_by_definition(ring) -> list[int]:
    """The nonzero idempotents e with no idempotent f outside {0, e} where e*f = f, ascending,
    by scalar `mul` only."""
    idempotents = [e for e in range(ring.size) if ring.mul(e, e) == e]
    return [
        e
        for e in idempotents
        if e != 0 and not any(f not in (0, e) and ring.mul(e, f) == f for f in idempotents)
    ]


def structure_by_definition(ring) -> dict:
    """Units, radical, ordered maximal ideals and signatures from the definitions.

    The maximal ideals are the brute-force ones.  Each M is keyed by the
    least x outside M and inside every other maximal ideal with x*x - x in
    the radical, i.e. the least element of the coset e + J of the primitive
    idempotent e that M omits, and sorted by that key.
    """
    n = ring.size
    radical = radical_by_definition(ring)
    masks = [m.mask for m in maximal_ideals_bruteforce(ring)]

    def key(mask: int) -> int:
        others = [m for m in masks if m != mask]
        return next(
            x
            for x in range(n)
            if not mask >> x & 1
            and all(m >> x & 1 for m in others)
            and radical[ring.sub(ring.mul(x, x), x)]
        )

    ordered = sorted(masks, key=key)
    return {
        "unit_flags": units_by_definition(ring),
        "radical": radical,
        "maximal": ordered,
        "signatures": [sum(1 << i for i, m in enumerate(ordered) if m >> a & 1) for a in range(n)],
    }


def structure_of(ring) -> dict:
    """The package's answers, in the shape of `structure_by_definition`."""
    return {
        "unit_flags": ring.unit_flags.tolist(),
        "radical": ring.jacobson_radical.member_flags().tolist(),
        "maximal": [m.mask for m in ring.maximal_ideals],
        "signatures": ring.signature_array.tolist(),
    }


def polyquot_product(p: int, coeffs, a: int, b: int) -> int:
    """a*b in Z/p[x]/(f), f monic with ascending `coeffs`: digit i of an index is the
    coefficient of x^i.  Schoolbook product, then long division by f."""
    deg = len(coeffs) - 1
    da = [a // p**i % p for i in range(deg)]
    db = [b // p**i % p for i in range(deg)]
    product = [0] * (2 * deg - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            product[i + j] += x * y
    for top in range(2 * deg - 2, deg - 1, -1):
        c = product[top] % p
        for i, f in enumerate(coeffs):
            product[top - deg + i] -= c * f
    return sum(product[i] % p * p**i for i in range(deg))


def sqz_product(p: int, k: int, a: int, b: int) -> int:
    """a*b in SQZ(p,k) = F_p (+) F_p^k, where (s, v)(t, w) = (st, sw + tv).

    An index lists s, v_1, ..., v_k as base-p digits, most significant first.
    """
    s, *v = [a // p ** (k - i) % p for i in range(k + 1)]
    t, *w = [b // p ** (k - i) % p for i in range(k + 1)]
    digits = [s * t % p] + [(s * wi + t * vi) % p for vi, wi in zip(v, w)]
    return sum(x * p ** (k - i) for i, x in enumerate(digits))


def product_law(factors, law: str, a: int, b: int) -> int:
    """a + b (law "add") or a * b (law "mul") in the direct product of `factors`, for one pair.

    Indices are mixed-radix, the first factor's digit most significant: each digit pair is
    combined by its factor's own scalar law, and the results are read back in the same radix.
    """
    parts = []
    for f in reversed(factors):
        a, x = divmod(a, f.size)
        b, y = divmod(b, f.size)
        parts.append(getattr(f, law)(x, y))
    out = 0
    for f, part in zip(factors, reversed(parts)):
        out = out * f.size + part
    return out


def additive_generators_bfs(ring) -> list[int]:
    """Greedy additive generating set: the identity, then each element not yet spanned.

    Each new generator's span is grown breadth first: every element reached
    is added to the whole span so far, until nothing new appears.
    """
    n = ring.size
    span = np.zeros(n, dtype=bool)
    span[0] = True
    gens = []
    for g in [ring.one, *range(n)]:
        if span[g]:
            continue
        gens.append(g)
        span[g] = True
        frontier = [g]
        while frontier:
            row = ring.add_row(frontier.pop())[span]
            fresh = sorted(set(row[~span[row]].tolist()))
            span[fresh] = True
            frontier.extend(fresh)
    return gens


def additive_span(ring, elements) -> set[int]:
    """The additive group generated by `elements`: {0}, closed under adding each of them."""
    rows = [ring.add_row(g).tolist() for g in elements]
    span, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for row in rows:
            if row[x] not in span:
                span.add(row[x])
                frontier.append(row[x])
    return span


def is_ideal_by_definition(ring, members) -> bool:
    """0 is a member, and so are a + b and r * a for all members a, b and every r."""
    inside = set(members)
    if 0 not in inside:
        return False
    for a in inside:
        sums, products = ring.add_row(a).tolist(), ring.mul_row(a).tolist()
        if any(sums[b] not in inside for b in inside) or not inside.issuperset(products):
            return False
    return True


def coset_minima(ring, members) -> list[int]:
    """For every x, the least of x + j over the members j: its coset's least element when the
    members are an additive subgroup.  One scalar sum per pair."""
    return [min(ring.add(x, j) for j in members) for x in range(ring.size)]


def _cayley(ring) -> tuple[list[list[int]], list[list[int]]]:
    """Both Cayley tables as nested lists, one scalar operation per entry."""
    n = ring.size
    add = [[ring.add(a, b) for b in range(n)] for a in range(n)]
    mul = [[ring.mul(a, b) for b in range(n)] for a in range(n)]
    return add, mul


def _keeps_laws(mapping, tables1, tables2) -> bool:
    """mapping(a + b) == mapping(a) + mapping(b), and the same for products, on every pair."""
    (add1, mul1), (add2, mul2) = tables1, tables2
    n = len(mapping)
    return all(
        mapping[add1[a][b]] == add2[mapping[a]][mapping[b]]
        and mapping[mul1[a][b]] == mul2[mapping[a]][mapping[b]]
        for a in range(n)
        for b in range(n)
    )


def is_ring_isomorphism(r1, r2, mapping) -> bool:
    """mapping is a bijection r1 -> r2 that fixes 0 and 1 and keeps both laws, pair by pair."""
    n = r1.size
    if r2.size != n or sorted(mapping) != list(range(n)):
        return False
    if mapping[0] != 0 or mapping[r1.one] != r2.one:
        return False
    return _keeps_laws(mapping, _cayley(r1), _cayley(r2))


def brute_ring_isomorphic(r1, r2) -> tuple[int, ...] | None:
    """The first bijection r1 -> r2 fixing 0 and 1 that keeps both laws, or None.

    Every such bijection is tried, so only rings of at most 8 elements are accepted.
    """
    n = r1.size
    if n > 8:
        raise ValueError("brute_ring_isomorphic tries every bijection: at most 8 elements")
    if r2.size != n:
        return None
    tables1, tables2 = _cayley(r1), _cayley(r2)
    rest1 = [a for a in range(1, n) if a != r1.one]
    rest2 = [b for b in range(1, n) if b != r2.one]
    for images in permutations(rest2):
        mapping = [0] * n
        mapping[r1.one] = r2.one
        for a, b in zip(rest1, images):
            mapping[a] = b
        if _keeps_laws(mapping, tables1, tables2):
            return tuple(mapping)
    return None


def relabelled(ring, rng):
    """The same ring with its nonzero indices permuted at random, built from its tables.

    Index 0 stays the additive identity; element a of `ring` is element
    perm[a] of the copy, so perm is an isomorphism onto it.
    """
    n = ring.size
    perm = [0] + [int(x) + 1 for x in rng.permutation(n - 1)]
    add, mul = _cayley(ring)
    new_add = [[0] * n for _ in range(n)]
    new_mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new_add[perm[a]][perm[b]] = perm[add[a][b]]
            new_mul[perm[a]][perm[b]] = perm[mul[a][b]]
    return RingTable(n, perm[ring.one], new_add, new_mul, name=f"relabelled {ring.name}")
