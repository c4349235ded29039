"""Closed-form expectations computed from integer arithmetic alone.

Nothing here imports the package: a comaximal graph is fixed by the local
factors of its ring.  A finite commutative ring is a product of local rings
R_i of size s_i with residue field size q_i; an element lies in the maximal
ideal of R_i for a share 1/q_i of that factor, and two elements are adjacent
exactly when no factor has both of them in its maximal ideal.
"""

from __future__ import annotations

from math import prod


def prime_factorisation(n: int) -> list[tuple[int, int]]:
    """[(p, e)] with n = prod p**e, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def zn_factors(n: int) -> list[tuple[int, int]]:
    """Local factors (size, residue field size) of Z/n."""
    return [(p**e, p) for p, e in prime_factorisation(n)]


def ring_counts(factors: list[tuple[int, int]]) -> dict:
    """Units, radical size and full/core vertex and edge counts.

    Ordered pairs with disjoint signatures number prod s^2 (1 - 1/q^2); a
    unit is the only element adjacent to itself.  Core vertices drop the
    units and the radical; the core's ordered adjacent pairs are the full
    ones minus every pair that touches a unit, since a radical element is
    adjacent to units only.
    """
    n = prod(s for s, _ in factors)
    units = prod(s - s // q for s, q in factors)
    radical = prod(s // q for s, q in factors)
    disjoint = prod(s * s - (s // q) ** 2 for s, q in factors)
    core_pairs = disjoint - 2 * units * n + units * units
    return {
        "size": n,
        "units": units,
        "radical": radical,
        "residue_fields": sorted(q for _, q in factors),
        "full_vertices": n,
        "full_edges": (disjoint - units) // 2,
        "core_vertices": n - units - radical,
        "core_edges": core_pairs // 2,
    }


def core_diameter(factor_count: int) -> int | None:
    """Core diameter of a ring with this many maximal ideals; None when the core is empty.

    Two maximal ideals give a complete bipartite core (diameter 2, or 1 for
    Z/2 x Z/2, which no workload uses); three or more give diameter 3.
    """
    if factor_count < 2:
        return None
    return 2 if factor_count == 2 else 3
