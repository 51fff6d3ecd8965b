"""Independent oracles for chromatic polynomials, for tests only.

Deletion-contraction is exponential in the cycle rank, so it checks the
frontier sweep only on small graphs; the colouring count is plain
backtracking over k colours.
"""

from __future__ import annotations

from staircase.graphs import SimpleGraph
from staircase.poly import IntPolynomial

_K = IntPolynomial.variable()
_K_MINUS_1 = IntPolynomial((-1, 1))


def deletion_contraction(g: SimpleGraph) -> IntPolynomial:
    """P(G) = P(G - e) - P(G / e), after peeling isolated and pendant vertices."""
    return _chi({v: set(nbrs) for v, nbrs in enumerate(g.adjacency())})


def _chi(adj: dict[int, set[int]]) -> IntPolynomial:
    factor = IntPolynomial.constant(1)
    # peel isolated and pendant vertices until none remain
    while True:
        target = None
        for v in sorted(adj):
            if len(adj[v]) <= 1:
                target = v
                break
        if target is None:
            break
        factor = factor * (_K if not adj[target] else _K_MINUS_1)
        for w in adj[target]:
            adj[w].discard(target)
        del adj[target]
    if not adj:
        return factor
    u = min(adj)
    v = min(adj[u])
    deleted = {w: set(nbrs) for w, nbrs in adj.items()}
    deleted[u].discard(v)
    deleted[v].discard(u)
    contracted = {w: set(nbrs) for w, nbrs in adj.items() if w != v}
    for w in adj[v]:
        if w != u:
            contracted[w].discard(v)
            contracted[w].add(u)
            contracted[u].add(w)
    contracted[u].discard(v)
    return factor * (_chi(deleted) - _chi(contracted))


def count_colourings(g: SimpleGraph, k: int) -> int:
    """Number of proper colourings of g with colours 0..k-1."""
    adj = g.adjacency()
    colour = [-1] * g.n

    def extend(v: int) -> int:
        if v == g.n:
            return 1
        total = 0
        for c in range(k):
            if all(colour[u] != c for u in adj[v]):
                colour[v] = c
                total += extend(v + 1)
        colour[v] = -1
        return total

    return extend(0)
