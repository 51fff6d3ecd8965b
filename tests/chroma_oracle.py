"""Independent oracles for chromatic polynomials, for tests only.

Deletion-contraction is exponential in the cycle rank, so it checks the
frontier sweep only on small graphs; the colouring count is plain
backtracking over k colours.  The ladder of d squares and its closed
form are a family whose polynomial is known independently.
Deletion-contraction multiplies by the schoolbook product, so it shares
no packed arithmetic with the sweep it checks.
"""

from __future__ import annotations

from staircase.errors import DomainError
from staircase.graphs import SimpleGraph
from staircase.poly import IntPolynomial

from poly_oracle import schoolbook_product

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
        factor = _times(factor, _K if not adj[target] else _K_MINUS_1)
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
    return _times(factor, _chi(deleted) - _chi(contracted))


def _times(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    return IntPolynomial(schoolbook_product(p.coeffs, q.coeffs))


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


def square_chain(d: int) -> SimpleGraph:
    """Ladder of d squares glued edge to edge: 2(d+1) vertices.

    Vertex 2i is the top of rung i, vertex 2i+1 the bottom.
    """
    if d < 1:
        raise DomainError(f"need at least one square, got {d}")
    edges = []
    for i in range(d + 1):
        edges.append((2 * i, 2 * i + 1))
    for i in range(d):
        edges.append((2 * i, 2 * i + 2))
        edges.append((2 * i + 1, 2 * i + 3))
    return SimpleGraph.from_edges(2 * (d + 1), edges)


def square_chain_closed_form(d: int) -> IntPolynomial:
    """k(k-1)(k^2-3k+3)^d, the chromatic polynomial of the d-square ladder.

    >>> square_chain_closed_form(1).format()
    'k^4 - 4k^3 + 6k^2 - 3k'
    """
    if d < 1:
        raise DomainError(f"need at least one square, got {d}")
    return _K * _K_MINUS_1 * IntPolynomial((3, -3, 1)) ** d
