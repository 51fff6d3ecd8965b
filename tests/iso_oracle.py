"""An independent isomorphism oracle, for tests only.

It tries every bijection of the vertices, n! of them, with none of the
invariant checks, signature classes or neighbour-driven search of
``is_isomorphic``, so it is for graphs of at most about eight vertices.
"""

from __future__ import annotations

from itertools import permutations

from staircase.graphs import SimpleGraph


def isomorphic_by_permutations(a: SimpleGraph, b: SimpleGraph) -> bool:
    """Whether some bijection of the vertices maps the edges of a onto those of b.

    >>> triangle = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    >>> path = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    >>> isomorphic_by_permutations(path, SimpleGraph.from_edges(3, [(0, 2), (1, 2)]))
    True
    >>> isomorphic_by_permutations(triangle, path)
    False
    """
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    target = set(b.edges)
    return any(
        all((min(p[x], p[y]), max(p[x], p[y])) in target for x, y in a.edges)
        for p in permutations(range(a.n))
    )
