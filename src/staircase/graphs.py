"""Minimal undirected simple-graph core.

Vertices are 0..n-1, edges are (i, j) pairs with i < j.  The graph
builders elsewhere in the package (reduced-word graphs, layered Ferrers
graphs) convert to this form for anything structural: isomorphism,
bipartiteness, the chromatic frontier sweep.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class SimpleGraph:
    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> SimpleGraph:
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        norm = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise DomainError(f"edge ({a}, {b}) out of range for n={n}")
            if a == b:
                raise DomainError(f"loop at vertex {a}")
            norm.add((a, b) if a < b else (b, a))
        return cls(n, tuple(sorted(norm)))

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def two_colouring(self) -> tuple[int, ...] | None:
        """A proper 2-colouring as a 0/1 vector, or None if not bipartite."""
        adj = self.adjacency()
        colour = [-1] * self.n
        for root in range(self.n):
            if colour[root] != -1:
                continue
            colour[root] = 0
            stack = [root]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if colour[w] == -1:
                        colour[w] = 1 - colour[v]
                        stack.append(w)
                    elif colour[w] == colour[v]:
                        return None
        return tuple(colour)
