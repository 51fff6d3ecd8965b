"""Minimal undirected simple-graph core, and the weight-chain diagram.

The graph builders elsewhere in the package (reduced-word graphs,
layered Ferrers graphs) return subclasses of ``SimpleGraph`` that add
only their labels, so every structural engine takes them as they are:
isomorphism, bipartiteness, the four-cycle count, the chromatic
frontier sweep.  ``WeightChain``, drawn by ``export --kind
weight-chain``, indexes the quadric ideal of ``toric``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class SimpleGraph:
    """Vertices 0..n-1 and edges (i, j, ...) with i < j, each stored once.

    Anything after j is a label that the engines ignore; they read only
    the two ends.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return self.n

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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
        for e in self.edges:
            # indexing, not a, b, *_ unpacking, which is much slower
            a, b = e[0], e[1]
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for e in self.edges:
            deg[e[0]] += 1
            deg[e[1]] += 1
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


@dataclass(frozen=True)
class WeightChain:
    """Two-row weighted node chain: top row l..1, bottom row l-1..0.

    Each bottom node points up to the top node of its column and the
    top row is a directed path left to right; the weight-0 node keeps
    the last column stable.
    """

    ell: int

    @property
    def top_weights(self) -> tuple[int, ...]:
        return tuple(range(self.ell, 0, -1))

    @property
    def bottom_weights(self) -> tuple[int, ...]:
        return tuple(range(self.ell - 1, -1, -1))

    def edges(self) -> tuple[tuple[str, str], ...]:
        out = []
        for c in range(self.ell):
            out.append((f"b{c}", f"t{c}"))
        for c in range(self.ell - 1):
            out.append((f"t{c}", f"t{c + 1}"))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "top": list(self.top_weights),
            "bottom": list(self.bottom_weights),
            "edges": [list(e) for e in self.edges()],
        }

    def to_dot(self) -> str:
        lines = ["digraph weight_chain {", "  rankdir=LR;"]
        tops = " ".join(f"t{c}" for c in range(self.ell))
        bottoms = " ".join(f"b{c}" for c in range(self.ell))
        lines.append(f"  {{ rank=same {tops} }}")
        lines.append(f"  {{ rank=same {bottoms} }}")
        for c, w in enumerate(self.top_weights):
            lines.append(f'  t{c} [label="{w}"];')
        for c, w in enumerate(self.bottom_weights):
            lines.append(f'  b{c} [label="{w}"];')
        for a, b in self.edges():
            lines.append(f"  {a} -> {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def weight_chain_diagram(ell: int) -> WeightChain:
    """The weighted chain at length ell whose node weights index the
    quadric ideal."""
    if ell < 2:
        raise DomainError(f"need length >= 2, got {ell}")
    return WeightChain(ell)
