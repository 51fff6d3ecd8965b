"""Containment of staircase graphs checked cell by cell, for tests only."""

from __future__ import annotations

from staircase.errors import DomainError
from staircase.layered import build_layered_graph
from staircase.partition import Partition, is_staircase, staircase  # noqa: F401  (doctest)


def is_subgraph_order(p1: Partition, p2: Partition) -> bool:
    """Proper containment of staircase graphs, verified on the cells.

    >>> is_subgraph_order(staircase(3), staircase(4))
    True
    >>> is_subgraph_order(staircase(3), staircase(3))
    False
    """
    if not is_staircase(p1) or not is_staircase(p2):
        raise DomainError("both arguments must be staircases")
    if p1.length >= p2.length:
        return False
    g1, g2 = build_layered_graph(p1), build_layered_graph(p2)
    if not set(cells(g1)) <= set(cells(g2)):
        return False

    def cell_edges(g):
        cell = cells(g)
        return {frozenset((cell[a], cell[b])) for a, b in g.edges}

    return cell_edges(g1) <= cell_edges(g2)


def cells(g) -> list[tuple[int, int]]:
    """The Ferrers cell of each vertex: index j of layer i is the cell
    (l - i - j, j) on the diagonal l - i."""
    ell = len(g.layer_sizes)
    return [(ell - i - j, j) for i, size in enumerate(g.layer_sizes, 1) for j in range(size)]
