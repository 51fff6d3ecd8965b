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
    cells2 = set()
    for layer in g2.layer_cells:
        cells2.update(layer)
    for layer in g1.layer_cells:
        if not set(layer) <= cells2:
            return False

    def cell_edges(g):
        # vertex id (i, j) is the cell layer_cells[i - 1][j]
        return {
            frozenset(g.layer_cells[i - 1][j] for i, j in edge) for edge in g.edges
        }

    return cell_edges(g1) <= cell_edges(g2)
