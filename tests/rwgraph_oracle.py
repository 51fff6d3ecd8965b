"""Independent oracles for the move graph, for tests only.

``detect_move`` compares two words position by position, so the move
graph built from it checks every pair of words (O(V²)); the four-cycle
count tries every 4-vertex subset (C(V, 4)).  Both are for small graphs.
"""

from __future__ import annotations

from itertools import combinations

from staircase.graphs import SimpleGraph
from staircase.perm import Word
from staircase.rwgraph import BRAID, COMMUTATION


def detect_move(w1: Word, w2: Word) -> str | None:
    """The move type joining two words, or None.

    >>> detect_move((3, 2, 1, 2, 3), (3, 1, 2, 1, 3))
    'braid'
    >>> detect_move((3, 1, 2, 3, 1), (1, 3, 2, 3, 1))
    'commutation'
    """
    if len(w1) != len(w2) or w1 == w2:
        return None
    diff = [i for i in range(len(w1)) if w1[i] != w2[i]]
    if len(diff) == 2:
        i, j = diff
        if j == i + 1 and w1[i] == w2[j] and w1[j] == w2[i] and abs(w1[i] - w1[j]) > 1:
            return COMMUTATION
        return None
    if len(diff) == 3:
        i, j, k = diff
        if k != i + 2 or j != i + 1:
            return None
        x, y = w1[i], w1[j]
        if abs(x - y) != 1:
            return None
        if w1[i : i + 3] == (x, y, x) and w2[i : i + 3] == (y, x, y):
            return BRAID
        return None
    return None


def all_pairs_edges(words: tuple[Word, ...]) -> tuple[tuple[int, int, str], ...]:
    """Typed move edges (i, j, type), i < j, by comparing every pair of words."""
    edges = []
    for i, j in combinations(range(len(words)), 2):
        t = detect_move(words[i], words[j])
        if t is not None:
            edges.append((i, j, t))
    return tuple(edges)


def four_cycles_by_subsets(g: SimpleGraph) -> int:
    """Distinct 4-vertex subsets inducing a chordless 4-cycle, subset by subset."""
    adj = g.adjacency()
    count = 0
    for a, b, c, d in combinations(range(g.n), 4):
        # the three pairings of the subset into two diagonal pairs
        for p, q, r, s in ((a, b, c, d), (a, c, b, d), (a, d, b, c)):
            # candidate cycle p - r - q - s - p with diagonals (p,q), (r,s)
            if q in adj[p] or s in adj[r]:
                continue
            if r in adj[p] and q in adj[r] and s in adj[q] and p in adj[s]:
                count += 1
                break
    return count
