"""The move graph on the reduced words of a permutation.

Vertices are the reduced words; two words are joined when one single
move turns one into the other.  A braid move rewrites x y x <-> y x y in
three consecutive positions with |x - y| = 1; a commutation move swaps
two adjacent letters with |x - y| > 1.  Edges carry their move type.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import DomainError, ResourceLimitError
from .graphs import SimpleGraph
from .perm import (
    DEFAULT_MAX_DEGREE,
    Word,
    check_permutation,
    enumerate_reduced_words,
    staircase_permutation,
    word_to_str,
)
from .report import INVARIANT, Report, check

BRAID = "braid"
COMMUTATION = "commutation"

DEFAULT_CAP_VERTICES = 5000


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


@dataclass(frozen=True)
class WordGraph:
    """Reduced words with typed move edges; vertices sorted, indices stable."""

    words: tuple[Word, ...]
    edges: tuple[tuple[int, int, str], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.words)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def braid_edge_count(self) -> int:
        return sum(1 for _, _, t in self.edges if t == BRAID)

    def as_simple(self) -> SimpleGraph:
        return SimpleGraph.from_edges(
            len(self.words), [(a, b) for a, b, _ in self.edges]
        )

    def to_json(self) -> dict:
        return {
            "vertices": [word_to_str(w) for w in self.words],
            "edges": [[a, b, t] for a, b, t in self.edges],
        }

    def to_dot(self) -> str:
        """Deterministic DOT text; braid edges drawn bold."""
        lines = ["graph reduced_words {"]
        for w in self.words:
            lines.append(f'  "{word_to_str(w)}";')
        for a, b, t in self.edges:
            style = " [style=bold]" if t == BRAID else ""
            lines.append(
                f'  "{word_to_str(self.words[a])}" -- "{word_to_str(self.words[b])}"{style};'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_word_graph(
    w,
    cap_vertices: int = DEFAULT_CAP_VERTICES,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> WordGraph:
    """Move graph on the reduced words of w.

    Edge indices refer to the lexicographically sorted word list, each
    edge stored once as (i, j, type) with i < j.
    """
    w = check_permutation(w)
    words = enumerate_reduced_words(w, max_degree)
    if len(words) > cap_vertices:
        raise ResourceLimitError(
            f"{len(words)} reduced words exceed the cap {cap_vertices}",
            partial=len(words),
        )
    edges = []
    for i, j in combinations(range(len(words)), 2):
        t = detect_move(words[i], words[j])
        if t is not None:
            edges.append((i, j, t))
    return WordGraph(words, tuple(edges))


def count_four_cycles(g: WordGraph | SimpleGraph) -> int:
    """Distinct 4-vertex subsets inducing a chordless 4-cycle."""
    sg = g if isinstance(g, SimpleGraph) else g.as_simple()
    adj = sg.adjacency()
    count = 0
    for a, b, c, d in combinations(range(sg.n), 4):
        # the three pairings of the subset into two diagonal pairs
        for p, q, r, s in ((a, b, c, d), (a, c, b, d), (a, d, b, c)):
            # candidate cycle p - r - q - s - p with diagonals (p,q), (r,s)
            if q in adj[p] or s in adj[r]:
                continue
            if r in adj[p] and q in adj[r] and s in adj[q] and p in adj[s]:
                count += 1
                break
    return count


def structure_report(ell: int, cap_vertices: int = DEFAULT_CAP_VERTICES) -> Report:
    """Audit the claimed census of the degree-(ell+1) family move graph.

    The printed claims under audit: C(ell+1, 2) vertices, ell(ell+1)
    edges, ell-1 braid edges, C(ell-1, 2) four-cycles, and an
    alternating sum v + c - e = 1.  The edge claim is also compared
    against the independent closed count ell(ell-1).
    """
    if ell < 3:
        raise DomainError(f"the family census starts at ell = 3, got {ell}")
    g = build_word_graph(staircase_permutation(ell + 1), cap_vertices)
    cycles = count_four_cycles(g)
    rep = Report(f"move-graph census at ell = {ell}")
    rep.add(check("vertices", g.vertex_count, comb(ell + 1, 2)))
    rep.add(check("edges (printed claim)", g.edge_count, ell * (ell + 1)))
    rep.add(check("edges (closed count)", g.edge_count, ell * (ell - 1)))
    rep.add(check("braid edges", g.braid_edge_count(), ell - 1))
    rep.add(check("four-cycles", cycles, comb(ell - 1, 2)))
    rep.add(
        check(
            "vertices + cycles - edges",
            g.vertex_count + cycles - g.edge_count,
            1,
            kind=INVARIANT,
        )
    )
    return rep
