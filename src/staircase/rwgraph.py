"""The move graph on the reduced words of a permutation.

Vertices are the reduced words; two words are joined when one single
move turns one into the other.  A braid move rewrites x y x <-> y x y in
three consecutive positions with |x - y| = 1; a commutation move swaps
two adjacent letters with |x - y| > 1.  Edges carry their move type.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import DomainError
from .graphs import SimpleGraph
from .perm import (
    Word,
    check_permutation,
    enumerate_reduced_words,
    staircase_permutation,
    word_to_str,
)
from .report import INVARIANT, Report, check

BRAID = "braid"
COMMUTATION = "commutation"


@dataclass(frozen=True)
class WordGraph(SimpleGraph):
    """Reduced words with typed move edges (i, j, type); vertices sorted, indices stable."""

    words: tuple[Word, ...]

    def braid_edge_count(self) -> int:
        return sum(1 for _, _, t in self.edges if t == BRAID)

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


def build_word_graph(w, max_degree: int | None = None) -> WordGraph:
    """Move graph on the reduced words of w.

    Edge indices refer to the lexicographically sorted word list, each
    edge stored once as (i, j, type) with i < j.  Each word of length r
    has at most r - 1 moves; applying each and looking the result up in
    an index of the words costs O(V·r) dict lookups for V words.
    """
    w = check_permutation(w)
    words = enumerate_reduced_words(w, max_degree)
    index = {word: i for i, word in enumerate(words)}
    edges = []
    for i, word in enumerate(words):
        for k in range(len(word) - 1):
            x, y = word[k], word[k + 1]
            if abs(x - y) > 1:
                j = index[word[:k] + (y, x) + word[k + 2 :]]
                if j > i:
                    edges.append((i, j, COMMUTATION))
            # adjacent letters of a reduced word differ, so here |x - y| = 1
            elif k + 2 < len(word) and word[k + 2] == x:
                j = index[word[:k] + (y, x, y) + word[k + 3 :]]
                if j > i:
                    edges.append((i, j, BRAID))
    edges.sort()
    return WordGraph(len(words), tuple(edges), words)


def count_four_cycles(g: SimpleGraph) -> int:
    """Distinct 4-vertex subsets inducing a chordless 4-cycle.

    A chordless cycle p - r - q - s has two non-adjacent diagonals,
    {p, q} and {r, s}, and is found once from each: for each non-adjacent
    pair p < q, the non-adjacent pairs among its common neighbours.  The
    walk over paths p - r - q costs O(sum over r of deg(r)^2), and the
    pair count the square of each common-neighbour list.
    """
    adj = g.adjacency()
    twice = 0
    for p in range(g.n):
        middles: dict[int, list[int]] = {}
        for r in adj[p]:
            for q in adj[r]:
                if q > p and q not in adj[p]:
                    middles.setdefault(q, []).append(r)
        for rs in middles.values():
            twice += sum(b not in adj[a] for a in rs for b in rs if a < b)
    return twice // 2


def family_word_graph(ell: int) -> WordGraph:
    """The family move graph at length ell: the words of staircase_permutation(ell + 1)."""
    if ell < 3:
        raise DomainError(f"the family move graph starts at ell = 3, got {ell}")
    return build_word_graph(staircase_permutation(ell + 1))


def structure_report(ell: int) -> Report:
    """Audit the claimed census of the degree-(ell+1) family move graph.

    The printed claims under audit: C(ell+1, 2) vertices, ell(ell+1)
    edges, ell-1 braid edges, C(ell-1, 2) four-cycles, and an
    alternating sum v + c - e = 1.  The edge claim is also compared
    against the independent closed count ell(ell-1).
    """
    if ell < 3:
        raise DomainError(f"the family census starts at ell = 3, got {ell}")
    g = family_word_graph(ell)
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
