"""The move graph on the reduced words of a permutation.

Vertices are the reduced words; two words are joined when one single
move turns one into the other.  A braid move rewrites x y x <-> y x y in
three consecutive positions with |x - y| = 1; a commutation move swaps
two adjacent letters with |x - y| > 1.  Edges carry their move type.

By the word property of Matsumoto (1964) and Tits (1969) the moves
connect all reduced words of a permutation, so ``build_word_graph``
finds the words and the edges in one breadth-first pass over the moves
from a single word.  It takes each edge once, skipping the reverse of
the move that found a word, and copies and hashes r letters per move
taken: O((V+E)·r) for V words of r letters and E edges.  It is the
package's one reduced-word enumerator; the tests hold it against a memo
over the weak order.  MAX_REDUCED_LETTERS caps the letters of the words
stored in one move graph, read at call time.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError, ResourceLimitError
from .graphs import SimpleGraph
from .perm import Word, check_permutation, staircase_permutation, word_to_str

BRAID = "braid"
COMMUTATION = "commutation"

MAX_REDUCED_LETTERS = 20_000_000  # letters stored by one move graph or one words run


class WordGraph(namedtuple("WordGraph", "n edges words"), SimpleGraph):
    """Reduced words with typed move edges (i, j, type); vertices sorted, indices stable."""

    __slots__ = ()

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


def _greedy_word(w: tuple[int, ...]) -> Word:
    """One reduced word of w, peeled from its end.

    Swapping the first descent i of w removes one inversion and leaves
    w t_i, so the positions swapped until w is sorted, read backwards,
    spell a reduced word.  After a swap at i the first descent is at
    i - 1 or later, so the scan resumes there: O(n + r) steps for r
    inversions.
    """
    u, letters, i = list(w), [], 1
    while True:
        while i < len(u) and u[i - 1] < u[i]:
            i += 1
        if i == len(u):
            return tuple(reversed(letters))
        u[i - 1], u[i] = u[i], u[i - 1]
        letters.append(i)
        i = max(i - 1, 1)


def _move_positions(word: Word, lo: int, hi: int) -> list[int]:
    """The positions k in lo..hi-1 where a move starts in word.

    Adjacent letters of a reduced word differ, so word[k], word[k+1]
    either commute (|x - y| > 1) or start a braid when word[k+2] == word[k].
    """
    last = len(word) - 2
    return [
        k for k in range(lo, hi)
        if abs(word[k] - word[k + 1]) > 1 or k < last and word[k + 2] == word[k]
    ]


def build_word_graph(w, max_degree: int | None = None) -> WordGraph:
    """Move graph on the reduced words of w, in one breadth-first pass.

    The search starts at one reduced word and takes each edge once.  The
    move at position k of a word is undone only by the move at position
    k of the word it makes, so each word keeps a bit mask of the
    positions whose move leads to a word found before it: a new word
    starts with the position its parent used, and a known word reached
    again gets that position ORed in.  When the search comes to a word
    it skips those positions, so every other move finds either a new
    word, which joins the queue, or a known one not yet reached, and
    each edge is recorded from the side of the word found first.  A
    move rewrites two or three letters, so a new word keeps its parent's
    move positions away from them and rescans only the positions that
    read them.  Every stored word, the first one included, counts its
    letters against ``MAX_REDUCED_LETTERS``; ``max_degree`` caps
    w's entries.

    Edge indices refer to the lexicographically sorted word list, each
    edge stored once as (i, j, type) with i < j.

    >>> g = build_word_graph((4, 2, 3, 1))
    >>> [word_to_str(word) for word in g.words]
    ['12321', '13213', '13231', '31213', '31231', '32123']
    >>> g.edges  # doctest: +NORMALIZE_WHITESPACE
    ((0, 2, 'braid'), (1, 2, 'commutation'), (1, 3, 'commutation'),
     (2, 4, 'commutation'), (3, 4, 'commutation'), (3, 5, 'braid'))
    """
    w = check_permutation(w)
    if max_degree is not None and len(w) > max_degree:
        raise ResourceLimitError(len(w), max_degree, "permutation entries")
    start = _greedy_word(w)
    r, cap = len(start), MAX_REDUCED_LETTERS
    if r > cap:
        raise ResourceLimitError(r, cap, "stored reduced-word letters")
    words = [start]
    moves = [_move_positions(start, 0, r - 1)]  # the move positions of each word
    back = [0]  # bit k: the move at k leads to a word found before this one
    index = {start: 0}
    edges = []
    for i, word in enumerate(words):
        taken = back[i]
        for k in moves[i]:
            if taken >> k & 1:
                continue
            x, y = word[k], word[k + 1]
            if abs(x - y) > 1:
                t, end, moved = COMMUTATION, k + 2, word[:k] + (y, x) + word[k + 2 :]
            else:
                t, end, moved = BRAID, k + 3, word[:k] + (y, x, y) + word[k + 3 :]
            j = index.get(moved)
            if j is None:
                j = len(words)
                letters = (j + 1) * r
                if letters > cap:
                    raise ResourceLimitError(letters, cap, "stored reduced-word letters")
                index[moved] = j
                words.append(moved)
                lo = max(k - 2, 0)
                kept = [p for p in moves[i] if p < lo or p >= end]
                moves.append(kept + _move_positions(moved, lo, min(end, r - 1)))
                back.append(1 << k)
            else:
                back[j] |= 1 << k
            edges.append((i, j, t))
    order = sorted(range(len(words)), key=words.__getitem__)
    rank = [0] * len(words)
    for new, old in enumerate(order):
        rank[old] = new
    edges = sorted(
        (rank[i], rank[j], t) if rank[i] < rank[j] else (rank[j], rank[i], t)
        for i, j, t in edges
    )
    return WordGraph(len(words), tuple(edges), tuple(words[old] for old in order))


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
