"""The move graph on the reduced words of a permutation.

Vertices are the reduced words; two words are joined when one single
move turns one into the other.  A braid move rewrites x y x <-> y x y in
three consecutive positions with |x - y| = 1; a commutation move swaps
two adjacent letters with |x - y| > 1.  Edges carry their move type.

By the word property of Matsumoto (1964) and Tits (1969) the moves
connect all reduced words of a permutation, so ``build_word_graph``
finds the words and the edges in one breadth-first pass over the moves
from a single word.  It takes each edge once, skipping the reverse of
the move that found a word.  A move taken costs one add and one hash of
an int of r·b bits, b the bit length of the largest letter, and each
word found one copy of its r letters: O((V+E)·r·b) bits of C arithmetic
and O(V·r) letters copied for V words of r letters and E edges.  It is
the package's one reduced-word enumerator; the tests hold it against a
memo over the weak order.  MAX_REDUCED_LETTERS caps the letters of the
words stored in one move graph, read at call time.  A stored letter is
one 8-byte slot of a word tuple; with the edges, masks and queue the
build peaks at about 60 bytes per letter on the longest element of S_6
and about 10 on the family's long words (tracemalloc, 64-bit CPython).
"""

from __future__ import annotations

from bisect import bisect, insort
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


def _first_word(w: tuple[int, ...]) -> Word:
    """One reduced word of w, by insertion sort.

    Moving the entry at position p left past the c entries before it
    that exceed it swaps positions p, p - 1, ..., p - c + 1, each swap
    removing one inversion, so the swaps read backwards spell a reduced
    word.  Bisecting the entries seen so far gives each c.
    """
    seen, letters = [], []
    for p, v in enumerate(w):
        c = p - bisect(seen, v)
        insort(seen, v)
        letters += range(p, p - c, -1)
    letters.reverse()
    return tuple(letters)


def _move_mask(seg: Word, lo: int, hi: int) -> int:
    """Bit p set for each position p in lo..hi-1 where a move starts.

    seg holds the word's letters from position lo on, up to hi + 1 or
    the word's end.  Adjacent letters of a reduced word differ, so the
    letters at p, p+1 either commute (|x - y| > 1) or start a braid when
    the letter at p+2 equals the one at p.
    """
    mask, last = 0, len(seg) - 2
    for q in range(hi - lo):
        x = seg[q]
        if abs(x - seg[q + 1]) > 1 or q < last and seg[q + 2] == x:
            mask |= 1 << q
    return mask << lo


def build_word_graph(w, max_degree: int | None = None) -> WordGraph:
    """Move graph on the reduced words of w, in one breadth-first pass.

    The search starts at one reduced word and takes each edge once.  The
    move at position k of a word is undone only by the move at position
    k of the word it makes, so each word keeps a bit mask of the
    positions whose move leads to a word found before it: a new word
    starts with the position its parent used, and a known word reached
    again gets that position ORed in.  When the search comes to a word
    it takes the moves outside that mask, so every move taken finds
    either a new word, which joins the queue, or a queued one, and each
    edge is recorded from the side of the word found first.  Once a word
    is searched, each of its neighbours has the reverse move marked, so
    no later move ends at it: the search drops it from the index, with
    its key and masks, and the index holds only the queue.

    The index keys each queued word by one int of b-bit letter fields,
    the first letter most significant, b the bit length of the largest
    letter n - 1.  Swapping x y at k adds (y - x)·C[k] to the key and the
    braid x y x -> y x y at k adds (y - x)·B[k], from two place-value
    tables built once per call, so a move is one add and one hash of an
    int in C.  A new word's letters are sliced from its parent's, so
    every word holds the int objects of the first.  The moves of a word
    are a bit mask too; a move rewrites two or three letters, so a new
    word keeps its parent's moves away from them and rescans only the
    positions that read them.  Every stored word, the first one
    included, counts its letters against ``MAX_REDUCED_LETTERS``;
    ``max_degree`` caps w's entries.

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
    start = _first_word(w)
    r, cap = len(start), MAX_REDUCED_LETTERS
    if r > cap:
        raise ResourceLimitError(r, cap, "stored reduced-word letters")
    bits = max(len(w) - 1, 1).bit_length()  # letters are 1..n-1
    step = (1 << bits) - 1  # C[k]: +1 at field k, -1 at field k+1
    C = list(map(step.__lshift__, range(bits * (r - 2), -1, -bits)))
    step = (step << bits) + 1  # B[k]: +1, -1, +1 at fields k, k+1, k+2
    B = list(map(step.__lshift__, range(bits * (r - 3), -1, -bits)))
    key = 0
    for x in start:
        key = key << bits | x
    words, keys, index = [start], [key], {key: 0}
    moves = [_move_mask(start, 0, r - 1)]  # bit k: a move starts at k
    back = [0]  # bit k: the move at k leads to a word found before this one
    edges = []
    lookup, add = index.get, edges.append
    for i, word in enumerate(words):
        key, mask, taken = keys[i], moves[i], back[i]
        keys[i] = moves[i] = back[i] = None  # no later move reads a searched word
        del index[key]
        todo = mask & ~taken
        while todo:
            bit = todo & -todo
            todo ^= bit
            k = bit.bit_length() - 1
            x, y = word[k], word[k + 1]
            if abs(x - y) > 1:
                t, moved = COMMUTATION, key + (y - x) * C[k]
            else:
                t, moved = BRAID, key + (y - x) * B[k]
            j = lookup(moved)
            if j is None:
                j = len(words)
                letters = (j + 1) * r
                if letters > cap:
                    raise ResourceLimitError(letters, cap, "stored reduced-word letters")
                index[moved] = j
                keys.append(moved)
                mid = (y, x) if t is COMMUTATION else (y, x, y)
                end, lo = k + len(mid), max(k - 2, 0)
                made = word[:k] + mid + word[end:]
                words.append(made)
                kept = mask & ~((1 << end) - (1 << lo))
                moves.append(kept | _move_mask(made[lo : end + 2], lo, min(end, r - 1)))
                back.append(bit)
            else:
                back[j] |= bit
            add((i, j, t))
    del index, keys, moves, back, lookup, add  # the search state, before the sorts
    order = sorted(range(len(words)), key=words.__getitem__)
    rank = [0] * len(words)
    for new, old in enumerate(order):
        rank[old] = new
    edges = sorted(
        (rank[i], rank[j], t) if rank[i] < rank[j] else (rank[j], rank[i], t)
        for i, j, t in edges
    )
    return WordGraph(len(words), tuple(edges), tuple(map(words.__getitem__, order)))


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
