"""Permutation products, inversion counts and a second word enumerator, for tests only.

The products check the move graph's words from the definition: a word is
a reduced word of w when its letters, applied to the identity as
adjacent transpositions, give w, and its length is the inversion number
of w.  ``enumerate_reduced_words`` finds all of them without any move,
by a memo over the weak order, so it checks that the graph misses none.
"""

from __future__ import annotations

from collections.abc import Sequence

from staircase.errors import DomainError
from staircase.perm import check_permutation


def inversions(w: Sequence[int]) -> int:
    """Number of pairs i < j with w(i) > w(j).

    >>> inversions((3, 5, 1, 2, 4))
    5
    """
    w = check_permutation(w)
    return sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


def descents(w: Sequence[int]) -> tuple[int, ...]:
    """Positions i (1-based) with w(i) > w(i+1).

    >>> descents((4, 2, 3, 1))
    (1, 3)
    """
    w = check_permutation(w)
    return tuple(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def apply_transposition(w: Sequence[int], i: int) -> tuple[int, ...]:
    """Right-multiply by t_i: swap the entries in positions i, i+1."""
    w = check_permutation(w)
    if not 1 <= i <= len(w) - 1:
        raise DomainError(f"transposition index {i} out of range for degree {len(w)}")
    return w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]


def apply_word(word: Sequence[int], n: int) -> tuple[int, ...]:
    """Product of the transpositions named by ``word``, degree n.

    >>> apply_word((4, 2, 3, 1, 2), 5)
    (3, 5, 1, 2, 4)
    >>> apply_word((3, 2, 1, 2, 3), 4)
    (4, 2, 3, 1)
    """
    if n < 1:
        raise DomainError("degree must be at least 1")
    w = tuple(range(1, n + 1))
    for a in word:
        w = apply_transposition(w, a)
    return w


def enumerate_reduced_words(w: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """All reduced words of w in lexicographic order, by peeling descents.

    Every reduced word of w ends in a descent position i, and chopping
    that letter leaves a reduced word of w t_i.  The memo holds the words
    of every permutation below w in the weak order, so its letters grow
    far faster than the move graph's.

    >>> enumerate_reduced_words((3, 5, 1, 2, 4))[0]
    (2, 1, 4, 3, 2)
    >>> len(enumerate_reduced_words((4, 2, 3, 1)))
    6
    """
    memo: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def words(u: tuple[int, ...]) -> list[tuple[int, ...]]:
        if u not in memo:
            out = [word + (i,) for i in descents(u) for word in words(apply_transposition(u, i))]
            memo[u] = out or [()]
        return memo[u]

    return tuple(sorted(words(check_permutation(w))))
