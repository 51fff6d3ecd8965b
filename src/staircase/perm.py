"""Permutations in one-line notation and the words that spell them.

A permutation of degree n is a tuple holding a rearrangement of
(1, ..., n).  Multiplication by the adjacent transposition t_i swaps the
entries in positions i and i+1 (positions are 1-based), so a word
(a_1, ..., a_r) acts on the identity left to right.  A word for w is
reduced when its letter count equals the inversion number of w; the
word 32123 is one of the six for (4, 2, 3, 1).  ``rwgraph`` finds them
all, as the vertices of the move graph:

>>> from staircase.rwgraph import build_word_graph
>>> (3, 2, 1, 2, 3) in build_word_graph((4, 2, 3, 1)).words
True
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import DomainError, MalformedPermutationError

Word = tuple[int, ...]


def check_permutation(seq: Sequence[int]) -> tuple[int, ...]:
    """Validate one-line notation, returning it as a tuple.

    >>> check_permutation([2, 1, 3])
    (2, 1, 3)
    >>> check_permutation([1, 1, 2])
    Traceback (most recent call last):
        ...
    staircase.errors.MalformedPermutationError: not a rearrangement of 1..3: (1, 1, 2)
    """
    w = tuple(seq)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise MalformedPermutationError(f"not a rearrangement of 1..{len(w)}: {w}")
    return w


def staircase_permutation(r: int) -> tuple[int, ...]:
    """The degree-r permutation (2, 3, ..., r-3, r, r-2, r-1, 1).

    Its reduced words are counted by the binomial C(r, 2), which is why
    this family indexes the staircase graphs elsewhere in the package.

    >>> staircase_permutation(4)
    (4, 2, 3, 1)
    >>> staircase_permutation(6)
    (2, 3, 6, 4, 5, 1)
    """
    if r < 4:
        raise DomainError(f"family starts at degree 4, got {r}")
    return check_permutation(tuple(range(2, r - 2)) + (r, r - 2, r - 1, 1))


def word_to_str(word: Sequence[int]) -> str:
    """Compact form: digits run together while they stay single-digit.

    >>> word_to_str((4, 2, 3, 1, 2))
    '42312'
    """
    if word and max(word) > 9:
        return ",".join(str(a) for a in word)
    return "".join(str(a) for a in word)
