"""Permutations in one-line notation and their reduced words.

A permutation of degree n is a tuple holding a rearrangement of
(1, ..., n).  Multiplication by the adjacent transposition t_i swaps the
entries in positions i and i+1 (positions are 1-based), so a word
(a_1, ..., a_r) acts on the identity left to right.  A word for w is
reduced when its letter count equals the inversion number of w; the
word 32123 is one of the six for (4, 2, 3, 1):

>>> (3, 2, 1, 2, 3) in enumerate_reduced_words((4, 2, 3, 1))
True

``enumerate_reduced_words`` peels descents: every reduced word of w
ends in a descent position i, and chopping that letter leaves a reduced
word of w t_i.  MAX_REDUCED_LETTERS caps the letters of the words stored
in one enumeration's memo or in one move graph (``rwgraph``), read at
call time.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import DomainError, MalformedPermutationError, ResourceLimitError

Word = tuple[int, ...]

MAX_REDUCED_LETTERS = 20_000_000  # letters stored by one enumeration or one move graph


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


def enumerate_reduced_words(
    w: Sequence[int], max_degree: int | None = None
) -> tuple[Word, ...]:
    """All reduced words of w in lexicographic order; ``max_degree`` caps w's entries.

    >>> enumerate_reduced_words((3, 5, 1, 2, 4))[0]
    (2, 1, 4, 3, 2)
    >>> len(enumerate_reduced_words((4, 2, 3, 1)))
    6
    """
    w = check_permutation(w)
    if max_degree is not None and len(w) > max_degree:
        raise ResourceLimitError(len(w), max_degree, "permutation entries")
    # An explicit stack, as its depth is the inversion number of w: a permutation
    # pushes its lower neighbours, then, once they are done, stores its words.
    memo: dict[tuple[int, ...], list[Word]] = {}
    pending: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    letters, stack = 0, [w]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
        elif u not in pending:
            below = pending[u] = [
                (i, u[: i - 1] + (u[i], u[i - 1]) + u[i + 1 :])
                for i in range(1, len(u)) if u[i - 1] > u[i]
            ]
            stack += [v for _, v in below if v not in memo]
        else:
            stack.pop()
            below = pending.pop(u)
            out = [word + (i,) for i, v in below for word in memo[v]] if below else [()]
            letters += len(out) * len(out[0])
            if letters > MAX_REDUCED_LETTERS:
                raise ResourceLimitError(letters, MAX_REDUCED_LETTERS, "stored reduced-word letters")
            memo[u] = out
    return tuple(sorted(memo[w]))


def word_to_str(word: Sequence[int]) -> str:
    """Compact form: digits run together while they stay single-digit.

    >>> word_to_str((4, 2, 3, 1, 2))
    '42312'
    """
    if word and max(word) > 9:
        return ",".join(str(a) for a in word)
    return "".join(str(a) for a in word)
