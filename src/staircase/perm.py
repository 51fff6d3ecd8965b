"""Permutations in one-line notation and their reduced words.

A permutation of degree n is a tuple holding a rearrangement of
(1, ..., n).  Multiplication by the adjacent transposition t_i swaps the
entries in positions i and i+1 (positions are 1-based), so a word
(a_1, ..., a_r) acts on the identity left to right:

>>> apply_word((3, 2, 1, 2, 3), 4)
(4, 2, 3, 1)

A word for w is reduced when its letter count equals the inversion
number of w.  ``enumerate_reduced_words`` peels descents: every reduced
word of w ends in a descent position i, and chopping that letter leaves
a reduced word of w t_i.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import DomainError, MalformedPermutationError, ResourceLimitError

Word = tuple[int, ...]

# Reduced-word enumeration is exponential in the degree; refuse silly
# inputs unless the caller raises the cap explicitly.
DEFAULT_MAX_DEGREE = 12


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
    out = list(w)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def apply_word(word: Sequence[int], n: int) -> tuple[int, ...]:
    """Product of the transpositions named by ``word``, degree n.

    >>> apply_word((4, 2, 3, 1, 2), 5)
    (3, 5, 1, 2, 4)
    """
    if n < 1:
        raise DomainError("degree must be at least 1")
    w = tuple(range(1, n + 1))
    for a in word:
        w = apply_transposition(w, a)
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
    w: Sequence[int], max_degree: int = DEFAULT_MAX_DEGREE
) -> tuple[Word, ...]:
    """All reduced words of w, sorted lexicographically.

    >>> enumerate_reduced_words((3, 5, 1, 2, 4))[0]
    (2, 1, 4, 3, 2)
    >>> len(enumerate_reduced_words((4, 2, 3, 1)))
    6
    """
    w = check_permutation(w)
    if len(w) > max_degree:
        raise ResourceLimitError(
            f"degree {len(w)} exceeds the cap {max_degree}; pass max_degree to raise it"
        )
    return tuple(sorted(_words_of(w, {})))


def _words_of(
    u: tuple[int, ...], cache: dict[tuple[int, ...], tuple[Word, ...]]
) -> tuple[Word, ...]:
    # A module-level function with the cache passed in, not a recursive
    # closure: a closure that calls itself is a reference cycle, so its
    # cache would live until the cyclic collector happened to run.
    got = cache.get(u)
    if got is not None:
        return got
    ds = [i + 1 for i in range(len(u) - 1) if u[i] > u[i + 1]]
    if not ds:
        out: tuple[Word, ...] = ((),)
    else:
        acc = []
        for i in ds:
            shorter = list(u)
            shorter[i - 1], shorter[i] = shorter[i], shorter[i - 1]
            for word in _words_of(tuple(shorter), cache):
                acc.append(word + (i,))
        out = tuple(acc)
    cache[u] = out
    return out


def word_to_str(word: Sequence[int]) -> str:
    """Compact form: digits run together while they stay single-digit.

    >>> word_to_str((4, 2, 3, 1, 2))
    '42312'
    """
    if word and max(word) > 9:
        return ",".join(str(a) for a in word)
    return "".join(str(a) for a in word)
