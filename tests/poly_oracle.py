"""The schoolbook polynomial product, for tests only.

It multiplies coefficient lists term by term, in len(a) x len(b) int
products, and shares no code with the packed product of
``staircase.poly``.
"""

from __future__ import annotations

from collections.abc import Sequence


def schoolbook_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of the product of two polynomials, each given
    constant term first; the empty list is the zero polynomial.

    >>> schoolbook_product([1, 1], [-1, 1, 0])
    [-1, 0, 1, 0]
    """
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out
