"""Integer partitions, staircase shapes, and their diagonal structure.

Ferrers diagrams use the convention with the longest row at the bottom:
cell (a, b) sits in column a of row b, both 0-based, rows numbered from
the bottom, so row b holds parts[b] cells.  For the staircase
(l, l-1, ..., 1) the cells are exactly {(a, b) : a + b <= l - 1} and the
anti-diagonal a + b = d holds l - d cells.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError


class Partition(namedtuple("Partition", "parts")):
    """A weakly decreasing tuple of positive parts."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]) -> Partition:
        for i, p in enumerate(parts):
            if p < 1:
                raise DomainError(f"parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise DomainError(f"parts must weakly decrease, got {parts}")
        return tuple.__new__(cls, (parts,))

    @classmethod
    def _make(cls, fields) -> Partition:
        return cls(*fields)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def contains_cell(self, a: int, b: int) -> bool:
        return 0 <= b < len(self.parts) and 0 <= a < self.parts[b]

    def transpose(self) -> Partition:
        """Column lengths of the diagram, largest first."""
        if not self.parts:
            return self
        return Partition(
            tuple(
                sum(1 for p in self.parts if p > a) for a in range(self.parts[0])
            )
        )

    def is_self_conjugate(self) -> bool:
        return self.transpose() == self

    def hook_length(self, a: int, b: int) -> int:
        """Arm plus leg plus one for the cell (a, b)."""
        if not self.contains_cell(a, b):
            raise DomainError(f"cell ({a}, {b}) not in {self.parts}")
        arm = self.parts[b] - 1 - a
        leg = sum(1 for b2 in range(b + 1, len(self.parts)) if self.parts[b2] > a)
        return arm + leg + 1


def staircase(ell: int) -> Partition:
    """The partition (ell, ell-1, ..., 1)."""
    if ell < 1:
        raise DomainError(f"staircase index must be positive, got {ell}")
    return Partition(tuple(range(ell, 0, -1)))


def is_staircase(p: Partition) -> bool:
    return p == staircase(p.length) if p.parts else False


def distinct_odd_parts(p: Partition) -> Partition:
    """Diagonal hook lengths of a self-conjugate partition.

    Self-conjugacy makes every diagonal hook odd and strictly
    decreasing down the diagonal, so the result is a partition into
    distinct odd parts of the same total size.

    >>> distinct_odd_parts(staircase(5)).parts
    (9, 5, 1)
    >>> distinct_odd_parts(staircase(6)).parts
    (11, 7, 3)
    """
    if not p.is_self_conjugate():
        raise DomainError(f"{p.parts} is not self-conjugate")
    hooks = []
    i = 0
    while p.contains_cell(i, i):
        hooks.append(p.hook_length(i, i))
        i += 1
    return Partition(tuple(hooks))
