"""Integer partitions, staircase shapes, and their diagonal structure.

Ferrers diagrams use the convention with the longest row at the bottom:
cell (a, b) sits in column a of row b, both 0-based, rows numbered from
the bottom, so row b holds parts[b] cells.  For the staircase
(l, l-1, ..., 1) the cells are exactly {(a, b) : a + b <= l - 1} and the
anti-diagonal a + b = d holds l - d cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .poly import IntPolynomial
from .report import Report, check


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        for i, p in enumerate(self.parts):
            if p < 1:
                raise DomainError(f"parts must be positive, got {p}")
            if i and self.parts[i - 1] < p:
                raise DomainError(f"parts must weakly decrease, got {self.parts}")

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


def triangular_gf_report() -> Report:
    """Coefficients of z / (1 - z)^3 against the triangular numbers, z^0..z^10.

    Index 0 is included but flagged degenerate: the series and the
    closed form both vanish there, so it carries no information.
    """
    upto = 10
    coeffs = IntPolynomial.variable().series_prefix(3, upto)

    rep = Report(f"triangular generating function through index {upto}")
    for r in range(upto + 1):
        note = "degenerate index" if r == 0 else ""
        rep.add(check(f"coefficient of z^{r}", coeffs[r], r * (r + 1) // 2, note=note))
    return rep
