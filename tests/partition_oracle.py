"""Cell-level colouring of Ferrers diagrams, for tests only.

The checkerboard colours each cell by the parity of its coordinate
sum, so its two class sizes are the colour separation pair counted
cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from staircase.partition import Partition, staircase  # noqa: F401  (doctest)


@dataclass(frozen=True)
class Colouring:
    """A two-colouring of Ferrers cells by diagonal parity."""

    partition: Partition
    black: tuple[tuple[int, int], ...]
    red: tuple[tuple[int, int], ...]

    @property
    def black_count(self) -> int:
        return len(self.black)

    @property
    def red_count(self) -> int:
        return len(self.red)


def checkerboard(p: Partition) -> Colouring:
    """Colour each cell by the parity of a + b; the corner (0, 0) is black.

    >>> c = checkerboard(staircase(5))
    >>> c.black_count, c.red_count
    (9, 6)
    """
    cells = [(a, b) for b, row_len in enumerate(p.parts) for a in range(row_len)]
    black = tuple(c for c in cells if sum(c) % 2 == 0)
    red = tuple(c for c in cells if sum(c) % 2 == 1)
    return Colouring(p, black, red)
