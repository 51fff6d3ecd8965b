"""Dense univariate polynomials over the integers.

Coefficients are arbitrary-precision Python ints, stored constant term
first with no trailing zeros.  Everything downstream that needs exact
polynomial arithmetic (chromatic polynomials, layer generating
polynomials, Hilbert numerators) goes through this class; floats never
enter.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class IntPolynomial:
    """An integer polynomial in one variable.

    >>> p = IntPolynomial([0, -3, 6, -4, 1])
    >>> p.format()
    'k^4 - 4k^3 + 6k^2 - 3k'
    >>> p(1), p(2), p(3)
    (0, 2, 18)
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients only, got {c!r}")
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def constant(cls, c: int) -> IntPolynomial:
        return cls([c])

    @classmethod
    def variable(cls) -> IntPolynomial:
        return cls([0, 1])

    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.coeffs == IntPolynomial([other]).coeffs
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: IntPolynomial | int) -> IntPolynomial:
        o = _coerce(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return IntPolynomial(
            [self[i] + o[i] for i in range(n)]
        )

    __radd__ = __add__

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: IntPolynomial | int) -> IntPolynomial:
        return self + (-_coerce(other))

    def __rsub__(self, other: int) -> IntPolynomial:
        return _coerce(other) - self

    def __mul__(self, other: IntPolynomial | int) -> IntPolynomial:
        return IntPolynomial(coefficient_product(self.coeffs, _coerce(other).coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPolynomial:
        if n < 0:
            raise ValueError("negative power")
        result = IntPolynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def series_prefix(self, nvars: int, upto: int) -> tuple[int, ...]:
        """Coefficients 0..upto of self / (1-x)^nvars as a power series."""
        cur = list(self.coeffs[: upto + 1]) + [0] * max(0, upto + 1 - len(self.coeffs))
        for _ in range(nvars):
            for i in range(1, upto + 1):
                cur[i] += cur[i - 1]
        return tuple(cur)

    def format(self, var: str = "k") -> str:
        """Human-readable form, highest power first."""
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                x = var if i == 1 else f"{var}^{i}"
                term = x if mag == 1 else f"{mag}{x}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f" {sign} {term}")
        return "".join(parts)

    def to_json(self) -> list[int]:
        """Coefficient list, constant term first."""
        return list(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"


def coefficient_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of the product of two polynomials, each given
    constant term first; the empty list is the zero polynomial."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _coerce(x: IntPolynomial | int) -> IntPolynomial:
    if isinstance(x, IntPolynomial):
        return x
    if isinstance(x, int):
        return IntPolynomial([x])
    raise TypeError(f"cannot treat {x!r} as a polynomial")
