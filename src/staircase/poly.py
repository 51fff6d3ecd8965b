"""Dense univariate polynomials over the integers, and their packed form.

Coefficients are arbitrary-precision Python ints, stored constant term
first with no trailing zeros.  Every exact polynomial result (chromatic
polynomials, layer generating polynomials, Hilbert numerators) ends up
in this class; floats never enter.

The engines compute on the packed form instead, one int per polynomial
(Kronecker substitution; Harvey, J. Symb. Comput. 44, 2009): p packs
to p(2^B), B a multiple of 8.  Evaluation at 2^B is a ring map, so sums,
shifts by t^e and products of packed ints are the packed sums, shifts
and products, and a caller needs a bound only on the coefficients it
reads back.  Those come back as the signed base-2^B digits of the int,
which are the coefficients exactly when each lies strictly inside
+-2^(B-1); ``field_bits`` gives the narrowest such B for the bit
length of a bound.  Each field holds its coefficient plus the offset
2^(B-1), so ``pack`` and ``unpack`` are one byte string each way, in
time linear in the size.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import ResourceLimitError

MAX_PRODUCT_BITS = 4_000_000  # bits of one packed coefficient product


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
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"integer coefficients only, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

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
        """p^n as one packed int power.

        No coefficient of p^n exceeds l1(p)^n < 2^(n * bit_length(l1(p)))
        in absolute value, which fixes the field width; a power of more
        than ``MAX_PRODUCT_BITS`` packed bits raises ResourceLimitError
        before it is taken.

        >>> (IntPolynomial([-1, 1]) ** 3).format()
        'k^3 - 3k^2 + 3k - 1'
        """
        if n < 0:
            raise ValueError("negative power")
        if not n:
            return IntPolynomial([1])
        bits = _product_bits(n * self.degree() + 1, n * _l1(self.coeffs).bit_length())
        return IntPolynomial(unpack(pack(self.coeffs, bits) ** n, bits))

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
    constant term first; the empty list is the zero polynomial.

    One int product of the packed factors: no product coefficient
    exceeds l1(a)*l1(b) in absolute value, which fixes the field width,
    and a product of more than ``MAX_PRODUCT_BITS`` packed bits raises
    ResourceLimitError before it is multiplied.

    >>> coefficient_product([1, 1], [-1, 1, 0])
    [-1, 0, 1, 0]
    """
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    bits = _product_bits(n, (_l1(a) * _l1(b)).bit_length())
    out = unpack(pack(a, bits) * pack(b, bits), bits)
    return out + [0] * (n - len(out))


def field_bits(bit_length: int) -> int:
    """The narrowest width, a multiple of 8, whose signed fields hold
    every integer of at most ``bit_length`` bits: 8k bits hold those of
    absolute value up to 2^(8k-1) - 1.

    >>> field_bits(7), field_bits(8)
    (8, 16)
    """
    return 8 * (bit_length // 8 + 1)


def _product_bits(fields: int, bit_length: int) -> int:
    """``field_bits(bit_length)``; a result of ``fields`` fields that wide
    past ``MAX_PRODUCT_BITS`` raises ResourceLimitError instead."""
    bits = field_bits(bit_length)
    if fields * bits > MAX_PRODUCT_BITS:
        raise ResourceLimitError(fields * bits, MAX_PRODUCT_BITS, "bits of a packed polynomial product")
    return bits


def _l1(coeffs: Sequence[int]) -> int:
    """The sum of absolute coefficients, taken as at least 1 so that
    fields wide enough for a product also hold its factors."""
    return max(sum(map(abs, coeffs)), 1)


def pack(coeffs: Sequence[int], bits: int) -> int:
    """The polynomial with these coefficients, constant first, at t = 2^bits.

    Each coefficient must lie strictly inside +-2^(bits-1).

    >>> pack([3, -1], 8), unpack(pack([3, -1], 8), 8)
    (-253, [3, -1])
    """
    k, half = bits // 8, 1 << bits - 1
    raw = b"".join((c + half).to_bytes(k, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _offsets(len(coeffs), k)


def unpack(value: int, bits: int) -> list[int]:
    """The coefficients, constant first and without trailing zeros, of the
    polynomial whose value at t = 2^bits is ``value``, when each of them
    lies strictly inside +-2^(bits-1).

    A last nonzero coefficient at t^(n-1) puts |value| between
    2^((n-1)*bits - 1) and 2^(n*bits), so bit_length // bits + 1 fields
    hold all of them.
    """
    k, half = bits // 8, 1 << bits - 1
    n = abs(value).bit_length() // bits + 1
    raw = (value + _offsets(n, k)).to_bytes(n * k, "little")
    out = [int.from_bytes(raw[i : i + k], "little") - half for i in range(0, n * k, k)]
    while out and not out[-1]:
        out.pop()
    return out


def _offsets(n: int, k: int) -> int:
    """2^(8k-1) in each of n fields of k bytes."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")


def _coerce(x: IntPolynomial | int) -> IntPolynomial:
    if isinstance(x, IntPolynomial):
        return x
    if isinstance(x, int):
        return IntPolynomial([x])
    raise TypeError(f"cannot treat {x!r} as a polynomial")
