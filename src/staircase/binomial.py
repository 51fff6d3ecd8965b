"""Pure-difference binomials x^u - x^v and packed exponent words.

``Binomial`` keeps its exponent vectors as plain tuples of naturals,
which the engines read only at entry and exit.  They work on ``Words``
instead: one int per monomial, one field per variable, variable 0 in
the most significant field, so comparing words as ints compares their
vectors lexicographically.  ``Words.grevlex_greater``, grevlex with
variable 0 largest, is the only monomial order.  Fields are whole bytes
whose top bit is a guard that stays zero, and a call takes the fewest
bytes that hold its largest value below the guard; divisibility, lcm,
support and the reverse-lex tie-break are then a few integer operations
on the whole word.  Coefficients are always +1 and -1;
``reduce_monomial`` checks the invariants that keep it that way at
every step (strictly decreasing rewrites, no field past its guard) and
aborts rather than silently leave the binomial world.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError

Expo = tuple[int, ...]
Pair = tuple[int, int, int, int]  # lead word, trail word, their degrees


class Words:
    """Exponent vectors of ``nvars`` variables packed into ints.

    Each field is ``width`` bits, a multiple of 8, and holds values
    below 2^(width-1); the bit above them is its guard.  With G the
    word of all guards, a divides b exactly when ((b | G) - a) & G is
    G: each field subtracts on its own, and keeps its guard only when
    it does not borrow.

    >>> w = Words.holding(3, 5)
    >>> a, b = w.pack((1, 0, 2)), w.pack((0, 3, 1))
    >>> hex(a), w.width, w.unpack(w.lcm(a, b)), w.divides(a, w.lcm(a, b))
    ('0x10002', 8, (1, 3, 2), True)
    """

    __slots__ = ("nvars", "width", "ones", "guards")

    def __init__(self, nvars: int, width: int) -> None:
        self.nvars, self.width = nvars, width
        self.ones = ((1 << width * nvars) - 1) // ((1 << width) - 1)  # lowest bit of each field
        self.guards = self.ones << width - 1

    @classmethod
    def holding(cls, nvars: int, top: int) -> Words:
        """The narrowest byte fields whose values reach ``top``."""
        return cls(nvars, 8 * (top.bit_length() // 8 + 1))

    def pack(self, e: Expo) -> int:
        k = self.width // 8
        raw = bytes(e) if k == 1 else b"".join(x.to_bytes(k, "big") for x in e)
        return int.from_bytes(raw, "big")

    def unpack(self, w: int) -> Expo:
        k = self.width // 8
        raw = w.to_bytes(k * self.nvars, "big")
        if k == 1:
            return tuple(raw)
        return tuple(int.from_bytes(raw[i : i + k], "big") for i in range(0, len(raw), k))

    def degree(self, w: int) -> int:
        return sum(w.to_bytes(self.nvars, "big") if self.width == 8 else self.unpack(w))

    def divides(self, a: int, b: int) -> bool:
        g = self.guards
        return ((b | g) - a) & g == g

    def lcm(self, a: int, b: int) -> int:
        # keep: the guards of the fields where b >= a; pick spreads them below
        keep = ((b | self.guards) - a) & self.guards
        pick = keep - (keep >> self.width - 1)
        return b & pick | a & ~pick

    def support(self, w: int) -> int:
        """The lowest bit of each nonzero field."""
        return (((w | self.guards) - self.ones) & self.guards) >> self.width - 1

    def oriented(self, u: int, du: int, v: int, dv: int) -> Pair:
        """x^u - x^v, of side degrees du and dv, up to sign as a Pair."""
        return (u, v, du, dv) if self.grevlex_greater(u, du, v, dv) else (v, u, dv, du)

    def pack_binomial(self, g: Binomial) -> Pair:
        return self.oriented(self.pack(g.u), sum(g.u), self.pack(g.v), sum(g.v))

    def grevlex_greater(self, a: int, da: int, b: int, db: int) -> bool:
        """Whether a, of degree da, is grevlex-greater than b, of degree db.

        At equal degrees the lowest differing field decides, the smaller
        value winning; below it the words agree, so comparing the words
        cut after that field compares it.
        """
        if da != db:
            return da > db
        diff = a ^ b
        fields = ((diff & -diff).bit_length() - 1) // self.width + 1  # 0 if a == b
        cut = (1 << fields * self.width) - 1
        return a & cut < b & cut


def reduce_monomial(m: int, d: int, basis: list[Pair], words: Words) -> tuple[int, int]:
    """Rewrite the word m, of degree d, by lead -> trail until no lead divides.

    ``basis`` holds oriented binomials as Pairs of ``words``; returns
    the last word and its degree.  Each step scans the basis in order
    for the first lead that divides and replaces the monomial by a
    strictly smaller one, which is what keeps the arithmetic inside
    single monomials: a step that fails to decrease raises
    RuntimeError, since it would break termination and binomiality.  A
    step that sets a guard bit raises OverflowError; the caller retries
    with wider fields.
    """
    guards = words.guards
    while True:
        mg = m | guards
        for u, v, du, dv in basis:
            if (mg - u) & guards == guards:  # words.divides(u, m), inlined
                break
        else:
            return m, d
        n, nd = m - u + v, d - du + dv
        if n & guards:
            raise OverflowError(f"an exponent of {words.unpack(m)} outgrows its field")
        if nd >= d and not words.grevlex_greater(m, d, n, nd):
            raise RuntimeError(
                f"rewriting {words.unpack(m)} -> {words.unpack(n)} does not "
                "decrease; basis element not oriented?"
            )
        m, d = n, nd


class Binomial(namedtuple("Binomial", "u v")):
    """The difference x^u - x^v of two distinct monomials.

    Kernel relations and Graver elements always come with disjoint
    supports; intermediate Groebner elements may legitimately carry a
    common factor, and cancelling it there would change the ideal, so
    the sides keep it:

    >>> Binomial((2, 1, 0), (0, 2, 1))
    Binomial(u=(2, 1, 0), v=(0, 2, 1))
    """

    __slots__ = ()

    def __new__(cls, u: Expo, v: Expo) -> Binomial:
        u, v = tuple(u), tuple(v)
        if len(u) != len(v):
            raise DomainError(f"side lengths differ: {len(u)} vs {len(v)}")
        if min(u + v, default=0) < 0:
            raise DomainError("exponents must be naturals")
        if u == v:
            raise DomainError("the zero binomial is not representable")
        return tuple.__new__(cls, (u, v))

    @classmethod
    def _make(cls, fields) -> Binomial:
        return cls(*fields)  # _replace too, through the checks above

    @property
    def nvars(self) -> int:
        return len(self.u)

    def in_kernel(self, weights: tuple[int, ...] | list[int]) -> bool:
        """Whether the binomial vanishes under x_i -> t^(weights[i]).

        >>> Binomial((1, 0, 1, 0, 1, 0, 0), (0,) * 5 + (1, 0)).in_kernel(
        ...     (1, 2, 3, 4, 5, 9, 6))
        True
        """
        if len(weights) != self.nvars:
            raise DomainError(
                f"{len(weights)} weights for {self.nvars} variables"
            )
        return sum(e * w for e, w in zip(self.u, weights)) == sum(
            e * w for e, w in zip(self.v, weights)
        )

    def format(self, names: list[str] | None = None) -> str:
        ns = names if names is not None else [f"x{i}" for i in range(self.nvars)]
        return f"{format_monomial(self.u, ns)} - {format_monomial(self.v, ns)}"


def format_monomial(e: Expo, names: list[str]) -> str:
    return "*".join([n if x == 1 else f"{n}^{x}" for n, x in zip(names, e) if x]) or "1"
