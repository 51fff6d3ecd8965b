"""Pure-difference binomials x^u - x^v and their monomial arithmetic.

Exponent vectors are plain tuples of naturals, ordered by grevlex
with variable 0 largest, the only monomial order.  Their arithmetic is
one ``map`` over an ``operator`` function or a builtin per call, so
it runs in C, not in a generator expression.  Coefficients are
always +1 and -1; the rewriting helpers check the invariants that
keep it that way at every step (oriented divisors, strictly
decreasing rewrites) and abort rather than silently leave the
binomial world.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, le, sub

from .errors import DomainError

Expo = tuple[int, ...]


def expo_lcm(a: Expo, b: Expo) -> Expo:
    return tuple(map(max, a, b))


def divides(a: Expo, b: Expo) -> bool:
    """True when monomial a divides monomial b."""
    return all(map(le, a, b))


def grevlex_greater(a: Expo, b: Expo) -> bool:
    """Graded reverse lexicographic order with variable 0 largest."""
    da, db = sum(a), sum(b)
    if da != db:
        return da > db
    for i in range(len(a) - 1, -1, -1):
        d = a[i] - b[i]
        if d:
            return d < 0
    return False


@dataclass(frozen=True)
class Binomial:
    """The difference x^u - x^v of two distinct monomials.

    Kernel relations and Graver elements always come with disjoint
    supports; intermediate Groebner elements may legitimately carry a
    common factor, and cancelling it there would change the ideal, so
    the sides keep it:

    >>> Binomial((2, 1, 0), (0, 2, 1))
    Binomial(u=(2, 1, 0), v=(0, 2, 1))
    """

    u: Expo
    v: Expo

    def __post_init__(self) -> None:
        u, v = tuple(self.u), tuple(self.v)
        if len(u) != len(v):
            raise DomainError(f"side lengths differ: {len(u)} vs {len(v)}")
        if min(u + v, default=0) < 0:
            raise DomainError("exponents must be naturals")
        if u == v:
            raise DomainError("the zero binomial is not representable")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

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

    def flipped(self) -> Binomial:
        return Binomial(self.v, self.u)

    def oriented(self) -> Binomial:
        """The same binomial up to sign, with the grevlex-larger side first."""
        return self if grevlex_greater(self.u, self.v) else self.flipped()

    def same_up_to_sign(self, other: Binomial) -> bool:
        return (self.u, self.v) in ((other.u, other.v), (other.v, other.u))

    def format(self, names: list[str] | None = None) -> str:
        ns = names if names is not None else [f"x{i}" for i in range(self.nvars)]
        return f"{format_monomial(self.u, ns)} - {format_monomial(self.v, ns)}"


def format_monomial(e: Expo, names: list[str]) -> str:
    if not any(e):
        return "1"
    parts = []
    for x, name in zip(e, names):
        if x == 1:
            parts.append(name)
        elif x > 1:
            parts.append(f"{name}^{x}")
    return "*".join(parts)


def reduce_monomial(m: Expo, basis: list[Binomial] | tuple[Binomial, ...]) -> Expo:
    """Rewrite x^m by lead -> trail until no lead divides; returns the rest.

    Each basis element must be oriented.  Every step replaces a
    monomial by a strictly smaller monomial, which is what keeps the
    arithmetic inside single monomials; a step that fails to decrease
    aborts because it would break termination and binomiality.  Each
    step scans the basis in order for the first lead that divides, one
    C-level comparison per element, with no helper call.
    """
    current = m
    changed = True
    while changed:
        changed = False
        for g in basis:
            if all(map(le, g.u, current)):  # divides(g.u, current), inlined
                nxt = tuple(map(add, map(sub, current, g.u), g.v))
                if not grevlex_greater(current, nxt):
                    raise RuntimeError(
                        f"rewriting {current} -> {nxt} does not decrease; "
                        "basis element not oriented?"
                    )
                current = nxt
                changed = True
                break
    return current

