"""Partition identities between bounded multisets, and their primitivity.

An identity is two multisets of positive integers with equal sums.  A
subidentity keeps a nonempty part of each side, again with equal sums;
"proper" here means: nonempty on both sides and not the whole identity.
Primitive identities admit no proper subidentity.  With at most two right
parts, as in 1 + ... + l = mu + kappa, a proper subidentity keeps exactly
one: keeping both would force the whole left side.  So it is a sub-multiset
of the left side summing to one right part, and primitive, since one part
has no proper sub-sum; a 0/1 knapsack counts them in O(l * mu).  The
degree-truncated Graver enumeration at the bottom realizes primitive
weight relations as binomials with disjoint supports.  It runs on packed
``Words`` exponent words.  ``graver_table`` unpacks and checks each
distinct side of its result once, and both ``graver_basis`` and the
identities report read their output from that one table.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from itertools import combinations

from .binomial import Binomial, Expo, Words
from .chroma import colour_separation
from .errors import DomainError, InvalidIdentityError, ResourceLimitError

MAX_GRAVER_STATES = 200_000
GraverTable = tuple[list[tuple[int, int]], dict[int, Expo]]  # (u, v) word pairs, word -> vector


class PartitionIdentity(namedtuple("PartitionIdentity", "lhs rhs bound")):
    """Two equal-sum multisets of parts in 1..bound, stored descending."""

    __slots__ = ()

    def __new__(cls, lhs, rhs, bound: int) -> PartitionIdentity:
        lhs = tuple(sorted(lhs, reverse=True))
        rhs = tuple(sorted(rhs, reverse=True))
        if not lhs or not rhs:
            raise DomainError("both sides must be nonempty")
        for part in lhs + rhs:
            if not isinstance(part, int) or part < 1:
                raise DomainError(f"parts must be positive integers, got {part!r}")
            if part > bound:
                raise DomainError(f"part {part} exceeds the bound {bound}")
        if sum(lhs) != sum(rhs):
            raise InvalidIdentityError(
                f"side sums differ: {sum(lhs)} vs {sum(rhs)}"
            )
        return tuple.__new__(cls, (lhs, rhs, bound))

    @classmethod
    def _make(cls, fields) -> PartitionIdentity:
        return cls(*fields)

    def all_parts_distinct(self) -> bool:
        parts = self.lhs + self.rhs
        return len(set(parts)) == len(parts)

    def __str__(self) -> str:
        left = "+".join(str(p) for p in reversed(self.lhs))
        right = "+".join(str(p) for p in self.rhs)
        return f"{left} = {right}"


def is_primitive(ident: PartitionIdentity) -> bool:
    """No proper sub-sum of the left side is one of the right side.

    Parts are positive, so a subidentity keeping a whole side is whole.

    >>> is_primitive(PartitionIdentity((1, 3, 5), (9,), 9))
    True
    >>> is_primitive(PartitionIdentity((1, 2, 3, 4, 5), (9, 6), 9))
    False
    """
    return not _proper_sub_sums(ident.lhs) & _proper_sub_sums(ident.rhs)


def _right_parts(ident: PartitionIdentity) -> list[int]:
    """The right parts a proper subidentity keeps one of, increasing;
    a lone right part is kept only by the whole identity."""
    if len(ident.rhs) > 2:
        raise DomainError(f"need at most two right parts, got {len(ident.rhs)}")
    return sorted(set(ident.rhs)) if len(ident.rhs) == 2 else []


def primitive_subidentities(ident: PartitionIdentity) -> Iterator[PartitionIdentity]:
    """The primitive proper subidentities, lazily, ordered by (sum, lhs, rhs).

    >>> [str(s) for s in primitive_subidentities(
    ...     PartitionIdentity((1, 2, 3, 4, 5), (9, 6), 9))]
    ['1+2+3 = 6', '2+4 = 6', '1+5 = 6', '2+3+4 = 9', '1+3+5 = 9', '4+5 = 9']
    """
    rights = _right_parts(ident)
    parts = sorted(ident.lhs)
    reach = [1]  # bit s of reach[j]: a sub-multiset of parts[:j] sums to s
    for part in parts:
        reach.append(reach[-1] | reach[-1] << part)

    def summing_to(j: int, need: int) -> Iterator[tuple[int, ...]]:
        # parts[i] leads only as the last copy of its value below j, so
        # each sub-multiset comes once, and in increasing order
        if need == 0:
            yield ()
        for i in range(j):
            rest = need - parts[i]
            last = i + 1 == j or parts[i + 1] != parts[i]
            if rest >= 0 and reach[i] >> rest & 1 and last:
                yield from ((parts[i],) + tail for tail in summing_to(i, rest))

    return (
        PartitionIdentity(lhs, (r,), ident.bound)
        for r in rights
        for lhs in summing_to(len(parts), r)
    )


def primitive_subidentity_count(ident: PartitionIdentity) -> int:
    """How many primitive_subidentities yields, by a knapsack count.

    >>> primitive_subidentity_count(PartitionIdentity((1, 2, 3, 4, 5), (9, 6), 9))
    6
    >>> primitive_subidentity_count(PartitionIdentity((2, 2, 4), (4, 4), 4))
    2
    """
    rights = _right_parts(ident)
    ways = [1] + [0] * max(rights, default=0)  # sub-multisets by sum
    for value, count in Counter(ident.lhs).items():
        prev = ways
        for shift in range(value, value * count + 1, value):
            ways = ways[:shift] + [a + b for a, b in zip(ways[shift:], prev)]
    return sum(ways[r] for r in rights)


def colour_separation_identity(ell: int) -> PartitionIdentity:
    """The identity 1 + 2 + ... + ell = mu + kappa of the staircase of
    length ell.

    Needs length at least 5: below that the class sizes collide with
    the small parts and the all-parts-distinct property fails.

    >>> str(colour_separation_identity(5))
    '1+2+3+4+5 = 9+6'
    """
    if ell < 5:
        raise DomainError(f"distinct-parts hypothesis needs length >= 5, got {ell}")
    sep = colour_separation(ell)
    return PartitionIdentity(tuple(range(ell, 0, -1)), (sep.mu, sep.kappa), sep.mu)


def parity_split(ell: int) -> tuple[PartitionIdentity, PartitionIdentity]:
    """The two one-sided subidentities given by part parity, at length ell.

    Parts sharing the parity of the length sum to mu, the others to
    kappa; these are the layer-size groupings behind the separation.

    >>> [str(s) for s in parity_split(6)]
    ['2+4+6 = 12', '1+3+5 = 9']
    """
    ident = colour_separation_identity(ell)
    # lhs is l, l-1, ..., 1 and rhs (mu, kappa): the parities alternate
    return tuple(
        PartitionIdentity(ident.lhs[i::2], (r,), ident.bound)
        for i, r in enumerate(ident.rhs)
    )


def graver_basis(weights, degree_bound: int) -> tuple[Binomial, ...]:
    """Primitive weight relations up to a total-degree bound, as the
    records of ``graver_table``.

    >>> [b.format() for b in graver_basis((1, 2), 2)]
    ['x0^2 - x1']
    """
    return _records(*graver_table(weights, degree_bound))


def graver_table(weights, degree_bound: int) -> GraverTable:
    """The primitive relations as sorted (u, v) pairs of packed words,
    and the table of each word's checked exponent vector.

    Enumerates all pairs of disjoint-support monomials of equal weight
    and degree at most ``degree_bound`` and keeps the ones with no
    componentwise-smaller relation.  Every relation a sub-solution could
    witness has smaller degree, so truncation does not lose primitivity
    verdicts inside the bound.

    MAX_GRAVER_STATES bounds the monomials plus the pairs enumerated;
    its ResourceLimitError carries the primitive relations found so
    far as sorted binomials.  A candidate u - v is primitive when no
    proper divisor of x^u has the weight of a proper divisor of x^v.
    Each monomial is a packed ``Words`` word and carries its support and
    its divisor weights as bitmasks, all built from its parent's with a
    few integer operations, so each equal-weight pair costs two ANDs:
    one for disjoint supports, one for primitivity.  Each distinct side
    enters the table once and passes the checks of ``Binomial``.
    """
    ws = tuple(weights)
    if not ws:
        raise DomainError("need at least one weight")
    if any(not isinstance(w, int) or w < 1 for w in ws):
        raise DomainError(f"weights must be positive integers, got {ws}")
    if len(set(ws)) != len(ws):
        raise DomainError(f"weights must be distinct, got {ws}")
    if degree_bound < 1:
        raise DomainError(f"degree bound must be positive, got {degree_bound}")

    # Each monomial carries its word, degree, weight, support bits and the
    # weights of its divisors as a bitmask, all from its parent's in one
    # step: the divisors of x^(e + e_i) are those of x^e and x_i times them.
    # A monomial is extended only at its last variable or later, so each
    # is reached once, from itself less one power of its last variable.
    n = len(ws)
    words = Words.holding(n, degree_bound)
    units = [1 << words.width * k for k in reversed(range(n))]
    states = 0
    by_weight: dict[int, list[tuple[int, int, int, int]]] = {}
    frontier = [(0, 0, 0, 0, 1)]
    for e, degree, weight, support, divisors in frontier:
        if degree >= degree_bound:
            continue
        for i in range(max(support.bit_length() - 1, 0), n):
            w = ws[i]
            nxt = e + units[i]
            states += 1
            if states > MAX_GRAVER_STATES:
                raise ResourceLimitError(states, MAX_GRAVER_STATES, "Graver states", ())
            wt, bits, divs = weight + w, support | 1 << i, divisors | divisors << w
            frontier.append((nxt, degree + 1, wt, bits, divs))
            # the proper divisors are all but 1 and x^nxt itself
            by_weight.setdefault(wt, []).append((nxt, degree + 1, bits, divs & ~(1 | 1 << wt)))

    # The weights are positive, so a relation a - b with a | u and b | v
    # other than u - v itself has a and b proper divisors.  Such a pair
    # keeps the disjoint supports and the degree bound, so it is itself a
    # candidate: this is the dominance test over all candidates.  Words
    # compare as their vectors do lexicographically, so a > b is on vectors.
    primitive: list[tuple[int, int, int]] = []
    for _, group in sorted(by_weight.items()):
        for (a, da, sa, pa), (b, db, sb, pb) in combinations(group, 2):
            states += 1
            if states > MAX_GRAVER_STATES:
                raise ResourceLimitError(
                    states, MAX_GRAVER_STATES, "Graver states",
                    _canonical_graver(primitive, words),
                )
            if not sa & sb and not pa & pb:
                primitive.append((max(da, db), a, b) if a > b else (max(da, db), b, a))
    return _checked_table(primitive, words)


def _proper_sub_sums(parts: tuple[int, ...]) -> int:
    """Sums of the sub-multisets of parts other than the empty one and
    the whole, as a bitmask: bit s is set when one of them sums to s."""
    mask = 1
    for part in parts:
        mask |= mask << part
    return mask & ~(1 | 1 << sum(parts))


def _checked_table(relations: list[tuple[int, int, int]], words: Words) -> GraverTable:
    """The relations (degree, u, v) of packed words as (u, v) pairs, by
    degree, then u, then v, and the table of their unpacked sides.

    The checks of ``Binomial(u, v)`` run in bulk: each distinct side is
    unpacked and checked once, and each relation's sides are compared
    as words, which are equal exactly when their vectors are.
    """
    _, us, vs = zip(*sorted(relations)) if relations else [()] * 3
    sides = dict(zip(distinct := {*us, *vs}, map(words.unpack, distinct)))
    if lengths := set(map(len, sides.values())) - {words.nvars}:
        raise DomainError(f"side lengths differ: {lengths.pop()} vs {words.nvars}")
    if min(map(min, sides.values()), default=0) < 0:
        raise DomainError("exponents must be naturals")
    if any(map(int.__eq__, us, vs)):
        raise DomainError("the zero binomial is not representable")
    return list(zip(us, vs)), sides


def _records(pairs, sides) -> tuple[Binomial, ...]:
    """The pairs of a checked table as ``Binomial`` records."""
    return tuple([tuple.__new__(Binomial, (sides[u], sides[v])) for u, v in pairs])


def _canonical_graver(
    relations: list[tuple[int, int, int]], words: Words
) -> tuple[Binomial, ...]:
    """The relations (degree, u, v) of packed words as sorted binomials."""
    return _records(*_checked_table(relations, words))
