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
weight relations as binomials with disjoint supports.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations, islice

from .binomial import Binomial
from .chroma import colour_separation
from .errors import DomainError, InvalidIdentityError, ResourceLimitError
from .report import INVARIANT, Report, check

MAX_GRAVER_STATES = 200_000
WITNESS_NOTES = 100  # primitive subidentities a report lists by name


@dataclass(frozen=True)
class PartitionIdentity:
    """Two equal-sum multisets of parts in 1..bound, stored descending."""

    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    bound: int

    def __post_init__(self) -> None:
        lhs = tuple(sorted(self.lhs, reverse=True))
        rhs = tuple(sorted(self.rhs, reverse=True))
        if not lhs or not rhs:
            raise DomainError("both sides must be nonempty")
        for part in lhs + rhs:
            if not isinstance(part, int) or part < 1:
                raise DomainError(f"parts must be positive integers, got {part!r}")
            if part > self.bound:
                raise DomainError(f"part {part} exceeds the bound {self.bound}")
        if sum(lhs) != sum(rhs):
            raise InvalidIdentityError(
                f"side sums differ: {sum(lhs)} vs {sum(rhs)}"
            )
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

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


def subidentity_report(ell: int) -> Report:
    """Primitivity audit of the colour-separation identity at length ell."""
    ident = colour_separation_identity(ell)
    rep = Report(f"subidentities of {ident}")
    rep.note(
        "a proper subidentity keeps a nonempty part of each side and is "
        "not the whole identity"
    )
    splits = parity_split(ell)
    rep.add(check("all parts distinct", ident.all_parts_distinct(), True,
                  kind=INVARIANT))
    rep.add(check("identity is primitive", is_primitive(ident), False,
                  note="the parity splits always exist"))
    count = primitive_subidentity_count(ident)
    rep.add(check("primitive subidentity count", count, 2,
                  note="claimed count; a subset-sum knapsack counts every one"))
    # tested split by split: a split's largest part is near the length,
    # so from length 11 on it sorts after the listed witnesses
    found = [
        is_primitive(s) and not Counter(s.lhs) - Counter(ident.lhs)
        and not Counter(s.rhs) - Counter(ident.rhs) and s != ident
        for s in splits
    ]
    rep.add(check("parity splits among the primitive subidentities", all(found),
                  True, kind=INVARIANT))
    rep.add(check("subidentities equal to a parity split", sum(found), 2,
                  kind=INVARIANT))
    for sub in islice(primitive_subidentities(ident), WITNESS_NOTES):
        rep.note(f"primitive: {sub}")
    if count > WITNESS_NOTES:
        rep.note(f"and {count - WITNESS_NOTES} more")
    return rep


def graver_basis(weights, degree_bound: int) -> tuple[Binomial, ...]:
    """Primitive weight relations up to a total-degree bound.

    Enumerates all pairs of disjoint-support monomials of equal weight
    and degree at most ``degree_bound`` and keeps the ones with no
    componentwise-smaller relation.  Every relation a sub-solution could
    witness has smaller degree, so truncation does not lose primitivity
    verdicts inside the bound.

    MAX_GRAVER_STATES bounds the monomials plus the pairs enumerated;
    its ResourceLimitError carries the primitive relations found so
    far, canonically sorted.  A candidate u - v is primitive when no
    proper divisor of x^u has the weight of a proper divisor of x^v.
    Each monomial carries its support and its divisor weights as
    bitmasks, built from its parent's with a few integer operations, so
    each equal-weight pair costs two ANDs: one for disjoint supports,
    one for primitivity.

    >>> [b.format() for b in graver_basis((1, 2), 2)]
    ['x0^2 - x1']
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

    # Each monomial carries its degree, weight, support bits and the
    # weights of its divisors as a bitmask, all from its parent's in one
    # step: the divisors of x^(e + e_i) are those of x^e and x_i times them.
    # A monomial is extended only at its last variable or later, so each
    # is reached once, from itself less one power of its last variable.
    n = len(ws)
    states = 0
    by_weight: dict[int, list[tuple[tuple[int, ...], int, int]]] = {}
    frontier = [((0,) * n, 0, 0, 0, 1)]
    for e, degree, weight, support, divisors in frontier:
        if degree >= degree_bound:
            continue
        for i in range(max(support.bit_length() - 1, 0), n):
            w = ws[i]
            nxt = e[:i] + (e[i] + 1,) + e[i + 1 :]
            states += 1
            if states > MAX_GRAVER_STATES:
                raise ResourceLimitError(states, MAX_GRAVER_STATES, "Graver states", ())
            wt, bits, divs = weight + w, support | 1 << i, divisors | divisors << w
            frontier.append((nxt, degree + 1, wt, bits, divs))
            # the proper divisors are all but 1 and x^nxt itself
            by_weight.setdefault(wt, []).append((nxt, bits, divs & ~(1 | 1 << wt)))

    # The weights are positive, so a relation a - b with a | u and b | v
    # other than u - v itself has a and b proper divisors.  Such a pair
    # keeps the disjoint supports and the degree bound, so it is itself a
    # candidate: this is the dominance test over all candidates.
    primitive: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for _, group in sorted(by_weight.items()):
        for (a, sa, pa), (b, sb, pb) in combinations(group, 2):
            states += 1
            if states > MAX_GRAVER_STATES:
                raise ResourceLimitError(
                    states, MAX_GRAVER_STATES, "Graver states", _canonical_graver(primitive)
                )
            if not sa & sb and not pa & pb:
                primitive.append((a, b) if a > b else (b, a))
    return _canonical_graver(primitive)


def _proper_sub_sums(parts: tuple[int, ...]) -> int:
    """Sums of the sub-multisets of parts other than the empty one and
    the whole, as a bitmask: bit s is set when one of them sums to s."""
    mask = 1
    for part in parts:
        mask |= mask << part
    return mask & ~(1 | 1 << sum(parts))


def _canonical_graver(
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]],
) -> tuple[Binomial, ...]:
    ordered = sorted(pairs, key=lambda p: (max(sum(p[0]), sum(p[1])), p[0], p[1]))
    return tuple(Binomial(u, v) for u, v in ordered)
