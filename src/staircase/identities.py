"""Partition identities between bounded multisets, and their primitivity.

An identity is two multisets of positive integers with equal sums.  A
subidentity keeps a nonempty part of each side, again with equal sums;
"proper" here means: nonempty on both sides and not the whole identity.
Primitive identities admit no proper subidentity.  The degree-truncated
Graver enumeration at the bottom realizes primitive weight relations as
binomials with disjoint supports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .binomial import Binomial
from .chroma import colour_separation
from .errors import DomainError, InvalidIdentityError, ResourceLimitError
from .partition import Partition, is_staircase, staircase
from .report import INVARIANT, Report, check

MAX_IDENTITY_PARTS = 20
MAX_GRAVER_STATES = 200_000


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

    @property
    def total(self) -> int:
        return sum(self.lhs)

    @property
    def part_count(self) -> int:
        return len(self.lhs) + len(self.rhs)

    def all_parts_distinct(self) -> bool:
        parts = self.lhs + self.rhs
        return len(set(parts)) == len(parts)

    def __str__(self) -> str:
        left = "+".join(str(p) for p in reversed(self.lhs))
        right = "+".join(str(p) for p in self.rhs)
        return f"{left} = {right}"


def _sub_multisets_by_sum(parts: tuple[int, ...]) -> dict[int, list[tuple[int, ...]]]:
    """Every distinct sub-multiset, keyed by its sum; includes () and all."""
    acc: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for value, count in sorted(Counter(parts).items(), reverse=True):
        acc = [
            (sub + (value,) * k, s + value * k)
            for sub, s in acc
            for k in range(count + 1)
        ]
    by_sum: dict[int, list[tuple[int, ...]]] = {}
    for sub, s in acc:
        by_sum.setdefault(s, []).append(sub)
    return by_sum


def _guard_size(ident: PartitionIdentity) -> None:
    if ident.part_count > MAX_IDENTITY_PARTS:
        raise ResourceLimitError(
            f"subset search limited to {MAX_IDENTITY_PARTS} parts, "
            f"got {ident.part_count}"
        )


def proper_subidentities(ident: PartitionIdentity) -> list[PartitionIdentity]:
    """All proper subidentities, ordered by (sum, lhs, rhs)."""
    _guard_size(ident)
    left = _sub_multisets_by_sum(ident.lhs)
    right = _sub_multisets_by_sum(ident.rhs)
    out = []
    for s, lsubs in left.items():
        if s == 0 or s not in right:
            continue
        for ls in lsubs:
            for rs in right[s]:
                if ls == ident.lhs and rs == ident.rhs:
                    continue
                out.append(PartitionIdentity(ls, rs, ident.bound))
    out.sort(key=lambda i: (i.total, i.lhs, i.rhs))
    return out


def is_primitive(ident: PartitionIdentity) -> bool:
    """No proper subidentity exists.

    >>> is_primitive(PartitionIdentity((1, 3, 5), (9,), 9))
    True
    >>> is_primitive(PartitionIdentity((1, 2, 3, 4, 5), (9, 6), 9))
    False
    """
    return not proper_subidentities(ident)


def primitive_subidentities(ident: PartitionIdentity) -> list[PartitionIdentity]:
    """The proper subidentities that are themselves primitive."""
    return [sub for sub in proper_subidentities(ident) if is_primitive(sub)]


def colour_separation_identity(p: Partition) -> PartitionIdentity:
    """The identity 1 + 2 + ... + l = mu + kappa of a staircase.

    Needs length at least 5: below that the class sizes collide with
    the small parts and the all-parts-distinct property fails.

    >>> str(colour_separation_identity(staircase(5)))
    '1+2+3+4+5 = 9+6'
    """
    if not is_staircase(p):
        raise DomainError(f"{p.parts} is not a staircase")
    if p.length < 5:
        raise DomainError(
            f"distinct-parts hypothesis needs length >= 5, got {p.length}"
        )
    sep = colour_separation(p)
    return PartitionIdentity(
        tuple(range(p.length, 0, -1)), (sep.mu, sep.kappa), sep.mu
    )


def parity_split(p: Partition) -> tuple[PartitionIdentity, PartitionIdentity]:
    """The two one-sided subidentities given by part parity.

    Parts sharing the parity of the length sum to mu, the others to
    kappa; these are the layer-size groupings behind the separation.

    >>> [str(s) for s in parity_split(staircase(6))]
    ['2+4+6 = 12', '1+3+5 = 9']
    """
    ident = colour_separation_identity(p)
    ell = p.length
    mu, kappa = ident.rhs
    mu_parts = tuple(x for x in ident.lhs if x % 2 == ell % 2)
    kappa_parts = tuple(x for x in ident.lhs if x % 2 != ell % 2)
    return (
        PartitionIdentity(mu_parts, (mu,), ident.bound),
        PartitionIdentity(kappa_parts, (kappa,), ident.bound),
    )


def subidentity_report(p: Partition) -> Report:
    """Primitivity audit of the colour-separation identity."""
    ident = colour_separation_identity(p)
    rep = Report(f"subidentities of {ident}")
    rep.note(
        "a proper subidentity keeps a nonempty part of each side and is "
        "not the whole identity"
    )
    prims = primitive_subidentities(ident)
    splits = parity_split(p)
    rep.add(check("all parts distinct", ident.all_parts_distinct(), True,
                  kind=INVARIANT))
    rep.add(check("identity is primitive", is_primitive(ident), False,
                  note="the parity splits always exist"))
    rep.add(
        check(
            "primitive subidentity count",
            len(prims),
            2,
            note="claimed count; exhaustive search finds every primitive one",
        )
    )
    rep.add(
        check(
            "parity splits among the primitive subidentities",
            all(s in prims for s in splits),
            True,
            kind=INVARIANT,
        )
    )
    rep.add(
        check(
            "subidentities equal to a parity split",
            sum(1 for sub in prims if sub in splits),
            2,
            kind=INVARIANT,
        )
    )
    for sub in prims:
        rep.note(f"primitive: {sub}")
    return rep


def graver_basis(weights, degree_bound: int) -> tuple[Binomial, ...]:
    """Primitive weight relations up to a total-degree bound.

    Enumerates all pairs of disjoint-support monomials of equal weight
    and degree at most ``degree_bound`` and keeps the ones with no
    componentwise-smaller relation.  Every relation a sub-solution could
    witness has smaller degree, so truncation does not lose primitivity
    verdicts inside the bound.

    MAX_GRAVER_STATES bounds the monomials plus the pairs enumerated.  A
    candidate u - v is primitive when no proper divisor of x^u has the
    weight of a proper divisor of x^v, so the primitivity step costs
    candidates * (|div u| + |div v|), at most 2^degree_bound divisors
    a side.

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

    n = len(ws)
    states = 0
    by_weight: dict[int, list[tuple[int, ...]]] = {}
    frontier = [(0,) * n]
    seen = {frontier[0]}
    for e in frontier:
        if sum(e) >= degree_bound:
            continue
        for i in range(n):
            nxt = e[:i] + (e[i] + 1,) + e[i + 1 :]
            if nxt in seen:
                continue
            seen.add(nxt)
            states += 1
            if states > MAX_GRAVER_STATES:
                err = ResourceLimitError(
                    f"monomial enumeration exceeded {MAX_GRAVER_STATES} states"
                )
                err.partial = ()
                raise err
            frontier.append(nxt)
            by_weight.setdefault(sum(x * w for x, w in zip(nxt, ws)), []).append(nxt)

    candidates: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for _, group in sorted(by_weight.items()):
        for a, b in combinations(group, 2):
            states += 1
            if states > MAX_GRAVER_STATES:
                err = ResourceLimitError(
                    f"pair enumeration exceeded {MAX_GRAVER_STATES} states"
                )
                err.partial = _canonical_graver(candidates)
                raise err
            if any(x and y for x, y in zip(a, b)):
                continue
            if a > b:
                candidates.append((a, b))
            else:
                candidates.append((b, a))

    # The weights are positive, so a relation a - b with a | u and b | v
    # other than u - v itself has a and b proper divisors.  Such a pair
    # keeps the disjoint supports and the degree bound, so it is itself a
    # candidate: this is the dominance test over all candidates.
    primitive = [
        (u, v)
        for u, v in candidates
        if _proper_divisor_weights(u, ws).isdisjoint(_proper_divisor_weights(v, ws))
    ]
    return _canonical_graver(primitive)


def _proper_divisor_weights(e: tuple[int, ...], ws: tuple[int, ...]) -> set[int]:
    """Weights of the divisors of x^e other than 1 and x^e itself."""
    sums = {0}
    for x, w in zip(e, ws):
        if x:
            sums = {s + k * w for s in sums for k in range(x + 1)}
    return sums - {0, sum(x * w for x, w in zip(e, ws))}


def _canonical_graver(
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]],
) -> tuple[Binomial, ...]:
    ordered = sorted(pairs, key=lambda p: (max(sum(p[0]), sum(p[1])), p[0], p[1]))
    return tuple(Binomial(u, v) for u, v in ordered)
