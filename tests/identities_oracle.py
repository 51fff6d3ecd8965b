"""Independent oracle for partition-identity primitivity, for tests only.

It is the direct definition: list every sub-multiset of each side by its
sum, pair the equal sums into proper subidentities, and call an identity
primitive when that list is empty.  The subsets grow as 2^parts, so it
checks the sub-sum test and the knapsack count only on small identities.
"""

from __future__ import annotations

from collections import Counter

from staircase.identities import PartitionIdentity


def sub_multisets_by_sum(parts: tuple[int, ...]) -> dict[int, list[tuple[int, ...]]]:
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


def proper_subidentities(ident: PartitionIdentity) -> list[PartitionIdentity]:
    """All proper subidentities, ordered by (sum, lhs, rhs)."""
    left = sub_multisets_by_sum(ident.lhs)
    right = sub_multisets_by_sum(ident.rhs)
    out = []
    for s, lsubs in left.items():
        if s == 0 or s not in right:
            continue
        for ls in lsubs:
            for rs in right[s]:
                if ls == ident.lhs and rs == ident.rhs:
                    continue
                out.append(PartitionIdentity(ls, rs, ident.bound))
    out.sort(key=lambda i: (sum(i.lhs), i.lhs, i.rhs))
    return out


def brute_is_primitive(ident: PartitionIdentity) -> bool:
    return not proper_subidentities(ident)


def brute_primitive_subidentities(ident: PartitionIdentity) -> list[PartitionIdentity]:
    """The proper subidentities that are themselves primitive."""
    return [sub for sub in proper_subidentities(ident) if brute_is_primitive(sub)]
