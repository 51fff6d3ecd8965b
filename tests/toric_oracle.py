"""Independent oracles for the toric layer, for tests only.

Both are the direct definitions: the monomial count lists every
monomial of each degree and tests it against every generator, and the
Graver scan compares each equal-weight pair with every other one.  They
are exponential and quadratic respectively, so they check the fast
versions only on small inputs.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

Expo = tuple[int, ...]


def _divides(a: Expo, b: Expo) -> bool:
    return all(x <= y for x, y in zip(a, b))


def brute_standard_monomial_counts(
    nvars: int, gens: tuple[Expo, ...], upto: int
) -> tuple[int, ...]:
    """Monomials divisible by no generator, counted in degrees 0..upto."""
    out = []
    for d in range(upto + 1):
        count = 0
        for combo in combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            if not any(_divides(g, tuple(e)) for g in gens):
                count += 1
        out.append(count)
    return tuple(out)


def brute_graver(weights: tuple[int, ...], degree_bound: int) -> list[tuple[Expo, Expo]]:
    """Primitive equal-weight pairs (u, v), u > v lexicographically.

    A candidate is a pair of distinct monomials of degree 1..bound with
    equal weight and disjoint supports; it is primitive when no other
    candidate has one side dividing u and the other dividing v.  Sorted
    by (larger degree, u, v).
    """
    n = len(weights)
    monomials = [
        tuple(combo.count(i) for i in range(n))
        for d in range(1, degree_bound + 1)
        for combo in combinations_with_replacement(range(n), d)
    ]
    weight = {e: sum(x * w for x, w in zip(e, weights)) for e in monomials}
    candidates = [
        (max(a, b), min(a, b))
        for a, b in combinations(monomials, 2)
        if weight[a] == weight[b] and not any(x and y for x, y in zip(a, b))
    ]
    primitive = []
    for u, v in candidates:
        dominated = any(
            (a, b) != (u, v)
            and (
                (_divides(a, u) and _divides(b, v))
                or (_divides(a, v) and _divides(b, u))
            )
            for a, b in candidates
        )
        if not dominated:
            primitive.append((u, v))
    return sorted(primitive, key=lambda p: (max(sum(p[0]), sum(p[1])), p[0], p[1]))
