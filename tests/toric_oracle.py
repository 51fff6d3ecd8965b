"""Independent oracles for the toric layer, for tests only.

All three are the direct definitions: the monomial count lists every
monomial of each degree and tests it against every generator, the
Taylor numerator sums over every subset of the generators, and the
Graver scan compares each equal-weight pair with every other one.  The
first two are exponential and the last quadratic, so they check the
fast versions only on small inputs.  ``s_binomial`` builds an S-pair
the way a textbook writes it, as a ``Binomial``, and ``normal_form``
reduces it, for checking that a Groebner basis leaves no S-pair
unreduced.  ``grevlex_greater``, ``oriented``, ``divides``,
``expo_lcm`` and ``reduce_monomial`` are the same steps on exponent
tuples, for checking the packed words of ``staircase.binomial.Words``
and the reduction on them.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from operator import add, le, sub

from staircase.binomial import Binomial

Expo = tuple[int, ...]


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


def oriented(g: Binomial) -> Binomial:
    """The same binomial up to sign, with the grevlex-larger side first."""
    return g if grevlex_greater(g.u, g.v) else Binomial(g.v, g.u)


def divides(a: Expo, b: Expo) -> bool:
    """True when monomial a divides monomial b."""
    return all(map(le, a, b))


def expo_lcm(a: Expo, b: Expo) -> Expo:
    return tuple(map(max, a, b))


def reduce_monomial(m: Expo, basis: list[Binomial] | tuple[Binomial, ...]) -> Expo:
    """Rewrite x^m by lead -> trail until no lead divides; returns the rest.

    Each basis element must be oriented; a step that fails to decrease
    raises RuntimeError.
    """
    current = m
    changed = True
    while changed:
        changed = False
        for g in basis:
            if divides(g.u, current):
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
            if not any(divides(g, tuple(e)) for g in gens):
                count += 1
        out.append(count)
    return tuple(out)


def taylor_numerator(gens: tuple[Expo, ...], nvars: int) -> tuple[int, ...]:
    """Hilbert numerator by inclusion-exclusion over generator subsets.

    N(t) = sum over subsets S of (-1)^|S| t^deg(lcm S), the alternating
    sum of the Taylor resolution; it holds for any generator list,
    minimal or not.  Coefficients constant term first, without trailing
    zeros, as ``IntPolynomial.coeffs`` keeps them.
    """
    terms = [((0,) * nvars, 1)]
    for g in gens:
        terms += [
            (tuple(max(x, y) for x, y in zip(lcm, g)), -sign) for lcm, sign in terms
        ]
    coeffs = [0] * (1 + max(sum(lcm) for lcm, _ in terms))
    for lcm, sign in terms:
        coeffs[sum(lcm)] += sign
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


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
                (divides(a, u) and divides(b, v))
                or (divides(a, v) and divides(b, u))
            )
            for a, b in candidates
        )
        if not dominated:
            primitive.append((u, v))
    return sorted(primitive, key=lambda p: (max(sum(p[0]), sum(p[1])), p[0], p[1]))


def s_binomial(f: Binomial, g: Binomial) -> Binomial | None:
    """S-polynomial of two oriented binomials; None when it cancels.

    Both inputs must already have their leading side in ``u``.  The
    result is x^(L-u_f+v_f) - x^(L-u_g+v_g) for L = lcm of the leads,
    again a pure difference, so no trinomial can appear here.
    """
    lcm = [max(x, y) for x, y in zip(f.u, g.u)]
    a = tuple(m - x + y for m, x, y in zip(lcm, f.u, f.v))
    b = tuple(m - x + y for m, x, y in zip(lcm, g.u, g.v))
    return None if a == b else Binomial(a, b)


def normal_form(
    b: Binomial, basis: list[Binomial] | tuple[Binomial, ...]
) -> Binomial | None:
    """Normal form of a binomial modulo oriented binomials; None if zero."""
    p = reduce_monomial(b.u, basis)
    q = reduce_monomial(b.v, basis)
    if p == q:
        return None
    return Binomial(p, q)
