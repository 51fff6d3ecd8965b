"""Reference checks written from the definitions, standard library only.

Nothing here imports the package under test.  Every function answers a
question the benchmark asks about an output, so a wrong answer from the
package shows as a failed operation rather than as a faster pass.
"""

from __future__ import annotations

import re
from itertools import combinations, combinations_with_replacement
from math import comb

# ----------------------------------------------------------------------
# reduced words and move graphs


def staircase_permutation(r: int) -> tuple[int, ...]:
    """The degree-r family member 2 3 .. r-3 r r-2 r-1 1 (one-line form)."""
    return tuple(range(2, r - 2)) + (r, r - 2, r - 1, 1)


def reduced_words(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All reduced words of perm, sorted, by peeling right descents."""
    memo: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def rec(u: tuple[int, ...]) -> list[tuple[int, ...]]:
        if u in memo:
            return memo[u]
        out = []
        for i in range(1, len(u)):
            if u[i - 1] > u[i]:
                shorter = list(u)
                shorter[i - 1], shorter[i] = shorter[i], shorter[i - 1]
                out.extend(word + (i,) for word in rec(tuple(shorter)))
        memo[u] = out or [()]
        return memo[u]

    return tuple(sorted(rec(tuple(perm))))


def move_edges(words) -> set[tuple[int, int, str]]:
    """Edges (i, j, type), i < j, found by applying every move to every word."""
    index = {w: k for k, w in enumerate(words)}
    edges = set()
    for k, w in enumerate(words):
        for p in range(len(w) - 1):
            a, b = w[p], w[p + 1]
            if abs(a - b) > 1:
                other = w[:p] + (b, a) + w[p + 2 :]
                kind = "commutation"
            elif p + 2 < len(w) and abs(a - b) == 1 and w[p + 2] == a:
                other = w[:p] + (b, a, b) + w[p + 3 :]
                kind = "braid"
            else:
                continue
            j = index.get(other)
            if j is not None and j > k:
                edges.add((k, j, kind))
    return edges


def staircase_chromatic_number(ell: int) -> int:
    """2 for the side-sharing cell graph of the length-ell staircase.

    Found from bipartiteness by breadth-first 2-colouring, not from any
    polynomial; raises if the graph were not bipartite or had no edge.
    """
    cells = {(a, b) for a in range(ell) for b in range(ell - a)}
    colour: dict[tuple[int, int], int] = {}
    edges = 0
    for root in sorted(cells):
        if root in colour:
            continue
        colour[root] = 0
        queue = [root]
        for a, b in queue:
            for nbr in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
                if nbr not in cells:
                    continue
                edges += 1
                if nbr not in colour:
                    colour[nbr] = 1 - colour[(a, b)]
                    queue.append(nbr)
                elif colour[nbr] == colour[(a, b)]:
                    raise ValueError(f"odd cycle in the length-{ell} staircase")
    if not edges:
        raise ValueError(f"the length-{ell} staircase graph has no edge")
    return 2


# ----------------------------------------------------------------------
# report text


_ROW = re.compile(
    r"^  (\S.*?)\s+observed=(.*)  claimed=(.*)  (MATCH|MISMATCH|SKIPPED)$"
)

# Rows the package files as invariants (its own contract, not a printed
# claim).  A CLI output must show at least one, and all must MATCH.
_INVARIANT_ROWS = re.compile(
    r"^(invariant failures|vertices \+ cycles - edges|"
    r"isomorphic to the reduced-word graph|recursion degree at length \d+|"
    r"balance within bound at length \d+|sizes share parity|"
    r"distinct-odd-parts lengths equal|determinant|all parts distinct|"
    r"parity splits among the primitive subidentities|"
    r"subidentities equal to a parity split|generator .* vanishes under the weight map|"
    r"basis elements stay in the weight kernel|generator count|"
    r"generators vanish under x_i -> t\^i|"
    r"series prefix equals direct monomial count through degree \d+)$"
)


def parse_report_text(text: str) -> list[tuple[str, list[tuple[str, str, str, str]]]]:
    """(title, [(row name, observed, claimed, verdict)]) per report."""
    reports: list[tuple[str, list[tuple[str, str, str, str]]]] = []
    for line in text.splitlines():
        if not line:
            continue
        if not line.startswith(" "):
            reports.append((line, []))
            continue
        m = _ROW.match(line)
        if m and reports:
            reports[-1][1].append(m.groups())
    return reports


def check_cli_text(code: int, text: str) -> str | None:
    """Exit code 0 and every invariant row MATCH; None when it holds."""
    if code != 0:
        return f"exit code {code}"
    invariants = 0
    for title, rows in parse_report_text(text):
        for name, _obs, _claimed, verdict in rows:
            if _INVARIANT_ROWS.match(name):
                invariants += 1
                if verdict != "MATCH":
                    return f"invariant row {name!r} in {title!r} is {verdict}"
    if not invariants:
        return "no invariant row found in the output"
    return None


def rows_by_title(text: str, title_re: str, row_name: str) -> dict[int, str]:
    """Observed value of one row in each report whose title ends in a number."""
    pat = re.compile(title_re)
    out = {}
    for title, rows in parse_report_text(text):
        m = pat.fullmatch(title)
        if not m:
            continue
        for name, obs, _claimed, _verdict in rows:
            if name == row_name:
                out[int(m.group(1))] = obs
    return out


def check_census(text: str, ells) -> str | None:
    """Each census at ell shows as many vertices as there are reduced words."""
    seen = rows_by_title(text, r"move-graph census at ell = (\d+)", "vertices")
    for ell in ells:
        want = len(reduced_words(staircase_permutation(ell + 1)))
        if want != comb(ell + 1, 2):
            return f"reference word count {want} at ell={ell} is not C(ell+1, 2)"
        if seen.get(ell) != str(want):
            return f"census vertices at ell={ell}: {seen.get(ell)} != {want}"
    return None


def check_chromatic_numbers(text: str, ells) -> str | None:
    seen = rows_by_title(text, r"layered checks at length (\d+)", "chromatic number")
    for ell in ells:
        want = staircase_chromatic_number(ell)
        if seen.get(ell) != str(want):
            return f"chromatic number at ell={ell}: {seen.get(ell)} != {want}"
    return None


# ----------------------------------------------------------------------
# Graver elements printed by the identities command


def colour_classes(ell: int) -> tuple[int, int]:
    """(mu, kappa): sums of the odd- and even-indexed diagonal sizes."""
    sizes = [ell + 1 - i for i in range(1, ell + 1)]
    return sum(sizes[0::2]), sum(sizes[1::2])


def graver_upto(weights, degree_bound: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Primitive equal-weight pairs (u, v), u lex-larger, of degree <= bound."""
    n = len(weights)
    by_weight: dict[int, list[tuple[int, ...]]] = {}
    for d in range(1, degree_bound + 1):
        for combo in combinations_with_replacement(range(n), d):
            e = [0] * n
            for i in combo:
                e[i] += 1
            by_weight.setdefault(sum(x * w for x, w in zip(e, weights)), []).append(tuple(e))
    pairs = []
    for group in by_weight.values():
        for a, b in combinations(group, 2):
            if not any(x and y for x, y in zip(a, b)):
                pairs.append((max(a, b), min(a, b)))

    def below(x, y):
        return all(p <= q for p, q in zip(x, y))

    out = set()
    for u, v in pairs:
        if not any(
            (a, b) != (u, v) and ((below(a, u) and below(b, v)) or (below(a, v) and below(b, u)))
            for a, b in pairs
        ):
            out.add((u, v))
    return out


def _parse_monomial(text: str, index: dict[str, int], n: int) -> tuple[int, ...]:
    e = [0] * n
    if text != "1":
        for factor in text.split("*"):
            name, _, power = factor.partition("^")
            e[index[name]] += int(power) if power else 1
    return tuple(e)


def check_graver_notes(text: str, ells, degree_bound: int) -> str | None:
    """The printed Graver lines per length equal the reference enumeration."""
    chunks: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("subidentities of "):
            chunks.append([])
        elif line.startswith("  note: graver: ") and chunks:
            chunks[-1].append(line[len("  note: graver: "):])
    if len(chunks) != len(ells):
        return f"{len(chunks)} identity reports for {len(ells)} lengths"
    for ell, lines in zip(ells, chunks):
        weights = tuple(range(1, ell + 1)) + colour_classes(ell)
        index = {f"x{w}": i for i, w in enumerate(weights)}
        printed = set()
        for line in lines:
            lhs, rhs = line.split(" - ")
            u = _parse_monomial(lhs, index, len(weights))
            v = _parse_monomial(rhs, index, len(weights))
            printed.add((max(u, v), min(u, v)))
        want = graver_upto(weights, degree_bound)
        if printed != want:
            return f"graver elements at ell={ell}: {len(printed)} printed, {len(want)} expected"
    return None


# ----------------------------------------------------------------------
# graphs: proper colourings and isomorphism by brute force


def count_colourings(n: int, edges, k: int) -> int:
    """Proper k-colourings, by backtracking over vertices in order."""
    earlier = [[] for _ in range(n)]
    for a, b in edges:
        lo, hi = min(a, b), max(a, b)
        earlier[hi].append(lo)
    colour = [0] * n

    def extend(v: int) -> int:
        if v == n:
            return 1
        total = 0
        for c in range(k):
            if all(colour[w] != c for w in earlier[v]):
                colour[v] = c
                total += extend(v + 1)
        return total

    return extend(0)


def check_chromatic(coeffs: list[int], n: int, edges, ks) -> str | None:
    """Degree n, monic, k^(n-1) coefficient -|E|, and P(k) = colourings."""
    if len(coeffs) != n + 1 or coeffs[-1] != 1:
        return f"polynomial {coeffs} is not monic of degree {n}"
    if coeffs[-2] != -len(edges):
        return f"k^{n - 1} coefficient {coeffs[-2]} != -{len(edges)}"
    for k in ks:
        value = sum(c * k**i for i, c in enumerate(coeffs))
        want = count_colourings(n, edges, k)
        if value != want:
            return f"P({k}) = {value} but {want} proper colourings"
    return None


def brute_isomorphic(n: int, edges_a, edges_b) -> bool:
    """Isomorphism by exhaustive search over vertex bijections.

    Extends a partial map vertex by vertex and abandons it as soon as an
    edge or non-edge among mapped vertices disagrees; nothing else is
    pruned, so every consistent bijection is reached.
    """
    adj_a = [set() for _ in range(n)]
    adj_b = [set() for _ in range(n)]
    for adj, edges in ((adj_a, edges_a), (adj_b, edges_b)):
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
    if len(set(map(frozenset, edges_a))) != len(set(map(frozenset, edges_b))):
        return False
    image: list[int] = []
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for u in range(n):
            if used[u]:
                continue
            if all((w in adj_a[v]) == (image[w] in adj_b[u]) for w in range(v)):
                image.append(u)
                used[u] = True
                if extend(v + 1):
                    return True
                image.pop()
                used[u] = False
        return False

    return extend(0)


# ----------------------------------------------------------------------
# binomial ideals: grevlex, reduction, S-pairs


def grevlex_greater(a, b) -> bool:
    """Graded reverse lexicographic order with variable 0 largest."""
    da, db = sum(a), sum(b)
    if da != db:
        return da > db
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return x < y
    return False


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def reduce_monomial(m, basis) -> tuple[int, ...]:
    """Rewrite x^m with lead -> tail until no lead divides it."""
    m = tuple(m)
    while True:
        for u, v in basis:
            if _divides(u, m):
                m = tuple(x - y + z for x, y, z in zip(m, u, v))
                break
        else:
            return m


def reduces_to_zero(u, v, basis) -> bool:
    return reduce_monomial(u, basis) == reduce_monomial(v, basis)


def check_groebner(basis, generators) -> str | None:
    """basis is a reduced Groebner basis of the ideal the generators span.

    Checks orientation, that every S-pair reduces to zero (Buchberger's
    criterion), that every generator reduces to zero, and that the basis
    is reduced: no lead divides another lead or any tail.
    """
    if not basis:
        return "empty basis"
    for u, v in basis:
        if not grevlex_greater(u, v):
            return f"element {u} - {v} is not oriented"
    for (u1, v1), (u2, v2) in combinations(basis, 2):
        lcm = tuple(max(x, y) for x, y in zip(u1, u2))
        a = tuple(l - x + y for l, x, y in zip(lcm, u1, v1))
        b = tuple(l - x + y for l, x, y in zip(lcm, u2, v2))
        if not reduces_to_zero(a, b, basis):
            return f"S-pair of {u1} and {u2} does not reduce to zero"
    for u, v in generators:
        if not reduces_to_zero(u, v, basis):
            return f"generator {u} - {v} does not reduce to zero"
    for i, (u, v) in enumerate(basis):
        for j, (u2, _v2) in enumerate(basis):
            if i != j and (_divides(u2, u) or _divides(u2, v)):
                return f"basis is not reduced at {u} - {v}"
    return None


# ----------------------------------------------------------------------
# monomial ideals: Hilbert series against a direct count


def standard_monomial_counts(gens, nvars: int, upto: int) -> list[int]:
    """Monomials of each degree 0..upto that no generator divides."""
    sparse = [[(i, x) for i, x in enumerate(g) if x] for g in gens]
    out = []
    for d in range(upto + 1):
        count = 0
        for combo in combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            if not any(all(e[i] >= x for i, x in g) for g in sparse):
                count += 1
        out.append(count)
    return out


def check_hilbert(numerator, dimension, degree, gens, nvars: int, upto: int) -> str | None:
    """Series N(t)/(1-t)^n prefix equals a direct count; dim and degree follow.

    Dimension is nvars minus the multiplicity of t = 1 as a root of N,
    and degree is the reduced numerator at 1 (dimension -1 for N = 0).
    """
    series = [
        sum(c * comb(nvars - 1 + d - j, nvars - 1) for j, c in enumerate(numerator) if j <= d)
        for d in range(upto + 1)
    ]
    direct = standard_monomial_counts(gens, nvars, upto)
    if series != direct:
        return f"series prefix {series} != direct count {direct}"
    if not any(numerator):
        want = (-1, 0)
    else:
        coeffs = list(numerator)
        mult = 0
        while sum(coeffs) == 0:
            # divide by (1 - t): running sums, dropping the zero remainder
            quotient, acc = [], 0
            for c in coeffs[:-1]:
                acc += c
                quotient.append(acc)
            coeffs = quotient
            mult += 1
        want = (nvars - mult, sum(coeffs))
    if (dimension, degree) != want:
        return f"dimension, degree {(dimension, degree)} != {want}"
    return None
