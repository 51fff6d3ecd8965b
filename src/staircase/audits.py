"""Every report on the paper's claims about the staircase family.

A report puts what an engine computed next to what the paper claims,
one ``report`` row per claim; this module builds all of them, and the
engine modules build none.  Each report command of the CLI is a view
over the functions here.  ``AUDITS`` holds the per-length audits that
``verify_all`` runs at every length and ``conjectures`` runs in part.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Callable, Iterator
from itertools import islice
from math import comb

from . import rwgraph
from .binomial import Binomial, Words, format_monomial, reduce_monomial
from .chroma import (chromatic_number, chromatic_polynomial, class_sizes_closed_form,
                     colour_separation, layered_closed_form, shared_balance_check)
from .errors import DomainError, ResourceLimitError
from .identities import (colour_separation_identity, graver_table, is_primitive, parity_split,
                         primitive_subidentities, primitive_subidentity_count)
from .layered import (BalanceMatrix, LayeredGraph, build_layered_graph, family_image,
                      missing_edge_polynomial)
from .partition import distinct_odd_parts, staircase
from .perm import staircase_permutation, word_to_str
from .poly import IntPolynomial
from .report import INVARIANT, CheckRow, Report, check, skipped
from .rwgraph import WordGraph, build_word_graph, count_four_cycles, family_word_graph
from .toric import (BinomialIdeal, consecutive_quadric_ideal, groebner_basis, hilbert,
                    initial_ideal, separation_ideal, separation_weights,
                    standard_monomial_counts, weight_names)

MAX_SERIES_ROWS = 10_000
WITNESS_NOTES = 100  # primitive subidentities a report lists by name


def triangular_gf_report() -> Report:
    """Coefficients of z / (1 - z)^3 against the triangular numbers, z^0..z^10.

    Index 0 is included but flagged degenerate: the series and the
    closed form both vanish there, so it carries no information.
    """
    upto = 10
    coeffs = IntPolynomial.variable().series_prefix(3, upto)

    rep = Report(f"triangular generating function through index {upto}")
    for r in range(upto + 1):
        note = "degenerate index" if r == 0 else ""
        rep.add(check(f"coefficient of z^{r}", coeffs[r], r * (r + 1) // 2, note=note))
    return rep


def word_reports(sizes: range) -> Iterator[Report]:
    """The reduced words of the staircase permutation of each size, their
    count against C(r, 2).

    The reports hold every word of the range, so
    ``rwgraph.MAX_REDUCED_LETTERS`` bounds the letters of them all.
    """
    letters, cap = 0, rwgraph.MAX_REDUCED_LETTERS
    for r in sizes:
        words = build_word_graph(staircase_permutation(r)).words
        letters += sum(map(len, words))
        if letters > cap:
            raise ResourceLimitError(letters, cap, "stored reduced-word letters")
        rep = Report(f"reduced words of the staircase permutation, size {r}")
        rep.add(check("word count", len(words), comb(r, 2), kind=INVARIANT))
        for w in words:
            rep.note(word_to_str(w))
        yield rep


def structure_report(
    ell: int, words: Callable[[int], WordGraph] | None = None
) -> Report:
    """Audit the claimed census of the degree-(ell+1) family move graph.

    The printed claims under audit: C(ell+1, 2) vertices, ell(ell+1)
    edges, ell-1 braid edges, C(ell-1, 2) four-cycles, and an
    alternating sum v + c - e = 1.  The edge claim is also compared
    against the independent closed count ell(ell-1).  ``words(ell)``
    gives the graph when a caller shares its builds; by default
    ``family_word_graph`` builds it.
    """
    if ell < 3:
        raise DomainError(f"the family census starts at ell = 3, got {ell}")
    g = (words or family_word_graph)(ell)
    cycles = count_four_cycles(g)
    rep = Report(f"move-graph census at ell = {ell}")
    rep.add(check("vertices", g.vertex_count, comb(ell + 1, 2)))
    rep.add(check("edges (printed claim)", g.edge_count, ell * (ell + 1)))
    rep.add(check("edges (closed count)", g.edge_count, ell * (ell - 1)))
    rep.add(check("braid edges", g.braid_edge_count(), ell - 1))
    rep.add(check("four-cycles", cycles, comb(ell - 1, 2)))
    rep.add(check("vertices + cycles - edges", g.vertex_count + cycles - g.edge_count, 1,
                  kind=INVARIANT))
    return rep


def _isomorphism_row(
    ell: int, g: LayeredGraph, words: Callable[[int], WordGraph]
) -> CheckRow:
    """The layered graph g against the move graph at ell, SKIPPED at the word cap.

    The row checks ``family_image`` as a certificate, with no search:
    the map is a permutation of g's vertices, and it carries the move
    edges exactly onto g's edges.
    """
    name = "isomorphic to the reduced-word graph"
    try:
        wg = words(ell)
    except ResourceLimitError as e:
        return skipped(name, note=str(e))
    image = family_image(ell, wg.words)
    moved = sorted(sorted((image[a], image[b])) for a, b, _ in wg.edges)
    return check(name, sorted(image) == list(range(g.n)) and moved == list(map(list, g.edges)),
                 True, kind=INVARIANT)


def layered_report(ell: int) -> Report:
    """The layered graph at length ell: its layer sizes and edge count,
    the move graph from length 3 on, and the parity rows of the pairs
    it belongs to."""
    g = build_layered_graph(staircase(ell))
    rep = Report(f"layered graph at length {ell}")
    rep.add(check("layer sizes", g.layer_sizes, tuple(range(ell, 0, -1)),
                  kind=INVARIANT))
    rep.add(check("edge count", g.edge_count, ell * (ell - 1), kind=INVARIANT))
    if ell >= 3:
        rep.add(_isomorphism_row(ell, g, family_word_graph))
    rep.note(f"missing-edge polynomial {missing_edge_polynomial(ell).format('e')}")
    if ell > 1:
        rep.rows.extend(parity_pair_report(ell - 1).rows)
    if ell % 2 == 1:
        rep.rows.extend(vertex_parity_report(ell).rows)
    return rep


def family_series_report(n: int) -> Report:
    """Truncations of z/((1-e)(1-ez)^2) against the per-length polynomials.

    Both sides are truncated at z^n and e^n.  The closed form's
    e-expansion is an infinite tail at every z-degree, so
    coefficient-wise agreement with sum_{l>=2} P_l(e) z^l cannot hold
    beyond the main diagonal; this report tabulates both sides and marks
    each coefficient, asserting nothing.  Its n(n+1) rows are capped at
    MAX_SERIES_ROWS.
    """
    if n < 1:
        raise DomainError(f"need a positive truncation order, got {n}")
    if n * (n + 1) > MAX_SERIES_ROWS:
        raise ResourceLimitError(n * (n + 1), MAX_SERIES_ROWS, "series rows")
    rep = Report(f"family generating function truncated at z^{n}, e^{n}")
    for m in range(1, n + 1):
        family = missing_edge_polynomial(m) if m >= 2 else IntPolynomial()
        for q in range(n + 1):
            # closed form: z * (sum_q e^q) * (sum_j (j+1) e^j z^j)
            rep.add(check(f"coefficient of z^{m} e^{q}", m if q >= m - 1 else 0, family[q]))
    rep.note(
        "closed form carries coefficient m for every e-degree >= m-1, the "
        "polynomial side starts at z^2 and stops at e-degree m-1; only the "
        "diagonal from z^2 on can agree"
    )
    return rep


def parity_pair_report(ell: int) -> Report:
    """Three equivalent parity predicates for the staircases of lengths
    ell and ell + 1, ell >= 1.

    (i) the two sizes share parity, (ii) ell is odd, (iii) the
    distinct-odd-parts partitions share length.  The claimed
    equivalence is that all three agree.
    """
    p1, p2 = staircase(ell), staircase(ell + 1)
    same_parity = p1.size % 2 == p2.size % 2
    first_odd = ell % 2 == 1
    equal_dop = len(distinct_odd_parts(p1).parts) == len(distinct_odd_parts(p2).parts)
    rep = Report(f"parity pair at lengths {ell}, {ell + 1}")
    rep.add(check("sizes share parity", same_parity, first_odd,
                  kind=INVARIANT, note="claimed equivalent to first length odd"))
    rep.add(check("distinct-odd-parts lengths equal", equal_dop, first_odd,
                  kind=INVARIANT, note="claimed equivalent to first length odd"))
    rep.add(check("all three predicates agree",
                  same_parity == first_odd == equal_dop, True, kind=INVARIANT))
    return rep


def vertex_parity_report(ell: int) -> Report:
    """Audit the claimed size parity of the pair starting at odd ell.

    The claim under audit: both sizes even when ell = 1 mod 4, both odd
    when ell = 3 mod 4.  Observed parity is reported next to it.
    """
    if ell % 2 == 0:
        raise DomainError(f"the parity classes are claimed for odd lengths, got {ell}")
    size1, size2 = staircase(ell).size, staircase(ell + 1).size
    observed = "even-vertices" if size1 % 2 == 0 else "odd-vertices"
    claimed = "even-vertices" if ell % 4 == 1 else "odd-vertices"
    rep = Report(f"vertex-count parity class at ell = {ell}")
    rep.add(check("sizes share parity", size1 % 2 == size2 % 2, True, kind=INVARIANT))
    rep.add(check("parity class", observed, claimed,
                  note=f"sizes {size1}, {size2}"))
    return rep


def balance_matrix_report(k: int) -> Report:
    m = BalanceMatrix(k)
    rep = Report(f"balance matrix at k = {k}")
    rep.add(check("determinant", m.determinant, k * k, kind=INVARIANT))
    rep.add(check("column sums", m.column_sums(),
                  (staircase(2 * k - 1).size, staircase(2 * k).size), kind=INVARIANT,
                  note="sizes of the shared-balance staircase pair"))
    return rep


def closed_form_report(ell: int) -> Report:
    """Claimed closed form against the swept chromatic polynomial at one length.

    A length below 3, where the closed form starts, raises before any
    sweep.  The sweep runs before the expansion, so a length past
    ``chroma.MAX_FRONTIER_STATES`` stops before the claimed form, of
    degree 4 + (ell-1)(ell-2), is expanded.
    """
    if ell < 3:
        raise DomainError(f"closed form starts at length 3, got {ell}")
    actual = chromatic_polynomial(build_layered_graph(staircase(ell)))
    formula = layered_closed_form(ell)
    vertices = comb(ell + 1, 2)
    rep = Report(f"layered closed form vs recursion, lengths {ell}..{ell}")
    rep.add(check(f"formula degree at length {ell}", formula.degree(), vertices,
                  note="a chromatic polynomial has degree equal to the vertex count"))
    rep.add(check(f"formula equals recursion at length {ell}", formula == actual, True))
    rep.add(check(f"recursion degree at length {ell}", actual.degree(), vertices,
                  kind=INVARIANT))
    return rep


def chromatic_report(ell: int) -> Report:
    """closed_form_report at ell and the chromatic number of its graph."""
    rep = closed_form_report(ell)
    number = chromatic_number(build_layered_graph(staircase(ell)))
    rep.add(check(f"chromatic number at length {ell}", number, 2))
    return rep


def balance_bound_check(ell_max: int) -> Report:
    """Balance against the ceiling bound, length by length.

    The equality row compares what happens against the even-length-only
    prediction; the closed forms for the class sizes make the bound an
    equality at every length, so odd lengths show as mismatches.
    """
    if ell_max < 1:
        raise DomainError(f"need a positive length bound, got {ell_max}")
    rep = Report(f"balance bound through length {ell_max}")
    for ell in range(1, ell_max + 1):
        sep = colour_separation(ell)
        bound = (ell + 1) // 2
        rep.add(check(f"balance within bound at length {ell}", sep.balance <= bound, True,
                      kind=INVARIANT, note=f"balance {sep.balance}, bound {bound}"))
        rep.add(check(f"equality only at even lengths, length {ell}", sep.balance == bound,
                      ell % 2 == 0,
                      note="class-size closed forms force equality at every length"))
    return rep


def separation_report(ell: int) -> Report:
    """The colour classes at length ell against their closed forms; at
    an even length, also the balance the pair (ell - 1, ell) shares."""
    sep = colour_separation(ell)
    rep = Report(f"colour separation at length {ell}")
    rep.add(check("class sizes (mu, kappa)", (sep.mu, sep.kappa),
                  class_sizes_closed_form(ell), kind=INVARIANT,
                  note="closed forms from the layer sums"))
    if ell % 2 == 0:
        k = ell // 2
        rep.add(check(f"pair at lengths {ell - 1}, {ell} shares balance {k}",
                      shared_balance_check(k), True, kind=INVARIANT))
        rep.rows.extend(balance_matrix_report(k).rows)
    return rep


def subidentity_report(ell: int, degree_bound: int | None = None) -> Report:
    """Primitivity audit of the colour-separation identity at length ell.

    With a degree bound, the notes also list the Graver basis of the
    separation weights truncated at that degree.
    """
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
    if degree_bound is not None:
        weights = separation_weights(ell)
        names = weight_names(weights)
        pairs, sides = graver_table(weights, degree_bound)
        # sides recur across relations, so each is formatted once
        text = {w: format_monomial(e, names) for w, e in sides.items()}
        rep.notes.extend([f"graver: {text[u]} - {text[v]}" for u, v in pairs])
    return rep


def _hilbert_rows(rep: Report, gb, nvars: int, dimension: int, degree: int) -> None:
    """Dimension and degree of the quotient by gb against the claimed ones,
    and its series against the direct monomial count."""
    mi = initial_ideal(gb, nvars)
    hd = hilbert(mi)
    rep.add(check("dimension", hd.dimension, dimension))
    rep.add(check("degree", hd.degree, degree))
    rep.add(check("series prefix equals direct monomial count through degree 8",
                  hd.numerator.series_prefix(nvars, 8), standard_monomial_counts(mi, 8),
                  kind=INVARIANT))


def weight_kernel_row(ideal: BinomialIdeal, gb) -> CheckRow:
    """Whether the ideal, with Groebner basis gb, is the weight kernel.

    With x of weight 1, the kernel of x_i -> t^(weights[i]) is generated
    by x_w - x^w for the other variables x_w, as the quotient by those
    is k[x] = k[t]; the note counts those that do not reduce to zero
    modulo gb and names the first two as x^w - x_w, lead first when the
    other weights exceed 1, as the audited ones do.
    """
    if 1 not in ideal.weights:
        raise DomainError(f"no variable of weight 1 among {ideal.weights}")
    one, n = ideal.weights.index(1), ideal.nvars
    # rewrites never raise the degree: no exponent outgrows a weight or basis exponent
    words = Words.holding(n, max(ideal.weights + tuple(x for g in gb for x in g.u + g.v)))
    basis = [words.pack_binomial(g) for g in gb]
    # variable j is the field shifted by width * (n - 1 - j); x - x^1 is 0 and reduces to it
    shift = [words.width * (n - 1 - j) for j in range(n)]
    outside = [
        (i, w) for i, w in enumerate(ideal.weights)
        if reduce_monomial(1 << shift[i], 1, basis, words)
        != reduce_monomial(w << shift[one], w, basis, words)
    ]
    note = f"{len(outside)} of {n - 1} kernel generators lie outside"
    if outside:
        names = weight_names(ideal.weights)
        note += "; first " + ", ".join(
            Binomial(_power(n, one, w), _power(n, i, 1)).format(names) for i, w in outside[:2]
        )
    return check("the two relations generate the weight kernel", not outside, True, note=note)


def _power(n: int, j: int, e: int) -> tuple[int, ...]:
    """The exponent tuple of x_j^e among n variables."""
    return (0,) * j + (e,) + (0,) * (n - 1 - j)


def audit_separation_ideal(ell: int) -> Report:
    """Audit of the two-generator separation ideal at one length.

    Computes the Groebner basis, Hilbert dimension and degree of the
    ideal the two parity-split generators generate, compares with the
    claimed dimension l and degree ceil(l/2)*floor(l/2), and checks
    whether that ideal is the whole kernel of the weight map.
    """
    ideal = separation_ideal(ell)
    names = weight_names(ideal.weights)
    rep = Report(f"separation ideal audit at length {ell}")
    rep.note(
        "dimension and degree are affine: Krull dimension of the full "
        "quotient ring and reduced Hilbert numerator at 1"
    )
    rep.note("two readings: the ideal of the two relations (dimension and "
             "degree rows) and the whole weight kernel (kernel row)")
    for g in ideal.generators:
        rep.add(check(f"generator {g.format(names)} vanishes under the weight map",
                      g.in_kernel(ideal.weights), True, kind=INVARIANT))
    gb = groebner_basis(ideal.generators)
    rep.add(check("basis elements stay in the weight kernel",
                  all(g.in_kernel(ideal.weights) for g in gb), True,
                  kind=INVARIANT, note=f"basis size {len(gb)}"))
    _hilbert_rows(rep, gb, ideal.nvars, ell, (ell + 1) // 2 * (ell // 2))
    rep.add(weight_kernel_row(ideal, gb))
    return rep


def audit_quadric_chain_ideal(ell: int) -> Report:
    """Audit of the consecutive-quadric ideal at one length."""
    ideal = consecutive_quadric_ideal(ell)
    rep = Report(f"consecutive-quadric ideal audit at length {ell}")
    rep.note(
        "dimension is the affine Krull dimension of the quotient; the "
        "projective dimension is one less"
    )
    rep.add(check("generator count", len(ideal.generators), ell - 1,
                  kind=INVARIANT))
    rep.add(check("generators vanish under x_i -> t^i",
                  all(g.in_kernel(ideal.weights) for g in ideal.generators), True,
                  kind=INVARIANT))
    gb = groebner_basis(ideal.generators)
    _hilbert_rows(rep, gb, ideal.nvars, 2, 2 ** (ell - 1))
    return rep


class Audit(namedtuple("Audit", "title report lo why", defaults=(1, None))):
    """A report per length: report(ell, words) for ell >= lo.

    A length from 1 to below lo gives a SKIPPED report titled title,
    with {ell}, that says why, or no report when why is None; a length
    below 1 runs, so the report raises its own DomainError; a resource
    limit gives a SKIPPED report.  The audits that read the family move
    graph get it from words, by default family_word_graph.
    """

    __slots__ = ()

    def run(self, ell: int, words: Callable[[int], WordGraph] | None = None) -> Report | None:
        note = self.why
        if not 1 <= ell < self.lo:
            try:
                return self.report(ell, words or family_word_graph)
            except ResourceLimitError as e:
                note = f"resource limit: {e}"
        if note is None:
            return None
        rep = Report(self.title.format(ell=ell))
        rep.add(skipped("audit", note=note))
        return rep


def _built_once() -> Callable[[int], WordGraph]:
    """family_word_graph that builds each length once for its caller.

    A length stopped at a cap keeps its ResourceLimitError and raises it
    again, so every row that needs that graph reports the one build.
    """
    built: dict[int, WordGraph | ResourceLimitError] = {}

    def words(ell: int) -> WordGraph:
        if ell not in built:
            try:
                built[ell] = family_word_graph(ell)
            except ResourceLimitError as e:
                built[ell] = e
        if isinstance(built[ell], ResourceLimitError):
            raise built[ell]
        return built[ell]

    return words


def _layered_checks(ell: int, words: Callable[[int], WordGraph]) -> Report:
    g = build_layered_graph(staircase(ell))
    rep = Report(f"layered checks at length {ell}")
    rep.add(_isomorphism_row(ell, g, words))
    # bipartite, so chromatic_number answers without the chromatic sweep
    rep.add(check("chromatic number", chromatic_number(g), 2))
    if ell > 3:
        rep.rows.extend(parity_pair_report(ell - 1).rows)
    return rep


# verify-all runs every audit, in this order, at each length; conjectures
# runs c1, c2 or both
AUDITS = {
    "census": Audit("move-graph census at ell = {ell}", structure_report),
    "layered": Audit("layered checks at length {ell}", _layered_checks),
    "closed form": Audit(
        "layered closed form vs recursion, lengths {ell}..{ell}",
        lambda ell, _words: closed_form_report(ell),
    ),
    "subidentities": Audit(
        "subidentities at length {ell}",
        lambda ell, _words: subidentity_report(ell),
        lo=5,
    ),
    "c1": Audit(
        "separation ideal audit at length {ell}",
        lambda ell, _words: audit_separation_ideal(ell),
        5, "the distinct-parts hypothesis needs length >= 5",
    ),
    "c2": Audit(
        "consecutive-quadric ideal audit at length {ell}",
        lambda ell, _words: audit_quadric_chain_ideal(ell),
        2, "the quadric chain needs length >= 2",
    ),
}


def verify_all(lengths: range, strict: bool = False) -> list[Report]:
    """Every audit at each length, the balance reports through the last,
    and a summary that counts the invariant failures of them all."""
    reports = [triangular_gf_report()]
    hi = lengths[-1]
    for ell in lengths:
        words = _built_once()  # the census and the layered checks share one build
        runs = (audit.run(ell, words) for audit in AUDITS.values())
        reports += [rep for rep in runs if rep is not None]
    reports.append(balance_bound_check(hi))
    reports += [balance_matrix_report(k) for k in range(1, hi // 2 + 1)]
    failures = sum(len(r.invariant_failures()) for r in reports)
    mismatches = sum(len(r.mismatches()) for r in reports)
    summary = Report("summary")
    summary.add(check("invariant failures", failures, 0, kind=INVARIANT))
    summary.note(f"claim mismatches reported: {mismatches}")
    if mismatches and not strict:
        summary.note("claim mismatches do not fail the run without --strict")
    return [*reports, summary]
