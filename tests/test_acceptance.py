"""Acceptance gate: the thirteen headline checks, one printed line each."""

import json
import time
from math import comb

from staircase.chroma import (
    balance_bound_check,
    chromatic_number,
    chromatic_polynomial,
    colour_separation,
    layered_closed_form,
    shared_balance_check,
)
from staircase.cli import main
from staircase.graphs import SimpleGraph
from staircase.identities import (
    colour_separation_identity,
    is_primitive,
    parity_split,
    primitive_subidentities,
)
from staircase.layered import (
    BalanceMatrix,
    build_layered_graph,
    family_series_report,
    is_isomorphic,
)
from staircase.partition import staircase, triangular_gf_report
from staircase.perm import enumerate_reduced_words, staircase_permutation, word_to_str
from staircase.poly import IntPolynomial
from staircase.rwgraph import (
    build_word_graph,
    count_four_cycles,
    structure_report,
)
from staircase.toric import (
    audit_quadric_chain_ideal,
    audit_separation_ideal,
    consecutive_quadric_ideal,
    hilbert,
    initial_ideal,
    groebner_basis,
    separation_ideal,
    standard_monomial_counts,
)

from chroma_oracle import square_chain, square_chain_closed_form

K = IntPolynomial.variable()


def _verdict(capsys, number: int, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number:02d}: {text}"


def test_criterion_01_word_counts(capsys):
    start = time.monotonic()
    counts = tuple(
        len(enumerate_reduced_words(staircase_permutation(r))) for r in range(4, 9)
    )
    elapsed = time.monotonic() - start
    ok = counts == (6, 10, 15, 21, 28) and elapsed < 5.0
    _verdict(capsys, 1, ok, f"word counts {counts} in {elapsed:.2f}s")


def test_criterion_02_worked_example_set(capsys):
    words = {word_to_str(w) for w in enumerate_reduced_words((3, 5, 1, 2, 4))}
    expected = {"42312", "24312", "42132", "24132", "21432"}
    _verdict(capsys, 2, words == expected, f"reduced words of 35124 = {sorted(words)}")


def test_criterion_03_graph_census_and_flag(capsys):
    ok = True
    for ell in range(3, 7):
        g = build_word_graph(staircase_permutation(ell + 1))
        ok = ok and g.vertex_count == comb(ell + 1, 2)
        ok = ok and g.braid_edge_count() == ell - 1
        cycles = count_four_cycles(g)
        ok = ok and cycles == comb(ell - 1, 2)
        ok = ok and g.vertex_count + cycles - g.edge_count == 1
        ok = ok and g.edge_count == ell * (ell - 1)
        rep = structure_report(ell)
        flagged = [
            r for r in rep.mismatches()
            if "printed" in r.name and r.claimed == ell * (ell + 1)
        ]
        ok = ok and len(flagged) == 1
    _verdict(capsys, 3, ok, "census for lengths 3..6 with the printed edge claim flagged")


def test_criterion_04_isomorphism(capsys):
    start = time.monotonic()
    ok = all(
        is_isomorphic(
            build_word_graph(staircase_permutation(ell + 1)),
            build_layered_graph(staircase(ell)),
        )
        for ell in range(3, 7)
    )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _verdict(capsys, 4, ok, f"word and layered graphs isomorphic, lengths 3..6, {elapsed:.2f}s")


def test_criterion_05_chromatic_closed_forms(capsys):
    ok = all(
        chromatic_polynomial(square_chain(d)) == square_chain_closed_form(d)
        for d in range(1, 5)
    )
    chi3 = chromatic_polynomial(build_layered_graph(staircase(3)))
    ok = ok and chi3 == K * (K - 1) ** 3 * (K * K - 3 * K + 3)
    _verdict(capsys, 5, ok, "square chains d=1..4 and the length-3 layered graph")


def test_criterion_06_degree_audit(capsys):
    ok = True
    findings = 0
    for ell in range(4, 7):
        chi = chromatic_polynomial(build_layered_graph(staircase(ell)))
        ok = ok and chi.degree() == comb(ell + 1, 2)
        if chi != layered_closed_form(ell):
            findings += 1
    ok = ok and findings == 2
    _verdict(capsys, 6, ok, "dc degree equals vertex count; formula diverges at lengths 5, 6")


def test_criterion_07_chromatic_number(capsys):
    ok = True
    for ell in range(3, 7):
        g = build_layered_graph(staircase(ell))
        ok = ok and chromatic_number(g) == 2 and g.two_colouring() is not None
    _verdict(capsys, 7, ok, "chromatic number 2 for lengths 3..6, bipartiteness agrees")


def test_criterion_08_separations_and_balance(capsys):
    sep5, sep6 = colour_separation(5), colour_separation(6)
    ok = (sep5.mu, sep5.kappa) == (9, 6) and (sep6.mu, sep6.kappa) == (12, 9)
    for ell in range(1, 51):
        sep = colour_separation(ell)
        bound = (ell + 1) // 2
        ok = ok and sep.balance <= bound
        # the class-size closed forms give equality at every length
        ok = ok and sep.balance == bound
    rep = balance_bound_check(50)
    ok = ok and not rep.invariant_failures()
    ok = ok and all(shared_balance_check(k) for k in range(1, 11))
    _verdict(capsys, 8, ok, "separations (9,6), (12,9); balance meets its bound; shared k=1..10")


def test_criterion_09_balance_matrix(capsys):
    ok = True
    for k in range(1, 101):
        m = BalanceMatrix(k)
        ok = ok and m.determinant == k * k
        sums = m.column_sums()
        ok = ok and sums == (2 * k * k - k, 2 * k * k + k)
        ok = ok and sums == (staircase(2 * k - 1).size, staircase(2 * k).size)
    _verdict(capsys, 9, ok, "determinant and column sums for k = 1..100")


def test_criterion_10_identity_audit(capsys):
    ok = True
    for ell in range(5, 10):
        ident = colour_separation_identity(ell)
        ok = ok and len(set(ident.lhs + ident.rhs)) == len(ident.lhs + ident.rhs)
        ok = ok and not is_primitive(ident)
        prims = list(primitive_subidentities(ident))
        splits = parity_split(ell)
        ok = ok and all(s in prims for s in splits)
        ok = ok and sum(1 for p in prims if p in splits) == 2
    _verdict(capsys, 10, ok, "distinct parts, non-primitive, both parity splits primitive, lengths 5..9")


def test_criterion_11_separation_ideal_audit(capsys):
    ok = True
    detail = []
    for ell in (5, 6):
        start = time.monotonic()
        ideal = separation_ideal(ell)
        ok = ok and all(g.in_kernel(ideal.weights) for g in ideal.generators)
        rep = audit_separation_ideal(ell)
        by_name = {r.name: r for r in rep.rows}
        ok = ok and by_name["dimension"].claimed == ell
        ok = ok and by_name["degree"].claimed == ((ell + 1) // 2) * (ell // 2)
        ok = ok and by_name["dimension"].verdict == "MATCH"
        ok = ok and by_name["degree"].verdict == "MATCH"
        kernel = by_name.get("the two relations generate the weight kernel")
        ok = ok and kernel is not None and kernel.observed is False
        ok = ok and kernel.note.startswith(
            f"{ell + 1} of {ell + 1} kernel generators lie outside; first x1^2 - x2"
        )
        mi = initial_ideal(groebner_basis(ideal.generators), ideal.nvars)
        hd = hilbert(mi)
        ok = ok and hd.numerator.series_prefix(ideal.nvars, 8) == standard_monomial_counts(mi, 8)
        elapsed = time.monotonic() - start
        ok = ok and elapsed < 60.0
        detail.append(f"length {ell} in {elapsed:.2f}s")
    _verdict(capsys, 11, ok, "; ".join(detail))


def test_criterion_12_quadric_chain_audit(capsys):
    start = time.monotonic()
    ok = True
    for ell in (2, 3, 4, 5):
        rep = audit_quadric_chain_ideal(ell)
        by_name = {r.name: r for r in rep.rows}
        ok = ok and by_name["generator count"].observed == ell - 1
        ok = ok and by_name["generators vanish under x_i -> t^i"].verdict == "MATCH"
        ok = ok and by_name["dimension"].claimed == 2
        ok = ok and by_name["degree"].claimed == 2 ** (ell - 1)
        ok = ok and by_name["dimension"].verdict == "MATCH"
        ok = ok and by_name["degree"].verdict == "MATCH"
    for ell, want in ((2, 2), (3, 4)):
        ideal = consecutive_quadric_ideal(ell)
        mi = initial_ideal(groebner_basis(ideal.generators), ideal.nvars)
        counts = standard_monomial_counts(mi, 8)
        hd = hilbert(mi)
        ok = ok and hd.degree == want
        ok = ok and hd.numerator.series_prefix(ideal.nvars, 8) == counts
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _verdict(capsys, 12, ok, f"quadric chains, lengths 2..5, in {elapsed:.2f}s")


def test_criterion_13_series_and_determinism(capsys):
    ok = all(r.verdict == "MATCH" for r in triangular_gf_report().rows)
    rep1 = family_series_report(4)
    rep2 = family_series_report(4)
    ok = ok and rep1.to_json() == rep2.to_json()
    ok = ok and [r.name for r in rep1.mismatches()] == [r.name for r in rep2.mismatches()]
    code1 = main(["verify-all", "--ell", "3..5", "--format", "json"])
    out1 = capsys.readouterr().out
    code2 = main(["verify-all", "--ell", "3..5", "--format", "json"])
    out2 = capsys.readouterr().out
    ok = ok and code1 == code2 == 0 and out1 == out2 and json.loads(out1)
    _verdict(capsys, 13, bool(ok), "series truncations and byte-identical repeated runs")
