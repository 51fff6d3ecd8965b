import random
import time
from math import comb, perm

import pytest

from staircase import audits, chroma
from staircase.audits import balance_bound_check, closed_form_report
from staircase.chroma import (
    chromatic_number,
    chromatic_polynomial,
    colour_separation,
    layered_closed_form,
    shared_balance_check,
)
from staircase.cli import main
from staircase.errors import DomainError, ResourceLimitError
from staircase.graphs import SimpleGraph
from staircase.layered import build_layered_graph
from staircase.partition import staircase
from staircase.poly import IntPolynomial

from chroma_oracle import (
    count_colourings,
    deletion_contraction,
    square_chain,
    square_chain_closed_form,
)

K = IntPolynomial.variable()


def test_known_small_polynomials():
    tri = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert chromatic_polynomial(tri) == K * (K - 1) * (K - 2)
    path = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert chromatic_polynomial(path) == K * (K - 1) ** 2
    empty = SimpleGraph.from_edges(3, [])
    assert chromatic_polynomial(empty) == K ** 3


def test_square_chain_closed_form():
    for d in range(1, 5):
        g = square_chain(d)
        assert g.n == 2 * (d + 1)
        assert chromatic_polynomial(g) == square_chain_closed_form(d)


def test_smallest_layered_graph_matches_formula():
    g = build_layered_graph(staircase(3))
    assert chromatic_polynomial(g) == layered_closed_form(3)
    assert layered_closed_form(3) == K * (K - 1) ** 3 * (K * K - 3 * K + 3)


def test_formula_diverges_from_length_five():
    assert chromatic_polynomial(
        build_layered_graph(staircase(4))
    ) == layered_closed_form(4)
    chi5 = chromatic_polynomial(build_layered_graph(staircase(5)))
    assert chi5 != layered_closed_form(5)
    assert chi5.degree() == comb(6, 2)
    assert layered_closed_form(5).degree() == 16


def test_recursion_degree_is_vertex_count():
    # the polynomial must also agree with the two-colouring: P(1) = 0 < P(2)
    for ell in range(3, 11):
        chi = chromatic_polynomial(build_layered_graph(staircase(ell)))
        assert chi.degree() == comb(ell + 1, 2)
        assert chi(1) == 0
        assert chi(2) > 0


def test_closed_form_report_findings():
    reps = [closed_form_report(ell) for ell in range(3, 7)]
    assert not any(rep.invariant_failures() for rep in reps)
    names = {r.name for rep in reps for r in rep.mismatches()}
    assert "formula equals recursion at length 5" in names
    assert "formula equals recursion at length 6" in names


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_closed_form_report_checks_its_floor_before_the_sweep(ell, monkeypatch):
    def no_sweep(g):
        raise AssertionError("swept below the closed form's floor")

    monkeypatch.setattr(audits, "chromatic_polynomial", no_sweep)
    with pytest.raises(DomainError, match=f"closed form starts at length 3, got {ell}$"):
        closed_form_report(ell)


def test_chromatic_number_is_two():
    for ell in range(3, 7):
        g = build_layered_graph(staircase(ell))
        assert chromatic_number(g) == 2


def test_chromatic_number_non_bipartite():
    tri = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert chromatic_number(tri) == 3
    single = SimpleGraph.from_edges(1, [])
    assert chromatic_number(single) == 1


def test_state_cap(monkeypatch):
    g = build_layered_graph(staircase(6))
    monkeypatch.setattr(chroma, "MAX_FRONTIER_STATES", 3)
    with pytest.raises(ResourceLimitError, match="4 frontier states exceed the cap 3"):
        chromatic_polynomial(g)


@pytest.mark.parametrize("ell, peak", [(6, 7), (10, 114), (13, 2589)])
def test_sweep_state_space_on_the_family_is_pinned(monkeypatch, ell, peak):
    # the most live states the sweep holds at once; a canonical form that
    # kept two forms of one partition apart would need more
    g = build_layered_graph(staircase(ell))
    monkeypatch.setattr(chroma, "MAX_FRONTIER_STATES", peak)
    assert chromatic_polynomial(g).degree() == g.n
    monkeypatch.setattr(chroma, "MAX_FRONTIER_STATES", peak - 1)
    with pytest.raises(ResourceLimitError, match=f"^{peak} frontier states exceed the cap {peak - 1}$"):
        chromatic_polynomial(g)


def test_state_cap_stops_the_cli_quickly(capsys):
    # length 15 is the first whose sweep needs more than the default cap;
    # at 70 the graph has 2,485 vertices and the claimed form degree 4,696
    for ell in (15, 70):
        start = time.monotonic()
        assert main(["chroma", "--ell", str(ell)]) == 3
        assert time.monotonic() - start < 5.0
        assert f"exceed the cap {chroma.MAX_FRONTIER_STATES}" in capsys.readouterr().err


def _random_graph(rng: random.Random) -> SimpleGraph:
    n = rng.randint(1, 9)
    p = rng.choice((0.3, 0.5, 0.7))
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


def test_sweep_matches_deletion_contraction_on_the_family():
    for ell in range(1, 7):
        g = build_layered_graph(staircase(ell))
        assert chromatic_polynomial(g) == deletion_contraction(g)


def test_sweep_matches_deletion_contraction_on_square_chains():
    for d in range(1, 7):
        g = square_chain(d)
        assert chromatic_polynomial(g) == deletion_contraction(g)


def test_sweep_on_random_graphs():
    rng = random.Random(2310)
    for _ in range(50):
        g = _random_graph(rng)
        chi = chromatic_polynomial(g)
        assert chi == deletion_contraction(g), g
        for k in range(5):
            assert chi(k) == count_colourings(g, k), (g, k)


def test_sweep_on_complete_graphs_through_several_field_widths():
    # K_n gives the falling factorial, fixed by its values at 0..n; by
    # n = 20 the sweep has widened the packed weights from 64 to 512 bits,
    # one doubling at a time
    for n in range(1, 21):
        g = SimpleGraph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
        chi = chromatic_polynomial(g)
        assert chi.degree() == n
        assert [chi(k) for k in range(n + 1)] == [perm(k, n) for k in range(n + 1)]


def test_sweep_on_a_non_planar_random_graph():
    rng = random.Random(4409)
    pairs = [(a, b) for a in range(9) for b in range(a + 1, 9)]
    g = SimpleGraph.from_edges(9, rng.sample(pairs, 22))
    assert g.edge_count > 3 * g.n - 6  # more edges than any planar graph on 9 vertices
    assert chromatic_polynomial(g) == deletion_contraction(g)


def test_closed_form_expansion_stops_at_the_product_cap():
    m = comb(29, 2)
    formula = layered_closed_form(30)
    assert formula.degree() == 4 + 2 * m
    assert formula(5) == 5 * 4**3 * 13**m
    start = time.monotonic()
    with pytest.raises(ResourceLimitError, match="bits of a packed polynomial product"):
        layered_closed_form(70)
    assert time.monotonic() - start < 1.0


def test_chromatic_number_matches_colouring_count():
    rng = random.Random(17613)
    for _ in range(50):
        g = _random_graph(rng)
        t = 1
        while count_colourings(g, t) == 0:
            t += 1
        assert chromatic_number(g) == t, g


def test_colour_separation_values():
    assert (colour_separation(5).mu, colour_separation(5).kappa) == (9, 6)
    sep6 = colour_separation(6)
    assert (sep6.mu, sep6.kappa) == (12, 9)
    assert sep6.balance == 3


def test_separation_agrees_with_two_colouring():
    for ell in range(1, 10):
        sep = colour_separation(ell)
        g = build_layered_graph(staircase(ell))
        colours = g.two_colouring()
        assert colours is not None
        sizes = {colours.count(0), colours.count(1)}
        assert {sep.mu, sep.kappa} == sizes or sep.mu == sep.kappa
        assert sep.mu >= sep.kappa
        assert sep.mu + sep.kappa == staircase(ell).size


def test_balance_hits_bound_at_every_length():
    for ell in range(1, 51):
        sep = colour_separation(ell)
        assert sep.balance == (ell + 1) // 2


def test_balance_bound_report():
    rep = balance_bound_check(10)
    assert not rep.invariant_failures()
    # the even-lengths-only equality claim fails at every odd length
    assert len(rep.mismatches()) == 5


def test_shared_balance():
    for k in range(1, 11):
        assert shared_balance_check(k)
