import random

import pytest

from iso_oracle import isomorphic_by_permutations
from staircase.errors import DomainError, ResourceLimitError
from staircase.graphs import SimpleGraph
from staircase.layered import (
    BalanceMatrix,
    balance_matrix_report,
    build_layered_graph,
    family_series_report,
    is_isomorphic,
    is_subgraph_order,
    missing_edge_polynomial,
    parity_pair_report,
    vertex_parity_report,
)
from staircase.partition import Partition, staircase
from staircase.perm import staircase_permutation
from staircase.rwgraph import build_word_graph


def test_layer_structure():
    g = build_layered_graph(staircase(4))
    assert g.layer_sizes() == (4, 3, 2, 1)
    assert g.vertex_count == 10
    assert g.edge_count == 12


def test_edges_only_between_consecutive_layers():
    g = build_layered_graph(staircase(5))
    for (i1, _), (i2, _) in g.edges:
        assert abs(i1 - i2) == 1


def test_edge_count_closed_form():
    for ell in range(1, 9):
        g = build_layered_graph(staircase(ell))
        assert g.edge_count == ell * (ell - 1)


def test_isomorphic_to_word_graph():
    for ell in range(3, 7):
        words = build_word_graph(staircase_permutation(ell + 1))
        layered = build_layered_graph(staircase(ell))
        assert is_isomorphic(words, layered)


def test_not_isomorphic_when_sizes_differ():
    assert not is_isomorphic(
        build_layered_graph(staircase(3)), build_layered_graph(staircase(4))
    )


def test_not_isomorphic_same_sizes():
    # path and star on 4 vertices: same vertex and edge counts
    p4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert not is_isomorphic(p4, star)


def test_isomorphism_cap():
    with pytest.raises(ResourceLimitError):
        is_isomorphic(
            build_layered_graph(staircase(8)),
            build_layered_graph(staircase(8)),
            cap=10,
        )


def test_isomorphism_cap_guards_only_the_search():
    # past the cap, the counts and degree sequences still answer
    path = SimpleGraph.from_edges(30, [(i, i + 1) for i in range(29)])
    assert not is_isomorphic(path, SimpleGraph.from_edges(5, [(0, 1)]))
    star = SimpleGraph.from_edges(30, [(0, i) for i in range(1, 30)])
    assert not is_isomorphic(path, star)


def _random_graph(rng: random.Random, n: int) -> SimpleGraph:
    p = rng.choice((0.3, 0.5, 0.7))
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


def _relabelled(g: SimpleGraph, rng: random.Random) -> SimpleGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SimpleGraph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def _double_edge_swap(g: SimpleGraph, rng: random.Random) -> SimpleGraph | None:
    """a-b, c-d become a-d, c-b: the same degrees, perhaps another graph."""
    edges = set(g.edges)
    swaps = [
        (e, f)
        for e in g.edges
        for f in g.edges
        if len({*e, *f}) == 4
        and tuple(sorted((e[0], f[1]))) not in edges
        and tuple(sorted((f[0], e[1]))) not in edges
    ]
    if not swaps:
        return None
    (a, b), (c, d) = rng.choice(swaps)
    return SimpleGraph.from_edges(g.n, (edges - {(a, b), (c, d)}) | {(a, d), (c, b)})


def test_isomorphism_against_the_permutation_oracle():
    rng = random.Random(7)
    swap_answers = set()
    for _ in range(300):
        n = rng.randint(1, 7)
        g = _random_graph(rng, n)
        h = _relabelled(g, rng)
        assert is_isomorphic(g, h) and isomorphic_by_permutations(g, h)
        swapped = _double_edge_swap(g, rng)
        if swapped is not None:
            want = isomorphic_by_permutations(g, swapped)
            assert is_isomorphic(g, swapped) == want
            swap_answers.add(want)
        other = _random_graph(rng, rng.choice([m for m in range(1, 8) if m != n]))
        assert not is_isomorphic(g, other)
        assert not isomorphic_by_permutations(g, other)
    # the swaps give both isomorphic and non-isomorphic pairs
    assert swap_answers == {True, False}


def test_missing_edge_polynomial():
    p = missing_edge_polynomial(5)
    assert p.coeffs == (1, 2, 3, 4, 5)
    # evaluated at 1 the coefficients sum to the triangular number
    assert p(1) == 15


def test_family_series_diagonal():
    rep = family_series_report(4)
    by_name = {r.name: r for r in rep.rows}
    # the polynomial sum starts at z^2, so only those diagonals can agree
    for m in range(2, 5):
        assert by_name[f"coefficient of z^{m} e^{m - 1}"].verdict == "MATCH"
    # away from the diagonal the two sides genuinely disagree
    assert rep.mismatches()
    assert by_name["coefficient of z^2 e^0"].verdict == "MISMATCH"
    assert by_name["coefficient of z^1 e^0"].verdict == "MISMATCH"


def test_subgraph_order():
    assert is_subgraph_order(staircase(3), staircase(5))
    assert not is_subgraph_order(staircase(5), staircase(5))
    assert not is_subgraph_order(staircase(5), staircase(3))


def test_parity_pairs():
    # sizes 10, 15 disagree in parity and the first length is even
    rep = parity_pair_report(staircase(4), staircase(5))
    assert rep.rows[0].observed is False
    assert rep.all_match()
    # sizes 15, 21 share parity and the first length is odd
    rep = parity_pair_report(staircase(5), staircase(6))
    assert rep.rows[0].observed is True
    assert rep.all_match()


def test_parity_pair_wants_consecutive():
    with pytest.raises(DomainError):
        parity_pair_report(staircase(3), staircase(5))


def test_vertex_parity_claim_always_mismatches():
    for ell in (3, 5, 7):
        rep = vertex_parity_report(ell)
        claims = [r for r in rep.rows if r.name == "parity class"]
        assert len(claims) == 1
        assert claims[0].verdict == "MISMATCH"
    with pytest.raises(DomainError):
        vertex_parity_report(4)


def test_balance_matrix_values():
    m = BalanceMatrix(3)
    assert m.entries == ((9, 12), (6, 9))
    assert m.determinant == 9
    assert m.column_sums() == (15, 21)


def test_balance_matrix_report_k_1_to_100():
    for k in range(1, 101):
        assert balance_matrix_report(k).all_match()


def test_layered_rejects_non_staircase():
    with pytest.raises(DomainError):
        build_layered_graph(Partition((3, 1)))
