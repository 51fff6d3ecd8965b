import random
import signal
from collections import Counter
from math import comb

import pytest

from iso_oracle import isomorphic_by_permutations
from layered_oracle import is_subgraph_order
from staircase import layered
from staircase.audits import (
    balance_matrix_report,
    family_series_report,
    parity_pair_report,
    vertex_parity_report,
)
from staircase.chroma import chromatic_polynomial, colour_separation
from staircase.errors import DomainError, ResourceLimitError
from staircase.graphs import SimpleGraph
from staircase.layered import (
    BalanceMatrix,
    build_layered_graph,
    family_image,
    is_isomorphic,
    missing_edge_polynomial,
)
from staircase.partition import Partition, staircase
from staircase.perm import staircase_permutation
from staircase.rwgraph import build_word_graph, count_four_cycles, family_word_graph


def test_layer_structure():
    g = build_layered_graph(staircase(4))
    assert g.layer_sizes == (4, 3, 2, 1)
    assert g.vertex_count == 10
    assert g.edge_count == 12


def test_edges_only_between_consecutive_layers():
    g = build_layered_graph(staircase(5))
    layer = [i for i, size in enumerate(g.layer_sizes) for _ in range(size)]
    for a, b in g.edges:
        assert layer[b] - layer[a] == 1


def test_edge_count_closed_form():
    for ell in range(1, 9):
        g = build_layered_graph(staircase(ell))
        assert g.edge_count == ell * (ell - 1)


def test_isomorphic_to_word_graph():
    for ell in range(3, 7):
        words = build_word_graph(staircase_permutation(ell + 1))
        layered = build_layered_graph(staircase(ell))
        assert is_isomorphic(words, layered)


def test_family_image_carries_the_move_graph_onto_the_layered_graph():
    for ell in range(3, 61):
        words, diagonals = family_word_graph(ell), build_layered_graph(staircase(ell))
        image = family_image(ell, words.words)
        assert sorted(image) == list(range(diagonals.n)), ell
        moved = SimpleGraph.from_edges(words.n, [(image[a], image[b]) for a, b, _ in words.edges])
        assert moved.edges == diagonals.edges, ell
    for ell in (1, 2):
        with pytest.raises(DomainError):
            family_image(ell, [])


def test_engines_take_both_family_graphs_as_they_are():
    for ell in range(3, 7):
        words, diagonals = family_word_graph(ell), build_layered_graph(staircase(ell))
        assert chromatic_polynomial(words) == chromatic_polynomial(diagonals)
        assert count_four_cycles(words) == count_four_cycles(diagonals)
        # the numberings differ, so compare the colour class sizes
        sep = colour_separation(ell)
        for g in (words, diagonals):
            assert sorted(Counter(g.two_colouring()).values()) == [sep.kappa, sep.mu]


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


def _random_regular(rng: random.Random, n: int, k: int) -> SimpleGraph:
    """A k-regular simple graph by the pairing model with restarts."""
    while True:
        points = [v for v in range(n) for _ in range(k)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i : i + 2])) for i in range(0, len(points), 2)}
        if len(edges) == len(points) // 2 and all(a != b for a, b in edges):
            return SimpleGraph.from_edges(n, edges)


def _is_connected(g: SimpleGraph) -> bool:
    adj = g.adjacency()
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == g.n


def test_isomorphism_of_regular_graphs_against_the_oracle():
    # every vertex of a regular graph has one signature, so nothing but
    # the search tells these pairs apart
    rng = random.Random(11)
    connected, answers = set(), set()
    for _ in range(40):
        k = rng.choice((2, 3))
        n = rng.choice((3, 4, 5, 6, 7, 8) if k == 2 else (4, 6, 8))
        g = _random_regular(rng, n, k)
        connected.add(_is_connected(g))
        assert is_isomorphic(g, _relabelled(g, rng))
        swapped = _double_edge_swap(g, rng)
        others = [_random_regular(rng, n, k)] + ([swapped] if swapped else [])
        for h in others:
            want = isomorphic_by_permutations(g, h)
            assert is_isomorphic(g, h) == want
            assert is_isomorphic(_relabelled(h, rng), g) == want
            answers.add(want)
    assert connected == {True, False}
    assert answers == {True, False}


def _rook_4x4() -> SimpleGraph:
    return SimpleGraph.from_edges(
        16,
        [(a, b) for a in range(16) for b in range(a + 1, 16)
         if a // 4 == b // 4 or a % 4 == b % 4],
    )


def _shrikhande() -> SimpleGraph:
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return SimpleGraph.from_edges(
        16,
        [(a, b) for a in range(16) for b in range(a + 1, 16)
         if ((b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4) in steps],
    )


def _cycles(*lengths: int) -> SimpleGraph:
    edges, start = [], 0
    for m in lengths:
        edges += [(start + i, start + (i + 1) % m) for i in range(m)]
        start += m
    return SimpleGraph.from_edges(start, edges)


def test_isomorphism_on_pairs_beyond_the_oracle():
    rook, shrikhande = _rook_4x4(), _shrikhande()
    # both strongly regular with parameters (16, 6, 2, 2)
    for g in (rook, shrikhande):
        assert list(map(len, g.adjacency())) == [6] * 16
    assert not is_isomorphic(rook, shrikhande)
    assert not is_isomorphic(shrikhande, rook)
    assert is_isomorphic(rook, _relabelled(rook, random.Random(3)))
    assert not is_isomorphic(_cycles(14, 14), _cycles(28))
    assert not is_isomorphic(_cycles(7, 7, 7, 7), _cycles(28))
    assert is_isomorphic(_cycles(7, 7, 7, 7), _relabelled(_cycles(7, 7, 7, 7), random.Random(5)))


def _family_pair(ell: int):
    words = build_word_graph(staircase_permutation(ell + 1), max_degree=ell + 1)
    return words, build_layered_graph(staircase(ell))


@pytest.mark.parametrize("ell", [15, 20, 30])
def test_family_isomorphism_at_census_lengths(ell):
    assert is_isomorphic(*_family_pair(ell), cap=comb(ell + 1, 2))


def test_isomorphism_search_deeper_than_the_recursion_limit():
    path = SimpleGraph.from_edges(1200, [(i, i + 1) for i in range(1199)])
    shuffled = _relabelled(path, random.Random(1))
    assert is_isomorphic(path, shuffled, cap=1200)
    # 1,035 vertices
    assert is_isomorphic(*_family_pair(45), cap=comb(46, 2))


def _within(seconds: float, answer):
    """answer(), or None if it takes longer than ``seconds``."""

    def expire(_signum, _frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return answer()
    except TimeoutError:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_isomorphism_refuses_a_wrong_choice_when_it_is_made():
    # Root 0 has children w=1, v=2, eleven twin leaves and z=14; w-z,
    # v-y and y-q are the other edges, so w, v and z share a signature.
    # The second graph swaps the labels of v and z.  Candidates come in
    # increasing label order, so vertex 2 is first tried at the other
    # graph's vertex 2, which plays the other role: next to w's image
    # when vertex 2 is v, not next to w when vertex 2 is z.  The reverse
    # half of the check (placed neighbours of the image) refuses the
    # first wrong choice at once, the forward half (placed neighbours of
    # the vertex) the second.  Without that half the search places the
    # leaves in all 11! orders before the mistake shows, which takes
    # minutes, not milliseconds.
    k = 11
    v, z, y, q = 2, k + 3, k + 4, k + 5
    edges = [(0, 1), (0, v), (0, z), (1, z), (v, y), (y, q)]
    edges += [(0, leaf) for leaf in range(3, k + 3)]
    swap = {v: z, z: v}
    g = SimpleGraph.from_edges(k + 6, edges)
    h = SimpleGraph.from_edges(k + 6, [(swap.get(a, a), swap.get(b, b)) for a, b in edges])
    assert _within(2.0, lambda: is_isomorphic(g, h)) is True
    assert _within(2.0, lambda: is_isomorphic(h, g)) is True


def _disjoint_cycles(lengths: list[int]) -> SimpleGraph:
    edges, offset = [], 0
    for k in lengths:
        edges += [(offset + i, offset + (i + 1) % k) for i in range(k)]
        offset += k
    return SimpleGraph.from_edges(offset, edges)


def test_isomorphism_compares_component_sizes_before_searching():
    # 24 vertices each, every signature (2, 2): the search would map the
    # eight triangles onto the five in every order and rotation first,
    # which took the better part of a minute
    g = _disjoint_cycles([3] * 8)
    h = _disjoint_cycles([3] * 5 + [9])
    assert _within(2.0, lambda: is_isomorphic(g, h)) is False
    assert _within(2.0, lambda: is_isomorphic(h, g)) is False


def test_isomorphism_compares_signatures_before_the_cap(monkeypatch):
    # 7 vertices, 6 edges and degrees [1, 1, 2, 2, 2, 2, 2] on both sides,
    # but the path's inner vertices see a leaf: the signatures answer
    # before the vertex cap or the placement cap is reached
    p4_c3 = SimpleGraph.from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4)])
    p2_c5 = SimpleGraph.from_edges(7, [(0, 1)] + [(2 + i, 2 + (i + 1) % 5) for i in range(5)])
    monkeypatch.setattr(layered, "MAX_ISO_NODES", 0)
    assert is_isomorphic(p4_c3, p2_c5, cap=1) is False
    assert is_isomorphic(p2_c5, p4_c3, cap=1) is False


def _union(*parts: list[tuple[int, int]]) -> SimpleGraph:
    # disjoint copies of six-vertex graphs
    edges = [(a + 6 * k, b + 6 * k) for k, part in enumerate(parts) for a, b in part]
    return SimpleGraph.from_edges(6 * len(parts), edges)


def test_isomorphism_matches_components_one_at_a_time():
    # 24 vertices, every signature (3, 3, 3): a search over the whole
    # graph mapped the K_{3,3} components onto the second's in every
    # order and automorphism before the extra one failed, which took
    # 27 s; matched component by component, the third K_{3,3} finds no
    # partner at once
    k33 = [(i, j) for i in range(3) for j in range(3, 6)]
    prism = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    g = _union(prism, k33, k33, k33)
    h = _union(prism, prism, k33, k33)
    assert _within(2.0, lambda: is_isomorphic(g, h)) is False
    assert _within(2.0, lambda: is_isomorphic(h, g)) is False
    assert _within(2.0, lambda: is_isomorphic(g, _union(k33, k33, prism, k33))) is True


def test_isomorphism_placement_cap(monkeypatch):
    # the family search places 36 vertices at length 8, one per vertex
    g8 = build_layered_graph(staircase(8))
    monkeypatch.setattr(layered, "MAX_ISO_NODES", 36)
    assert is_isomorphic(g8, g8)
    monkeypatch.setattr(layered, "MAX_ISO_NODES", 35)
    with pytest.raises(
        ResourceLimitError, match="36 isomorphism search placements exceed the cap 35"
    ):
        is_isomorphic(g8, g8)


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
    rep = parity_pair_report(4)
    assert rep.rows[0].observed is False
    assert all(r.verdict == "MATCH" for r in rep.rows)
    # sizes 15, 21 share parity and the first length is odd
    rep = parity_pair_report(5)
    assert rep.rows[0].observed is True
    assert all(r.verdict == "MATCH" for r in rep.rows)


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
        assert all(r.verdict == "MATCH" for r in balance_matrix_report(k).rows)


def test_layered_rejects_non_staircase():
    with pytest.raises(DomainError):
        build_layered_graph(Partition((3, 1)))
