import random
import time
from itertools import permutations
from math import comb

import pytest

from perm_oracle import enumerate_reduced_words
from rwgraph_oracle import all_pairs_edges, detect_move, four_cycles_by_subsets
from staircase import rwgraph
from staircase.audits import structure_report
from staircase.errors import ResourceLimitError
from staircase.graphs import SimpleGraph
from staircase.perm import staircase_permutation
from staircase.report import MISMATCH
from staircase.rwgraph import build_word_graph, count_four_cycles


def test_detect_move_kinds():
    assert detect_move((1, 2, 1), (2, 1, 2)) == "braid"
    assert detect_move((1, 3, 2), (3, 1, 2)) == "commutation"
    assert detect_move((1, 2, 1), (1, 2, 1)) is None
    assert detect_move((1, 2, 3), (3, 2, 1)) is None


def test_census_values():
    # (ell, vertices, edges, braid, four_cycles)
    expected = {
        3: (6, 6, 2, 1),
        4: (10, 12, 3, 3),
        5: (15, 20, 4, 6),
        6: (21, 30, 5, 10),
    }
    for ell, (v, e, b, c) in expected.items():
        g = build_word_graph(staircase_permutation(ell + 1))
        assert g.vertex_count == v == comb(ell + 1, 2)
        assert g.edge_count == e == ell * (ell - 1)
        assert g.braid_edge_count() == b == ell - 1
        assert count_four_cycles(g) == c == comb(ell - 1, 2)
        assert g.vertex_count + count_four_cycles(g) - g.edge_count == 1


def test_printed_edge_claim_is_flagged():
    rep = structure_report(5)
    flagged = [r for r in rep.mismatches() if "printed" in r.name]
    assert len(flagged) == 1
    assert flagged[0].observed == 20
    assert flagged[0].claimed == 30
    assert flagged[0].verdict == MISMATCH


def test_structure_report_other_rows_match():
    for ell in (3, 4):
        rep = structure_report(ell)
        bad = [r for r in rep.mismatches() if "printed" not in r.name]
        assert bad == []


def test_four_cycles_are_chordless():
    # a 4-clique holds no chordless 4-cycle; K_{2,3} holds one per pair
    # of its three-side vertices
    k4 = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    c4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k23 = SimpleGraph.from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    for g, want in ((k4, 0), (c4, 1), (k23, 3)):
        assert count_four_cycles(g) == four_cycles_by_subsets(g) == want


def test_edges_match_the_all_pairs_oracle():
    for ell in range(3, 10):
        g = build_word_graph(staircase_permutation(ell + 1))
        assert g.edges == all_pairs_edges(g.words), ell


def test_graph_matches_both_oracles_beyond_the_family():
    # every permutation of S_5 and 30 seeded draws from S_6; the all-pairs
    # edge oracle is O(V^2), and the largest of these draws has 2,310 words
    rng = random.Random(25)
    draws = []
    for _ in range(30):
        w = list(range(1, 7))
        rng.shuffle(w)
        draws.append(tuple(w))
    for w in [*permutations(range(1, 6)), *draws]:
        g = build_word_graph(w)
        assert g.words == enumerate_reduced_words(w), w
        assert g.edges == all_pairs_edges(g.words), w


@pytest.mark.parametrize("n, lo", [(256, 252), (300, 254)])
def test_large_letters_match_both_oracles(n, lo):
    # the degree-n identity reversed on positions lo..lo+4: the longest
    # element of S_5 on the letters lo..lo+3, the largest 255 at n = 256
    # and 257 at n = 300, past one byte
    w = list(range(1, n + 1))
    w[lo - 1 : lo + 4] = reversed(w[lo - 1 : lo + 4])
    g = build_word_graph(w)
    assert g.vertex_count == 768
    assert all(type(word) is tuple and all(type(a) is int for a in word) for word in g.words)
    assert g.words == enumerate_reduced_words(w)
    assert g.edges == all_pairs_edges(g.words)
    # every word is made from the first by moves, so no letter is copied
    assert len({id(a) for word in g.words for a in word}) <= len(g.words[0])


def test_move_graph_work_counts_are_pinned(monkeypatch):
    # Counts, not timings: the search stores each word once, 78 words of
    # 14 letters at length 12 and 465 of 32 at length 30.  A memo of
    # every permutation below w, as in perm_oracle (141,700 letters at
    # length 30), fails here on any machine.
    for ell, letters in ((12, 1092), (30, 14_880)):
        w = staircase_permutation(ell + 1)
        monkeypatch.setattr(rwgraph, "MAX_REDUCED_LETTERS", letters)
        assert build_word_graph(w).vertex_count == comb(ell + 1, 2)
        monkeypatch.setattr(rwgraph, "MAX_REDUCED_LETTERS", letters - 1)
        with pytest.raises(
            ResourceLimitError,
            match=f"^{letters} stored reduced-word letters exceed the cap {letters - 1}$",
        ):
            build_word_graph(w)


def test_the_first_word_counts_against_the_letter_cap(monkeypatch):
    # the start word alone is 14 letters at length 12
    monkeypatch.setattr(rwgraph, "MAX_REDUCED_LETTERS", 13)
    with pytest.raises(
        ResourceLimitError, match="^14 stored reduced-word letters exceed the cap 13$"
    ):
        build_word_graph(staircase_permutation(13))


def test_four_cycles_match_the_subset_oracle_on_the_family():
    for ell in range(3, 10):
        g = build_word_graph(staircase_permutation(ell + 1))
        assert count_four_cycles(g) == four_cycles_by_subsets(g), ell


def test_four_cycles_match_the_subset_oracle_on_random_graphs():
    rng = random.Random(4410)
    for _ in range(200):
        n = rng.randint(1, 9)
        p = rng.choice((0.3, 0.5, 0.7))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        g = SimpleGraph.from_edges(n, edges)
        assert count_four_cycles(g) == four_cycles_by_subsets(g), g


def test_census_at_large_lengths():
    # past the default degree cap and far past the C(V, 4) oracle's reach
    start = time.monotonic()
    for ell in (12, 20, 40):
        g = build_word_graph(staircase_permutation(ell + 1), max_degree=ell + 1)
        assert g.vertex_count == comb(ell + 1, 2)
        assert g.edge_count == ell * (ell - 1)
        assert g.braid_edge_count() == ell - 1
        assert count_four_cycles(g) == comb(ell - 1, 2)
    assert time.monotonic() - start < 5.0


def test_dot_is_deterministic():
    g1 = build_word_graph(staircase_permutation(5))
    g2 = build_word_graph(staircase_permutation(5))
    assert g1.to_dot() == g2.to_dot()
    assert g1.to_dot().startswith("graph")
