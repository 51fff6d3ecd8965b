from math import comb

import pytest

from staircase.errors import DomainError, MalformedPermutationError, ResourceLimitError
from staircase.perm import staircase_permutation, word_to_str
from staircase.rwgraph import build_word_graph

from perm_oracle import apply_word, descents, enumerate_reduced_words, inversions


def test_staircase_permutation_small():
    # the rising prefix 2..r-3 is empty at r = 4
    assert staircase_permutation(4) == (4, 2, 3, 1)
    assert staircase_permutation(5) == (2, 5, 3, 4, 1)
    assert staircase_permutation(6) == (2, 3, 6, 4, 5, 1)


def test_staircase_permutation_rejects_small_r():
    with pytest.raises(DomainError):
        staircase_permutation(3)


def test_inversion_count_is_r_plus_1():
    for r in range(4, 10):
        assert inversions(staircase_permutation(r)) == r + 1


def test_word_count_is_binomial():
    for r in range(4, 8):
        words = build_word_graph(staircase_permutation(r)).words
        assert len(words) == comb(r, 2)
        assert len(set(words)) == len(words)


def test_words_multiply_back():
    w = staircase_permutation(5)
    for word in build_word_graph(w).words:
        assert len(word) == inversions(w)
        assert apply_word(word, 5) == w


def test_worked_example_word_set():
    words = {word_to_str(w) for w in build_word_graph((3, 5, 1, 2, 4)).words}
    assert words == {"42312", "24312", "42132", "24132", "21432"}


def test_reduced_word_count_shortcut():
    assert len(build_word_graph(staircase_permutation(6)).words) == 15


def test_descents():
    assert descents((2, 4, 3, 1)) == (2, 3)
    assert descents((1, 2, 3)) == ()


def test_rejects_malformed_permutations():
    with pytest.raises(MalformedPermutationError):
        build_word_graph((1, 1, 2))
    with pytest.raises(MalformedPermutationError):
        inversions((0, 1, 2))


def test_identity_has_one_empty_word():
    assert build_word_graph((1, 2, 3)).words == ((),)


def test_word_cap_is_a_resource_limit():
    w = staircase_permutation(13)
    # no degree cap by default; an explicit one still refuses at once
    assert build_word_graph(w).vertex_count == comb(13, 2)
    with pytest.raises(ResourceLimitError, match="^13 permutation entries exceed the cap 12$"):
        build_word_graph(w, max_degree=12)
    assert build_word_graph(w, max_degree=13).vertex_count == comb(13, 2)


def test_oracle_counts_the_words_of_the_longest_element_of_s6():
    # Stanley's hook-length count, 14,539,947 letters across the memo
    assert len(enumerate_reduced_words(tuple(range(6, 0, -1)))) == 292_864
