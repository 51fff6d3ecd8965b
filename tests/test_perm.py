import time
from math import comb

import pytest

from staircase import perm
from staircase.errors import DomainError, MalformedPermutationError, ResourceLimitError
from staircase.perm import enumerate_reduced_words, staircase_permutation, word_to_str

from perm_oracle import apply_word, descents, inversions


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
        words = enumerate_reduced_words(staircase_permutation(r))
        assert len(words) == comb(r, 2)
        assert len(set(words)) == len(words)


def test_words_multiply_back():
    w = staircase_permutation(5)
    for word in enumerate_reduced_words(w):
        assert len(word) == inversions(w)
        assert apply_word(word, 5) == w


def test_worked_example_word_set():
    words = {word_to_str(w) for w in enumerate_reduced_words((3, 5, 1, 2, 4))}
    assert words == {"42312", "24312", "42132", "24132", "21432"}


def test_reduced_word_count_shortcut():
    assert len(enumerate_reduced_words(staircase_permutation(6))) == 15


def test_descents():
    assert descents((2, 4, 3, 1)) == (2, 3)
    assert descents((1, 2, 3)) == ()


def test_rejects_malformed_permutations():
    with pytest.raises(MalformedPermutationError):
        enumerate_reduced_words((1, 1, 2))
    with pytest.raises(MalformedPermutationError):
        inversions((0, 1, 2))


def test_identity_has_one_empty_word():
    assert enumerate_reduced_words((1, 2, 3)) == ((),)


def test_word_cap_is_a_resource_limit(monkeypatch):
    w = staircase_permutation(13)
    # no degree cap by default; an explicit one still refuses at once
    assert len(enumerate_reduced_words(w)) == comb(13, 2)
    with pytest.raises(ResourceLimitError, match="^13 permutation entries exceed the cap 12$"):
        enumerate_reduced_words(w, max_degree=12)
    assert len(enumerate_reduced_words(w, max_degree=13)) == comb(13, 2)
    # the family at length 12 stores words of 5,407 letters across the memo
    monkeypatch.setattr(perm, "MAX_REDUCED_LETTERS", 5406)
    with pytest.raises(
        ResourceLimitError, match="5407 stored reduced-word letters exceed the cap 5406"
    ):
        enumerate_reduced_words(w)
    monkeypatch.setattr(perm, "MAX_REDUCED_LETTERS", 5407)
    assert len(enumerate_reduced_words(w)) == comb(13, 2)


def test_word_cap_stops_the_longest_element_of_s7():
    # 292,864 words of the longest element of S_6 (Stanley's hook-length
    # count), 14,539,947 letters stored across the memo, fit under the
    # cap; those of S_7 number 1,100,742,656 and would exhaust memory
    # long before the enumeration ended
    assert len(enumerate_reduced_words(tuple(range(6, 0, -1)))) == 292_864
    start = time.monotonic()
    with pytest.raises(ResourceLimitError, match="stored reduced-word letters exceed the cap"):
        enumerate_reduced_words(tuple(range(7, 0, -1)))
    assert time.monotonic() - start < 5.0


def test_word_cap_stops_a_long_word_without_recursing():
    # 1,001 inversions: a recursion peeling one descent per level would
    # pass Python's default limit of 1,000 frames before storing a word
    w = staircase_permutation(1000)
    start = time.monotonic()
    with pytest.raises(ResourceLimitError, match="stored reduced-word letters exceed the cap"):
        enumerate_reduced_words(w)
    assert time.monotonic() - start < 5.0
