import random

import pytest

from staircase.binomial import Binomial, Words
from staircase.binomial import reduce_monomial as word_reduction
from staircase.errors import DomainError

from toric_oracle import (
    divides,
    expo_lcm,
    grevlex_greater,
    normal_form,
    oriented,
    reduce_monomial,
    s_binomial,
)


def test_grevlex_order():
    # degree first
    assert grevlex_greater((2, 0, 0), (1, 0, 0))
    # same degree: smaller in the last differing slot wins
    assert grevlex_greater((0, 2, 0), (1, 0, 1))
    assert grevlex_greater((1, 1, 0), (1, 0, 1))
    assert not grevlex_greater((1, 0, 1), (0, 2, 0))
    assert not grevlex_greater((1, 1), (1, 1))


def test_quadric_leads_under_grevlex():
    # x_j^2 beats x_{j-1} x_{j+1}
    assert grevlex_greater((0, 2, 0, 0), (1, 0, 1, 0))
    assert grevlex_greater((0, 0, 2, 0), (0, 1, 0, 1))


def test_binomial_keeps_common_factors():
    b = Binomial((1, 2, 0), (1, 0, 1))
    assert (b.u, b.v) == ((1, 2, 0), (1, 0, 1))


def test_binomial_rejects_equal_sides():
    with pytest.raises(DomainError):
        Binomial((1, 0), (1, 0))
    with pytest.raises(DomainError):
        Binomial((1, 0), (1, 0, 0))
    with pytest.raises(DomainError):
        Binomial((-1, 0), (0, 1))


def test_in_kernel():
    assert Binomial((2, 0), (0, 1)).in_kernel((1, 2))
    assert not Binomial((2, 0), (0, 1)).in_kernel((1, 3))


def test_format():
    b = Binomial((1, 0, 1, 0), (0, 2, 0, 0))
    assert b.format(["a", "b", "c", "d"]) == "a*c - b^2"


def test_s_binomial():
    f = oriented(Binomial((0, 2, 0, 0), (1, 0, 1, 0)))
    g = oriented(Binomial((0, 1, 1, 0), (1, 0, 0, 1)))
    s = s_binomial(f, g)
    # lcm of the leads x1^2 and x1 x2 is x1^2 x2
    assert expo_lcm(f.u, g.u) == (0, 2, 1, 0)
    assert s == oriented(Binomial((1, 0, 2, 0), (1, 1, 0, 1)))


def test_s_binomial_cancels_to_none():
    f = oriented(Binomial((2, 0), (0, 1)))
    assert s_binomial(f, f) is None


def test_reduce_monomial():
    basis = (oriented(Binomial((2, 0), (0, 1))),)
    assert reduce_monomial((3, 0), basis) == (1, 1)


def test_normal_form_zero_and_nonzero():
    basis = (oriented(Binomial((2, 0, 0), (0, 1, 0))),)
    # x0^2 x1 - x1^2 reduces to zero
    assert normal_form(Binomial((2, 1, 0), (0, 2, 0)), basis) is None
    nf = normal_form(Binomial((2, 0, 0), (0, 0, 1)), basis)
    assert nf == oriented(Binomial((0, 1, 0), (0, 0, 1)))


def test_divides():
    assert divides((1, 0, 1), (2, 0, 1))
    assert not divides((1, 0, 1), (0, 1, 2))


def test_helpers_on_zero_variables():
    assert divides((), ())
    assert expo_lcm((), ()) == ()


def test_divides_itself():
    for a in ((0, 0, 0), (2, 0, 1), (1, 3)):
        assert divides(a, a)
    assert divides((0, 0), (1, 2))
    assert not divides((1, 0, 2), (1, 0, 1))


def test_expo_lcm_values():
    assert expo_lcm((1, 0, 2), (0, 3, 1)) == (1, 3, 2)
    assert expo_lcm((2, 2), (2, 2)) == (2, 2)


def test_binomial_rejects_a_negative_exponent_on_either_side():
    with pytest.raises(DomainError, match="naturals"):
        Binomial((0, 1), (1, -1))
    with pytest.raises(DomainError, match="naturals"):
        Binomial((1, 0, -2), (0, 0, 0))


def test_reduce_monomial_rejects_an_unoriented_element():
    # x1 - x0^2 rewrites x1 to the larger x0^2
    unoriented = Binomial((0, 1), (2, 0))
    assert oriented(unoriented) != unoriented
    with pytest.raises(RuntimeError, match="does not decrease"):
        reduce_monomial((0, 3), (unoriented,))


def _random_vectors(rng, nvars, top):
    # each vector mixes zeros, the field's largest value and values between
    return [
        tuple(rng.choice((0, top, rng.randint(0, top))) for _ in range(nvars))
        for _ in range(12)
    ]


@pytest.mark.parametrize("top", [1, 2, 127, 128, 255, 256, 40_000])
def test_words_match_the_tuple_oracles(top):
    rng = random.Random(top)
    for nvars in (0, 1, 2, 5, 12):
        words = Words.holding(nvars, top)
        # the narrowest byte fields with room for top below the guard
        assert top < 1 << words.width - 1 and words.width % 8 == 0
        assert words.width == 8 or top >= 1 << words.width - 9
        vectors = _random_vectors(rng, nvars, top) + [(0,) * nvars, (top,) * nvars]
        packed = [words.pack(a) for a in vectors]
        for a, wa in zip(vectors, packed):
            assert words.unpack(wa) == a
            assert words.degree(wa) == sum(a)
            assert words.unpack(words.support(wa)) == tuple(int(x > 0) for x in a)
            for b, wb in zip(vectors, packed):
                assert words.divides(wa, wb) == divides(a, b), (a, b)
                assert words.unpack(words.lcm(wa, wb)) == expo_lcm(a, b)
                assert words.grevlex_greater(wa, sum(a), wb, sum(b)) == grevlex_greater(a, b)
                # the most significant field is variable 0: int order is tuple order
                assert (wa < wb) == (a < b)


def test_words_on_zero_variables():
    words = Words.holding(0, 0)
    assert words.pack(()) == 0 and words.unpack(0) == ()
    assert words.divides(0, 0) and words.lcm(0, 0) == 0
    assert words.degree(0) == 0 and words.support(0) == 0
    assert not words.grevlex_greater(0, 0, 0, 0)


def _packed(words, basis):
    return [(words.pack(g.u), words.pack(g.v), sum(g.u), sum(g.v)) for g in basis]


def test_word_reduction_matches_the_tuple_oracle():
    rng = random.Random(3301)
    for _ in range(300):
        nvars = rng.randint(1, 5)
        basis = []
        while len(basis) < rng.randint(1, 4):
            u, v = (tuple(rng.randint(0, 2) for _ in range(nvars)) for _ in range(2))
            if u != v:
                basis.append(oriented(Binomial(u, v)))
        m = tuple(rng.randint(0, 4) for _ in range(nvars))
        # a rewrite never raises the degree, so fields holding it suffice
        words = Words.holding(nvars, sum(m) + 2)
        got, degree = word_reduction(words.pack(m), sum(m), _packed(words, basis), words)
        want = reduce_monomial(m, basis)
        assert (words.unpack(got), degree) == (want, sum(want)), (m, basis)


def test_word_reduction_rejects_an_unoriented_element_and_a_full_field():
    words = Words.holding(2, 3)
    # x1 -> x0^2 rewrites to a larger monomial
    unoriented = _packed(words, [Binomial((0, 1), (2, 0))])
    with pytest.raises(RuntimeError, match="does not decrease"):
        word_reduction(words.pack((0, 3)), 3, unoriented, words)
    # x0^2 -> x1^2 takes x0^2 x1^126 to x1^128, past the 8-bit field
    words = Words.holding(2, 127)
    lifting = _packed(words, [oriented(Binomial((2, 0), (0, 2)))])
    assert words.width == 8
    with pytest.raises(OverflowError, match="outgrows its field"):
        word_reduction(words.pack((2, 126)), 128, lifting, words)
