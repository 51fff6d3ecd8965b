import pytest

from staircase.binomial import (
    Binomial,
    divides,
    expo_lcm,
    grevlex_greater,
    reduce_monomial,
)
from staircase.errors import DomainError

from toric_oracle import normal_form, s_binomial


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
    f = Binomial((0, 2, 0, 0), (1, 0, 1, 0)).oriented()
    g = Binomial((0, 1, 1, 0), (1, 0, 0, 1)).oriented()
    s = s_binomial(f, g)
    # lcm of the leads x1^2 and x1 x2 is x1^2 x2
    assert expo_lcm(f.u, g.u) == (0, 2, 1, 0)
    assert s == Binomial((1, 0, 2, 0), (1, 1, 0, 1)).oriented()


def test_s_binomial_cancels_to_none():
    f = Binomial((2, 0), (0, 1)).oriented()
    assert s_binomial(f, f) is None


def test_reduce_monomial():
    basis = (Binomial((2, 0), (0, 1)).oriented(),)
    assert reduce_monomial((3, 0), basis) == (1, 1)


def test_normal_form_zero_and_nonzero():
    basis = (Binomial((2, 0, 0), (0, 1, 0)).oriented(),)
    # x0^2 x1 - x1^2 reduces to zero
    assert normal_form(Binomial((2, 1, 0), (0, 2, 0)), basis) is None
    nf = normal_form(Binomial((2, 0, 0), (0, 0, 1)), basis)
    assert nf == Binomial((0, 1, 0), (0, 0, 1)).oriented()


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
    assert unoriented.oriented() != unoriented
    with pytest.raises(RuntimeError, match="does not decrease"):
        reduce_monomial((0, 3), (unoriented,))
