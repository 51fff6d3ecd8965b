import json
import random

import pytest

from staircase import poly
from staircase.errors import ResourceLimitError
from staircase.poly import IntPolynomial, coefficient_product, field_bits, pack, unpack

from poly_oracle import schoolbook_product


def _random_coefficients(rng: random.Random) -> list[int]:
    size = rng.choice((1, 2**64, 10**300))
    out = [rng.choice((0, rng.randint(-size, size))) for _ in range(rng.randint(0, 12))]
    return out + [0] * rng.choice((0, 0, 1, 3))


def test_product_matches_schoolbook_on_random_lists():
    rng = random.Random(3371)
    for _ in range(400):
        a, b = _random_coefficients(rng), _random_coefficients(rng)
        assert coefficient_product(a, b) == schoolbook_product(a, b), (a, b)


def test_product_edge_cases():
    for a, b in [([], []), ([], [1, 2]), ([0], [1, 2]), ([0, 0], [0]), ([-1], [1, 0, 0]), ([0], [10**300, -1])]:
        assert coefficient_product(a, b) == schoolbook_product(a, b)
    # the field bound l1(a)*l1(b) is reached by a coefficient of the product
    top = 10**300
    assert coefficient_product([top, top], [-top, -top]) == [-(top**2), -2 * top**2, -(top**2)]


def test_round_trip_at_each_field_edge():
    for k in range(1, 41):
        bits, edge = 8 * k, 2 ** (8 * k - 1) - 1
        assert (field_bits(edge.bit_length()), field_bits((edge + 1).bit_length())) == (bits, bits + 8)
        for coeffs in ([edge], [-edge], [edge, -edge, 0, -edge, edge], [0, 0, -edge], [-edge, edge]):
            assert unpack(pack(coeffs, bits), bits) == coeffs
        assert unpack(pack([edge, 0, 0], bits), bits) == [edge]
        assert unpack(pack([], bits), bits) == unpack(pack([0, 0], bits), bits) == []


def test_round_trip_on_random_lists():
    rng = random.Random(907)
    for _ in range(200):
        coeffs = _random_coefficients(rng)
        bits = field_bits(max(map(abs, coeffs), default=0).bit_length())
        stripped = IntPolynomial(coeffs).coeffs
        assert tuple(unpack(pack(coeffs, bits), bits)) == stripped
        assert pack(coeffs, bits) == IntPolynomial(coeffs)(2**bits)


def test_power_matches_repeated_schoolbook_products():
    rng = random.Random(5147)
    for _ in range(100):
        coeffs = _random_coefficients(rng)
        n = rng.randint(0, 6)
        want = [1]
        for _ in range(n):
            want = schoolbook_product(want, coeffs)
        assert (IntPolynomial(coeffs) ** n).coeffs == IntPolynomial(want).coeffs, (coeffs, n)
    assert IntPolynomial([]) ** 0 == 1 and IntPolynomial([]) ** 3 == 0


def test_power_cap_stops_before_the_power_is_taken():
    with pytest.raises(ResourceLimitError, match="bits of a packed polynomial product"):
        IntPolynomial([1, 1]) ** 10**9
    with pytest.raises(ValueError):
        IntPolynomial([1, 1]) ** -1


def test_product_cap(monkeypatch):
    monkeypatch.setattr(poly, "MAX_PRODUCT_BITS", 47)
    assert coefficient_product([1, 1, 1], [1, 1, 1]) == [1, 2, 3, 2, 1]  # 5 fields of 8 bits
    with pytest.raises(ResourceLimitError, match="48 bits of a packed polynomial product exceed the cap 47"):
        coefficient_product([1, 1, 1], [1, 1, 1, 1])


def test_bool_coefficients_are_rejected():
    for coeffs in ([True, 1], [1, False]):
        with pytest.raises(TypeError):
            IntPolynomial(coeffs)
    assert json.dumps(IntPolynomial([1, 1]).to_json()) == "[1, 1]"
