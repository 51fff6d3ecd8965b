import random
import time
from math import comb

import pytest
import sympy

from staircase import toric
from staircase.audits import audit_quadric_chain_ideal, audit_separation_ideal, weight_kernel_row
from staircase.binomial import Binomial
from staircase.errors import DomainError, ResourceLimitError
from staircase.graphs import weight_chain_diagram
from staircase.identities import PartitionIdentity
from staircase.poly import IntPolynomial
from staircase.toric import (
    BinomialIdeal,
    MonomialIdeal,
    consecutive_quadric_ideal,
    groebner_basis,
    hilbert,
    identity_binomial,
    initial_ideal,
    separation_ideal,
    separation_weights,
    standard_monomial_counts,
    weight_names,
)

from toric_oracle import (
    brute_standard_monomial_counts,
    normal_form,
    reduce_monomial,
    s_binomial,
    taylor_numerator,
)


def _sympy_groebner(gens: list[Binomial], nvars: int) -> set[tuple[tuple, tuple]]:
    xs = sympy.symbols(f"x0:{nvars}")
    polys = []
    for b in gens:
        m1 = sympy.prod([x**e for x, e in zip(xs, b.u)])
        m2 = sympy.prod([x**e for x, e in zip(xs, b.v)])
        polys.append(m1 - m2)
    gb = sympy.groebner(polys, *xs, order="grevlex")
    out = set()
    for poly in gb.polys:
        terms = poly.terms()
        assert len(terms) == 2, "reduced basis of a binomial ideal stays binomial"
        (e1, c1), (e2, c2) = terms
        assert {int(c1), int(c2)} == {1, -1}
        if int(c1) == 1:
            out.add((tuple(e1), tuple(e2)))
        else:
            out.add((tuple(e2), tuple(e1)))
    return out


def _as_pairs(basis) -> set[tuple[tuple, tuple]]:
    return {(b.u, b.v) for b in basis}


def test_twisted_cubic_pair_is_already_a_basis():
    gens = [Binomial((1, 0, 1, 0), (0, 2, 0, 0)), Binomial((0, 1, 0, 1), (0, 0, 2, 0))]
    gb = groebner_basis(gens)
    assert _as_pairs(gb) == _sympy_groebner(gens, 4)
    assert len(gb) == 2


def test_completion_adds_one_element():
    gens = [Binomial((1, 0, 1, 0), (0, 2, 0, 0)), Binomial((1, 0, 0, 1), (0, 1, 1, 0))]
    gb = groebner_basis(gens)
    assert len(gb) == 3
    assert _as_pairs(gb) == _sympy_groebner(gens, 4)
    # the new element keeps its x0 factor: the engine must not saturate
    assert Binomial((1, 0, 2, 0), (1, 1, 0, 1)) in gb


def _random_pure_binomial(rng: random.Random, nvars: int) -> Binomial:
    while True:
        u = tuple(rng.randint(0, 2) for _ in range(nvars))
        v = tuple(rng.randint(0, 2) for _ in range(nvars))
        if u != v:
            return Binomial(u, v)


def test_groebner_basis_matches_sympy_on_random_ideals():
    # sides may share variables or be 1; the basis must not depend on
    # the generator order, which steers the pair queue and the criteria
    rng = random.Random(1988)
    for _ in range(120):
        nvars = rng.randint(1, 5)
        gens = [_random_pure_binomial(rng, nvars) for _ in range(rng.randint(2, 4))]
        gb = groebner_basis(gens)
        assert _as_pairs(gb) == _sympy_groebner(gens, nvars), gens
        assert groebner_basis(rng.sample(gens, len(gens))) == gb, gens


def test_groebner_basis_ignores_repeated_and_swapped_generators():
    rng = random.Random(2203)
    for _ in range(40):
        nvars = rng.randint(2, 5)
        gens = [_random_pure_binomial(rng, nvars) for _ in range(rng.randint(2, 4))]
        gb = groebner_basis(gens)
        assert _as_pairs(gb) == _sympy_groebner(gens, nvars), gens
        swapped = [Binomial(g.v, g.u) for g in gens]
        assert groebner_basis(swapped) == gb, gens
        padded = gens + gens + swapped
        assert groebner_basis(padded) == gb, gens
        assert groebner_basis(rng.sample(padded, len(padded))) == gb, gens


def test_groebner_basis_restarts_at_a_wider_field(monkeypatch):
    # x1^64 - x0 and x1 x2 - x3^2 start on 8-bit fields, which hold 127;
    # the basis runs down to x3^128 - x0 x2^64, so the engine starts over
    # on 16-bit fields and answers as if it had begun there
    widths, inner = [], toric._buchberger

    def spied(gens, words):
        widths.append(words.width)
        return inner(gens, words)

    monkeypatch.setattr(toric, "_buchberger", spied)
    gens = [Binomial((0, 64, 0, 0), (1, 0, 0, 0)), Binomial((0, 1, 1, 0), (0, 0, 0, 2))]
    gb = groebner_basis(gens)
    assert widths == [8, 16]
    assert Binomial((0, 0, 0, 128), (1, 0, 64, 0)) in gb
    assert _as_pairs(gb) == _sympy_groebner(gens, 4)
    assert groebner_basis(gens[::-1]) == gb


def test_groebner_all_s_pairs_reduce_to_zero():
    gens = [Binomial((1, 0, 1, 0), (0, 2, 0, 0)), Binomial((1, 0, 0, 1), (0, 1, 1, 0))]
    gb = groebner_basis(gens)
    for i, f in enumerate(gb):
        for g in gb[i + 1:]:
            s = s_binomial(f, g)
            if s is not None:
                assert normal_form(s, gb) is None


def test_separation_ideal_basis_matches_sympy():
    for ell in (5, 6):
        ideal = separation_ideal(ell)
        gb = groebner_basis(ideal.generators)
        assert _as_pairs(gb) == _sympy_groebner(list(ideal.generators), ideal.nvars)


def test_quadric_chain_basis_matches_sympy():
    for ell in (3, 4, 5):
        ideal = consecutive_quadric_ideal(ell)
        gb = groebner_basis(ideal.generators)
        assert _as_pairs(gb) == _sympy_groebner(list(ideal.generators), ideal.nvars)
        assert len(gb) == ell - 1


def test_initial_ideal_of_quadric_chain():
    ideal = consecutive_quadric_ideal(4)
    gb = groebner_basis(ideal.generators)
    mi = initial_ideal(gb, ideal.nvars)
    squares = {tuple(2 if i == j else 0 for i in range(5)) for j in (1, 2, 3)}
    assert set(mi.gens) == squares


def test_hilbert_examples():
    one_gen = MonomialIdeal(4, ((1, 0, 1, 0),))
    hd = hilbert(one_gen)
    assert (hd.dimension, hd.degree) == (3, 2)
    two_gen = MonomialIdeal(4, ((1, 0, 1, 0), (0, 1, 0, 1)))
    hd = hilbert(two_gen)
    assert (hd.dimension, hd.degree) == (2, 4)


def test_hilbert_zero_ring():
    unit = MonomialIdeal(3, ((0, 0, 0),))
    hd = hilbert(unit)
    assert hd.dimension == -1
    assert hd.numerator.is_zero()
    assert hd.degree == 0


def test_hilbert_polynomial_ring():
    free = MonomialIdeal(3, ())
    hd = hilbert(free)
    assert (hd.dimension, hd.degree) == (3, 1)


def test_hilbert_at_the_edges_of_its_field_width():
    # the maximal ideal meets the width bound: l1((1 - t)^n) = 2^n, the
    # sum of C(n, i) over i <= min(nvars, gens) = n
    for n in range(1, 41):
        hd = hilbert(MonomialIdeal(n, tuple(tuple(int(i == j) for i in range(n)) for j in range(n))))
        binomials = [(-1) ** i * comb(n, i) for i in range(n + 1)]
        assert (hd.numerator.to_json(), hd.dimension, hd.degree) == (binomials, 0, 1)
        for gens, want in [(((0,) * n,), ([], -1, 0)), ((), ([1], n, 1))]:
            hd = hilbert(MonomialIdeal(n, gens))
            assert (hd.numerator.to_json(), hd.dimension, hd.degree) == want


def test_hilbert_against_direct_count():
    ideals = [
        MonomialIdeal(3, ((2, 0, 0), (0, 1, 1))),
        MonomialIdeal(4, ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1))),
        MonomialIdeal(5, ((2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (1, 0, 1, 0, 1))),
    ]
    for mi in ideals:
        hd = hilbert(mi)
        assert hd.numerator.series_prefix(mi.nvars, 8) == standard_monomial_counts(mi, 8)


def _random_monomial_ideal(rng: random.Random) -> MonomialIdeal:
    n = rng.randint(1, 7)
    gens = tuple(
        tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 8))
    )
    return MonomialIdeal(n, gens)


def test_standard_monomial_counts_match_brute_force():
    # Beside each random ideal: the same generators cut off after a
    # random variable, so that many end early and drop out of the masks
    # there, and the unit ideal on the same variables, which leaves nothing.
    rng, cuts = random.Random(4021), random.Random(4022)
    for _ in range(200):
        mi = _random_monomial_ideal(rng)
        n = mi.nvars
        ends = [cuts.randint(1, n) for _ in mi.gens]
        early = MonomialIdeal(
            n, tuple(g[:c] + (0,) * (n - c) for g, c in zip(mi.gens, ends))
        )
        unit = MonomialIdeal(n, mi.gens + ((0,) * n,))
        for ideal in (mi, early, unit):
            assert standard_monomial_counts(
                ideal, 5
            ) == brute_standard_monomial_counts(n, ideal.gens, 5), ideal


def test_standard_monomial_counts_on_the_quadric_chain(monkeypatch):
    # The initial ideal is the squares of the inner variables.  Each
    # square ends where it starts, so no generator straddles a variable
    # and one mask stays live, where unpruned masks grew to 2^(l-1).
    monkeypatch.setattr(toric, "MAX_COUNT_MASKS", 1)
    for ell in range(8, 17):
        ideal = consecutive_quadric_ideal(ell)
        mi = initial_ideal(groebner_basis(ideal.generators), ideal.nvars)
        assert standard_monomial_counts(mi, 8) == hilbert(
            mi
        ).numerator.series_prefix(mi.nvars, 8), ell


def test_standard_monomial_counts_edge_cases():
    # no generators: every monomial is standard, C(d+2, 2) of them in 3 variables
    assert standard_monomial_counts(MonomialIdeal(3, ()), 4) == (1, 3, 6, 10, 15)
    # the unit ideal leaves nothing
    assert standard_monomial_counts(MonomialIdeal(3, ((0, 0, 0),)), 4) == (0,) * 5
    assert standard_monomial_counts(MonomialIdeal(0, ()), 2) == (1, 0, 0)
    # degree 0 alone: 1 unless the ideal is the unit ideal
    assert standard_monomial_counts(MonomialIdeal(2, ((1, 0), (0, 2))), 0) == (1,)
    assert standard_monomial_counts(MonomialIdeal(2, ((0, 0),)), 0) == (0,)


def test_standard_monomial_counts_tail_matches_brute_force():
    # From top, a variable's largest generator exponent clamped to upto,
    # every exponent adds as one prefix sum: here top is clamped where
    # exponents pass upto, is upto itself at upto 0, and is 0 for a
    # variable that no generator uses, so that variable is all tail.
    ideals = [
        MonomialIdeal(3, ((5, 0, 1), (0, 4, 0), (1, 1, 3))),
        MonomialIdeal(3, ((7, 0, 0),)),
        MonomialIdeal(4, ((2, 0, 1, 0), (0, 0, 3, 0), (1, 0, 0, 0))),
        MonomialIdeal(2, ((0, 3), (2, 2))),
    ]
    rng = random.Random(4031)
    for _ in range(60):
        mi = _random_monomial_ideal(rng)
        unused = rng.randrange(mi.nvars + 1)  # a fresh variable no generator uses
        ideals.append(MonomialIdeal(
            mi.nvars + 1,
            tuple(g[:unused] + (0,) + g[unused:] for g in mi.gens),
        ))
    for mi in ideals:
        for upto in (0, 1, 2, 4):
            assert standard_monomial_counts(mi, upto) == brute_standard_monomial_counts(
                mi.nvars, mi.gens, upto
            ), (mi, upto)


def test_hilbert_prefix_matches_direct_count_on_random_ideals():
    rng = random.Random(4021)
    for _ in range(200):
        mi = _random_monomial_ideal(rng)
        hd = hilbert(mi)
        assert hd.numerator.series_prefix(mi.nvars, 5) == standard_monomial_counts(
            mi, 5
        ), mi


def test_hilbert_numerator_matches_taylor_on_random_ideals():
    rng = random.Random(4021)
    for _ in range(200):
        mi = _random_monomial_ideal(rng)
        assert hilbert(mi).numerator.coeffs == taylor_numerator(mi.gens, mi.nvars), mi


def _benchmark_shaped_gens(rng: random.Random) -> tuple:
    # 12 variables, 12 generators on 3 variables each, exponents 1..2
    gens = []
    for _ in range(12):
        e = [0] * 12
        for v in rng.sample(range(12), 3):
            e[v] = rng.randint(1, 2)
        gens.append(tuple(e))
    return tuple(gens)


def test_hilbert_numerator_matches_taylor_on_benchmark_shaped_ideals():
    # Taylor runs on the raw list, where one generator may divide another
    rng = random.Random(5309)
    for _ in range(24):
        gens = _benchmark_shaped_gens(rng)
        hd = hilbert(MonomialIdeal(12, gens))
        assert hd.numerator.coeffs == taylor_numerator(gens, 12), gens


def test_hilbert_numerator_is_a_product_over_disjoint_blocks():
    blocks = [
        ((2, 1, 0), (0, 1, 1), (1, 0, 2)),
        ((2, 0), (1, 1)),
        ((1, 2), (3, 0)),
    ]
    widths = [3, 2, 2]
    for count in (2, 3):
        nvars = sum(widths[:count])
        gens, product, offset = [], IntPolynomial([1]), 0
        for block, width in zip(blocks[:count], widths[:count]):
            pad = nvars - offset - width
            gens += [(0,) * offset + g + (0,) * pad for g in block]
            product = product * hilbert(MonomialIdeal(width, block)).numerator
            offset += width
        hd = hilbert(MonomialIdeal(nvars, tuple(gens)))
        assert hd.numerator.coeffs == taylor_numerator(tuple(gens), nvars)
        assert hd.numerator == product


def test_hilbert_numerator_of_pure_powers_and_partial_pivots():
    powers = MonomialIdeal(3, ((3, 0, 0), (0, 2, 0), (0, 0, 4)))
    hd = hilbert(powers)
    assert hd.numerator == IntPolynomial([1, 0, 0, -1]) * IntPolynomial(
        [1, 0, -1]
    ) * IntPolynomial([1, 0, 0, 0, -1])
    assert (hd.dimension, hd.degree) == (0, 24)
    cases = [
        # x0 divides the first two generators only; lowering them makes
        # x2 divide the last one, which drops out of I : x0
        ((2, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)),
        # pure powers beside mixed generators on the same variables
        ((2, 0, 0), (1, 1, 0), (0, 3, 0), (0, 1, 1)),
        ((0, 0, 2, 0), (1, 1, 0, 0), (2, 0, 1, 0), (0, 2, 0, 1), (0, 0, 0, 3)),
    ]
    for gens in cases:
        nvars = len(gens[0])
        hd = hilbert(MonomialIdeal(nvars, gens))
        assert hd.numerator.coeffs == taylor_numerator(gens, nvars), gens


def test_hilbert_pivot_dividing_all_or_all_but_one_generator(monkeypatch):
    # x0 divides the most generators.  When it divides all of them the
    # generators it does not divide are none, and I + (x0) gives 1 - t;
    # when it divides all but one, that one alone is the other child.
    # Both ideals have more generators than a Taylor leaf, so they pivot.
    children, inner = [], toric._numerator

    def spied(gens, words, *args):
        children.append(tuple(map(words.unpack, gens)))
        return inner(gens, words, *args)

    monkeypatch.setattr(toric, "_numerator", spied)
    divided = ((2, 1, 0, 0), (1, 0, 2, 0), (1, 1, 0, 1), (1, 0, 1, 2), (1, 0, 0, 3), (1, 2, 1, 0))
    cases = [(divided, ()), (divided + ((0, 1, 2, 1),), ((0, 1, 2, 1),))]
    for gens, free in cases:
        children.clear()
        mi = MonomialIdeal(4, gens)
        assert len(mi.gens) == len(gens) > toric._TAYLOR_GENS
        hd = hilbert(mi)
        assert children[0] == mi.gens and free in children[1:], gens
        assert hd.numerator.coeffs == taylor_numerator(gens, 4), gens
        assert hd.numerator.series_prefix(4, 8) == standard_monomial_counts(mi, 8)


def _check_two_generators(gens: tuple) -> IntPolynomial:
    nvars = len(gens[0])
    mi = MonomialIdeal(nvars, gens)
    assert len(mi.gens) == 2, gens
    hd = hilbert(mi)
    assert hd.numerator.coeffs == taylor_numerator(gens, nvars), gens
    assert hd.numerator.series_prefix(nvars, 8) == standard_monomial_counts(
        mi, 8
    ), gens
    return hd.numerator


def test_hilbert_two_generators_in_closed_form():
    # equal degrees: the two -t^2 terms add up
    assert _check_two_generators(((2, 0, 0), (0, 1, 1))) == IntPolynomial(
        [1, 0, -2, 0, 1]
    )
    assert _check_two_generators(((1, 1, 0), (0, 1, 1))) == IntPolynomial(
        [1, 0, -2, 1]
    )
    # disjoint supports: the product (1 - t^2)(1 - t^3)
    assert _check_two_generators(((1, 1, 0, 0), (0, 0, 2, 1))) == IntPolynomial(
        [1, 0, -1, -1, 0, 1]
    )
    # one shared variable
    assert _check_two_generators(((2, 1, 0), (0, 1, 2))) == IntPolynomial(
        [1, 0, 0, -2, 0, 1]
    )
    # one generator a pure power
    assert _check_two_generators(((3, 0, 0), (1, 1, 1))) == IntPolynomial(
        [1, 0, 0, -2, 0, 1]
    )
    assert _check_two_generators(((0, 4), (1, 1))) == IntPolynomial(
        [1, 0, -1, 0, -1, 1]
    )


def test_hilbert_two_generators_on_random_pairs():
    rng = random.Random(7193)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 6)
        gens = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(2))
        if len(MonomialIdeal(n, gens).gens) == 2:
            _check_two_generators(gens)
            checked += 1


def test_hilbert_at_the_taylor_leaf_boundary():
    # ideals of exactly K minimal generators close as one Taylor leaf,
    # those of K + 1 pivot into smaller nodes first
    rng = random.Random(4423)
    for size in (toric._TAYLOR_GENS, toric._TAYLOR_GENS + 1):
        checked = 0
        while checked < 60:
            n = rng.randint(2, 6)
            gens = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(size))
            mi = MonomialIdeal(n, gens)
            if len(mi.gens) != size:
                continue
            hd = hilbert(mi)
            assert hd.numerator.coeffs == taylor_numerator(gens, n), gens
            assert hd.numerator.series_prefix(n, 8) == standard_monomial_counts(mi, 8), gens
            checked += 1


def test_hilbert_widens_fields_for_the_lcm_degree():
    # Every exponent fits an 8-bit field, but the lcm of all generators
    # has degree at least 255, where casting out 2^8 - 1 no longer gives
    # a word's degree; the fields must widen to 16 bits.
    cases = [
        ((100, 100, 0), (0, 100, 100), (100, 0, 100)),
        ((127, 127, 0), (0, 127, 1), (127, 0, 1)),  # lcm degree exactly 255
        tuple(tuple(60 if j in (i, (i + 1) % 5) else 0 for j in range(5)) for i in range(5)),
        tuple(tuple(60 if j in (i, (i + 1) % 6) else 0 for j in range(6)) for i in range(6)),
    ]
    for gens in cases:
        n = len(gens[0])
        mi = MonomialIdeal(n, gens)
        hd = hilbert(mi)
        assert hd.numerator.coeffs == taylor_numerator(gens, n), gens
        assert hd.numerator.series_prefix(n, 8) == standard_monomial_counts(mi, 8), gens
    assert (hd.dimension, hd.degree) == (3, 2 * 60**3)


def _counting(monkeypatch, name: str) -> list[int]:
    # rebinds the module global, so recursive calls are counted too
    calls, inner = [0], getattr(toric, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(toric, name, counted)
    return calls


def test_engine_work_counts_are_pinned(monkeypatch):
    # Counts, not timings: a lost base case of the Hilbert recursion or a
    # lost Buchberger criterion changes them on any machine.
    nodes = _counting(monkeypatch, "_numerator")
    rng = random.Random(6151)
    for _ in range(24):
        hilbert(MonomialIdeal(12, _benchmark_shaped_gens(rng)))
    reductions = _counting(monkeypatch, "reduce_monomial")
    rng = random.Random(6151)
    for _ in range(64):
        gens = []
        while len(gens) < 3:
            u, v = (
                tuple(int(rng.random() < 0.5) for _ in range(5)) for _ in range(2)
            )
            if u != v:
                gens.append(Binomial(u, v))
        groebner_basis(gens)
    assert (nodes[0], reductions[0]) == (892, 1289)


def _quadrics() -> MonomialIdeal:
    # the 65 squarefree quadrics x_i x_j in 12 variables but x10 x11: an
    # antichain whose standard monomials are the powers of one variable
    # and the monomials on x10, x11 alone
    mi = MonomialIdeal(12, tuple(
        tuple(1 if k in (i, j) else 0 for k in range(12))
        for i in range(12)
        for j in range(i + 1, 12)
    )[:65])
    assert len(mi.gens) == 65
    return mi


def test_hilbert_without_input_caps():
    hd = hilbert(MonomialIdeal(17, ()))
    assert (hd.numerator, hd.dimension, hd.degree) == (IntPolynomial([1]), 17, 1)
    hd = hilbert(_quadrics())
    assert hd.numerator.series_prefix(12, 6) == (1, 12, 13, 14, 15, 16, 17)
    assert (hd.dimension, hd.degree) == (2, 1)


def test_hilbert_entry_cap(monkeypatch):
    # The quadrics' nodes of three or more generators, Taylor leaves
    # included, hold 3,996 exponent entries in all; each counts them when
    # it starts.
    monkeypatch.setattr(toric, "MAX_HILBERT_ENTRIES", 3996)
    assert hilbert(_quadrics()).dimension == 2
    monkeypatch.setattr(toric, "MAX_HILBERT_ENTRIES", 3995)
    with pytest.raises(
        ResourceLimitError, match="3996 Hilbert exponent entries exceed the cap 3995"
    ):
        hilbert(_quadrics())


def _path(n: int) -> MonomialIdeal:
    # the edge ideal of the path x_0 - x_1 - ... - x_{n-1}
    return MonomialIdeal(n, tuple(
        tuple(1 if j in (i, i + 1) else 0 for j in range(n)) for i in range(n - 1)
    ))


def test_path_ideal_on_1000_variables_minimalizes_quickly():
    # each divisibility test is a few integer operations on 1000-byte
    # words, not a loop over 1000 exponents
    start = time.monotonic()
    assert len(_path(1000).gens) == 999
    assert time.monotonic() - start < 5.0


def test_hilbert_entry_cap_stops_a_long_path_ideal():
    # dimension: a largest independent set of P_100 has 50 vertices;
    # degree: P_100 has 51 of them
    hd = hilbert(_path(100))
    assert (hd.dimension, hd.degree) == (50, 51)
    # a node of P_300 holds up to 89,700 entries, so the cap stops the
    # recursion after a few hundred nodes
    mi = _path(300)
    start = time.monotonic()
    with pytest.raises(ResourceLimitError, match="Hilbert exponent entries exceed the cap"):
        hilbert(mi)
    assert time.monotonic() - start < 5.0


def test_hilbert_counts_past_an_8_bit_field_sum():
    # x0 divides all 300 generators x0*x_i: the pivot's count for x0
    # needs 16-bit fields although every exponent is 1
    mi = MonomialIdeal(301, tuple(
        tuple(int(j in (0, i)) for j in range(301)) for i in range(1, 301)
    ))
    hd = hilbert(mi)
    assert hd.numerator.series_prefix(301, 8) == standard_monomial_counts(mi, 8)
    # the ideal is (x0) meet (x1, ..., x300): the hyperplane x0 = 0 and
    # the x0-axis, so dimension 300 and degree 1
    assert (hd.dimension, hd.degree) == (300, 1)


def test_hilbert_depth_cap(monkeypatch):
    # The staircase ideal (x y^N, x^2 y^(N-1), ..., x^N y) loses one
    # generator per level, so its nodes nest about N deep until a Taylor
    # leaf closes them: two axes, each of multiplicity 1.  N = 503 is the
    # first to reach 501 nested nodes
    def ideal(n: int) -> MonomialIdeal:
        return MonomialIdeal(2, tuple((i, n + 1 - i) for i in range(1, n + 1)))

    hd = hilbert(ideal(400))
    assert (hd.dimension, hd.degree) == (1, 2)
    with pytest.raises(ResourceLimitError, match="501 nested Hilbert nodes exceed the cap 500"):
        hilbert(ideal(503))
    monkeypatch.setattr(toric, "MAX_HILBERT_DEPTH", 299)
    with pytest.raises(ResourceLimitError, match="300 nested Hilbert nodes exceed the cap 299"):
        hilbert(ideal(400))


def test_hilbert_pivots_on_a_power_of_the_variable():
    # (x_i^N x_(i+1)^N) around a cycle of k variables.  For k = 3 the root
    # is a Taylor leaf.  For k = 6 the pivot x0^N leaves two leaves of four
    # generators, so the recursion stops at once where pivoting on x0
    # nested N deep.  The quotient's top components are those of the
    # smallest vertex covers of the cycle: 3 covers of 2 vertices for the
    # triangle and 2 of 3 vertices for the hexagon, each of multiplicity
    # N^(cover size)
    def ideal(k: int, n: int) -> MonomialIdeal:
        return MonomialIdeal(k, tuple(
            tuple(n if j in (i, (i + 1) % k) else 0 for j in range(k)) for i in range(k)
        ))

    for k, dimension, covers in ((3, 1, 3), (6, 3, 2)):
        for n in (1, 2, 300, 2000):
            hd = hilbert(ideal(k, n))
            assert (hd.dimension, hd.degree) == (dimension, covers * n ** (k - dimension))
            assert hd.numerator.series_prefix(k, 8) == standard_monomial_counts(ideal(k, n), 8)


def test_basis_size_cap(monkeypatch):
    # completion adds a third element to these two generators
    gens = [Binomial((1, 0, 1, 0), (0, 2, 0, 0)), Binomial((1, 0, 0, 1), (0, 1, 1, 0))]
    monkeypatch.setattr(toric, "MAX_BASIS", 2)
    with pytest.raises(ResourceLimitError, match="^3 basis elements exceed the cap 2$"):
        groebner_basis(gens)


def test_identity_binomial():
    ident = PartitionIdentity((1, 3, 5), (9,), 9)
    b = identity_binomial(ident, (1, 2, 3, 4, 5, 9, 6))
    assert b == Binomial((1, 0, 1, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1, 0))
    with pytest.raises(DomainError):
        identity_binomial(ident, (1, 2, 3))


def test_separation_ideal_shape():
    ideal = separation_ideal(5)
    assert ideal.nvars == 7
    assert ideal.weights == (1, 2, 3, 4, 5, 9, 6)
    assert len(ideal.generators) == 2
    for g in ideal.generators:
        assert g.in_kernel(ideal.weights)


def test_separation_weights_are_the_ideal_weights():
    assert separation_weights(5) == (1, 2, 3, 4, 5, 9, 6)
    assert separation_weights(6) == (1, 2, 3, 4, 5, 6, 12, 9)
    for ell in range(5, 12):
        assert separation_ideal(ell).weights == separation_weights(ell)
    with pytest.raises(DomainError):
        separation_weights(4)


def test_audit_separation_ideal_5():
    rep = audit_separation_ideal(5)
    assert not rep.invariant_failures()
    by_name = {r.name: r for r in rep.rows}
    assert by_name["dimension"].observed == 5
    assert by_name["degree"].observed == 6
    kernel = by_name["the two relations generate the weight kernel"]
    assert (kernel.observed, kernel.verdict) == (False, "MISMATCH")
    assert kernel.note == (
        "6 of 6 kernel generators lie outside; first x1^2 - x2, x1^3 - x3"
    )


def test_weight_kernel_row_reads_true_on_the_whole_kernel():
    # x2 - x1^2 and x3 - x1*x2 generate the kernel of x_w -> t^w on
    # weights (1, 2, 3); the first alone misses x3 - x1^3
    gens = (Binomial((0, 1, 0), (2, 0, 0)), Binomial((0, 0, 1), (1, 1, 0)))
    whole = BinomialIdeal(3, gens, (1, 2, 3))
    row = weight_kernel_row(whole, groebner_basis(whole.generators))
    assert (row.observed, row.verdict) == (True, "MATCH")
    assert row.note == "0 of 2 kernel generators lie outside"
    part = BinomialIdeal(3, gens[:1], (1, 2, 3))
    row = weight_kernel_row(part, groebner_basis(part.generators))
    assert (row.observed, row.verdict) == (False, "MISMATCH")
    assert row.note == "1 of 2 kernel generators lie outside; first x1^3 - x3"
    with pytest.raises(DomainError):
        weight_kernel_row(BinomialIdeal(3, gens, (2, 3, 4)), ())


def _power(n: int, j: int, e: int) -> tuple[int, ...]:
    return (0,) * j + (e,) + (0,) * (n - 1 - j)


def test_weight_kernel_row_reads_match_on_the_kernel_generators():
    # the ideal of the x_w - x1^w themselves is the whole weight kernel
    for ell in range(5, 11):
        weights = separation_ideal(ell).weights
        n = len(weights)
        gens = tuple(
            Binomial(_power(n, 0, w), _power(n, i, 1)) for i, w in enumerate(weights) if w != 1
        )
        row = weight_kernel_row(BinomialIdeal(n, gens, weights), groebner_basis(gens))
        assert (row.observed, row.verdict) == (True, "MATCH"), ell
        assert row.note == f"0 of {n - 1} kernel generators lie outside"


def test_weight_kernel_row_matches_a_reduction_on_exponent_tuples():
    for ell in range(5, 21):
        ideal = separation_ideal(ell)
        gb = groebner_basis(ideal.generators)
        n, one = ideal.nvars, ideal.weights.index(1)
        outside = [
            Binomial(_power(n, one, w), _power(n, i, 1)).format(weight_names(ideal.weights))
            for i, w in enumerate(ideal.weights)
            if reduce_monomial(_power(n, i, 1), gb) != reduce_monomial(_power(n, one, w), gb)
        ]
        note = f"{len(outside)} of {n - 1} kernel generators lie outside"
        if outside:
            note += "; first " + ", ".join(outside[:2])
        row = weight_kernel_row(ideal, gb)
        assert (row.observed, row.note) == (not outside, note), ell


def test_audit_separation_ideal_6():
    # the command line runs this audit at every length from 5 on, 11 and 14 too
    for ell, degree in ((6, 9), (11, 30), (14, 49)):
        rep = audit_separation_ideal(ell)
        assert not rep.invariant_failures()
        by_name = {r.name: r for r in rep.rows}
        assert by_name["dimension"].observed == ell
        assert by_name["degree"].observed == degree


def test_audit_quadric_chain_small():
    for ell, degree in ((2, 2), (3, 4), (4, 8), (5, 16), (9, 256), (12, 2048)):
        rep = audit_quadric_chain_ideal(ell)
        assert all(r.verdict == "MATCH" for r in rep.rows)
        by_name = {r.name: r for r in rep.rows}
        assert by_name["dimension"].observed == 2
        assert by_name["degree"].observed == degree


def test_weight_chain_diagram():
    chain = weight_chain_diagram(3)
    assert chain.top_weights == (3, 2, 1)
    assert chain.bottom_weights == (2, 1, 0)
    dot = chain.to_dot()
    assert "b0 -> t0" in dot
    assert "t0 -> t1" in dot
