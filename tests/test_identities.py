import random
from collections import Counter
from itertools import combinations_with_replacement
from math import comb

import pytest

from staircase.audits import subidentity_report
from staircase.binomial import Binomial, Words
from staircase.chroma import colour_separation
from staircase import identities
from staircase.errors import (
    DomainError,
    InvalidIdentityError,
    ResourceLimitError,
)
from staircase.identities import (
    PartitionIdentity,
    colour_separation_identity,
    graver_basis,
    is_primitive,
    parity_split,
    primitive_subidentities,
    primitive_subidentity_count,
)
from staircase.toric import separation_ideal, weight_names

from identities_oracle import (
    brute_is_primitive,
    brute_primitive_subidentities,
    proper_subidentities,
)
from toric_oracle import brute_graver


def test_make_identity_sorts_and_validates():
    ident = PartitionIdentity((2, 1, 3), (6,), 6)
    assert ident.lhs == (3, 2, 1)
    assert ident.rhs == (6,)
    assert sum(ident.lhs) == 6
    with pytest.raises(InvalidIdentityError):
        PartitionIdentity((1, 2), (4,), 4)
    with pytest.raises(DomainError):
        PartitionIdentity((1, 9), (10,), 8)
    with pytest.raises(DomainError):
        PartitionIdentity((), (0,), 3)


def test_identity_str_form():
    assert str(colour_separation_identity(5)) == "1+2+3+4+5 = 9+6"


def test_proper_subidentities_exclude_trivial():
    ident = PartitionIdentity((1, 2, 3), (6,), 6)
    subs = proper_subidentities(ident)
    # only 1+2+3 = 6 itself sums to 6, so nothing proper remains
    assert subs == []
    assert is_primitive(ident)


def test_multiset_subidentities():
    ident = PartitionIdentity((2, 2), (4,), 4)
    assert proper_subidentities(ident) == []
    assert is_primitive(ident)
    wider = PartitionIdentity((2, 2, 4), (4, 4), 4)
    subs = proper_subidentities(wider)
    assert PartitionIdentity((4,), (4,), 4) in subs
    assert PartitionIdentity((2, 2), (4,), 4) in subs
    assert not is_primitive(wider)


def _random_parts(rng: random.Random, most: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, 7) for _ in range(rng.randint(1, most)))


def test_is_primitive_matches_the_oracle():
    rng = random.Random(4127)
    verdicts = []
    for _ in range(2500):
        lhs = _random_parts(rng, 6)
        rhs, left = [], sum(lhs)
        while left:
            rhs.append(rng.randint(1, min(left, 9)))
            left -= rhs[-1]
        ident = PartitionIdentity(lhs, tuple(rhs), max(lhs + tuple(rhs)))
        verdicts.append(is_primitive(ident))
        assert verdicts[-1] == brute_is_primitive(ident), ident
    # both verdicts are exercised
    assert 200 < sum(verdicts) < 2300


def test_family_witnesses_match_the_oracle():
    counts = []
    for ell in range(5, 15):
        ident = colour_separation_identity(ell)
        want = brute_primitive_subidentities(ident)
        assert list(primitive_subidentities(ident)) == want, ell
        assert primitive_subidentity_count(ident) == len(want), ell
        counts.append(len(want))
    assert counts == [6, 10, 16, 26, 44, 78, 136, 242, 430, 778]


def test_two_part_identities_match_the_oracle():
    rng = random.Random(6301)
    equal = 0
    for _ in range(600):
        lhs = _random_parts(rng, 8)
        total = sum(lhs)
        if total < 2:
            continue
        first = total // 2 if rng.random() < 0.3 else rng.randint(1, total - 1)
        ident = PartitionIdentity(lhs, (first, total - first), total)
        equal += first == total - first
        want = brute_primitive_subidentities(ident)
        assert list(primitive_subidentities(ident)) == want, ident
        assert primitive_subidentity_count(ident) == len(want), ident
    assert equal > 50


def test_one_right_part_has_no_proper_subidentity():
    ident = PartitionIdentity((1, 2, 2, 3), (8,), 8)
    assert list(primitive_subidentities(ident)) == []
    assert primitive_subidentity_count(ident) == 0


def test_witness_search_needs_at_most_two_right_parts():
    ident = PartitionIdentity((6, 4), (5, 3, 2), 6)
    with pytest.raises(DomainError, match="at most two right parts"):
        primitive_subidentities(ident)
    with pytest.raises(DomainError, match="at most two right parts"):
        primitive_subidentity_count(ident)


def test_cspi_5_primitive_census():
    ident = colour_separation_identity(5)
    prims = list(primitive_subidentities(ident))
    assert len(prims) == 6
    shapes = {str(p) for p in prims}
    assert shapes == {
        "1+2+3 = 6",
        "2+4 = 6",
        "1+5 = 6",
        "2+3+4 = 9",
        "1+3+5 = 9",
        "4+5 = 9",
    }


def test_cspi_6_primitive_census():
    ident = colour_separation_identity(6)
    assert len(list(primitive_subidentities(ident))) == 10


def test_parity_split():
    # the first half always carries the parts sharing the length's parity
    mu5, kappa5 = parity_split(5)
    assert str(mu5) == "1+3+5 = 9"
    assert str(kappa5) == "2+4 = 6"
    mu6, kappa6 = parity_split(6)
    assert str(mu6) == "2+4+6 = 12"
    assert str(kappa6) == "1+3+5 = 9"


def test_parity_splits_are_primitive_through_9():
    for ell in range(5, 10):
        ident = colour_separation_identity(ell)
        prims = list(primitive_subidentities(ident))
        hits = [p for p in parity_split(ell) if p in prims]
        assert len(hits) == 2
        matches = [p for p in prims if p in parity_split(ell)]
        assert len(matches) == 2


def test_subidentity_report_rows():
    rep = subidentity_report(5)
    by_name = {r.name: r for r in rep.rows}
    assert by_name["all parts distinct"].verdict == "MATCH"
    assert by_name["identity is primitive"].verdict == "MATCH"
    assert by_name["primitive subidentity count"].verdict == "MISMATCH"
    assert by_name["primitive subidentity count"].observed == 6
    assert by_name["subidentities equal to a parity split"].verdict == "MATCH"
    assert not rep.invariant_failures()


@pytest.mark.parametrize("ell, bound", [(5, 3), (6, 3), (7, 3), (8, 3), (9, 3), (7, 4)])
def test_subidentity_report_lists_the_graver_basis_in_order(ell, bound):
    weights = separation_ideal(ell).weights
    names = weight_names(weights)
    notes = [n for n in subidentity_report(ell, bound).notes if n.startswith("graver:")]
    assert notes == ["graver: " + b.format(names) for b in graver_basis(weights, bound)]


def test_graver_basis_tiny():
    basis = graver_basis((1, 2), 2)
    assert basis == (Binomial((2, 0), (0, 1)),)


def test_graver_basis_three_weights():
    basis = graver_basis((1, 2, 3), 3)
    got = {b.format(["x1", "x2", "x3"]) for b in basis}
    assert got == {
        "x1^2 - x2",
        "x1*x2 - x3",
        "x1^3 - x3",
        "x1*x3 - x2^2",
        "x2^3 - x3^2",
    }


def test_graver_elements_are_primitive_relations():
    weights = (2, 3, 7)
    for b in graver_basis(weights, 4):
        assert b.in_kernel(weights)
        assert not any(map(min, b.u, b.v))  # disjoint supports


@pytest.mark.parametrize("ell, bound", [(ell, 3) for ell in range(5, 13)] + [(7, 4)])
def test_graver_records_pass_the_binomial_checks_in_order(ell, bound):
    basis = graver_basis(separation_ideal(ell).weights, bound)
    assert basis and all(type(b) is Binomial and b == Binomial(*b) for b in basis)
    keys = [(max(sum(b.u), sum(b.v)), b.u, b.v) for b in basis]
    assert keys == sorted(keys)


def test_graver_records_sort_and_keep_every_binomial_check(monkeypatch):
    words = Words.holding(3, 2)
    u, v, w = words.pack((2, 0, 0)), words.pack((0, 1, 0)), words.pack((0, 0, 1))
    assert identities._canonical_graver([(2, v, w), (1, u, w), (1, u, v)], words) == (
        Binomial((2, 0, 0), (0, 0, 1)),
        Binomial((2, 0, 0), (0, 1, 0)),
        Binomial((0, 1, 0), (0, 0, 1)),
    )
    assert identities._canonical_graver([], words) == ()
    # each check of Binomial(u, v) fires in the bulk build too
    with pytest.raises(DomainError, match="zero binomial"):
        identities._canonical_graver([(2, u, v), (2, u, u)], words)
    monkeypatch.setattr(Words, "unpack", lambda self, w: (-1, 0, 0))
    with pytest.raises(DomainError, match="naturals"):
        identities._canonical_graver([(2, u, v)], words)
    monkeypatch.setattr(Words, "unpack", lambda self, w: (1, 0))
    with pytest.raises(DomainError, match="side lengths differ: 2 vs 3"):
        identities._canonical_graver([(2, u, v)], words)


def test_subidentity_report_keeps_every_binomial_check(monkeypatch):
    # the report reads its notes from the same checked table as the records
    monkeypatch.setattr(Words, "unpack", lambda self, w: (-1,) + (0,) * (self.nvars - 1))
    with pytest.raises(DomainError, match="naturals"):
        subidentity_report(7, 3)
    monkeypatch.setattr(Words, "unpack", lambda self, w: (1, 0))
    with pytest.raises(DomainError, match="side lengths differ: 2 vs 9"):
        subidentity_report(7, 3)


def test_subidentity_report_builds_no_records(monkeypatch):
    want = subidentity_report(7, 3).notes
    monkeypatch.setattr(identities, "_records", None)
    assert subidentity_report(7, 3).notes == want


def test_subidentity_report_degree_bound_is_positive_or_none():
    for bound in (0, -1):
        with pytest.raises(DomainError, match=f"degree bound must be positive, got {bound}"):
            subidentity_report(7, bound)
    assert not [n for n in subidentity_report(7, None).notes if n.startswith("graver:")]


def test_graver_fields_widen_past_the_guard_bit():
    # 129 needs eight value bits, so byte fields would reach their guard,
    # and 257 needs nine, more than a byte holds
    assert graver_basis((1, 129), 130) == (Binomial((129, 0), (0, 1)),)
    assert graver_basis((2, 3), 130) == (Binomial((3, 0), (0, 2)),)
    assert graver_basis((1, 257), 257) == (Binomial((257, 0), (0, 1)),)


def test_graver_validates_weights():
    with pytest.raises(DomainError):
        graver_basis((1, 1), 2)
    with pytest.raises(DomainError):
        graver_basis((0, 2), 2)
    with pytest.raises(DomainError):
        graver_basis((1, 2), 0)


def test_graver_state_cap(monkeypatch):
    # a cap hit while listing monomials has no pair to keep
    monkeypatch.setattr(identities, "MAX_GRAVER_STATES", 50)
    with pytest.raises(ResourceLimitError, match="^51 Graver states exceed the cap 50$") as info:
        graver_basis(tuple(range(1, 9)), 6)
    assert info.value.partial == ()
    # a cap hit during pair enumeration keeps the pairs found so far
    monkeypatch.setattr(identities, "MAX_GRAVER_STATES", 200)
    with pytest.raises(ResourceLimitError, match="^201 Graver states exceed the cap 200$") as info:
        graver_basis(tuple(range(1, 9)), 3)
    assert len(info.value.partial) == 23
    assert all(b.in_kernel(tuple(range(1, 9))) for b in info.value.partial)


@pytest.mark.parametrize("bound, cap", [(3, 400), (4, 3000)])
def test_graver_partial_result_lies_in_the_basis(monkeypatch, bound, cap):
    # the partial result holds primitive relations only, not every
    # disjoint-support pair of equal weight seen before the cap
    weights = tuple(range(1, 9))
    basis = set(graver_basis(weights, bound))
    monkeypatch.setattr(identities, "MAX_GRAVER_STATES", cap)
    with pytest.raises(ResourceLimitError) as info:
        graver_basis(weights, bound)
    assert info.value.partial
    assert set(info.value.partial) <= basis


def _pairs(basis) -> list[tuple[tuple, tuple]]:
    return [(b.u, b.v) for b in basis]


def test_graver_basis_matches_the_dominance_scan_on_the_family():
    for ell in range(5, 9):
        sep = colour_separation(ell)
        weights = tuple(range(1, ell + 1)) + (sep.mu, sep.kappa)
        # the pairwise dominance scan takes seconds at bound 4 past ell = 6
        for bound in (3, 4) if ell <= 6 else (3,):
            assert _pairs(graver_basis(weights, bound)) == brute_graver(weights, bound), (
                ell,
                bound,
            )


def test_graver_states_are_the_monomials_plus_the_equal_weight_pairs(monkeypatch):
    sep = colour_separation(6)
    weights = tuple(range(1, 7)) + (sep.mu, sep.kappa)
    n, bound = len(weights), 3
    groups = Counter(
        sum(weights[i] for i in combo)
        for d in range(1, bound + 1)
        for combo in combinations_with_replacement(range(n), d)
    )
    count = comb(n + bound, bound) - 1 + sum(comb(k, 2) for k in groups.values())
    basis = graver_basis(weights, bound)
    monkeypatch.setattr(identities, "MAX_GRAVER_STATES", count)
    assert graver_basis(weights, bound) == basis
    monkeypatch.setattr(identities, "MAX_GRAVER_STATES", count - 1)
    with pytest.raises(
        ResourceLimitError, match=f"^{count} Graver states exceed the cap {count - 1}$"
    ):
        graver_basis(weights, bound)


def test_graver_basis_matches_the_dominance_scan_on_random_weights():
    rng = random.Random(9157)
    for _ in range(100):
        weights = tuple(rng.sample(range(1, 16), rng.randint(1, 6)))
        bound = rng.randint(1, 4)
        assert _pairs(graver_basis(weights, bound)) == brute_graver(weights, bound), (
            weights,
            bound,
        )
    for _ in range(60):
        weights = tuple(rng.sample(range(1, 25), rng.randint(1, 5)))
        for bound in (4, 5):
            assert _pairs(graver_basis(weights, bound)) == brute_graver(weights, bound), (
                weights,
                bound,
            )

