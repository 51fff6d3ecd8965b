import pytest

from staircase.audits import parity_pair_report, subidentity_report, triangular_gf_report
from staircase.chroma import colour_separation
from staircase.errors import DomainError
from staircase.graphs import weight_chain_diagram
from staircase.identities import colour_separation_identity, parity_split
from staircase.partition import (
    Partition,
    distinct_odd_parts,
    is_staircase,
    staircase,
)
from staircase.toric import separation_ideal

from partition_oracle import checkerboard


def test_staircase_constructor():
    assert staircase(4).parts == (4, 3, 2, 1)
    assert staircase(1).parts == (1,)
    with pytest.raises(DomainError):
        staircase(0)


@pytest.mark.parametrize(
    "family, ell",
    [
        (colour_separation, 0),
        (parity_pair_report, 0),
        (colour_separation_identity, 4),
        (parity_split, 4),
        (subidentity_report, 4),
        (separation_ideal, 4),
        (weight_chain_diagram, 1),
    ],
)
def test_family_functions_name_the_length_below_their_floor(family, ell):
    with pytest.raises(DomainError) as info:
        family(ell)
    assert str(info.value).endswith(f"got {ell}")


def test_partition_validates():
    with pytest.raises(DomainError):
        Partition((2, 3))
    with pytest.raises(DomainError):
        Partition((3, 0))


def test_size_and_length():
    p = staircase(6)
    assert p.size == 21
    assert p.length == 6


def test_is_staircase():
    assert is_staircase(Partition((3, 2, 1)))
    assert not is_staircase(Partition((3, 1)))
    assert not is_staircase(Partition((2, 2, 1)))


def test_staircase_is_self_conjugate():
    for ell in range(1, 8):
        p = staircase(ell)
        assert p.transpose() == p
        assert p.is_self_conjugate()


def test_distinct_odd_parts():
    # diagonal hooks of a self-conjugate shape: distinct, odd, same total
    assert distinct_odd_parts(staircase(5)).parts == (9, 5, 1)
    assert distinct_odd_parts(Partition((2, 1))).parts == (3,)
    for ell in range(1, 9):
        parts = distinct_odd_parts(staircase(ell)).parts
        assert all(x % 2 == 1 for x in parts)
        assert len(set(parts)) == len(parts)
        assert sum(parts) == staircase(ell).size
    with pytest.raises(DomainError):
        distinct_odd_parts(Partition((5, 3, 1)))


def test_checkerboard_counts():
    # black holds the even coordinate sums; the class sizes are the
    # separation pair, in whichever order the corner parity dictates
    c5 = checkerboard(staircase(5))
    assert (c5.black_count, c5.red_count) == (9, 6)
    c6 = checkerboard(staircase(6))
    assert {c6.black_count, c6.red_count} == {12, 9}


def test_checkerboard_is_proper():
    c = checkerboard(staircase(4))
    cells = set(c.black) | set(c.red)
    for a, b in c.black:
        for n in ((a + 1, b), (a, b + 1)):
            if n in cells:
                assert n in set(c.red)


def test_triangular_gf_matches_through_index_10():
    rep = triangular_gf_report()
    assert all(r.verdict == "MATCH" for r in rep.rows)
    assert len(rep.rows) == 11
