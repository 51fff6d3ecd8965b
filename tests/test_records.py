"""The package's value records: repr, equality, hashing, immutability.

Every record but ``Report`` is an immutable tuple of named fields; the
six that check or normalise their fields do it on every constructor
path, ``_make`` and ``_replace`` included.
"""

import pytest

from staircase.audits import Audit
from staircase.binomial import Binomial
from staircase.chroma import ColourSeparation, colour_separation
from staircase.errors import DomainError, InvalidIdentityError
from staircase.graphs import SimpleGraph, WeightChain
from staircase.identities import PartitionIdentity
from staircase.layered import BalanceMatrix, LayeredGraph, build_layered_graph
from staircase.partition import Partition, staircase
from staircase.poly import IntPolynomial
from staircase.report import CheckRow, Report, check
from staircase.rwgraph import WordGraph, build_word_graph
from staircase.toric import BinomialIdeal, HilbertData, MonomialIdeal, hilbert

X_MINUS_Y = Binomial((1, 0), (0, 1))

# (type, a fresh instance, its fields in order, their names, its repr)
RECORDS = [
    (SimpleGraph, lambda: SimpleGraph.from_edges(2, [(1, 0)]),
     (2, ((0, 1),)), "n edges", "SimpleGraph(n=2, edges=((0, 1),))"),
    (WeightChain, lambda: WeightChain(3), (3,), "ell", "WeightChain(ell=3)"),
    (Binomial, lambda: Binomial([1, 0], [0, 1]), ((1, 0), (0, 1)), "u v",
     "Binomial(u=(1, 0), v=(0, 1))"),
    (ColourSeparation, lambda: colour_separation(5), (9, 6), "mu kappa",
     "ColourSeparation(mu=9, kappa=6)"),
    (Audit, lambda: Audit("t {ell}", len), ("t {ell}", len, 1, None), "title report lo why",
     "Audit(title='t {ell}', report=<built-in function len>, lo=1, why=None)"),
    (PartitionIdentity, lambda: PartitionIdentity([1, 5, 3], [9], 9), ((5, 3, 1), (9,), 9),
     "lhs rhs bound", "PartitionIdentity(lhs=(5, 3, 1), rhs=(9,), bound=9)"),
    (LayeredGraph, lambda: build_layered_graph(staircase(2)),
     (3, ((0, 2), (1, 2)), (2, 1)), "n edges layer_sizes",
     "LayeredGraph(n=3, edges=((0, 2), (1, 2)), layer_sizes=(2, 1))"),
    (BalanceMatrix, lambda: BalanceMatrix(2), (2,), "k", "BalanceMatrix(k=2)"),
    (Partition, lambda: staircase(3), ((3, 2, 1),), "parts", "Partition(parts=(3, 2, 1))"),
    (CheckRow, lambda: check("a", 1, 1), ("a", 1, 1, "MATCH", "claim", ""),
     "name observed claimed verdict kind note",
     "CheckRow(name='a', observed=1, claimed=1, verdict='MATCH', kind='claim', note='')"),
    (WordGraph, lambda: build_word_graph((3, 2, 1)),
     (2, ((0, 1, "braid"),), ((1, 2, 1), (2, 1, 2))), "n edges words",
     "WordGraph(n=2, edges=((0, 1, 'braid'),), words=((1, 2, 1), (2, 1, 2)))"),
    (BinomialIdeal, lambda: BinomialIdeal(2, (X_MINUS_Y,), (1, 1)),
     (2, (X_MINUS_Y,), (1, 1)), "nvars generators weights",
     "BinomialIdeal(nvars=2, generators=(Binomial(u=(1, 0), v=(0, 1)),), weights=(1, 1))"),
    (MonomialIdeal, lambda: MonomialIdeal(2, ((1, 2), (1, 1), (0, 3))),
     (2, ((1, 1), (0, 3))), "nvars gens", "MonomialIdeal(nvars=2, gens=((1, 1), (0, 3)))"),
    (HilbertData, lambda: hilbert(MonomialIdeal(2, ((1, 1),))),
     (IntPolynomial([1, 0, -1]), 1, 2), "numerator dimension degree",
     "HilbertData(numerator=IntPolynomial([1, 0, -1]), dimension=1, degree=2)"),
]
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, make, fields, names, text", RECORDS, ids=IDS)
def test_record_repr_equality_and_hash(cls, make, fields, names, text):
    r = make()
    assert type(r) is cls
    assert repr(r) == text
    assert r == make() and not r != make()
    assert hash(r) == hash(make()) == hash(fields)
    assert r._fields == tuple(names.split())
    assert tuple(r) == fields == tuple(getattr(r, name) for name in r._fields)


@pytest.mark.parametrize("cls, make, fields, names, text", RECORDS, ids=IDS)
def test_record_fields_cannot_be_set(cls, make, fields, names, text):
    r = make()
    for name in names.split() + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
    assert tuple(r) == fields


def test_records_differ_when_a_field_differs():
    assert Binomial((1, 0), (0, 1)) != Binomial((0, 1), (1, 0))
    assert staircase(3) != staircase(2)
    assert check("a", 1, 1) != check("a", 1, 2)
    assert len({staircase(3), staircase(3), staircase(2)}) == 2


def test_records_are_tuples_of_their_fields():
    sep = colour_separation(5)
    mu, kappa = sep
    assert (mu, kappa) == sep == (9, 6) and sep.balance == 3
    assert CheckRow("a", 1, 2, "MISMATCH") == ("a", 1, 2, "MISMATCH", "claim", "")


def test_report_is_a_mutable_titled_list_of_rows():
    rep, other = Report("t"), Report("t")
    assert (rep.title, rep.rows, rep.notes) == ("t", [], [])
    row = rep.add(check("a", 1, 2))
    rep.note("n")
    assert rep.rows == [row] and rep.notes == ["n"]
    assert other.rows == [] and other.notes == []
    rep.title = "u"
    assert rep.to_dict()["title"] == "u"


# (a valid record, a _replace that breaks it, the error it raises)
INVALID_REPLACEMENTS = [
    (X_MINUS_Y, {"u": (0, 1)}, DomainError),
    (X_MINUS_Y, {"v": (0, -1)}, DomainError),
    (X_MINUS_Y, {"v": (0, 1, 0)}, DomainError),
    (staircase(3), {"parts": (1, 2)}, DomainError),
    (staircase(3), {"parts": (2, 0)}, DomainError),
    (PartitionIdentity((1, 3, 5), (9,), 9), {"rhs": (8,)}, InvalidIdentityError),
    (PartitionIdentity((1, 3, 5), (9,), 9), {"bound": 8}, DomainError),
    (PartitionIdentity((1, 3, 5), (9,), 9), {"lhs": ()}, DomainError),
    (BalanceMatrix(2), {"k": 0}, DomainError),
    (BinomialIdeal(2, (X_MINUS_Y,), (1, 1)), {"weights": (1,)}, DomainError),
    (BinomialIdeal(2, (X_MINUS_Y,), (1, 1)), {"nvars": 3}, DomainError),
    (MonomialIdeal(2, ((1, 1),)), {"gens": ((1,),)}, DomainError),
]
REPLACEMENT_IDS = [f"{type(r).__name__}-{next(iter(c))}" for r, c, _ in INVALID_REPLACEMENTS]


@pytest.mark.parametrize("record, changes, error", INVALID_REPLACEMENTS, ids=REPLACEMENT_IDS)
def test_replace_and_make_check_the_new_fields(record, changes, error):
    with pytest.raises(error):
        record._replace(**changes)
    with pytest.raises(error):
        type(record)._make(changes.get(f, v) for f, v in zip(record._fields, record))


def test_replace_normalises_as_the_constructor_does():
    ideal = MonomialIdeal(2, ((1, 1),))._replace(gens=((1, 2), (1, 1), (0, 3)))
    assert ideal == MonomialIdeal(2, ((1, 1), (0, 3)))
    assert ideal.gens == ((1, 1), (0, 3))
    ident = PartitionIdentity((9,), (1, 3, 5), 9)._replace(lhs=(2, 7))
    assert ident.lhs == (7, 2) and ident.rhs == (5, 3, 1)
    assert Binomial((1, 0), (0, 1))._replace(v=[0, 2]).v == (0, 2)
    assert Partition._make([(2, 1)]) == staircase(2)
    with pytest.raises(TypeError):
        Partition._make([(2, 1), ()])


def test_records_render_in_report_cells_through_str():
    sep, ident = colour_separation(5), PartitionIdentity((1, 3, 5), (9,), 9)
    rep = Report("records")
    rep.add(check("separation", sep, colour_separation(5)))
    rep.add(check("identity", ident, ident))
    rep.add(check("tuple", (9, 6), (9, 6)))
    text = rep.to_text()
    sep_text = "ColourSeparation(mu=9, kappa=6)"
    assert f"observed={sep_text}  claimed={sep_text}" in text
    assert "observed=1+3+5 = 9  claimed=1+3+5 = 9" in text
    assert "observed=[9, 6]  claimed=[9, 6]" in text
    assert f"| separation | {sep_text} | {sep_text} | MATCH |" in rep.to_markdown()
