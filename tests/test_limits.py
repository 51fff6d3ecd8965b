"""Every resource limit stops with ResourceLimitError in one message shape."""

import re
from pathlib import Path

import pytest

from staircase import audits, chroma, identities, layered, perm, poly, rwgraph, toric
from staircase.binomial import Binomial
from staircase.errors import ResourceLimitError
from staircase.partition import staircase
from staircase.toric import MonomialIdeal

ROOT = Path(__file__).resolve().parents[1]
SHAPE = re.compile(r"^(\d+) [\w -]+ exceed the cap (\d+)$")

G6 = layered.build_layered_graph(staircase(6))
W8 = perm.staircase_permutation(8)
WEIGHTS = tuple(range(1, 9))
QUADRICS = [Binomial((1, 0, 1, 0), (0, 2, 0, 0)), Binomial((1, 0, 0, 1), (0, 1, 1, 0))]
# seven generators: more than a Taylor leaf closes, so its nodes nest
STAIRCASE_IDEAL = MonomialIdeal(2, tuple((i, 8 - i) for i in range(1, 8)))

# name: (module, its cap constant or None for an argument, the low cap,
# a call that trips it, the length of the partial result or None)
LIMITS = {
    "frontier states": (
        chroma, "MAX_FRONTIER_STATES", 3, lambda: chroma.chromatic_polynomial(G6), None
    ),
    "Graver monomials": (
        identities, "MAX_GRAVER_STATES", 50, lambda: identities.graver_basis(WEIGHTS, 6), 0
    ),
    "Graver pairs": (
        identities, "MAX_GRAVER_STATES", 200, lambda: identities.graver_basis(WEIGHTS, 3), 23
    ),
    "isomorphism vertices": (
        layered, None, 10, lambda: layered.is_isomorphic(G6, G6, cap=10), None
    ),
    "isomorphism placements": (
        layered, "MAX_ISO_NODES", 10, lambda: layered.is_isomorphic(G6, G6), None
    ),
    "series rows": (
        audits, "MAX_SERIES_ROWS", 10, lambda: audits.family_series_report(3), None
    ),
    "permutation entries": (
        rwgraph, None, 7, lambda: rwgraph.build_word_graph(W8, max_degree=7), None
    ),
    "reduced-word letters": (
        rwgraph, "MAX_REDUCED_LETTERS", 10, lambda: rwgraph.build_word_graph(W8), None
    ),
    "basis elements": (
        toric, "MAX_BASIS", 2, lambda: toric.groebner_basis(QUADRICS), None
    ),
    "Hilbert entries": (
        toric, "MAX_HILBERT_ENTRIES", 0, lambda: toric.hilbert(STAIRCASE_IDEAL), None
    ),
    "Hilbert depth": (
        toric, "MAX_HILBERT_DEPTH", 1, lambda: toric.hilbert(STAIRCASE_IDEAL), None
    ),
    "polynomial product bits": (
        poly, "MAX_PRODUCT_BITS", 10, lambda: chroma.layered_closed_form(3), None
    ),
    "monomial-count masks": (
        toric, "MAX_COUNT_MASKS", 1,
        lambda: toric.standard_monomial_counts(MonomialIdeal(2, ((1, 1),)), 3), None
    ),
}


@pytest.mark.parametrize("name", LIMITS)
def test_every_limit_stops_with_the_one_message_shape(monkeypatch, name):
    module, constant, low, call, partial_len = LIMITS[name]
    if constant is not None:
        monkeypatch.setattr(module, constant, low)
    with pytest.raises(ResourceLimitError) as info:
        call()
    shape = SHAPE.match(str(info.value))
    assert shape, str(info.value)
    count, cap = map(int, shape.groups())
    assert count > cap == low
    if partial_len is None:
        assert info.value.partial is None
    else:
        assert len(info.value.partial) == partial_len


def test_every_cap_constant_is_tripped_above():
    defined = {
        f"{path.stem}.{name}"
        for path in (ROOT / "src" / "staircase").glob("*.py")
        for name in re.findall(r"^(MAX_\w+) = ", path.read_text(), re.M)
    }
    tripped = {
        f"{module.__name__.rsplit('.', 1)[1]}.{constant}"
        for module, constant, *_ in LIMITS.values()
        if constant is not None
    }
    assert tripped == defined
