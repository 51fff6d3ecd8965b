"""The benchmark's tiny workloads, run once plain and once traced.

Every operation of perfbench/workloads.py must still run against the
package and pass its reference check, so a change that breaks a call
the benchmark makes fails here as well.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from staircase import layered, perm, rwgraph, toric  # noqa: E402
from staircase.partition import staircase  # noqa: E402


def _run(ops) -> None:
    results = {}
    for op in ops:
        results[op.name] = op.call(results)
    for op in ops:
        assert op.check(results[op.name], results) is None, op.name


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_workload_ops_pass_their_checks(workload, traced):
    ops = workloads.WORKLOADS[workload](7, True)
    if traced:
        with tracing.installed(tracing.Tracer()):
            _run(ops)
    else:
        _run(ops)


def test_benchmark_inputs_use_under_one_percent_of_each_cap(monkeypatch):
    # A cap cut to a hundredth of its value must still pass every
    # benchmark-shaped input, so a later cut cannot quietly make the
    # benchmark's operations fail.  Measured use: 1,038 placements for
    # the family at length 45, at most 520 per random isomorphism pair,
    # words of 14,880 letters stored by the move graph at length 30 (the
    # benchmark's longest), at most 7,356 Hilbert exponent entries per
    # random ideal.  The Hilbert depth cap must stay under Python's
    # recursion limit, so it gets a tenth: random ideals nest 13 deep.
    words45 = rwgraph.family_word_graph(45)
    for module, name, cut in (
        (rwgraph, "MAX_REDUCED_LETTERS", 100),
        (layered, "MAX_ISO_NODES", 100),
        (toric, "MAX_HILBERT_ENTRIES", 100),
        (toric, "MAX_HILBERT_DEPTH", 10),
    ):
        monkeypatch.setattr(module, name, getattr(module, name) // cut)
    assert layered.is_isomorphic(words45, layered.build_layered_graph(staircase(45)))
    assert rwgraph.build_word_graph(perm.staircase_permutation(31)).vertex_count == 465
    # the calls alone: the tiny workloads above check the answers
    results = {}
    for op in workloads.census_scale(7, False):
        results[op.name] = op.call(results)
    for seed in (7, 53, 83):
        for op in workloads.random_engines(seed, False):
            if op.name.startswith(("is_isomorphic", "hilbert")):
                op.call(results)
