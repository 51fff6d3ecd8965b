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
