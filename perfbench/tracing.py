"""Spans around the public functions of each package layer.

Used only by the traced run.  ``installed`` replaces every public
function of the layer modules, in memory, wherever a ``staircase``
module binds it (``from .x import f`` makes a second binding), and the
three ``Report`` render methods; it puts the originals back on exit.
Nothing under ``src/`` changes.

A span is [name, start, end, parent index, args, result].  Spans stay in
a list in memory; ``self_times`` and the counters read them after the
run, and ``dump`` writes them out without args and results.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter
from types import FunctionType

# Layer = package module.  graphs and poly have no public module-level
# functions the workloads reach (their work is in methods), so their
# time lands in the caller's self time.
LAYERS = ("perm", "rwgraph", "layered", "chroma", "identities", "toric",
          "binomial", "report", "partition", "cli")

# Per-monomial, per-pair and per-row helpers run up to millions of times
# inside the engines; a span around each would cost more than the work
# it times.  Their time counts as their caller's self time.
UNWRAPPED = {
    "rwgraph": {"detect_move"},
    "binomial": {"expo_mul", "expo_div", "expo_lcm", "divides", "total_degree",
                 "grevlex_greater", "lex_greater", "format_monomial", "reduce_monomial",
                 "s_binomial"},
    "report": {"check", "skipped"},
}
# cli.main's self time is argument parsing and orchestration, so the
# cmd_* helpers it dispatches to are not spans of their own.
ONLY = {"cli": {"main"}}

RENDER_METHODS = ("to_text", "to_json", "to_markdown")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, args, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                span[5] = fn(*args, **kwargs)
                return span[5]
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def top_level_s(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] == -1)

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, per name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s[0]] += s[2] - s[1] - c
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s[0]] += 1
        return dict(out)

    def of(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s[:4] for s in self.spans], fh)


def _public_functions(module) -> dict[str, FunctionType]:
    short = module.__name__.rsplit(".", 1)[1]
    names = ONLY.get(short)
    out = {}
    for name, value in vars(module).items():
        if name.startswith("_") or not isinstance(value, FunctionType):
            continue
        if value.__module__ != module.__name__ or name in UNWRAPPED.get(short, ()):
            continue
        if names is None or name in names:
            out[name] = value
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the layer functions for the duration of the block."""
    import staircase  # noqa: F401  (loads every layer module)
    from staircase.report import Report

    modules = [m for n, m in sorted(sys.modules.items()) if n == "staircase" or n.startswith("staircase.")]
    wrappers: dict[int, object] = {}
    for short in LAYERS:
        module = sys.modules[f"staircase.{short}"]
        for name, fn in _public_functions(module).items():
            wrappers[id(fn)] = tracer.wrap(f"{short}.{name}", fn)
    saved = []
    for module in modules:
        for name, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                saved.append((module, name, value))
                setattr(module, name, wrapper)
    for method in RENDER_METHODS:
        original = Report.__dict__[method]
        saved.append((Report, method, original))
        setattr(Report, method, tracer.wrap("report.render", original))
    try:
        yield tracer
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)
