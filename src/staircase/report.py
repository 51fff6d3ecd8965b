"""Observed-versus-claimed check rows and their rendering.

Audits in this package never assert a printed claim; they record what
the code computed next to what the claim says and attach a verdict.
MISMATCH on a claim row is a finding, not a failure.  Rendering is
byte-deterministic: fixed key order, no timestamps.
"""

from __future__ import annotations

import json
from collections import namedtuple

MATCH = "MATCH"
MISMATCH = "MISMATCH"
SKIPPED = "SKIPPED"

# Row kinds.  An "invariant" row failing means the code broke its own
# contract; a "claim" row failing means a printed statement disagrees
# with what was computed.
INVARIANT = "invariant"
CLAIM = "claim"


class CheckRow(namedtuple("CheckRow", "name observed claimed verdict kind note",
                          defaults=(CLAIM, ""))):
    __slots__ = ()

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "observed": _plain(self.observed),
            "claimed": _plain(self.claimed),
            "verdict": self.verdict,
            "kind": self.kind,
        }
        if self.note:
            d["note"] = self.note
        return d


def check(name: str, observed: object, claimed: object,
          kind: str = CLAIM, note: str = "") -> CheckRow:
    verdict = MATCH if observed == claimed else MISMATCH
    return CheckRow(name, observed, claimed, verdict, kind, note)


def skipped(name: str, note: str = "") -> CheckRow:
    return CheckRow(name, None, None, SKIPPED, CLAIM, note)


class Report:
    """A titled list of check rows."""

    def __init__(self, title: str) -> None:
        self.title = title
        self.rows: list[CheckRow] = []
        self.notes: list[str] = []

    def add(self, row: CheckRow) -> CheckRow:
        self.rows.append(row)
        return row

    def note(self, text: str) -> None:
        self.notes.append(text)

    def mismatches(self) -> list[CheckRow]:
        return [r for r in self.rows if r.verdict == MISMATCH]

    def invariant_failures(self) -> list[CheckRow]:
        return [r for r in self.rows if r.verdict == MISMATCH and r.kind == INVARIANT]

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "rows": [r.to_dict() for r in self.rows],
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_markdown(self) -> str:
        lines = [f"## {self.title}", ""]
        lines.append("| check | observed | claimed | verdict |")
        lines.append("|---|---|---|---|")
        for r in self.rows:
            lines.append(
                f"| {r.name} | {_cell(r.observed)} | {_cell(r.claimed)} | {r.verdict} |"
            )
        for r in self.rows:
            if r.note:
                lines.append("")
                lines.append(f"note ({r.name}): {r.note}")
        for n in self.notes:
            lines.append("")
            lines.append(f"note: {n}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [self.title]
        width = max((len(r.name) for r in self.rows), default=0)
        for r in self.rows:
            lines.append(
                f"  {r.name.ljust(width)}  observed={_cell(r.observed)}"
                f"  claimed={_cell(r.claimed)}  {r.verdict}"
            )
            if r.note:
                lines.append(f"    note: {r.note}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines) + "\n"


def _plain(x: object) -> object:
    if type(x) is tuple:  # not a record, which renders as str() gives it
        return [_plain(v) for v in x]
    return x


def _cell(x: object) -> str:
    if x is None:
        return "-"
    p = _plain(x)
    if isinstance(p, list):
        return json.dumps(p)
    return str(p)
