"""Command-line front end for the staircase verification suite.

Every command prints deterministic reports (text, markdown, or json)
or one graph (dot, or json from export); identical configuration gives
byte-identical output.  Exit codes: 0 success, 1 failed checks (any
invariant failure in any report command, or any mismatch under
--strict), 2 usage error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from math import comb

from .chroma import (
    chromatic_number,
    class_sizes_closed_form,
    closed_form_report,
    colour_separation,
    balance_bound_check,
    shared_balance_check,
)
from .errors import DomainError, ResourceLimitError
from .graphs import weight_chain_diagram
from .identities import graver_basis, subidentity_report
from .layered import (
    LayeredGraph,
    balance_matrix_report,
    build_layered_graph,
    family_series_report,
    is_isomorphic,
    missing_edge_polynomial,
    parity_pair_report,
    vertex_parity_report,
)
from .partition import staircase, triangular_gf_report
from .perm import enumerate_reduced_words, staircase_permutation, word_to_str
from .report import INVARIANT, CheckRow, Report, check, skipped
from .rwgraph import family_word_graph, structure_report
from .toric import (
    audit_quadric_chain_ideal,
    audit_separation_ideal,
    separation_ideal,
    weight_names,
)


class UsageError(Exception):
    pass


def _parse_range(text: str, name: str, single: bool = False) -> tuple[int, int]:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"--{name} wants N or A..B, got {text!r}") from None
    if hi < lo:
        raise UsageError(f"--{name} range {text!r} is empty")
    if single and lo != hi:
        raise UsageError(f"--{name} must be a single value here, got {text!r}")
    return lo, hi


def positive_int(text: str) -> int:
    """argparse type of --degree-bound and --series: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staircase",
        description="reduced-word graphs, layered graphs, chromatic and toric checks",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmts: str = "json,markdown,text",
               default: str = "text") -> None:
        p.add_argument("--format", choices=fmts.split(","), default=default)
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("words", help="reduced words of the staircase permutations")
    p.add_argument("--r", required=True, help="permutation size N or A..B")
    common(p)

    p = sub.add_parser("graph", help="reduced-word move graph structure")
    p.add_argument("--ell", required=True, help="staircase length N or A..B")
    common(p, "json,markdown,text,dot")

    p = sub.add_parser("layered", help="layered graphs on staircase diagonals")
    p.add_argument("--ell", required=True)
    p.add_argument("--series", type=positive_int, default=None,
                   help="append the family series table truncated at this order")
    common(p, "json,markdown,text,dot")

    p = sub.add_parser("chroma", help="chromatic polynomial checks")
    p.add_argument("--ell", required=True)
    common(p)

    p = sub.add_parser("separation", help="two-colour separations and balance")
    p.add_argument("--ell", required=True)
    common(p)

    p = sub.add_parser("identities", help="partition identity audits")
    p.add_argument("--ell", required=True)
    p.add_argument("--degree-bound", type=positive_int, default=None,
                   help="also list the truncated Graver basis up to this degree")
    common(p)

    p = sub.add_parser("conjectures", help="toric ideal audits")
    p.add_argument("--ell", required=True)
    p.add_argument("--which", choices=["c1", "c2", "both"], default="both")
    common(p)

    p = sub.add_parser("verify-all", help="the full check suite over a range")
    p.add_argument("--ell", required=True)
    p.add_argument("--strict", action="store_true",
                   help="fail on any mismatch, not just invariant failures")
    common(p)

    p = sub.add_parser("export", help="write one graph artifact")
    p.add_argument("--ell", required=True)
    p.add_argument(
        "--kind",
        choices=["word-graph", "layered-graph", "weight-chain"],
        default="layered-graph",
    )
    common(p, "dot,json", default="dot")
    return parser


_CONFIG_KEYS = (
    "format", "out", "series", "which", "kind", "degree_bound", "strict",
)


def _with_config(args: argparse.Namespace, argv: list[str]) -> list[str]:
    """argv with the --config file's values as flags right after the command.

    The explicit flags come later, so they win, and argparse checks both
    alike.  A key that args.command has no option for is ignored.
    """
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read config {args.config}: {e}") from None
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    flags = []
    for key, value in sorted(data.items()):
        attr = key.replace("-", "_")
        if attr not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        if not hasattr(args, attr) or value is None:
            continue
        flag = "--" + attr.replace("_", "-")
        if attr == "strict":
            if not isinstance(value, bool):
                raise UsageError(f"config strict must be true, false or null, got {value!r}")
            flags += [flag] if value else []
        elif type(value) in (str, int):  # not bool, which is an int
            flags += [flag, str(value)]
        else:
            raise UsageError(f"config {key} must be a string or an integer, got {value!r}")
    # --config is the only option before the command: NAME VALUE or NAME=VALUE
    i = 0
    while argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    return [*argv[: i + 1], *flags, *argv[i + 1 :]]


def _isomorphism_row(ell: int, g: LayeredGraph) -> CheckRow:
    """The layered graph g against the move graph at ell, SKIPPED at a cap."""
    name = "isomorphic to the reduced-word graph"
    try:
        words = family_word_graph(ell)
        return check(name, is_isomorphic(words, g), True, kind=INVARIANT)
    except ResourceLimitError as e:
        return skipped(name, note=str(e))


@dataclass(frozen=True)
class Audit:
    """A report per length: report(ell) for ell >= lo.

    A length from 1 to below lo gives a SKIPPED report that says why, or
    no report when why is None; a length below 1 runs, so the report
    raises its own DomainError; a resource limit gives a SKIPPED report.
    """

    title: str  # of the SKIPPED report, with {ell}
    report: Callable[[int], Report]
    lo: int = 1
    why: str | None = None

    def run(self, ell: int) -> Report | None:
        note = self.why
        if not 1 <= ell < self.lo:
            try:
                return self.report(ell)
            except ResourceLimitError as e:
                note = f"resource limit: {e}"
        if note is None:
            return None
        rep = Report(self.title.format(ell=ell))
        rep.add(skipped("audit", note=note))
        return rep


def _layered_checks(ell: int) -> Report:
    g = build_layered_graph(staircase(ell))
    rep = Report(f"layered checks at length {ell}")
    rep.add(_isomorphism_row(ell, g))
    # bipartite, so chromatic_number answers without the chromatic sweep
    rep.add(check("chromatic number", chromatic_number(g), 2))
    if ell > 3:
        rep.rows.extend(parity_pair_report(ell - 1).rows)
    return rep


# verify-all runs every audit, in this order, at each length; conjectures
# runs c1, c2 or both.  The imported report functions are called through
# lambdas, so each call looks up the module-level name, which a test or a
# tracer may have rebound.
_AUDITS = {
    "census": Audit(
        "move-graph census at ell = {ell}",
        lambda ell: structure_report(ell),
    ),
    "layered": Audit("layered checks at length {ell}", _layered_checks),
    "closed form": Audit(
        "layered closed form vs recursion, lengths {ell}..{ell}",
        lambda ell: closed_form_report(ell),
    ),
    "subidentities": Audit(
        "subidentities at length {ell}",
        lambda ell: subidentity_report(ell),
        lo=5,
    ),
    "c1": Audit(
        "separation ideal audit at length {ell}",
        lambda ell: audit_separation_ideal(ell),
        5, "the distinct-parts hypothesis needs length >= 5",
    ),
    "c2": Audit(
        "consecutive-quadric ideal audit at length {ell}",
        lambda ell: audit_quadric_chain_ideal(ell),
        2, "the quadric chain needs length >= 2",
    ),
}


def cmd_words(args, lo: int, hi: int) -> Iterator[Report]:
    for r in range(lo, hi + 1):
        words = enumerate_reduced_words(staircase_permutation(r))
        rep = Report(f"reduced words of the staircase permutation, size {r}")
        rep.add(check("word count", len(words), comb(r, 2), kind=INVARIANT))
        for w in words:
            rep.note(word_to_str(w))
        yield rep


def cmd_graph(args, lo: int, hi: int) -> Iterator[Report]:
    return (structure_report(ell) for ell in range(lo, hi + 1))


def cmd_layered(args, lo: int, hi: int) -> Iterator[Report]:
    for ell in range(lo, hi + 1):
        g = build_layered_graph(staircase(ell))
        rep = Report(f"layered graph at length {ell}")
        rep.add(check("layer sizes", g.layer_sizes, tuple(range(ell, 0, -1)),
                      kind=INVARIANT))
        rep.add(check("edge count", g.edge_count, ell * (ell - 1), kind=INVARIANT))
        if ell >= 3:
            rep.add(_isomorphism_row(ell, g))
        rep.note(f"missing-edge polynomial {missing_edge_polynomial(ell).format('e')}")
        if ell > 1:
            rep.rows.extend(parity_pair_report(ell - 1).rows)
        if ell % 2 == 1:
            rep.rows.extend(vertex_parity_report(ell).rows)
        yield rep
    if args.series:
        yield family_series_report(args.series)


def cmd_chroma(args, lo: int, hi: int) -> Iterator[Report]:
    for ell in range(lo, hi + 1):
        rep = closed_form_report(ell)
        number = chromatic_number(build_layered_graph(staircase(ell)))
        rep.add(check(f"chromatic number at length {ell}", number, 2))
        yield rep


def cmd_separation(args, lo: int, hi: int) -> Iterator[Report]:
    yield balance_bound_check(hi)
    for ell in range(lo, hi + 1):
        sep = colour_separation(ell)
        rep = Report(f"colour separation at length {ell}")
        rep.add(check("class sizes (mu, kappa)", (sep.mu, sep.kappa),
                      class_sizes_closed_form(ell), kind=INVARIANT,
                      note="closed forms from the layer sums"))
        if ell % 2 == 0:
            k = ell // 2
            rep.add(check(f"pair at lengths {ell - 1}, {ell} shares balance {k}",
                          shared_balance_check(k), True, kind=INVARIANT))
            rep.rows.extend(balance_matrix_report(k).rows)
        yield rep


def cmd_identities(args, lo: int, hi: int) -> Iterator[Report]:
    for ell in range(lo, hi + 1):
        rep = subidentity_report(ell)
        if args.degree_bound:
            weights = separation_ideal(ell).weights
            names = weight_names(weights)
            for b in graver_basis(weights, args.degree_bound):
                rep.note(f"graver: {b.format(names)}")
        yield rep


def cmd_conjectures(args, lo: int, hi: int) -> Iterator[Report]:
    names = ("c1", "c2") if args.which == "both" else (args.which,)
    for ell in range(lo, hi + 1):
        for name in names:
            yield _AUDITS[name].run(ell)


def cmd_verify_all(args, lo: int, hi: int) -> list[Report]:
    reports = [triangular_gf_report()]
    for ell in range(lo, hi + 1):
        runs = (audit.run(ell) for audit in _AUDITS.values())
        reports += [rep for rep in runs if rep is not None]
    reports.append(balance_bound_check(hi))
    reports += [balance_matrix_report(k) for k in range(1, hi // 2 + 1)]
    failures = sum(len(r.invariant_failures()) for r in reports)
    mismatches = sum(len(r.mismatches()) for r in reports)
    summary = Report("summary")
    summary.add(check("invariant failures", failures, 0, kind=INVARIANT))
    summary.note(f"claim mismatches reported: {mismatches}")
    if mismatches and not args.strict:
        summary.note("claim mismatches do not fail the run without --strict")
    return [*reports, summary]


_COMMANDS = {
    "words": cmd_words,
    "graph": cmd_graph,
    "layered": cmd_layered,
    "chroma": cmd_chroma,
    "separation": cmd_separation,
    "identities": cmd_identities,
    "conjectures": cmd_conjectures,
    "verify-all": cmd_verify_all,
}

# The graph artifacts by export --kind; graph and layered draw theirs
# with --format dot.  Lambdas, as in _AUDITS, so rebound names are seen.
_GRAPHS = {
    "word-graph": lambda ell: family_word_graph(ell),
    "layered-graph": lambda ell: build_layered_graph(staircase(ell)),
    "weight-chain": lambda ell: weight_chain_diagram(ell),
}
_DRAWN = {"graph": "word-graph", "layered": "layered-graph"}


def _run(args: argparse.Namespace) -> tuple[str, int]:
    """The output and exit code of every command.

    export, and graph or layered with --format dot, draw one graph at a
    single length.  Every other run renders its command's reports and
    exits 1 on any invariant failure, or on any mismatch under --strict.
    """
    name = "r" if args.command == "words" else "ell"
    draw = args.command == "export" or args.format == "dot"
    lo, hi = _parse_range(getattr(args, name), name, single=draw)
    if draw:
        graph = _GRAPHS[_DRAWN.get(args.command) or args.kind](lo)
        if args.format == "dot":
            return graph.to_dot(), 0
        data, code = graph.to_json(), 0
    else:
        reports = list(_COMMANDS[args.command](args, lo, hi))
        strict = getattr(args, "strict", False)
        code = int(any(r.invariant_failures() or strict and r.mismatches() for r in reports))
        if args.format != "json":
            render = Report.to_markdown if args.format == "markdown" else Report.to_text
            return "\n".join(render(r) for r in reports), code
        data = [r.to_dict() for r in reports]
    return json.dumps(data, sort_keys=True, indent=2) + "\n", code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_with_config(args, argv))
        text, code = _run(args)
    except (UsageError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code
