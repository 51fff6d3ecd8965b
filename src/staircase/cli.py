"""Command-line front end for the staircase verification suite.

Every command prints deterministic reports (text, markdown, or json)
or one graph (dot, or json from export); identical configuration gives
byte-identical output.  Exit codes: 0 success, 1 failed checks (any
invariant failure in any report command, or any mismatch under
--strict), 2 usage error, 3 resource limit.  Each report command is a
view over ``audits``, which builds every row.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import audits
from .errors import DomainError, ResourceLimitError
from .graphs import weight_chain_diagram
from .layered import build_layered_graph
from .partition import staircase
from .report import Report
from .rwgraph import family_word_graph


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after.

    Parsing leaves no state in it, so every ``main`` call of a process
    can reuse the one tree; nothing builds it at import.
    """
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


# The report commands: each maps its arguments and the range of lengths
# (of sizes, for words) to its reports, all built by audits.


def cmd_words(args, sizes):
    return audits.word_reports(sizes)


def cmd_graph(args, lengths):
    return map(audits.structure_report, lengths)


def cmd_layered(args, lengths):
    yield from map(audits.layered_report, lengths)
    if args.series:
        yield audits.family_series_report(args.series)


def cmd_chroma(args, lengths):
    return map(audits.chromatic_report, lengths)


def cmd_separation(args, lengths):
    yield audits.balance_bound_check(lengths[-1])
    yield from map(audits.separation_report, lengths)


def cmd_identities(args, lengths):
    return (audits.subidentity_report(ell, args.degree_bound) for ell in lengths)


def cmd_conjectures(args, lengths):
    names = ("c1", "c2") if args.which == "both" else (args.which,)
    return (audits.AUDITS[name].run(ell) for ell in lengths for name in names)


def cmd_verify_all(args, lengths):
    return audits.verify_all(lengths, args.strict)


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
# with --format dot.  Lambdas, so that rebound names are seen.
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
        reports = list(_COMMANDS[args.command](args, range(lo, hi + 1)))
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
