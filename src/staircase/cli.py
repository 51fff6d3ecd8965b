"""Command-line front end for the staircase verification suite.

Every command prints a deterministic report (text, markdown, or json)
or a DOT graph; identical configuration gives byte-identical output.
Exit codes: 0 success, 1 failed checks (any mismatch under --strict,
invariant failures otherwise), 2 usage error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from .chroma import (
    DEFAULT_STATE_CAP,
    chromatic_number,
    closed_form_report,
    colour_separation,
    balance_bound_check,
    shared_balance_check,
)
from .errors import DomainError, ResourceLimitError
from .identities import graver_basis, subidentity_report
from .layered import (
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
from .report import INVARIANT, Report, check, skipped
from .rwgraph import build_word_graph, structure_report
from .toric import (
    audit_quadric_chain_ideal,
    audit_separation_ideal,
    weight_chain_diagram,
)


class UsageError(Exception):
    pass


def _parse_range(text: str, name: str) -> tuple[int, int]:
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
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staircase",
        description="reduced-word graphs, layered graphs, chromatic and toric checks",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmts: str = "json,markdown,text") -> None:
        p.add_argument("--format", choices=fmts.split(","), default=None)
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("words", help="reduced words of the staircase permutations")
    p.add_argument("--r", required=True, help="permutation size N or A..B")
    common(p)

    p = sub.add_parser("graph", help="reduced-word move graph structure")
    p.add_argument("--ell", required=True, help="staircase length N or A..B")
    p.add_argument("--cap-vertices", type=int, default=None)
    common(p, "json,markdown,text,dot")

    p = sub.add_parser("layered", help="layered graphs on staircase diagonals")
    p.add_argument("--ell", required=True)
    p.add_argument("--series", type=int, default=None,
                   help="append the family series table truncated at this order")
    common(p, "json,markdown,text,dot")

    p = sub.add_parser("chroma", help="chromatic polynomial checks")
    p.add_argument("--ell", required=True)
    p.add_argument("--cap-states", type=int, default=None)
    common(p)

    p = sub.add_parser("separation", help="two-colour separations and balance")
    p.add_argument("--ell", required=True)
    common(p)

    p = sub.add_parser("identities", help="partition identity audits")
    p.add_argument("--ell", required=True)
    p.add_argument("--degree-bound", type=int, default=None,
                   help="also list the truncated Graver basis up to this degree")
    common(p)

    p = sub.add_parser("conjectures", help="toric ideal audits")
    p.add_argument("--ell", required=True)
    p.add_argument("--which", choices=["c1", "c2", "both"], default=None)
    common(p)

    p = sub.add_parser("verify-all", help="the full check suite over a range")
    p.add_argument("--ell", required=True)
    p.add_argument("--strict", action="store_true",
                   help="fail on any mismatch, not just invariant failures")
    p.add_argument("--cap-vertices", type=int, default=None)
    p.add_argument("--cap-states", type=int, default=None)
    common(p)

    p = sub.add_parser("export", help="write one graph artifact")
    p.add_argument("--ell", required=True)
    p.add_argument(
        "--kind",
        choices=["word-graph", "layered-graph", "weight-chain"],
        default=None,
    )
    common(p, "dot,json")
    return parser


_CONFIG_KEYS = (
    "format", "out", "series", "which", "kind",
    "cap_vertices", "cap_states", "degree_bound",
)


def apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read config {args.config}: {e}") from None
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    for key, value in sorted(data.items()):
        attr = key.replace("-", "_")
        if attr == "strict":
            if getattr(args, "strict", None) is False and value:
                args.strict = True
            continue
        if attr not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, attr, None) is None and hasattr(args, attr):
            setattr(args, attr, value)


def _fmt(args: argparse.Namespace, default: str = "text") -> str:
    return args.format if args.format else default


def _emit(args: argparse.Namespace, reports: list[Report], dot: str | None = None) -> str:
    fmt = _fmt(args)
    if fmt == "dot":
        if dot is None:
            raise UsageError("dot output needs a single graph; pick one --ell value")
        return dot
    if fmt == "json":
        return json.dumps(
            [r.to_dict() for r in reports], sort_keys=True, indent=2
        ) + "\n"
    if fmt == "markdown":
        return "\n".join(r.to_markdown() for r in reports)
    return "\n".join(r.to_text() for r in reports)


def cmd_words(args) -> tuple[str, int]:
    lo, hi = _parse_range(args.r, "r")
    if lo < 4:
        raise UsageError(f"--r starts at 4, got {lo}")
    reports = []
    for r in range(lo, hi + 1):
        words = enumerate_reduced_words(staircase_permutation(r))
        rep = Report(f"reduced words of the staircase permutation, size {r}")
        rep.add(check("word count", len(words), comb(r, 2), kind=INVARIANT))
        for w in words:
            rep.note(word_to_str(w))
        reports.append(rep)
    return _emit(args, reports), 0


def cmd_graph(args) -> tuple[str, int]:
    lo, hi = _parse_range(args.ell, "ell")
    if lo < 3:
        raise UsageError(f"--ell starts at 3 for the move graph, got {lo}")
    cap = args.cap_vertices if args.cap_vertices else 5000
    dot = None
    if _fmt(args) == "dot":
        if lo != hi:
            raise UsageError("dot output needs a single --ell value")
        dot = build_word_graph(
            staircase_permutation(lo + 1), cap_vertices=cap
        ).to_dot()
    reports = [structure_report(ell, cap_vertices=cap) for ell in range(lo, hi + 1)]
    return _emit(args, reports, dot), 0


def cmd_layered(args) -> tuple[str, int]:
    lo, hi = _parse_range(args.ell, "ell")
    if lo < 1:
        raise UsageError(f"--ell must be positive, got {lo}")
    dot = None
    if _fmt(args) == "dot":
        if lo != hi:
            raise UsageError("dot output needs a single --ell value")
        dot = build_layered_graph(staircase(lo)).to_dot()
    reports = []
    for ell in range(lo, hi + 1):
        g = build_layered_graph(staircase(ell))
        rep = Report(f"layered graph at length {ell}")
        rep.add(
            check(
                "layer sizes",
                g.layer_sizes(),
                tuple(range(ell, 0, -1)),
                kind=INVARIANT,
            )
        )
        rep.add(check("edge count", g.edge_count, ell * (ell - 1), kind=INVARIANT))
        if 3 <= ell <= 6:
            words = build_word_graph(staircase_permutation(ell + 1))
            rep.add(
                check(
                    "isomorphic to the reduced-word graph",
                    is_isomorphic(words, g),
                    True,
                    kind=INVARIANT,
                )
            )
        rep.note(f"missing-edge polynomial {missing_edge_polynomial(ell).format('e')}")
        if ell > 1:
            rep2 = parity_pair_report(staircase(ell - 1), staircase(ell))
            for row in rep2.rows:
                rep.add(row)
        if ell % 2 == 1:
            for row in vertex_parity_report(ell).rows:
                rep.add(row)
        reports.append(rep)
    if args.series:
        reports.append(family_series_report(args.series, args.series))
    return _emit(args, reports, dot), 0


def cmd_chroma(args) -> tuple[str, int]:
    lo, hi = _parse_range(args.ell, "ell")
    if lo < 3:
        raise UsageError(f"--ell starts at 3 for chromatic checks, got {lo}")
    cap = args.cap_states if args.cap_states else DEFAULT_STATE_CAP
    reports = []
    for ell in range(lo, hi + 1):
        rep = closed_form_report(ell, ell, cap)
        number = chromatic_number(build_layered_graph(staircase(ell)).as_simple(), cap)
        rep.add(check(f"chromatic number at length {ell}", number, 2))
        reports.append(rep)
    return _emit(args, reports), 0


def cmd_separation(args) -> tuple[str, int]:
    lo, hi = _parse_range(args.ell, "ell")
    if lo < 1:
        raise UsageError(f"--ell must be positive, got {lo}")
    reports = [balance_bound_check(hi)]
    for ell in range(max(lo, 1), hi + 1):
        sep = colour_separation(staircase(ell))
        rep = Report(f"colour separation at length {ell}")
        half_up, half_down = (ell + 1) // 2, ell // 2
        if ell % 2 == 1:
            claimed = (half_up * half_up, half_down * (half_down + 1))
        else:
            claimed = (half_down * (half_down + 1), half_down * half_down)
        rep.add(
            check(
                "class sizes (mu, kappa)",
                (sep.mu, sep.kappa),
                claimed,
                kind=INVARIANT,
                note="closed forms from the layer sums",
            )
        )
        if ell % 2 == 0:
            k = ell // 2
            rep.add(
                check(
                    f"pair at lengths {ell - 1}, {ell} shares balance {k}",
                    shared_balance_check(k),
                    True,
                    kind=INVARIANT,
                )
            )
            for row in balance_matrix_report(k).rows:
                rep.add(row)
        reports.append(rep)
    return _emit(args, reports), 0


def cmd_identities(args) -> tuple[str, int]:
    lo, hi = _parse_range(args.ell, "ell")
    if lo < 5:
        raise UsageError(f"--ell starts at 5 for identity audits, got {lo}")
    reports = []
    for ell in range(lo, hi + 1):
        rep = subidentity_report(staircase(ell))
        if args.degree_bound:
            sep = colour_separation(staircase(ell))
            weights = tuple(range(1, ell + 1)) + (sep.mu, sep.kappa)
            names = [f"x{w}" for w in weights]
            for b in graver_basis(weights, args.degree_bound):
                rep.note(f"graver: {b.format(names)}")
        reports.append(rep)
    return _emit(args, reports), 0


def cmd_conjectures(args) -> tuple[str, int]:
    lo, hi = _parse_range(args.ell, "ell")
    which = args.which if args.which else "both"
    reports = []
    for ell in range(lo, hi + 1):
        if which in ("c1", "both"):
            reports.append(_guarded_audit(
                audit_separation_ideal, ell, 5, 10,
                f"separation ideal audit at length {ell}",
                "the separation identity needs length 5..10",
            ))
        if which in ("c2", "both"):
            reports.append(_guarded_audit(
                audit_quadric_chain_ideal, ell, 2, 8,
                f"consecutive-quadric ideal audit at length {ell}",
                "the quadric-chain audit covers lengths 2..8",
            ))
    return _emit(args, reports), 0


def _guarded_audit(fn, ell: int, lo: int, hi: int, title: str, why: str) -> Report:
    if not lo <= ell <= hi:
        return _skipped_audit(title, why)
    return _capped_audit(lambda: fn(ell), title)


def _capped_audit(run, title: str) -> Report:
    """run(), or a SKIPPED report when it hits a resource limit."""
    try:
        return run()
    except ResourceLimitError as e:
        return _skipped_audit(title, f"resource limit: {e}")


def _skipped_audit(title: str, note: str) -> Report:
    rep = Report(title)
    rep.add(skipped("audit", note=note))
    return rep


def cmd_verify_all(args) -> tuple[str, int]:
    lo, hi = _parse_range(args.ell, "ell")
    if lo < 3:
        raise UsageError(f"--ell starts at 3 for verify-all, got {lo}")
    cap_v = args.cap_vertices if args.cap_vertices else 5000
    cap_s = args.cap_states if args.cap_states else DEFAULT_STATE_CAP
    reports = [triangular_gf_report(10)]
    for ell in range(lo, hi + 1):
        reports.append(structure_report(ell, cap_vertices=cap_v))
        g = build_layered_graph(staircase(ell))
        rep = Report(f"layered checks at length {ell}")
        try:
            words = build_word_graph(staircase_permutation(ell + 1), cap_vertices=cap_v)
            rep.add(
                check(
                    "isomorphic to the reduced-word graph",
                    is_isomorphic(words, g),
                    True,
                    kind=INVARIANT,
                )
            )
        except ResourceLimitError as e:
            rep.add(skipped("isomorphic to the reduced-word graph", note=str(e)))
        try:
            simple = g.as_simple()
            rep.add(
                check("chromatic number", chromatic_number(simple, cap_s), 2)
            )
        except ResourceLimitError as e:
            rep.add(skipped("chromatic number", note=str(e)))
        if ell > 3:
            for row in parity_pair_report(staircase(ell - 1), staircase(ell)).rows:
                rep.add(row)
        reports.append(rep)
        reports.append(_capped_audit(
            lambda: closed_form_report(ell, ell, cap_s),
            f"layered closed form vs recursion, lengths {ell}..{ell}",
        ))
        if ell >= 5:
            reports.append(subidentity_report(staircase(ell)))
        reports.append(_guarded_audit(
            audit_separation_ideal, ell, 5, 10,
            f"separation ideal audit at length {ell}",
            "the separation identity needs length 5..10",
        ))
        reports.append(_guarded_audit(
            audit_quadric_chain_ideal, ell, 2, 8,
            f"consecutive-quadric ideal audit at length {ell}",
            "the quadric-chain audit covers lengths 2..8",
        ))
    reports.append(balance_bound_check(hi))
    for k in range(1, hi // 2 + 1):
        reports.append(balance_matrix_report(k))
    failures = sum(len(r.invariant_failures()) for r in reports)
    mismatches = sum(len(r.mismatches()) for r in reports)
    code = 0
    if failures or (args.strict and mismatches):
        code = 1
    summary = Report("summary")
    summary.add(check("invariant failures", failures, 0, kind=INVARIANT))
    summary.note(f"claim mismatches reported: {mismatches}")
    if mismatches and not args.strict:
        summary.note("claim mismatches do not fail the run without --strict")
    reports.append(summary)
    return _emit(args, reports), code


def cmd_export(args) -> tuple[str, int]:
    lo, hi = _parse_range(args.ell, "ell")
    if lo != hi:
        raise UsageError("export wants a single --ell value")
    kind = args.kind if args.kind else "layered-graph"
    if kind == "word-graph":
        if lo < 3:
            raise UsageError("word-graph export starts at --ell 3")
        obj = build_word_graph(staircase_permutation(lo + 1))
    elif kind == "layered-graph":
        obj = build_layered_graph(staircase(lo))
    else:
        if lo < 2:
            raise UsageError("weight-chain export starts at --ell 2")
        obj = weight_chain_diagram(staircase(lo))
    fmt = _fmt(args, default="dot")
    if fmt == "json":
        return json.dumps(obj.to_json(), sort_keys=True, indent=2) + "\n", 0
    return obj.to_dot(), 0


_COMMANDS = {
    "words": cmd_words,
    "graph": cmd_graph,
    "layered": cmd_layered,
    "chroma": cmd_chroma,
    "separation": cmd_separation,
    "identities": cmd_identities,
    "conjectures": cmd_conjectures,
    "verify-all": cmd_verify_all,
    "export": cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        apply_config(args)
        text, code = _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code
