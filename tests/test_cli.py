import argparse
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time
from math import comb
from pathlib import Path

import pytest

from staircase import audits, chroma, cli, layered, rwgraph, toric
from staircase.cli import main
from staircase.perm import staircase_permutation, word_to_str
from staircase.poly import IntPolynomial

from perm_oracle import enumerate_reduced_words


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse rejected the arguments
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_words_exact(capsys):
    code, out, _ = run(capsys, "words", "--r", "4")
    assert code == 0
    assert "observed=6" in out
    for w in ("12321", "13213", "13231", "31213", "31231", "32123"):
        assert w in out


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "words", "--r", "3")[0] == 2
    assert run(capsys, "words", "--r", "abc")[0] == 2
    assert run(capsys, "graph", "--ell", "5..4")[0] == 2
    assert run(capsys, "graph", "--ell", "3..5", "--format", "dot")[0] == 2
    # lengths below each library function's domain: the library says why
    for argv, message in (
        ("words --r 3", "family starts at degree 4, got 3"),
        ("graph --ell 2", "the family census starts at ell = 3, got 2"),
        ("layered --ell 0", "staircase index must be positive, got 0"),
        ("chroma --ell 0", "closed form starts at length 3, got 0"),
        ("chroma --ell 2", "closed form starts at length 3, got 2"),
        ("separation --ell 0", "need a positive length bound, got 0"),
        ("identities --ell 4", "needs length >= 5, got 4"),
        ("verify-all --ell 2..4", "the family census starts at ell = 3, got 2"),
        ("export --ell 2 --kind word-graph", "the family move graph starts at ell = 3, got 2"),
        ("graph --ell 2 --format dot", "the family move graph starts at ell = 3, got 2"),
        ("export --ell 1 --kind weight-chain", "need length >= 2, got 1"),
        ("conjectures --ell 0", "distinct-parts hypothesis needs length >= 5, got 0"),
        ("conjectures --ell 0 --which c2", "need length >= 2, got 0"),
    ):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.endswith(message + "\n"), argv
        assert "Traceback" not in err


def test_resource_limit_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(chroma, "MAX_FRONTIER_STATES", 5)
    code, out, err = run(capsys, "chroma", "--ell", "7")
    assert (code, out) == (3, "")
    assert err == "resource limit: 6 frontier states exceed the cap 5\n"


def test_word_cap_is_a_resource_limit(capsys, monkeypatch):
    # the family move graph stores 66 words of 13 letters (858 in all) at
    # length 11 and 78 of 14 (1,092) at length 12; the 72nd word passes
    # a cap of 1,000
    monkeypatch.setattr(rwgraph, "MAX_REDUCED_LETTERS", 1000)
    code, out, err = run(capsys, "graph", "--ell", "12")
    assert (code, out) == (3, "")
    assert err == "resource limit: 1008 stored reduced-word letters exceed the cap 1000\n"


def test_long_words_stop_at_the_word_cap(capsys):
    # staircase_permutation(1000) has 1,001 inversions, more than Python's
    # default recursion limit; the cap, not the stack, ends both commands
    for argv in (("words", "--r", "1000"), ("graph", "--ell", "999")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("resource limit: ") and err.endswith(
            " stored reduced-word letters exceed the cap 20000000\n"
        ), argv


def test_words_answer_past_the_reach_of_the_weak_order_memo(capsys):
    # a memo of every permutation below w stores 20.3M letters here, past
    # the cap; the move graph stores its 6,105 words of 112 letters
    code, out, err = run(capsys, "words", "--r", "111", "--format", "json")
    assert (code, err) == (0, "")
    (rep,) = json.loads(out)
    assert len(rep["notes"]) == len(set(rep["notes"])) == comb(111, 2) == 6105


def test_words_print_the_oracle_memo_words_in_order(capsys):
    # byte-identity beyond the goldens at r = 4..6
    for r_range, rs in (("4..40", range(4, 41)), ("61", (61,))):
        code, out, _ = run(capsys, "words", "--r", r_range, "--format", "json")
        assert code == 0
        notes = [rep["notes"] for rep in json.loads(out)]
        assert notes == [
            [word_to_str(w) for w in enumerate_reduced_words(staircase_permutation(r))]
            for r in rs
        ], r_range


def test_word_cap_bounds_the_letters_of_a_whole_words_run(capsys, monkeypatch):
    # 30 + 60 + 105 + 168 = 363 letters at r = 4..7, at most 168 at one r
    monkeypatch.setattr(rwgraph, "MAX_REDUCED_LETTERS", 362)
    assert run(capsys, "words", "--r", "7")[0] == 0
    code, out, err = run(capsys, "words", "--r", "4..7")
    assert (code, out) == (3, "")
    assert err == "resource limit: 363 stored reduced-word letters exceed the cap 362\n"
    monkeypatch.setattr(rwgraph, "MAX_REDUCED_LETTERS", 363)
    code, out, err = run(capsys, "words", "--r", "4..7")
    assert (code, err) == (0, "")
    assert out.count("note: ") == 6 + 10 + 15 + 21


def test_verify_all_skips_the_census_at_the_word_cap(capsys, monkeypatch):
    # a cap between the 858 letters of length 11 and the 1,092 of length 12
    monkeypatch.setattr(rwgraph, "MAX_REDUCED_LETTERS", 1000)
    code, out, _ = run(capsys, "verify-all", "--ell", "11..12")
    assert code == 0
    assert "move-graph census at ell = 11\n  vertices " in out
    census = out.split("move-graph census at ell = 12\n")[1]
    assert census.startswith(
        "  audit  observed=-  claimed=-  SKIPPED\n"
        "    note: resource limit: 1008 stored reduced-word letters exceed the cap 1000\n"
    )
    at12 = out.split("layered checks at length 12\n")[1]
    assert at12.startswith(
        "  isomorphic to the reduced-word graph  observed=-  claimed=-  SKIPPED\n"
        "    note: 1008 stored reduced-word letters exceed the cap 1000\n"
    )
    assert out.endswith("claim mismatches do not fail the run without --strict\n")


def test_verify_all_builds_each_move_graph_once(capsys, monkeypatch):
    # the census and the layered isomorphism row share one build per length
    built = []
    build = rwgraph.build_word_graph

    def counting_build(*args, **kwargs):
        built.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(rwgraph, "build_word_graph", counting_build)
    assert run(capsys, "verify-all", "--ell", "3..6")[0] == 0
    assert len(built) == 4


def test_word_cap_leaves_room_for_long_lengths(capsys):
    start = time.monotonic()
    code, out, _ = run(capsys, "graph", "--ell", "3..30")
    assert time.monotonic() - start < 5.0
    assert code == 0
    at30 = out.split("move-graph census at ell = 30\n")[1].splitlines()
    assert at30[0].split() == ["vertices", "observed=465", "claimed=465", "MATCH"]
    code, out, _ = run(capsys, "verify-all", "--ell", "11..12")
    assert code == 0
    census = out.split("move-graph census at ell = 12\n")[1].splitlines()
    assert census[0].split() == ["vertices", "observed=78", "claimed=78", "MATCH"]
    at12 = out.split("layered checks at length 12\n")[1]
    assert at12.startswith(
        "  isomorphic to the reduced-word graph  observed=True  claimed=True  MATCH\n"
    )
    # the toric audits run at every length from their floors on
    assert "SKIPPED" not in out
    assert "resource limit" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("identities", "--ell", "5", "--degree-bound", "0"),
        ("layered", "--ell", "3", "--series", "0"),
        ("layered", "--ell", "3", "--series", "-2"),
    ],
    ids=" ".join,
)
def test_caps_and_bounds_must_be_positive(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be at least 1" in err
    assert "Traceback" not in err


def test_config_values_are_checked_like_flags(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    # a string that argparse reads as an int
    cfg.write_text(json.dumps({"degree_bound": "2"}))
    code, out, _ = run(capsys, "--config", str(cfg), "identities", "--ell", "5")
    assert code == 0
    assert "graver: " in out
    # choices are enforced, strict takes a JSON boolean only, and the
    # other keys a string or an integer
    for config, argv in (
        ({"kind": "foo"}, ("export", "--ell", "4")),
        ({"which": "c3"}, ("conjectures", "--ell", "5")),
        ({"degree_bound": 0}, ("identities", "--ell", "5")),
        ({"degree_bound": "x"}, ("identities", "--ell", "5")),
        ({"strict": "false"}, ("verify-all", "--ell", "3..5")),
        ({"out": True}, ("words", "--r", "4")),
        ({"out": ["x"]}, ("words", "--r", "4")),
        ({"out": {"a": 1}}, ("words", "--r", "4")),
        ({"series": 2.5}, ("layered", "--ell", "3")),
    ):
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_config_file_before_the_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json", "strict": True}))
    code, out, _ = run(capsys, f"--config={cfg}", "verify-all", "--ell", "3")
    assert code == 1
    json.loads(out)


def test_one_parser_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert run(capsys, "words", "--r", "4")[0] == 0
    # the top-level parser and its nine subcommands, once
    assert len(built) == 10
    # importing the module builds none
    probe = textwrap.dedent("""
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__
        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting_init
        import staircase.cli
        print(len(built))
    """)
    src = Path(cli.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json"}))
    code, out, _ = run(capsys, "--config", str(cfg), "words", "--r", "4")
    assert code == 0
    json.loads(out)
    assert run(capsys, "conjectures", "--ell", "5", "--which", "c3")[0] == 2  # argparse
    assert run(capsys, "graph", "--ell", "5..4")[:2] == (2, "")  # usage error
    code, out, _ = run(capsys, "verify-all", "--ell", "3..6")
    assert code == 0
    assert out.startswith("triangular generating function")  # text, not json
    # the digest test_golden pins for this command
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b0b35e315c72c8b2657629ac806b094c3d5bd0a8cf7aa0826911cf578a3f058c"
    )


def test_graver_listing_finishes_quickly(capsys):
    for ell, elements in (("9", 1994), ("14", 15210)):
        start = time.monotonic()
        code, out, _ = run(capsys, "identities", "--ell", ell, "--degree-bound", "4")
        assert time.monotonic() - start < 5.0
        assert code == 0
        assert out.count("graver: ") == elements


def test_closed_form_audit_skips_at_the_state_cap(capsys, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(chroma, "MAX_FRONTIER_STATES", 5)
        code, out, _ = run(capsys, "verify-all", "--ell", "7")
    assert code == 0
    closed = out.split("layered closed form vs recursion, lengths 7..7\n")[1]
    assert closed.startswith("  audit  observed=-  claimed=-  SKIPPED")
    assert "6 frontier states exceed the cap 5" in closed
    # the default cap stops the sweep before the claimed form is expanded
    start = time.monotonic()
    code, out, _ = run(capsys, "verify-all", "--ell", "70")
    assert time.monotonic() - start < 5.0
    assert code == 0
    closed = out.split("layered closed form vs recursion, lengths 70..70\n")[1]
    assert closed.startswith("  audit  observed=-  claimed=-  SKIPPED")


def _swapped_image(ell, words):
    """The family map with the images of the first two words swapped."""
    image = layered.family_image(ell, words)
    image[0], image[1] = image[1], image[0]
    return image


def test_a_broken_family_map_fails_the_isomorphism_row(capsys, monkeypatch):
    name = "isomorphic to the reduced-word graph"
    monkeypatch.setattr(audits, "family_image", _swapped_image)
    for argv in ("layered --ell 5", "verify-all --ell 5"):
        code, out, err = run(capsys, *argv.split(), "--format", "json")
        assert (code, err) == (1, ""), argv
        rows = [r for rep in json.loads(out) for r in rep["rows"]]
        (row,) = [r for r in rows if r["name"] == name]
        assert (row["observed"], row["verdict"], row["kind"]) == (False, "MISMATCH", "invariant")
        code, text, _ = run(capsys, *argv.split())
        assert code == 1, argv
        assert f"{name}  observed=False  claimed=True  MISMATCH" in text
    # the summary of verify-all counts the one failure
    failures = [r for r in rows if r["name"] == "invariant failures"]
    assert [(r["observed"], r["verdict"]) for r in failures] == [(1, "MISMATCH")]


def test_the_isomorphism_row_runs_no_search(capsys, monkeypatch):
    match = "isomorphic to the reduced-word graph  observed=True  claimed=True  MATCH"
    # no placement is allowed, so a search would raise at its first vertex
    monkeypatch.setattr(layered, "MAX_ISO_NODES", 0)
    code, out, _ = run(capsys, "layered", "--ell", "7..8")
    assert code == 0
    assert [part.count(match) for part in out.split("layered graph at length 8\n")] == [1, 1]
    code, out, _ = run(capsys, "verify-all", "--ell", "8")
    assert code == 0
    assert out.split("layered checks at length 8\n")[1].startswith("  " + match)


def test_toric_audit_skips_at_the_hilbert_entry_cap(capsys, monkeypatch):
    # the quadric-chain ideal at length 5 starts one Hilbert node, of 24
    # exponent entries
    monkeypatch.setattr(toric, "MAX_HILBERT_ENTRIES", 0)
    code, out, _ = run(capsys, "conjectures", "--ell", "5", "--which", "c2")
    assert code == 0
    assert out.startswith(
        "consecutive-quadric ideal audit at length 5\n"
        "  audit  observed=-  claimed=-  SKIPPED\n"
        "    note: resource limit: 24 Hilbert exponent entries exceed the cap 0\n"
    )


def test_series_rows_are_capped(capsys):
    code, out, _ = run(capsys, "layered", "--ell", "3", "--series", "99")
    assert code == 0
    assert out.count("coefficient of z^") == 99 * 100
    for order in (100, 600):
        start = time.monotonic()
        code, out, err = run(capsys, "layered", "--ell", "3", "--series", str(order))
        assert time.monotonic() - start < 1.0
        assert (code, out) == (3, "")
        rows = order * (order + 1)
        assert err == f"resource limit: {rows} series rows exceed the cap 10000\n"


def test_readme_examples_run(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = [
        line.split("#")[0].split()[1:]
        for line in readme.splitlines()
        if line.startswith("staircase ")
    ]
    assert len(lines) >= 10
    for argv in lines:
        code, _, err = run(capsys, *argv)
        assert code == (1 if "--strict" in argv else 0), (argv, err)


def test_json_output_parses(capsys):
    code, out, _ = run(capsys, "graph", "--ell", "4..5", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 2
    assert reports[0]["title"] == "move-graph census at ell = 4"


def test_dot_output(capsys):
    code, out, _ = run(capsys, "layered", "--ell", "4", "--format", "dot")
    assert code == 0
    assert out.startswith("graph")


def test_verify_all_exit_codes(capsys):
    assert run(capsys, "verify-all", "--ell", "3..4")[0] == 0
    # known printed-claim mismatches make strict mode fail
    assert run(capsys, "verify-all", "--ell", "3..4", "--strict")[0] == 1


def test_byte_determinism(capsys):
    a = run(capsys, "verify-all", "--ell", "3..5", "--format", "json")
    b = run(capsys, "verify-all", "--ell", "3..5", "--format", "json")
    assert a == b
    c = run(capsys, "conjectures", "--ell", "5", "--format", "markdown")
    d = run(capsys, "conjectures", "--ell", "5", "--format", "markdown")
    assert c == d


def test_conjectures_skip_out_of_range(capsys):
    code, out, _ = run(capsys, "conjectures", "--ell", "3", "--which", "c1")
    assert code == 0
    assert "SKIPPED" in out


def test_conjectures_run_past_the_old_length_windows(capsys):
    # c1 used to stop at length 10 and c2 at 8; both now run to any length
    start = time.monotonic()
    code, out, _ = run(capsys, "conjectures", "--ell", "11..30", "--format", "json")
    assert time.monotonic() - start < 5.0
    assert code == 0
    rows = [row for rep in json.loads(out) for row in rep["rows"]]
    assert not [row for row in rows if row["verdict"] == "SKIPPED"]
    assert not [
        row for row in rows if row["kind"] == "invariant" and row["verdict"] != "MATCH"
    ]
    kernel = [
        row for row in rows if row["name"] == "the two relations generate the weight kernel"
    ]
    assert len(kernel) == 20


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json"}))
    code, out, _ = run(capsys, "--config", str(cfg), "words", "--r", "4")
    assert code == 0
    json.loads(out)
    # an explicit flag beats the config value
    code, out, _ = run(
        capsys, "--config", str(cfg), "words", "--r", "4", "--format", "text"
    )
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # the caps are constants, so their old keys are unknown too
    for key in ("mystery", "cap_states", "cap_vertices"):
        cfg.write_text(json.dumps({key: 1}))
        code, out, err = run(capsys, "--config", str(cfg), "words", "--r", "4")
        assert (code, out) == (2, "")
        assert err == f"error: unknown config key {key!r}\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.md"
    code, out, _ = run(
        capsys, "separation", "--ell", "5..6", "--format", "markdown",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("## balance bound through length 6")
    missing = tmp_path / "no-such-dir" / "x.txt"
    code, out, err = run(capsys, "graph", "--ell", "3", "--out", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {missing}: ")


def test_export_json(capsys):
    code, out, _ = run(
        capsys, "export", "--ell", "4", "--kind", "layered-graph",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["layers"]) == 4


def test_identities_command(capsys):
    code, out, _ = run(capsys, "identities", "--ell", "5", "--degree-bound", "2")
    assert code == 0
    assert "graver:" in out
    assert run(capsys, "identities", "--ell", "4")[0] == 2


def test_identities_lists_the_first_witnesses_and_counts_the_rest(capsys):
    code, out, _ = run(capsys, "identities", "--ell", "11")
    assert code == 0
    assert out.count("note: primitive: ") == 100
    assert out.count("note: and ") == 1
    assert "  note: and 36 more\n" in out
    assert "primitive subidentity count" in out and "observed=136 " in out


def test_identities_past_twenty_parts(capsys):
    # both parity splits sort after the first 100 witnesses here
    code, out, _ = run(capsys, "identities", "--ell", "19")
    assert code == 0
    for row in (
        "parity splits among the primitive subidentities  observed=True  claimed=True  MATCH",
        "subidentities equal to a parity split            observed=2  claimed=2  MATCH",
    ):
        assert row in out
    rep = audits.AUDITS["subidentities"].run(19)
    assert not any(row.verdict == "SKIPPED" for row in rep.rows)
    assert not rep.invariant_failures()


def _shape(out):
    """Each report's title with the names of its rows, from json output."""
    return [(rep["title"], [row["name"] for row in rep["rows"]]) for rep in json.loads(out)]


def _without_last_word(g):
    return g._replace(words=g.words[:-1])


# For each report command: an engine function that audits calls for it,
# rebound in audits so that the invariant row named last in the entry
# comes out wrong.
_BROKEN = [
    ("words --r 4..5", audits, "build_word_graph",
     lambda w: _without_last_word(rwgraph.build_word_graph(w)), "word count"),
    ("graph --ell 4", audits, "count_four_cycles", lambda g: 999, "vertices + cycles - edges"),
    ("layered --ell 3..4", audits, "family_image", _swapped_image,
     "isomorphic to the reduced-word graph"),
    ("chroma --ell 4", audits, "chromatic_polynomial",
     lambda g: IntPolynomial.variable(), "recursion degree at length 4"),
    ("separation --ell 3..4", audits, "class_sizes_closed_form",
     lambda ell: (0, 0), "class sizes (mu, kappa)"),
    ("identities --ell 5", audits, "is_primitive",
     lambda ident: False, "parity splits among the primitive subidentities"),
    ("conjectures --ell 5 --which c2", audits, "standard_monomial_counts",
     lambda mi, upto: (0,) * (upto + 1),
     "series prefix equals direct monomial count through degree 8"),
]


@pytest.mark.parametrize("argv, module, name, broken, row", _BROKEN, ids=[c[0] for c in _BROKEN])
def test_every_report_command_exits_1_on_an_invariant_failure(
    capsys, monkeypatch, argv, module, name, broken, row
):
    argv = argv.split() + ["--format", "json"]
    code, out, _ = run(capsys, *argv)
    rows = [r for rep in json.loads(out) for r in rep["rows"]]
    assert code == 0
    assert not [r for r in rows if r["kind"] == "invariant" and r["verdict"] != "MATCH"]
    shape = _shape(out)
    monkeypatch.setattr(module, name, broken)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    # the whole report still prints, with the row marked
    assert _shape(out) == shape
    marked = [r for rep in json.loads(out) for r in rep["rows"] if r["name"] == row]
    assert marked and all(r["verdict"] == "MISMATCH" for r in marked)
    assert {r["kind"] for r in marked} == {"invariant"}
    code, text, _ = run(capsys, *argv[:-2])
    assert code == 1
    assert any(line.strip().startswith(row) and line.endswith("MISMATCH")
               for line in text.splitlines())



# For verify-all: an engine function that audits calls at length 4,
# rebound in audits so that one invariant row comes out wrong.
_BROKEN_IN_VERIFY_ALL = [
    ("count_four_cycles", lambda g: 999, "vertices + cycles - edges"),
    ("standard_monomial_counts", lambda mi, upto: (0,) * (upto + 1),
     "series prefix equals direct monomial count through degree 8"),
]


@pytest.mark.parametrize("name, broken, row", _BROKEN_IN_VERIFY_ALL,
                         ids=[c[0] for c in _BROKEN_IN_VERIFY_ALL])
def test_verify_all_exits_1_on_an_invariant_failure(capsys, monkeypatch, name, broken, row):
    argv = ["verify-all", "--ell", "4", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    shape = _shape(out)
    summary = json.loads(out)[-1]
    assert [(r["name"], r["verdict"]) for r in summary["rows"]] == [("invariant failures", "MATCH")]
    monkeypatch.setattr(audits, name, broken)
    for strict in ([], ["--strict"]):
        code, out, err = run(capsys, *argv, *strict)
        assert (code, err) == (1, ""), strict
        # every report still prints, with the row marked and counted
        assert _shape(out) == shape
        *reports, summary = json.loads(out)
        marked = [r for rep in reports for r in rep["rows"] if r["name"] == row]
        assert len(marked) == 1
        assert (marked[0]["verdict"], marked[0]["kind"]) == ("MISMATCH", "invariant")
        (failures,) = summary["rows"]
        assert failures["name"] == "invariant failures"
        assert (failures["observed"], failures["claimed"]) == (1, 0)
        assert (failures["verdict"], failures["kind"]) == ("MISMATCH", "invariant")
        code, text, _ = run(capsys, *argv[:-2], *strict)
        assert code == 1
        tail = text.split("\nsummary\n")[1].splitlines()
        assert tail[0].split() == ["invariant", "failures", "observed=1", "claimed=0", "MISMATCH"]

def test_claim_mismatches_alone_exit_0(capsys):
    for argv in ("graph --ell 4", "chroma --ell 5", "identities --ell 5",
                 "conjectures --ell 5", "layered --ell 5"):
        code, out, _ = run(capsys, *argv.split(), "--format", "json")
        rows = [r for rep in json.loads(out) for r in rep["rows"]]
        assert code == 0, argv
        assert [r for r in rows if r["verdict"] == "MISMATCH"], argv
        assert {r["kind"] for r in rows if r["verdict"] == "MISMATCH"} == {"claim"}, argv
