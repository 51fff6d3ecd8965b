import json
import time

import pytest

from staircase.cli import main


def run(capsys, *argv):
    code = main(list(argv))
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


def test_resource_limit_exits_3(capsys):
    code, _, err = run(capsys, "graph", "--ell", "6", "--cap-vertices", "5")
    assert code == 3
    assert "resource limit" in err


def test_word_degree_cap_is_a_resource_limit(capsys):
    # length 12 needs permutations of degree 13, past the default cap of 12
    code, out, err = run(capsys, "graph", "--ell", "12")
    assert code == 3
    assert out == ""
    assert "degree 13 exceeds the cap 12" in err


def test_graver_listing_finishes_quickly(capsys):
    start = time.monotonic()
    code, out, _ = run(capsys, "identities", "--ell", "9", "--degree-bound", "4")
    assert time.monotonic() - start < 5.0
    assert code == 0
    assert out.count("graver: ") == 1994


def test_closed_form_audit_skips_at_the_state_cap(tmp_path, capsys):
    code, out, _ = run(capsys, "verify-all", "--ell", "7", "--cap-states", "5")
    assert code == 0
    closed = out.split("layered closed form vs recursion, lengths 7..7\n")[1]
    assert closed.startswith("  audit  observed=-  claimed=-  SKIPPED")
    assert "6 frontier states exceed the cap 5" in closed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cap_states": 5}))
    assert run(capsys, "--config", str(cfg), "chroma", "--ell", "7")[0] == 3


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
    cfg.write_text(json.dumps({"mystery": 1}))
    assert run(capsys, "--config", str(cfg), "words", "--r", "4")[0] == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.md"
    code, out, _ = run(
        capsys, "separation", "--ell", "5..6", "--format", "markdown",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("## balance bound through length 6")


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
