"""One module states the paper's claims.

Every row that puts a claim of the paper next to what the code computed
is built in ``audits``.  A claim built in two places can drift apart,
and a command that assembles its own rows repeats what another command
already checks.  So the engine modules compute and build no report: they
import nothing from ``report``, ``audits`` or ``cli``.  ``audits`` does
not import the command line, and ``cli.py`` renders reports but builds
no row: it never calls ``check``, ``skipped`` or ``Report``.  No report
runs the general isomorphism search: ``audits`` never names
``is_isomorphic``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "staircase"
ENGINES = ("perm", "partition", "graphs", "rwgraph", "layered", "chroma", "poly",
           "binomial", "identities", "toric")
OTHERS = ("__init__", "__main__", "errors", "report", "audits", "cli")
REPORTING = {"report", "audits", "cli"}


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(), f"{module}.py")


def _imports(module: str) -> set[str]:
    """The package modules that module imports, by their short names."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("staircase."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module is None or node.module.split(".")[0] != "staircase":
                    continue
                path = node.module.split(".")[1:]
            else:
                path = node.module.split(".") if node.module else []
            # from . import x, from staircase import x: x is a module or a name
            found.update(path[:1] or [a.name for a in node.names])
    return found


def test_every_module_is_an_engine_or_named_here():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ENGINES) | set(OTHERS)


def test_the_import_reader_sees_each_form():
    assert {"rwgraph", "report", "toric"} <= _imports("audits")
    assert {"audits", "errors", "report"} <= _imports("cli")
    assert _imports("__main__") == {"cli"}


@pytest.mark.parametrize("module", ENGINES)
def test_engines_import_no_report_module(module):
    assert not _imports(module) & REPORTING


def test_audits_does_not_import_the_command_line():
    assert "cli" not in _imports("audits")


def test_audits_do_not_import_the_isomorphism_search():
    # the family isomorphism row checks an explicit map; the general
    # backtracking search stays a library function that no report runs
    names = set()
    for node in ast.walk(_tree("audits")):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert {"family_image", "build_layered_graph"} <= names  # the reader sees the imports
    assert "is_isomorphic" not in names


def test_the_command_line_builds_no_row():
    called = set()
    for node in ast.walk(_tree("cli")):
        if isinstance(node, ast.Call):
            f = node.func
            called.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
    assert "map" in called  # the reader sees the calls
    assert not called & {"check", "skipped", "Report"}
