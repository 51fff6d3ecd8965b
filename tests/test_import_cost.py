"""Importing the CLI loads no module that only ``dataclasses`` needs.

Every command is one fresh process, so the import is part of the time
of every short audit.  When the records were dataclasses, on CPython
3.11.7 (2-vCPU shared host, current bytecode, five fresh interpreters),
``import dataclasses`` alone took 10.8-21.3 ms and decorating the 15
records 13.3-14.4 ms, against 57-63 ms for the rest of
``import staircase.cli`` plus ``build_parser()``.  As named tuples the
records cost about 0.1 ms a class, and perfbench ``setup_s`` fell from
about 0.06 to 0.04 s.  This test fails as soon as anything in the
package pulls the ``dataclasses`` machinery back in.  It compares the
modules loaded before and after the import, since ``site`` may preload
some of them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

DATACLASS_ONLY = {
    "dataclasses", "inspect", "ast", "_ast", "dis", "opcode", "_opcode",
    "tokenize", "token", "linecache", "copy", "importlib.machinery",
}

SNIPPET = """
import sys
before = set(sys.modules)
import staircase.cli
staircase.cli.build_parser()
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_no_dataclass_machinery():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SNIPPET], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    added = set(out.split())
    assert "staircase.cli" in added
    assert not added & DATACLASS_ONLY
