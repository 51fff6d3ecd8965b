"""Every module of the package stays under 4,000 significant tokens.

Significant tokens are those of ``tokenize`` other than comments, blank
lines, the encoding and the end marker.  On CPython 3.11, compiling a
module of more than about 4,096 of them takes about 0.27 MiB more peak
memory, which then shows in the peak resident size of every command;
this test fails first.
"""

import tokenize
from pathlib import Path

import pytest

LIMIT = 4000
INSIGNIFICANT = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING, tokenize.ENDMARKER}
MODULES = sorted((Path(__file__).parents[1] / "src" / "staircase").glob("*.py"))


def significant_tokens(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for t in tokenize.tokenize(fh.readline) if t.type not in INSIGNIFICANT)


def test_the_package_has_modules():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_under_the_token_limit(path):
    assert significant_tokens(path) < LIMIT
