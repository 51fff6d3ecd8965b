"""README's cap table, module layout and library example against the package."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cap_table_names_every_cap_with_its_value():
    defined = {}
    for path in sorted((ROOT / "src" / "staircase").glob("*.py")):
        for name in re.findall(r"^(MAX_\w+) = ", path.read_text(), re.M):
            module = importlib.import_module(f"staircase.{path.stem}")
            defined[f"{path.stem}.{name}"] = getattr(module, name)
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| cap | constant | value |\n| --- | --- | --- |\n")[1]
    listed = {}
    for row in table.split("\n\n")[0].splitlines():
        _, _, constant, value, _ = row.split("|")
        listed[constant.strip().strip("`")] = int(value.strip().replace(",", ""))
    assert listed == defined


def test_layout_names_every_module():
    readme = (ROOT / "README.md").read_text()
    layout = readme.split("## Layout\n")[1].split("\n## ")[0]
    listed = set(re.findall(r"^- `src/staircase/(\w+)\.py`", layout, re.M))
    modules = {p.stem for p in (ROOT / "src" / "staircase").glob("*.py")}
    assert listed == modules - {"__init__", "__main__"}


def test_python_blocks_run():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
