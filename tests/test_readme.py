"""README's cap table against the caps the package defines."""

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
