"""Every name the package exports is used outside the tests.

A name that only tests import belongs in tests/oracles.py, not in
posmaps/__init__.py.  A name counts as used when it appears in another
module of the package, in scripts/, in perfbench/ or in README.md, on a
line other than its own definition.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posmaps"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name
                  for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def usage_lines() -> list[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "README.md")
    return [line for f in files for line in f.read_text().splitlines()]


LINES = usage_lines()


def test_exports_found():
    assert {"MapRep", "estimate_N_dim", "Tolerances"} <= set(exported_names())


@pytest.mark.parametrize("name", exported_names())
def test_export_used_outside_tests(name):
    key = re.escape(name)
    word = re.compile(rf"\b{key}\b")
    definition = re.compile(rf"\s*(def|class)\s+{key}\b|{key}\s*[:=]")
    uses = [line for line in LINES
            if word.search(line) and not definition.match(line)]
    assert uses, f"{name} is exported but only tests use it"
