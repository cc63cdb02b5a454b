"""Every name the package exports is used outside the tests.

A name that only tests import belongs in tests/oracles.py, not in
posmaps/__init__.py.  A name counts as used when code reads it: an AST Name
or Attribute load, or an import of it, in another module of the package, in
scripts/ or in perfbench/.  Docstrings, comments and README prose do not
count.  An export meant for README examples alone goes in README_ONLY and
must then appear in one of README's fenced code blocks.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posmaps"

README_ONLY: set[str] = set()


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name
                  for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def code_uses() -> set[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return used


def readme_code() -> str:
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.M | re.S)
    return "\n".join(blocks)


USES = code_uses()


def test_exports_found():
    assert {"MapRep", "estimate_N_dim", "Tolerances"} <= set(exported_names())


@pytest.mark.parametrize("name", exported_names())
def test_export_used_outside_tests(name):
    if name in README_ONLY:
        assert re.search(rf"\b{re.escape(name)}\b", readme_code()), (
            f"{name} is exported for README but no README code block uses it")
    else:
        assert name in USES, f"{name} is exported but only tests use it"
