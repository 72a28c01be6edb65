"""Every top-level import of a package module is used in that module.

No linter ships with the package, so this test parses each module with
``ast`` and fails on a name that a top-level import binds but nothing in
the module reads.  ``__init__.py`` is left out: it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "steinbreak"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_detector_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.zeros(c)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert MODULES, "no package modules found"
    assert unused_imports(path.read_text(encoding="utf-8")) == []
