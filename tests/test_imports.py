"""Every top-level import of a package module is used in that module,
every top-level private name is read somewhere in the package, no module
calls a matrix inverse, and every error type is raised somewhere.

No linter ships with the package, so these tests parse each module with
``ast``.  The first fails on a name that a top-level import binds but
nothing in the module reads; ``__init__.py`` is left out, because it
imports to re-export.  The second fails on a private function, class or
constant (one leading underscore) that no module of the package reads, so
a helper that a refactor leaves orphaned does not linger.  The third fails
on any call of numpy's or scipy's ``inv``, ``pinv`` or ``pinvh``: the
package solves with a factor, or on the segments' QR factors, and never
forms an inverse, because an explicit inverse loses digits on the
ill-conditioned trend designs.  The fourth fails on a class of
``errors.py`` that no ``raise`` statement of the package names, so an error
type whose last raiser a refactor removed does not linger either.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "steinbreak"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Top-level private names a module defines, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return {n: line for n, line in names.items() if n.startswith("_") and not n.startswith("__")}


def names_read(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as attributes or imports from elsewhere."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*(names_read(tree) for tree in trees.values()))
    return [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]


def test_private_name_detector():
    sources = {
        "a.py": "_A = 1\n_B = 2\ndef _f():\n    return _A\nclass _C:\n    pass\n",
        "b.py": "from .a import _f\n_f()\n",
    }
    assert unread_private_names(sources) == ["a.py line 2: _B", "a.py line 5: _C"]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in ALL_MODULES}
    assert unread_private_names(sources) == []


INVERSES = {"inv", "pinv", "pinvh"}


def inverse_calls(source: str) -> list[str]:
    """Calls of an attribute named ``inv``, ``pinv`` or ``pinvh`` (such as
    ``np.linalg.inv`` or ``sla.pinv``), and of those names imported from
    numpy or scipy under any alias."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in ("numpy", "scipy")
        for alias in node.names
        if alias.name in INVERSES
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in INVERSES) or (
                isinstance(func, ast.Name) and func.id in aliases
            ):
                found.append((node.lineno, ast.unparse(func)))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_inverse_detector():
    source = (
        "import numpy as np\n"
        "from scipy import linalg as sla\n"
        "from scipy.linalg import inv as matinv\n"
        "from numpy.linalg import pinv\n"
        "a = np.linalg.inv(x)\n"
        "b = sla.pinvh(x)\n"
        "c = matinv(x) + pinv(x)\n"
        "d = np.linalg.solve(x, y) + invert(x) + sla.cho_solve(f, y) + obj.inverse(x)\n"
    )
    assert inverse_calls(source) == [
        "line 5: np.linalg.inv", "line 6: sla.pinvh", "line 7: matinv", "line 7: pinv",
    ]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_matrix_inverse(path):
    assert inverse_calls(path.read_text(encoding="utf-8")) == []


def unraised_errors(errors_source: str, sources: dict[str, str]) -> list[str]:
    """Classes that ``errors_source`` defines and that no ``raise`` in
    ``sources`` names as the raised object (``raise E``, ``raise E(...)``
    or ``raise mod.E(...)``)."""
    defined = {
        node.name: node.lineno for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return [f"line {line}: {name}" for name, line in defined.items() if name not in raised]


def test_unraised_error_detector():
    errors = "class A(Exception):\n    pass\nclass B(A):\n    pass\nclass C(A):\n    pass\nclass D(A):\n    pass\n"
    sources = {
        "x.py": "from .errors import A, B, C\ntry:\n    f()\nexcept C:\n    raise A('no') from None\n",
        "y.py": "from . import errors\nif g():\n    raise errors.B\nraise ValueError(C)\n",
    }
    assert unraised_errors(errors, sources) == ["line 5: C", "line 7: D"]


def test_every_error_type_is_raised():
    sources = {p.name: p.read_text(encoding="utf-8") for p in ALL_MODULES}
    errors = sources["errors.py"]
    assert len(unraised_errors(errors, {})) >= 10
    assert unraised_errors(errors, sources) == []
