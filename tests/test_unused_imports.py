"""No module of ``rdts`` or of its tests imports a name it never uses.

A stand-in for a linter's unused-import rule (F401): every name a module in
``src/rdts`` or ``tests`` binds by ``import`` must be read somewhere in that
module, be listed in its ``__all__``, or sit on a line marked
``# noqa: F401``. The package's ``__init__`` re-exports names by importing
them, so it is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "rdts").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name the module binds by import, with its line, unless the
    import's line carries ``# noqa: F401``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[node.lineno - 1]:
                    continue
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads, in code or in string annotations, or lists in
    ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                             if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    text = path.read_text()
    tree = ast.parse(text)
    unused = {
        name: line
        for name, line in _imported(tree, text.splitlines()).items()
        if name not in _used(tree)
    }
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    text = "import os\nfrom x import a, b  # noqa: F401\nfrom y import c\nc()\n"
    tree = ast.parse(text)
    imported = _imported(tree, text.splitlines())
    assert set(imported) == {"os", "c"}
    assert set(imported) - _used(tree) == {"os"}
