"""No module of ``rdts`` or of its tests imports a name it never uses, or
imports one name twice.

A stand-in for a linter's unused-import rule (F401): every name a module in
``src/rdts`` or ``tests`` binds by ``import`` must be read somewhere in that
module, be listed in its ``__all__``, or sit on a line marked
``# noqa: F401``. The package's ``__init__`` re-exports names by importing
them, so it is exempt. A name that two imports of one module bind is read
through the later binding only, so the earlier one is unused even when the
name is read; no module may bind a name by more than one import.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "rdts").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def _bindings(tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` for each name an import of the module binds, in any
    scope (``__future__`` imports aside)."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name.split(".")[0], node.lineno)
                      for alias in node.names]
    return bound


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name the module binds by import, with its line, unless the
    import's line carries ``# noqa: F401``."""
    return {name: line for name, line in _bindings(tree) if "# noqa: F401" not in lines[line - 1]}


def _bound_twice(tree: ast.Module) -> dict[str, list[int]]:
    """Each name that more than one import of the module binds, with their lines."""
    lines: dict[str, list[int]] = {}
    for name, line in _bindings(tree):
        lines.setdefault(name, []).append(line)
    return {name: at for name, at in lines.items() if len(at) > 1}


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_name_is_bound_by_two_imports(path):
    twice = _bound_twice(ast.parse(path.read_text()))
    assert not twice, f"{path.name} binds names by more than one import: {twice}"


def test_the_check_sees_a_name_imported_twice():
    # the second import shadows the first, and the name is read
    tree = ast.parse("from x import a, b\nfrom y import a  # noqa: F401\na(b)\n")
    assert _bound_twice(tree) == {"a": [1, 2]}


def test_the_check_sees_an_unused_import():
    text = "import os\nfrom x import a, b  # noqa: F401\nfrom y import c\nc()\n"
    tree = ast.parse(text)
    imported = _imported(tree, text.splitlines())
    assert set(imported) == {"os", "c"}
    assert set(imported) - _used(tree) == {"os"}
