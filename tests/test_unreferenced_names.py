"""Every top-level name that ``src/rdts`` defines is reached by the product.

A function, class or constant defined at the top of a module in
``src/rdts``, and a method or property of such a class, must be referred to
outside its own definition (a class's methods do not name the class, and a
method does not name itself): by code or a
string in ``src/`` or ``scripts/`` (an import, a read, an attribute, a name
patched by string), or in ``perfbench/layers.json``, which the benchmark
reads to trace functions by name. Three kinds of mention do not count: a
name listed only in its module's ``__all__``, a name a package
``__init__`` imports to re-export it, and any mention in ``tests/``. A
definition that only tests reach belongs in the tests (``tests/reference.py``
holds such oracles); one that nothing reads is dead code.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rdts"
LAYERS = ROOT / "perfbench" / "layers.json"


def _defined(tree: ast.Module) -> dict[str, ast.stmt]:
    """The functions, classes and constants the module's top level defines,
    and the methods and properties of its classes, each with its defining
    statement (dunder names are left out)."""
    names = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names[item.name] = item
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        names[node.id] = stmt
    return {name: stmt for name, stmt in names.items() if not name.startswith("__")}


def _sources(root: Path) -> dict[Path, ast.Module]:
    """The parsed modules whose mentions count: those under ``src/`` and
    ``scripts/`` (so not ``tests/``)."""
    paths = sorted(p for folder in ("src", "scripts") for p in (root / folder).rglob("*.py"))
    return {path: ast.parse(path.read_text()) for path in paths}


def _named(stmt: ast.stmt, path: Path) -> set[str]:
    """The names one statement of ``path`` refers to: names it reads,
    attributes, imported names, strings that are identifiers (a name patched
    or looked up by string) and the names in string annotations. An
    ``__all__`` list, and an import in a package ``__init__`` (a re-export),
    refer to nothing."""
    if isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
    ):
        return set()
    if path.name == "__init__.py" and isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return set()
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                      if isinstance(n, ast.Name)}
    return names


def _unreferenced(defining: Path, sources: dict[Path, ast.Module], layers: str) -> list[str]:
    tree = sources[defining]
    defined = _defined(tree)
    named = set(re.findall(r"\w+", layers))
    for path, other in sources.items():
        for stmt in other.body:
            # a class of the defining module is read piece by piece, so one
            # method can name another
            parts = [stmt]
            if path == defining and isinstance(stmt, ast.ClassDef):
                parts = [*stmt.decorator_list, *stmt.bases, *stmt.keywords, *stmt.body]
            for part in parts:
                refs = _named(part, path)
                if path == defining:
                    # a definition does not name itself
                    refs -= {name for name, own in defined.items() if own in (stmt, part)}
                named |= refs
    return sorted(set(defined) - named)


@pytest.fixture(scope="module")
def sources() -> dict[Path, ast.Module]:
    return _sources(ROOT)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_name_is_named_elsewhere(path, sources):
    unused = _unreferenced(path, sources, LAYERS.read_text())
    assert not unused, f"{path.name} defines names only tests or nothing name: {unused}"


def test_the_check_sees_an_unnamed_definition():
    mod = Path("mod.py")
    user = Path("user.py")
    sources = {
        mod: ast.parse(
            "__all__ = ['listed']\n"
            "LIMIT = 3\n"
            "def listed():\n    return listed\n"
            "def used():\n    return LIMIT\n"
            "def patched(): pass\n"
            "def traced(): pass\n"
            "class Hint: pass\n"
            "class Base: pass\n"
            "class Kind(Base):\n"
            "    def unused(self):\n        return self.unused\n"
            "    def helper(self): pass\n"
            "    def public(self):\n        return self.helper(), Kind\n"
            "    @property\n    def shown(self): pass\n"
        ),
        user: ast.parse(
            "from mod import used\n"
            "x: 'Hint | None' = None\n"
            "monkeypatch.setattr(mod, 'patched', None)\n"
            "print('listed is not a name here')\n"
            "print(mod.Kind().public(), mod.Kind().shown)\n"
        ),
    }
    assert _unreferenced(mod, sources, '{"functions": ["traced"]}') == ["listed", "unused"]


def _unreferenced_in_tree(root: Path, files: dict[str, str]) -> list[str]:
    """The unreferenced names of ``src/pkg/mod.py`` in a tree of ``files``."""
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return _unreferenced(root / "src" / "pkg" / "mod.py", _sources(root), "{}")


MOD = "def exported(): pass\ndef scripted(): pass\n"


def test_the_check_skips_a_package_reexport(tmp_path):
    assert _unreferenced_in_tree(tmp_path, {
        "src/pkg/__init__.py": "from .mod import exported\n",
        "src/pkg/mod.py": MOD,
        "scripts/run.py": "from pkg.mod import scripted\n",
    }) == ["exported"]


def test_the_check_skips_tests(tmp_path):
    assert _unreferenced_in_tree(tmp_path, {
        "src/pkg/mod.py": MOD,
        "scripts/run.py": "from pkg.mod import scripted\n",
        "tests/test_mod.py": "from pkg.mod import exported\n",
    }) == ["exported"]
