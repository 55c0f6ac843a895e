"""Every numeric tolerance of the package is written once, in ``rdts.tolerances``."""

import ast
import re
from pathlib import Path

import pytest

from rdts import tolerances

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rdts"
HOME = SRC / "tolerances.py"
# a float literal this small can only be a tolerance
SMALLEST_VALUE = 1e-6

PINNED = {
    "NORM_TOL": 1e-12,
    "OUTCOME_PMF_TOL": 1e-12,
    "BELIEF_TOL": 1e-10,
    "INPUT_PMF_TOL": 1e-9,
    "DENOMINATOR_TOL": 1e-12,
    "NUMERATOR_TOL": 1e-9,
    "CELL_MASS_TOL": 1e-9,
    "CERT_TOL": 1e-12,
    "PAIR_TOL": 1e-12,
    "LADDER_TOL": 1e-12,
    "MARGIN_TOL": 1e-12,
    "AUDIT_TOL": 1e-8,
    "RATIO_CEILING_TOL": 1e-9,
}


def _assigned_names(target):
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def tolerance_offences(source: str) -> list[str]:
    """Small float literals and assignments to ``*_TOL`` names in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0.0 < abs(node.value) <= SMALLEST_VALUE
        ):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in _assigned_names(target):
                if name.endswith("_TOL"):
                    found.append(f"line {node.lineno}: assignment to {name}")
    return found


def test_offence_finder_sees_literals_and_assignments():
    source = "X_TOL = 0.5\ndef f(tol=1e-12):\n    return abs(tol) > -1e-9 + 1e-5\n"
    assert tolerance_offences(source) == [
        "line 1: assignment to X_TOL",
        "line 2: float literal 1e-12",
        "line 3: float literal 1e-09",
    ]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p != HOME],
    ids=lambda p: p.name,
)
def test_no_tolerance_outside_its_home(path):
    assert tolerance_offences(path.read_text()) == []


def test_tolerance_values_are_pinned():
    names = {n for n in vars(tolerances) if n.endswith("_TOL")}
    assert names == set(PINNED)
    for name, value in PINNED.items():
        assert getattr(tolerances, name) == value, name


def test_readme_table_lists_every_tolerance():
    table = dict(
        re.findall(r"^\| `([A-Z_]+_TOL)` \| ([^|]+?) \|", (ROOT / "README.md").read_text(), re.M)
    )
    assert set(table) == set(PINNED)
    for name, value in PINNED.items():
        assert float(table[name]) == value, name


def tolerances_imported(sources: list[str]) -> set[str]:
    """The ``*_TOL`` names that ``from ... tolerances import`` statements in
    ``sources`` bind."""
    found = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "tolerances":
                found.update(alias.name for alias in node.names if alias.name.endswith("_TOL"))
    return found


def test_import_finder_sees_relative_and_absolute_imports():
    sources = [
        "from .tolerances import A_TOL, helper\n",
        "from rdts.tolerances import B_TOL as b\nfrom other import C_TOL\n",
    ]
    assert tolerances_imported(sources) == {"A_TOL", "B_TOL"}


def test_every_tolerance_is_imported_by_another_module():
    # a tolerance no module reads decides nothing; with the unused-import
    # guard, an imported one is also read
    names = {n for n in vars(tolerances) if n.endswith("_TOL")}
    sources = [p.read_text() for p in sorted(SRC.glob("*.py")) if p != HOME]
    assert names - tolerances_imported(sources) == set()
