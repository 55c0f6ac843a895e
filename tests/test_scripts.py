"""Golden bytes for the ``scripts/`` presets.

Each preset is a thin wrapper that hands ``rdts.cli.main`` a fixed argv plus
the flags it was given. ``tests/golden/scripts-argv.json`` pins the argv each
preset builds with no extra flags, and one reduced run per preset, made by
forwarding flags that shrink it, must reproduce its stored output files byte
for byte. The full presets are too slow for this suite (``run_figure1.py``
sweeps 7600 instances). Regenerate with ``PYTHONPATH=src python
tests/test_scripts.py``.
"""

from __future__ import annotations

import json
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

import rdts.cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"
ARGV_FILE = GOLDEN / "scripts-argv.json"

# script -> (forwarded flags, with {NAME} for an output path, output golden
# names, exit code)
REDUCED = {
    "run_audit.py": (
        ("--T", "4", "--out", "{scripts-audit.json}"), ("scripts-audit.json",), 0),
    "run_figure1.py": (
        ("--d-list", "2,4", "--beta-list", "1,10", "--instances", "2", "--n", "10",
         "--m", "10", "--out", "{scripts-figure1.csv}", "--svg", "{scripts-figure1.svg}"),
        ("scripts-figure1.csv", "scripts-figure1.svg"), 0),
    "run_regret_linear.py": (
        ("--T", "25", "--runs", "6", "--out", "{scripts-regret-linear.csv}"),
        ("scripts-regret-linear.csv",), 0),
}


def _run_script(name: str, flags: list[str], main) -> int:
    """Run ``scripts/name`` as ``__main__`` with ``flags`` on its command line
    and ``rdts.cli.main`` replaced by ``main``; return its exit code."""
    saved_argv, saved_main = sys.argv, rdts.cli.main
    sys.argv = [str(SCRIPTS / name), *flags]
    rdts.cli.main = main
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as stop:
        return stop.code
    finally:
        sys.argv, rdts.cli.main = saved_argv, saved_main
    raise AssertionError(f"{name} did not exit")


def _built_argv(name: str) -> list[str]:
    seen: list[list[str]] = []

    def record(argv):
        seen.append(list(argv))
        return 0

    assert _run_script(name, [], record) == 0
    assert len(seen) == 1
    return seen[0]


def _reduced_run(name: str, out_dir: Path) -> int:
    flags, outputs, _ = REDUCED[name]
    paths = {f"{{{out}}}": str(out_dir / out) for out in outputs}
    return _run_script(name, [paths.get(f, f) for f in flags], rdts.cli.main)


def test_every_script_is_pinned():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(REDUCED)


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_script_builds_pinned_argv(name):
    assert _built_argv(name) == json.loads(ARGV_FILE.read_text())[name]


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduced_script_run_matches_golden_bytes(name, tmp_path):
    assert _reduced_run(name, tmp_path) == REDUCED[name][2]
    for out in REDUCED[name][1]:
        assert (tmp_path / out).read_bytes() == (GOLDEN / out).read_bytes(), out


if __name__ == "__main__":
    ARGV_FILE.write_text(
        json.dumps({name: _built_argv(name) for name in sorted(REDUCED)}, indent=2) + "\n"
    )
    for name, (_, outputs, code) in sorted(REDUCED.items()):
        with tempfile.TemporaryDirectory() as tmp:
            got = _reduced_run(name, Path(tmp))
            if got != code:
                sys.exit(f"{name}: exit code {got}, table says {code}")
            for out in outputs:
                (GOLDEN / out).write_bytes((Path(tmp) / out).read_bytes())
