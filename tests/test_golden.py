"""Golden CLI outputs: fixed-seed runs must reproduce their stored bytes exactly.

Each case is one ``rdts.cli.main`` invocation; its primary output is stored
under ``tests/golden/<name>`` together with the expected exit code in the
table below. A change that alters any byte on purpose must say which bytes
and why, and regenerate the files with ``PYTHONPATH=src python
tests/test_golden.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from rdts.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _small(m: int = 8, seed: int = 7) -> tuple[str, ...]:
    return ("--d", "2", "--n", "8", "--m", str(m), "--seed", str(seed))


# name -> (argv without --out, exit code)
CASES = {
    "audit-glm.json": (
        ("audit", "--model", "glm", "--beta", "2", "--eta", "0.05", "--epsilon", "0.02",
         "--T", "6", "--runs", "2", "--format", "json", *_small()), 0),
    "audit-glm-eta0.json": (
        ("audit", "--model", "glm", "--beta", "2", "--eta", "0", "--epsilon", "0.02",
         "--T", "4", "--runs", "3", "--format", "json", *_small(m=11, seed=8)), 0),
    "audit-linear.json": (
        ("audit", "--model", "linear_binary", "--epsilon", "0.05",
         "--T", "6", "--runs", "2", "--format", "json", *_small()), 0),
    "regret-linear.csv": (
        ("regret", "--model", "linear_binary", "--T", "20", "--runs", "5", *_small()), 0),
    "regret-glm.csv": (
        ("regret", "--model", "glm", "--beta", "2", "--eta", "0.05",
         "--T", "20", "--runs", "5", *_small()), 0),
    "regret-logistic.csv": (
        ("regret", "--model", "logistic", "--beta", "3",
         "--T", "20", "--runs", "5", *_small()), 0),
    "regret-glm-realized.csv": (
        ("regret", "--model", "glm", "--beta", "2", "--eta", "0.05", "--realized",
         "--T", "20", "--runs", "5", *_small()), 0),
    "ir-sweep.csv": (
        ("ir-sweep", "--model", "logistic", "--d-list", "2,5", "--beta-list", "1,100",
         "--n", "12", "--m", "12", "--instances", "2", "--seed", "7"), 0),
}


def _run(name: str, out: Path) -> int:
    argv, _ = CASES[name]
    return main([*argv, "--out", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name, tmp_path):
    out = tmp_path / name
    assert _run(name, out) == CASES[name][1]
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        code = _run(case, GOLDEN / case)
        if code != CASES[case][1]:
            sys.exit(f"{case}: exit code {code}, table says {CASES[case][1]}")
