"""Golden CLI outputs: fixed-seed runs must reproduce their stored bytes exactly.

Each case is one ``rdts.cli.main`` invocation; its primary output is stored
under ``tests/golden/<name>`` together with the expected exit code in the
table below. A change that alters any byte on purpose must say which bytes
and why, and regenerate the files it alters with ``PYTHONPATH=src python
tests/test_golden.py NAME...`` (no name regenerates every file). A case that
sets ``--config`` writes its ``CONFIGS`` entry to a temporary JSON file first.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from rdts.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _small(m: int = 8, seed: int = 7) -> tuple[str, ...]:
    return ("--d", "2", "--n", "8", "--m", str(m), "--seed", str(seed))


_BOUNDS = {
    "linear": ("--d", "10", "--T", "10000"),
    "glm": ("--d", "3", "--T", "500", "--c-phi", "0.25"),
    "logistic": ("--d", "2", "--T", "1000", "--beta", "2", "--delta", "0.5"),
    "entropy": ("--gamma-bar", "1.0", "--entropy-nats", "0.6931471805599453", "--T", "4"),
    "compressed": ("--gamma-bar", "1.5", "--info-nats", "2.0", "--epsilon", "0.05",
                   "--T", "200"),
    "partition-count": ("--model", "logistic", "--d", "2", "--epsilon", "0.05",
                        "--beta", "2", "--delta", "0.5"),
}

_PARTITION = ("--d", "3", "--n", "30", "--m", "30", "--seed", "7")

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
    # Bernoulli outcomes never identify theta* at once, so every period is informative
    "audit-logistic.json": (
        ("audit", "--model", "logistic", "--beta", "3", "--epsilon", "0.05",
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
    "partition-linear.json": (
        ("partition", "--model", "linear_binary", "--epsilon", "0.3", *_PARTITION), 0),
    "partition-glm.json": (
        ("partition", "--model", "glm", "--beta", "2", "--eta", "0.05",
         "--epsilon", "0.3", *_PARTITION), 0),
    "partition-logistic.json": (
        ("partition", "--model", "logistic", "--builder", "logistic", "--beta", "10",
         "--epsilon", "0.04", "--delta", "0.02", *_PARTITION), 0),
    "partition-defaults.json": (("partition", "--seed", "3"), 0),
    "bounds-defaults.csv": (("bounds", "--seed", "3"), 0),
    # the file sets every input; the --T flag must beat its "T", and the keys
    # regret has no flag for ("which", "instances") are ignored
    "regret-config.csv": (("regret", "--config", "regret-config.cfg.json", "--T", "12"), 0),
}
CASES.update(
    (f"bounds-{which}.{fmt}", (("bounds", "--which", which, *argv, "--format", fmt), 0))
    for which, argv in _BOUNDS.items()
    for fmt in ("csv", "json")
)

# config-file name -> contents, written to a temporary directory for each run
CONFIGS = {
    "regret-config.cfg.json": {
        "model": "glm", "beta": 2, "eta": 0.05, "realized": True, "T": 30, "runs": 4,
        "d": 2, "n": 8, "m": 8, "seed": 5, "which": "glm", "instances": 9,
    },
}


def _run(name: str, out: Path) -> int:
    argv, _ = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        for cfg, doc in CONFIGS.items():
            (Path(tmp) / cfg).write_text(json.dumps(doc))
        argv = [str(Path(tmp) / a) if a in CONFIGS else a for a in argv]
        return main([*argv, "--out", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name, tmp_path):
    out = tmp_path / name
    assert _run(name, out) == CASES[name][1]
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if unknown:
        sys.exit(f"no such case: {', '.join(unknown)}")
    for case in sys.argv[1:] or sorted(CASES):
        code = _run(case, GOLDEN / case)
        if code != CASES[case][1]:
            sys.exit(f"{case}: exit code {code}, table says {CASES[case][1]}")
