#!/usr/bin/env python3
"""Full information-ratio sweep: d = 2..20, beta in {0.1, 1, 10, 100},
100 logistic instances per cell with Dirichlet(1) beliefs.

Writes a CSV and an SVG scatter of ratio vs d with the d/2 ceiling.
Exit code 1 if any cell violates the ceiling.
"""

import sys

from rdts.cli import main

if __name__ == "__main__":
    sys.exit(
        main(
            [
                "ir-sweep",
                "--seed", "20240817",
                "--out", "figure1.csv",
                "--svg", "figure1.svg",
                *sys.argv[1:],
            ]
        )
    )
