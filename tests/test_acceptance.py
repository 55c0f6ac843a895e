"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(uncaptured, so the lines always appear in the run log) before asserting.
"""

import math

import numpy as np

from conftest import make_model, random_belief
from reference import (
    compressed_info_ratio,
    grouped_mutual_information,
    logistic_ladder,
    rate_distortion_bruteforce,
)
from rdts.bounds import (
    linear_bound,
    logistic_bound,
)
from rdts.compression import (
    best_action_margins,
    build_partition_glm,
    build_partition_logistic,
    build_representation,
    max_intra_cell_distortion,
    realized_link_slope,
    statistic_mutual_information,
    two_point_pair,
)
from rdts.inference import BeliefState
from rdts.information import (
    compressed_moments,
    info_gain_about_statistic,
    ts_expected_regret,
    ts_info_ratio,
)
from rdts.model import GLM, LINEAR_BINARY, LOGISTIC, sample_instance
from rdts.policy import audit_regret_chain, simulate_ts
from rdts.tolerances import CERT_TOL, PAIR_TOL, RATIO_CEILING_TOL
from test_information import (
    oracle_compressed_moments,
    oracle_mutual_information,
    oracle_ts_moments,
)

ROOT_SEED = 20240817


def report(capsys, idx: int, label: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"ACCEPTANCE {idx:02d} {label}: {'PASS' if ok else 'FAIL'}{suffix}")


def margin_logistic_instance(rng, d, n, m, beta, delta):
    model = make_model(LOGISTIC, beta=beta)
    for _ in range(500):
        inst = sample_instance(rng, d, n, m, model)
        if instance_margin(inst) >= delta:
            return inst
    raise AssertionError("could not draw a margin-respecting logistic instance")


def instance_margin(inst) -> float:
    return float(np.min(np.abs(best_action_margins(inst))))


def test_criterion_01_info_ratio_sweep(capsys):
    """Logistic information ratio stays below d/2 over the full (d, beta) grid."""
    cells = [
        (d, beta, i)
        for d in range(2, 21)
        for beta in (0.1, 1.0, 10.0, 100.0)
        for i in range(100)
    ]
    children = np.random.SeedSequence(ROOT_SEED).spawn(len(cells))
    worst = 0.0
    violations = 0
    for (d, beta, _), child in zip(cells, children):
        rng = np.random.default_rng(child)
        inst = sample_instance(rng, d, 100, 100, make_model(LOGISTIC, beta=beta))
        belief = BeliefState(rng.dirichlet(np.ones(100)))
        ratio = ts_info_ratio(inst, belief).ratio
        worst = max(worst, ratio - d / 2.0)
        if ratio > d / 2.0 + RATIO_CEILING_TOL:
            violations += 1
    ok = violations == 0
    report(capsys, 1, "information-ratio sweep vs d/2 ceiling", ok,
           f"{len(cells)} cells, worst slack {worst:.3e}")
    assert ok


def test_criterion_02_linear_ratio_ceiling(capsys):
    """Vanilla and compressed ratios respect d/2 on random linear instances."""
    rng = np.random.default_rng(ROOT_SEED + 2)
    violations = 0
    for _ in range(1000):
        d = int(rng.integers(2, 11))
        n = int(rng.integers(3, 51))
        m = int(rng.integers(3, 51))
        inst = sample_instance(rng, d, n, m, make_model(LINEAR_BINARY))
        belief = random_belief(rng, m)
        eps = float(rng.choice([0.05, 0.1, 0.3]))
        if ts_info_ratio(inst, belief).ratio > d / 2.0 + RATIO_CEILING_TOL:
            violations += 1
            continue
        part = build_partition_glm(inst, eps)
        rep = build_representation(inst, belief, part)
        if compressed_info_ratio(inst, belief, rep).ratio > d / 2.0 + RATIO_CEILING_TOL:
            violations += 1
    ok = violations == 0
    report(capsys, 2, "linear vanilla+compressed ratio ceiling", ok,
           f"1000 instances, {violations} violations")
    assert ok


def test_criterion_03_two_point_solver(capsys):
    """A feasible two-point mixture always exists and underperforms both means."""
    rng = np.random.default_rng(ROOT_SEED + 3)
    failures = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 13))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        p = rng.dirichlet(np.ones(n))
        try:
            j, k, r = two_point_pair(a, b, p)
        except Exception:
            failures += 1
            continue
        mix_a = r * a[j] + (1.0 - r) * a[k]
        mix_b = r * b[j] + (1.0 - r) * b[k]
        if not (0.0 <= r <= 1.0 and mix_a <= p @ a + PAIR_TOL and mix_b <= p @ b + PAIR_TOL):
            failures += 1
    ok = failures == 0
    report(capsys, 3, "two-point mixture solver existence", ok,
           f"10000 triples, {failures} failures")
    assert ok


def test_criterion_04_representative_conditions_logistic(capsys):
    """Regret slack <= eps and compressed statistic info never exceeds TS info."""
    rng = np.random.default_rng(ROOT_SEED + 4)
    failures = 0
    for idx in range(100):
        inst = margin_logistic_instance(rng, d=2, n=12, m=10, beta=4.0, delta=0.3)
        delta = instance_margin(inst)
        belief = random_belief(rng, 10)
        for eps in (0.05, 0.1, 0.2):
            part = build_partition_logistic(inst, eps, delta)
            rep = build_representation(inst, belief, part)
            diff, _ = compressed_moments(inst, belief, rep)
            slack = ts_expected_regret(inst, belief) - diff
            gains = {
                int(a): info_gain_about_statistic(inst, belief, part, int(a))
                for a in np.unique(inst.astar)
            }
            p = belief.probs
            info_psi_ts = sum(
                float(p[i]) * gains[int(inst.astar[i])] for i in range(p.size)
            )
            info_psi_comp = 0.0
            for k, (i1, i2, r) in enumerate(rep.cells):
                mass = float(rep.cell_mass[k])
                if mass <= 0.0:
                    continue
                info_psi_comp += mass * (
                    r * gains[int(inst.astar[i1])]
                    + (1.0 - r) * gains[int(inst.astar[i2])]
                )
            if slack > eps + 1e-9 or info_psi_comp > info_psi_ts + 1e-9:
                failures += 1
    ok = failures == 0
    report(capsys, 4, "two-point representative conditions (logistic)", ok,
           f"100 instances x 3 epsilons, {failures} failures")
    assert ok


def test_criterion_05_regret_chain_audit(capsys):
    """Every per-period inequality of the regret-bound chain holds at 1e-8."""
    rng = np.random.default_rng(ROOT_SEED + 5)
    failures = 0
    for idx in range(50):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(4, 11))
        m = int(rng.integers(3, 9))
        inst = sample_instance(rng, d, n, m, make_model(LINEAR_BINARY))
        eps = float(rng.choice([0.15, 0.3]))
        part = build_partition_glm(inst, eps)
        audit = audit_regret_chain(inst, BeliefState.uniform(m), part, 10, rng)
        if not audit.passed:
            failures += 1
    ok = failures == 0
    report(capsys, 5, "per-period inequality chain audit", ok,
           f"50 instances, T=10, {failures} failures")
    assert ok


def test_criterion_06_regret_under_closed_form_bound(capsys):
    """Monte Carlo linear-bandit regret sits below the closed-form ceiling."""
    rng = np.random.default_rng(ROOT_SEED + 6)
    inst = sample_instance(rng, 3, 30, 30, make_model(LINEAR_BINARY))
    trace = simulate_ts(inst, BeliefState.uniform(30), 500, 300, rng)
    bound = linear_bound(3, 500)
    ok = trace.cumulative + 3.0 * trace.std_error <= bound
    report(capsys, 6, "Monte Carlo regret vs closed-form bound", ok,
           f"regret {trace.cumulative:.2f} + 3se {3 * trace.std_error:.2f} vs {bound:.2f}")
    assert ok


def test_criterion_07_bound_evaluators(capsys):
    """Closed-form bound evaluators hit their reference values."""
    checks = []
    checks.append(abs(linear_bound(10, 10_000) - 1953.5) < 0.1)
    primary, _ = logistic_bound(2, 100, 1e6, 0.5)
    limit = 4.0 * math.sqrt(100 * math.log(3.0))
    checks.append(abs(primary - limit) / limit < 1e-3)
    grid_ok = True
    for beta in np.linspace(0.05, 50.0, 20):
        for delta in np.linspace(0.05, 1.0, 20):
            lo, hi = logistic_bound(3, 300, float(beta), float(delta))
            grid_ok = grid_ok and lo <= hi + 1e-12
    checks.append(grid_ok)
    ok = all(checks)
    report(capsys, 7, "closed-form bound evaluators", ok,
           f"linear {linear_bound(10, 10_000):.1f}, logistic limit {primary:.2f}")
    assert ok


def test_criterion_08_partition_certificates(capsys):
    """Builders certify distortion, respect packing counts, and track the oracle."""
    rng = np.random.default_rng(ROOT_SEED + 8)
    failures = 0

    # greedy centers are pairwise farther than the cover radius, so K obeys
    # the packing count (1 + 2/radius)^d (per band for the logistic ladder)
    for _ in range(400):
        d = int(rng.integers(2, 5))
        inst = sample_instance(rng, d, int(rng.integers(4, 16)),
                               int(rng.integers(3, 13)), make_model(LINEAR_BINARY))
        eps = float(rng.choice([0.05, 0.15, 0.4]))
        part = build_partition_glm(inst, eps)
        if max_intra_cell_distortion(inst, part.cell_of, part.K) > eps + CERT_TOL:
            failures += 1
        if part.K > (1.0 + 2.0 / eps) ** d:
            failures += 1

    for _ in range(300):
        d = int(rng.integers(2, 5))
        inst = sample_instance(rng, d, int(rng.integers(4, 16)),
                               int(rng.integers(3, 13)),
                               make_model(GLM, beta=0.8, eta=0.02))
        eps = float(rng.choice([0.05, 0.15]))
        part = build_partition_glm(inst, eps)
        if max_intra_cell_distortion(inst, part.cell_of, part.K) > eps + CERT_TOL:
            failures += 1
        slope = realized_link_slope(inst)
        if part.K > (1.0 + 4.0 * slope / eps) ** d:
            failures += 1

    for _ in range(300):
        inst = margin_logistic_instance(rng, d=2, n=10, m=8, beta=4.0, delta=0.3)
        delta = instance_margin(inst)
        phi_delta = float(inst.model.link(delta))
        eps = min(0.2, 0.5 * (phi_delta - 0.5))
        part = build_partition_logistic(inst, eps, delta)
        if max_intra_cell_distortion(inst, part.cell_of, part.K) > eps + CERT_TOL:
            failures += 1
        s = logistic_ladder(inst.model, eps, delta)
        bands = max(len(s) - 2, 1)
        if part.K > 2.0 * bands * (1.0 + 4.0 / (s[1] - s[0])) ** inst.d:
            failures += 1

    # my greedy construction can never need less information than the
    # exhaustive rate-distortion minimum
    for _ in range(100):
        inst = sample_instance(rng, 2, int(rng.integers(4, 10)),
                               int(rng.integers(3, 7)), make_model(LINEAR_BINARY))
        belief = random_belief(rng, inst.n_params)
        eps = float(rng.choice([0.1, 0.3]))
        _, oracle_info, _ = rate_distortion_bruteforce(inst, belief, eps)
        greedy = build_partition_glm(inst, eps)
        if statistic_mutual_information(belief, greedy) < oracle_info - 1e-12:
            failures += 1

    ok = failures == 0
    report(capsys, 8, "partition certificates and oracle comparison", ok,
           f"1000 builder instances + 100 oracle instances, {failures} failures")
    assert ok


def test_criterion_09_oracle_equivalence(capsys):
    """Information quantities match exhaustive joint-enumeration oracles."""
    rng = np.random.default_rng(ROOT_SEED + 9)
    worst = 0.0
    failures = 0
    for idx in range(100):
        kind = (LINEAR_BINARY, GLM, LOGISTIC)[idx % 3]
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        inst = sample_instance(rng, 2, n, m, make_model(kind, beta=1.5, eta=0.02))
        belief = random_belief(rng, m)

        joint = rng.dirichlet(np.ones(m * n)).reshape(m, n)
        err = abs(grouped_mutual_information(joint) - oracle_mutual_information(joint))
        worst = max(worst, err)

        rep_ts = ts_info_ratio(inst, belief)
        regret, info = oracle_ts_moments(inst, belief)
        err = max(
            abs(rep_ts.numerator - regret * regret),
            abs(rep_ts.denominator - info),
        )
        worst = max(worst, err)

        part = build_partition_glm(inst, 0.15)
        r = build_representation(inst, belief, part)
        rep_c = compressed_info_ratio(inst, belief, r)
        o_diff, o_info = oracle_compressed_moments(inst, belief, r)
        err = max(
            abs(rep_c.numerator - o_diff * o_diff),
            abs(rep_c.denominator - o_info),
        )
        worst = max(worst, err)
        if worst > 1e-9:
            failures += 1
    ok = failures == 0 and worst <= 1e-9
    report(capsys, 9, "oracle equivalence of information quantities", ok,
           f"100 instances, worst error {worst:.3e}")
    assert ok


def test_criterion_10_cli_determinism(capsys, tmp_path):
    """Every CLI subcommand is byte-identical across reruns and thread counts."""
    from rdts.cli import main

    cases = [
        ["ir-sweep", "--d-list", "2,3", "--beta-list", "0.1,1", "--n", "10",
         "--m", "10", "--instances", "3"],
        ["regret", "--model", "linear_binary", "--d", "2", "--n", "8", "--m", "8",
         "--T", "8", "--runs", "15"],
        ["partition", "--model", "linear_binary", "--d", "2", "--n", "10",
         "--m", "10", "--epsilon", "0.2"],
        ["bounds", "--which", "linear", "--d", "5", "--T", "100", "--format", "json"],
        ["audit", "--model", "linear_binary", "--d", "2", "--n", "8", "--m", "6",
         "--T", "4", "--runs", "1", "--epsilon", "0.3"],
    ]
    ok = True
    for idx, argv in enumerate(cases):
        blobs = []
        for run_idx in range(2):
            path = tmp_path / f"{idx}_{run_idx}"
            code = main(argv + ["--seed", "314", "--out", str(path)])
            ok = ok and code in (0, 1)
            blobs.append(path.read_bytes())
        ok = ok and blobs[0] == blobs[1]
    # thread count must not change the bytes
    sweep = cases[0]
    blobs = []
    for threads in ("1", "4"):
        path = tmp_path / f"threads_{threads}"
        main(sweep + ["--seed", "314", "--threads", threads, "--out", str(path)])
        blobs.append(path.read_bytes())
    ok = ok and blobs[0] == blobs[1]
    report(capsys, 10, "CLI byte-determinism", ok, "5 subcommands, 1 vs 4 threads")
    assert ok
