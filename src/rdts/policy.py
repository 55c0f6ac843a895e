"""Thompson sampling, compressed Thompson sampling, and regret experiments.

Regret is recorded against exact conditional means by default
(pseudo-regret), which is unbiased for Bayesian regret and far lower
variance than realized rewards; the realized estimator is available via a
flag. Per-run generators are spawned from the root generator by run index,
so runs are reproducible and order-independent.

``simulate_ts`` advances all runs together: the beliefs are a ``(runs, m)``
matrix updated row by row with the arithmetic of ``posterior_update``, and
the outcome pmfs of every action Thompson sampling can play are gathered
once per call from the instance's outcome tables
(``model.two_point_outcomes``). Each run still draws from its
own generator, ``1 + 2T`` uniforms in a fixed order: one for the true
parameter, then a (sampled parameter, outcome) pair per period, exactly the
draws of a per-run loop over ``thompson_step`` and ``sample_outcome``, so the
result is identical to that loop's. ``thompson_step``, ``sample_outcome`` and
``posterior_update`` remain the per-step functions ``audit_regret_chain``
rolls out with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .bounds import compressed_bound
from .compression import Partition, Representation, build_representation, statistic_mutual_information
from .inference import (
    BeliefState,
    _match_likelihood,
    inverse_cdf,
    posterior_update,
    posterior_update_rows,
    sample_parameter,
)
from .information import (
    _checked_cell_mass,
    _ratio_report,
    compressed_moments,
    entropy,
    info_gain_about_statistic,
    ts_expected_regret,
)
# outcome_support stays importable from here for code that traces or patches it by name
from .model import BanditInstance, outcome_support, two_point_outcomes  # noqa: F401
from .tolerances import AUDIT_TOL


class GuardExceeded(ValueError):
    """Instance too large for exact per-period auditing."""


@dataclass(frozen=True)
class RegretTrace:
    """Per-period and cumulative Bayesian regret across Monte Carlo runs."""

    per_period_regret: NDArray
    cumulative: float
    runs: int
    std_error: float
    estimator: str = "pseudo"

    def csv_rows(self) -> list[tuple[int, float, float, float]]:
        rows = []
        cum = 0.0
        for t, r in enumerate(self.per_period_regret, start=1):
            cum += float(r)
            rows.append((t, float(r), cum, self.std_error))
        return rows


def thompson_step(
    instance: BanditInstance, belief: BeliefState, rng: np.random.Generator
) -> tuple[int, int]:
    """Sample a parameter from the belief and play its best action."""
    param_idx = sample_parameter(belief, rng)
    return param_idx, int(instance.astar[param_idx])


def sample_outcome(
    instance: BanditInstance, action_idx: int, true_param: int, rng: np.random.Generator
) -> float:
    table = instance.outcome_table(action_idx)
    k = inverse_cdf(table.w[true_param], rng.random())
    return float(table.values[table.idx[true_param, k]])


def simulate_ts(
    instance: BanditInstance,
    prior: BeliefState,
    T: int,
    runs: int,
    rng: np.random.Generator,
    realized_rewards: bool = False,
) -> RegretTrace:
    """Monte Carlo Bayesian regret of Thompson sampling over ``runs`` runs.

    All runs advance together, one period at a time, on a ``(runs, m)``
    belief matrix. Run ``r`` draws its ``1 + 2T`` uniforms up front from the
    ``r``-th generator spawned from ``rng``: the first picks the true
    parameter from the prior, then period ``t`` uses ``2t + 1`` to sample a
    parameter from the run's belief and ``2t + 2`` to sample the outcome.
    Per-period regret is summed over runs in run order and each run's total
    over periods in period order, so the trace is bit-identical to a per-run
    loop of ``thompson_step``, ``sample_outcome`` and ``posterior_update``.
    """
    if T < 0 or runs < 1:
        raise ValueError("need T >= 0 and runs >= 1")
    best = instance.mu[np.arange(instance.n_params), instance.astar]
    draws = np.stack([run_rng.random(1 + 2 * T) for run_rng in rng.spawn(runs)])
    belief = np.tile(prior.probs, (runs, 1))
    theta_star = inverse_cdf(belief, draws[:, 0])
    # Thompson sampling only plays best actions of parameters with prior mass
    played = np.flatnonzero(
        np.bincount(instance.astar[prior.probs > 0.0], minlength=instance.n_actions)
    )
    slot = np.zeros(instance.n_actions, dtype=np.intp)
    slot[played] = np.arange(played.size)
    points, weights = two_point_outcomes(instance, played)
    per_period = np.zeros(T)
    totals = np.zeros(runs)
    for t in range(T):
        action = instance.astar[inverse_cdf(belief, draws[:, 2 * t + 1])]
        s = slot[action]
        k = inverse_cdf(weights[s, theta_star], draws[:, 2 * t + 2])
        y = points[s, theta_star, k]
        if realized_rewards:
            regret = best[theta_star] - y
        else:
            regret = best[theta_star] - instance.mu[theta_star, action]
        per_period[t] = np.cumsum(regret)[-1]  # runs added in run order
        totals += regret
        like = _match_likelihood(points[s], weights[s], y[:, None, None])
        belief = posterior_update_rows(belief, like)
    per_period /= runs
    std_error = float(totals.std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0
    return RegretTrace(
        per_period_regret=per_period,
        cumulative=float(per_period.sum()),
        runs=runs,
        std_error=std_error,
        estimator="realized" if realized_rewards else "pseudo",
    )


def compressed_ts_step(
    instance: BanditInstance,
    belief: BeliefState,
    representation: Representation,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Sample a cell by mass, then the cell's two-point representative."""
    _checked_cell_mass(belief, representation)
    k = int(inverse_cdf(representation.cell_mass, rng.random()))
    i1, i2, r = representation.cells[k]
    param_idx = i1 if rng.random() < r else i2
    return param_idx, int(instance.astar[param_idx])


@dataclass(frozen=True)
class AuditReport:
    """Numerical audit of the compressed-regret bound chain along TS runs."""

    rows: list[dict] = field(repr=False)
    gamma_bar: float
    info_prior_nats: float
    epsilon: float
    horizon: int
    runs: int
    mean_cumulative_regret: float
    bound_value: float
    passed: bool


def _outcome_cardinality(instance: BanditInstance) -> int:
    return max(
        instance.outcome_table(a).values.size for a in np.unique(instance.astar)
    )


def audit_regret_chain(
    instance: BanditInstance,
    prior: BeliefState,
    partition: Partition,
    T: int,
    rng: np.random.Generator,
    runs: int = 1,
) -> AuditReport:
    """Verify the compressed-regret inequality chain along simulated TS runs.

    At every period the audit computes, exactly at the current posterior:
    the one-step TS regret, the compressed-step regret and information gain,
    and the statistic information terms, then checks each almost-sure
    inequality of the chain (regret slack <= epsilon, the ratio identity,
    data processing, and the statistic-entropy cap). Aggregate checks cover
    Cauchy-Schwarz and the final regret bound with the audited worst-case
    ratio.
    """
    q = _outcome_cardinality(instance)
    if instance.n_params * instance.n_actions * q > 1_000_000:
        raise GuardExceeded("m * n * |outcomes| exceeds the exact-audit guard")
    eps = partition.epsilon
    info_prior = statistic_mutual_information(prior, partition)
    rows: list[dict] = []
    gamma_bar = 0.0
    totals = []
    all_ok = True
    for run, run_rng in enumerate(rng.spawn(runs)):
        theta_star = sample_parameter(prior, run_rng)
        belief = prior
        cum = 0.0
        psi_gain_series = []
        for t in range(1, T + 1):
            regret_t = ts_expected_regret(instance, belief)
            rep = build_representation(instance, belief, partition)
            diff, info_comp = compressed_moments(instance, belief, rep)
            report = _ratio_report(diff * diff, info_comp)
            gamma_bar = max(gamma_bar, report.ratio)

            p = belief.probs
            gain_cache: dict[int, float] = {}

            def psi_gain(action: int) -> float:
                if action not in gain_cache:
                    gain_cache[action] = info_gain_about_statistic(
                        instance, belief, partition, action
                    )
                return gain_cache[action]

            info_psi_ts = sum(
                float(p[i]) * psi_gain(int(instance.astar[i]))
                for i in range(p.size)
                if p[i] > 0.0
            )
            mass = np.bincount(partition.cell_of, weights=p, minlength=partition.K)
            info_psi_comp = 0.0
            for k, (i1, i2, r) in enumerate(rep.cells):
                if mass[k] <= 0.0:
                    continue
                info_psi_comp += mass[k] * (
                    r * psi_gain(int(instance.astar[i1]))
                    + (1.0 - r) * psi_gain(int(instance.astar[i2]))
                )
            h_psi = entropy(mass)
            checks = {
                "regret_slack": regret_t - diff <= eps + AUDIT_TOL,
                "ratio_identity": abs(diff * diff - report.ratio * info_comp)
                <= AUDIT_TOL,
                "data_processing_rep": info_comp <= info_psi_comp + AUDIT_TOL,
                "data_processing_ts": info_psi_comp <= info_psi_ts + AUDIT_TOL,
                "entropy_cap": info_psi_ts <= h_psi + AUDIT_TOL,
            }
            all_ok = all_ok and all(checks.values())
            rows.append(
                {
                    "run": run,
                    "t": t,
                    "expected_regret": regret_t,
                    "compressed_regret": diff,
                    "ratio": report.ratio,
                    "info_compressed": info_comp,
                    "info_psi_compressed": info_psi_comp,
                    "info_psi_ts": info_psi_ts,
                    "entropy_psi": h_psi,
                    **checks,
                }
            )
            cum += regret_t
            psi_gain_series.append(info_psi_ts)

            param_idx, action = thompson_step(instance, belief, run_rng)
            y = sample_outcome(instance, action, theta_star, run_rng)
            belief = posterior_update(belief, instance, action, y)
        totals.append(cum)
        # Cauchy-Schwarz across the run's periods
        lhs = sum(np.sqrt(np.maximum(psi_gain_series, 0.0)))
        rhs = np.sqrt(T * sum(psi_gain_series))
        all_ok = all_ok and (lhs <= rhs + AUDIT_TOL)
    mean_cum = float(np.mean(totals))
    bound = compressed_bound(gamma_bar, info_prior, eps, T)
    passed = all_ok and mean_cum <= bound + AUDIT_TOL
    return AuditReport(
        rows=rows,
        gamma_bar=gamma_bar,
        info_prior_nats=info_prior,
        epsilon=eps,
        horizon=T,
        runs=runs,
        mean_cumulative_regret=mean_cum,
        bound_value=bound,
        passed=passed,
    )
