"""Thompson sampling, compressed Thompson sampling, and regret experiments.

Regret is recorded against exact conditional means by default
(pseudo-regret), which is unbiased for Bayesian regret and far lower
variance than realized rewards; the realized estimator is available via a
flag. Per-run generators are spawned from the root generator by run index,
so runs are reproducible and order-independent.

``simulate_ts`` and ``audit_regret_chain`` follow the same Thompson
sampling trajectories, from one rollout (``_ts_rollout``) that advances all
runs together: the beliefs are a ``(runs, m)`` matrix updated row by row with
the arithmetic of ``posterior_update``, and the outcome pmfs of every action
Thompson sampling can play are gathered once per call from the instance's
outcome tables (``model.two_point_outcomes``). Each run still draws from its
own generator, ``1 + 2T`` uniforms in a fixed order: one for the true
parameter, then a (sampled parameter, outcome) pair per period, exactly the
draws of a per-run loop over ``thompson_step`` and ``sample_outcome``, so the
trajectories are identical to that loop's and a run's trajectory does not
depend on how many runs there are.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .bounds import compressed_bound
from .compression import Partition, Representation, statistic_mutual_information
from .inference import (
    BeliefState,
    _match_likelihood,
    inverse_cdf,
    posterior_update_rows,
    sample_parameter,
)
from .information import _chain_terms, _checked_cell_mass, _ratio_report, entropy
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


def _ts_rollout(
    instance: BanditInstance, prior: BeliefState, T: int, runs: int, rng: np.random.Generator
) -> Iterator[tuple[NDArray, NDArray, NDArray, NDArray]]:
    """Thompson sampling on ``runs`` runs at once, one period at a time.

    Run ``r`` draws its ``1 + 2T`` uniforms up front from the ``r``-th
    generator spawned from ``rng``: the first picks the true parameter from
    the prior, then period ``t`` uses ``2t + 1`` to sample a parameter from
    the run's belief and ``2t + 2`` to sample the outcome of that
    parameter's best action. ``T`` and ``runs`` are checked before anything
    is drawn. Returns an iterator over the periods that yields ``(belief,
    theta_star, action, outcome)``: the ``(runs, m)`` belief matrix before the
    period's update, then each run's true parameter, played action and
    observed outcome.
    """
    if T < 0 or runs < 1:
        raise ValueError("need T >= 0 and runs >= 1")
    draws = np.stack([run_rng.random(1 + 2 * T) for run_rng in rng.spawn(runs)])
    belief = np.tile(prior.probs, (runs, 1))
    theta_star = inverse_cdf(belief, draws[:, 0])
    # Thompson sampling only plays best actions of parameters with prior mass;
    # with numpy 2.4, np.unique would import numpy.ma, which nothing here needs
    played = np.flatnonzero(
        np.bincount(instance.astar[prior.probs > 0.0], minlength=instance.n_actions)
    )
    slot = np.zeros(instance.n_actions, dtype=np.intp)
    slot[played] = np.arange(played.size)
    _, points, weights = two_point_outcomes(instance, played)

    def periods(belief: NDArray):
        for t in range(T):
            action = instance.astar[inverse_cdf(belief, draws[:, 2 * t + 1])]
            s = slot[action]
            k = inverse_cdf(weights[s, theta_star], draws[:, 2 * t + 2])
            y = points[s, theta_star, k]
            yield belief, theta_star, action, y
            like = _match_likelihood(points[s], weights[s], y[:, None, None])
            belief = posterior_update_rows(belief, like)

    return periods(belief)


def simulate_ts(
    instance: BanditInstance,
    prior: BeliefState,
    T: int,
    runs: int,
    rng: np.random.Generator,
    realized_rewards: bool = False,
) -> RegretTrace:
    """Monte Carlo Bayesian regret of Thompson sampling over ``runs`` runs.

    All runs advance together on the trajectories of ``_ts_rollout``.
    Per-period regret is summed over runs in run order and each run's total
    over periods in period order, so the trace is bit-identical to a per-run
    loop of ``thompson_step``, ``sample_outcome`` and ``posterior_update``.
    """
    periods = _ts_rollout(instance, prior, T, runs, rng)
    best = instance.mu[np.arange(instance.n_params), instance.astar]
    per_period = np.zeros(T)
    totals = np.zeros(runs)
    for t, (_, theta_star, action, y) in enumerate(periods):
        reward = y if realized_rewards else instance.mu[theta_star, action]
        regret = best[theta_star] - reward
        per_period[t] = np.cumsum(regret)[-1]  # runs added in run order
        totals += regret
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
    return max(table.values.size for table in instance.outcome_tables(np.unique(instance.astar)))


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

    All runs advance together on the trajectories of ``_ts_rollout``, the
    ones ``simulate_ts`` follows. Each period, the chain's terms for every run come from one call of
    ``information._chain_terms``. Rows are returned run by run, period by
    period.
    """
    q = _outcome_cardinality(instance)
    if instance.n_params * instance.n_actions * q > 1_000_000:
        raise GuardExceeded("m * n * |outcomes| exceeds the exact-audit guard")
    periods = _ts_rollout(instance, prior, T, runs, rng)
    eps = partition.epsilon
    info_prior = statistic_mutual_information(prior, partition)
    chain_terms = _chain_terms(instance, partition)
    rows: list[list[dict]] = [[] for _ in range(runs)]
    gamma_bar = 0.0
    totals = np.zeros(runs)
    psi_series = np.zeros((T, runs))
    all_ok = True
    for t, (belief, *_) in enumerate(periods):
        regret, diff, info_comp, info_psi_comp, info_psi_ts, mass = chain_terms(belief)
        for r in range(runs):
            report = _ratio_report(float(diff[r] * diff[r]), float(info_comp[r]))
            gamma_bar = max(gamma_bar, report.ratio)
            h_psi = entropy(mass[r])
            checks = {
                "regret_slack": bool(regret[r] - diff[r] <= eps + AUDIT_TOL),
                "ratio_identity": bool(
                    abs(diff[r] * diff[r] - report.ratio * info_comp[r]) <= AUDIT_TOL
                ),
                "data_processing_rep": bool(info_comp[r] <= info_psi_comp[r] + AUDIT_TOL),
                "data_processing_ts": bool(info_psi_comp[r] <= info_psi_ts[r] + AUDIT_TOL),
                "entropy_cap": bool(info_psi_ts[r] <= h_psi + AUDIT_TOL),
            }
            all_ok = all_ok and all(checks.values())
            rows[r].append(
                {
                    "run": r,
                    "t": t + 1,
                    "expected_regret": float(regret[r]),
                    "compressed_regret": float(diff[r]),
                    "ratio": report.ratio,
                    "info_compressed": float(info_comp[r]),
                    "info_psi_compressed": float(info_psi_comp[r]),
                    "info_psi_ts": float(info_psi_ts[r]),
                    "entropy_psi": h_psi,
                    **checks,
                }
            )
        totals += regret
        psi_series[t] = info_psi_ts
    for series in psi_series.T.tolist():
        # Cauchy-Schwarz across the run's periods
        lhs = sum(np.sqrt(np.maximum(series, 0.0)))
        rhs = np.sqrt(T * sum(series))
        all_ok = all_ok and bool(lhs <= rhs + AUDIT_TOL)
    mean_cum = float(np.mean(totals))
    bound = compressed_bound(gamma_bar, info_prior, eps, T)
    passed = all_ok and mean_cum <= bound + AUDIT_TOL
    return AuditReport(
        rows=[row for run_rows in rows for row in run_rows],
        gamma_bar=gamma_bar,
        info_prior_nats=info_prior,
        epsilon=eps,
        horizon=T,
        runs=runs,
        mean_cumulative_regret=mean_cum,
        bound_value=bound,
        passed=passed,
    )
