"""Thompson sampling, compressed Thompson sampling, and regret experiments.

Regret is recorded against exact conditional means by default
(pseudo-regret), which is unbiased for Bayesian regret and far lower
variance than realized rewards; the realized estimator is available via a
flag. Per-run generators are spawned from the root generator by run index,
so runs are reproducible and order-independent.

``simulate_ts`` and ``audit_regret_chain`` follow the same Thompson sampling
trajectories, from one rollout (``_ts_rollout``) that advances all runs
together: the beliefs are a ``(runs, m)`` matrix updated row by row with the
arithmetic of ``posterior_update``, and the outcome pmfs of the actions
Thompson sampling plays are rows of the instance's outcome table
(``BanditInstance.outcomes``, support indexes and weights); the rollout
carries each played action as its row there, its slot
(``BanditInstance.slots``). An observation is its support index in that row,
as in every information term, and its likelihood the mass on that index; an
outcome's value (``model.outcome_values``) is read only for a realized
reward. A binary model's outcome is support index ``k`` of its pair, so
its likelihoods are the played slot's weights at ``k``; a glm action has up to
2m support values, so glm adds each parameter's mass on the observed one. Each
run draws from its own generator, ``1 + 2T`` uniforms in a fixed order: one
for the true parameter, then a (sampled parameter, outcome) pair per period,
exactly the draws of a per-run loop over ``thompson_step`` and
``sample_outcome``, so the trajectories are identical to that loop's and a
run's trajectory does not depend on how many runs there are.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .bounds import compressed_bound
from .compression import Partition, statistic_mutual_information
from .inference import (
    BeliefState,
    _mass_on,
    inverse_cdf,
    posterior_update_rows,
    sample_parameter,
)
from .information import _chain_terms, _ratio_report, entropy
from .model import GLM, BanditInstance, outcome_values, two_point_outcomes
# outcome_support stays importable from here for code that traces or patches it by name
from .model import outcome_support  # noqa: F401
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
    means = instance.mean_rewards(np.arange(instance.n_params), action_idx)
    _, weights = two_point_outcomes(instance.model, means)
    k = inverse_cdf(weights[true_param], rng.random())
    return float(outcome_values(instance.model, means[true_param])[k])


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
    theta_star, slot, k)``: the ``(runs, m)`` belief matrix before the
    period's update, then each run's true parameter, the slot of its played
    action (the action is ``instance.slots[0][slot]``) and the index ``k``
    of its outcome in the pair, ``outcome_values(instance.model,
    instance.realized[theta_star, slot])[..., k]``.

    Each run's true parameter is fixed, so the CDFs of the outcome pmfs it
    can meet are tabulated once, by (slot, run). The parameter draw is
    ``inverse_cdf``'s arithmetic (accumulate, ``<=``, count) on the belief,
    into buffers reused across periods, reading all runs' uniforms as one
    contiguous block; only when some uniform lies at or above its row's
    total does it call ``inverse_cdf`` itself, whose fallback never picks a
    zero-mass index. The outcome draw needs that fallback only where a run's
    uniform reaches the total mass of its played slot, so one comparison
    before the loop flags (``_outcome_fallback_periods``) every period in
    which some run's outcome uniform is at or above the smallest total over
    its true parameter's pmfs. A flagged period counts over the two-point CDF
    and falls back as the parameter draw does; any other period draws ``k``
    as ``first <= u``, one gather and one comparison, which is that count
    when no total is reached. An observation's likelihood row, each
    parameter's mass on its support index, is ``weights[slot, :, k]`` for
    the binary models, whose pair ``k`` is support index ``k`` (``_mass_on``
    there adds ``+0.0`` to that entry, the same bits); glm makes one
    ``_mass_on`` call per period on the played slots' pmfs.
    """
    if T < 0 or runs < 1:
        raise ValueError("need T >= 0 and runs >= 1")
    # draw i of every run is the contiguous (runs, 1) block draws[i]
    draws = np.empty((1 + 2 * T, runs, 1))
    for r, run_rng in enumerate(rng.spawn(runs)):
        draws[:, r, 0] = run_rng.random(1 + 2 * T)
    belief = np.tile(prior.probs, (runs, 1))
    theta_star = inverse_cdf(belief, draws[0, :, 0])
    idx, weights = instance.outcomes
    # (slot, run): the outcome CDF of the run's true parameter
    cdf_run = np.cumsum(weights[:, theta_star], axis=-1)
    first = cdf_run[..., 0]
    u_outcome = draws[2::2, :, 0]  # (T, runs)
    flagged = _outcome_fallback_periods(cdf_run, u_outcome).tolist()
    best = instance.slots[1]
    glm = instance.model.kind == GLM
    m = belief.shape[1]
    run = np.arange(runs)

    def periods(belief: NDArray):
        cdf = np.empty_like(belief)
        below = np.empty(belief.shape, dtype=bool)
        for t in range(T):
            u_param = draws[2 * t + 1]
            np.add.accumulate(belief, axis=1, out=cdf)
            j = np.add.reduce(np.less_equal(cdf, u_param, out=below), axis=1)
            if np.maximum.reduce(j) == m:
                j = inverse_cdf(belief, u_param[:, 0])
            s = best[j]
            if flagged[t]:
                k = (cdf_run[s, run] <= draws[2 * t + 2]).sum(-1)
                if k.max() == 2:
                    k = inverse_cdf(weights[s, theta_star], u_outcome[t])
            else:
                # k indexes: a bool array would mask
                k = np.less_equal(first[s, run], u_outcome[t], out=np.empty(runs, np.intp))
            yield belief, theta_star, s, k
            if glm:
                like = _mass_on(idx[s], weights[s], idx[s, theta_star, k][:, None, None])
            else:
                like = weights[s, :, k]
            belief = posterior_update_rows(belief, like)

    return periods(belief)


def _outcome_fallback_periods(cdf_run: NDArray, u_outcome: NDArray) -> NDArray:
    """Which of the ``(T, runs)`` outcome uniforms' periods can need
    ``inverse_cdf``'s fallback: those where some run's uniform is at or above
    the smallest total mass over the ``(slot, run, 2)`` CDFs of its true
    parameter. A played slot's total is never below that smallest one, so no
    period that needs the fallback goes unflagged. ``fmin`` skips a NaN
    total, which no uniform reaches."""
    least = np.fmin.reduce(cdf_run[..., -1], axis=0)
    return (u_outcome >= least).any(axis=1)


def simulate_ts(
    instance: BanditInstance,
    prior: BeliefState,
    T: int,
    runs: int,
    rng: np.random.Generator,
    realized_rewards: bool = False,
) -> RegretTrace:
    """Monte Carlo Bayesian regret of Thompson sampling over ``runs`` runs.

    All runs advance together on the trajectories of ``_ts_rollout``; the
    loop only keeps each period's played slots and outcome indexes in
    ``(T, runs)`` tables. After it, the rewards are gathered once, by slot
    from ``realized`` or, if realized, as the ``outcome_values`` of those
    means at the observed indexes; one ``cumsum`` along runs sums each
    period's regret in run order and one along periods sums each run's total
    in period order, so the trace is bit-identical to a per-run loop of
    ``thompson_step``, ``sample_outcome`` and ``posterior_update``.
    """
    periods = _ts_rollout(instance, prior, T, runs, rng)
    played = np.empty((T, runs), dtype=np.intp)
    observed = np.empty((T, runs), dtype=np.intp)
    for t, (_, theta_star, s, k) in enumerate(periods):
        played[t], observed[t] = s, k
    per_period, totals = np.zeros(0), np.zeros(runs)
    if T:
        means = instance.realized
        rewards = means[theta_star, played]
        if realized_rewards:
            values = outcome_values(instance.model, rewards)
            rewards = np.take_along_axis(values, observed[..., None], axis=-1)[..., 0]
        regret = means[theta_star, instance.slots[1][theta_star]] - rewards
        per_period = np.cumsum(regret, axis=1)[:, -1] / runs  # runs added in run order
        totals = np.cumsum(regret, axis=0)[-1]  # periods added in period order
    std_error = float(totals.std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0
    return RegretTrace(
        per_period_regret=per_period,
        cumulative=float(per_period.sum()),
        runs=runs,
        std_error=std_error,
        estimator="realized" if realized_rewards else "pseudo",
    )


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


def _audit_guard(instance: BanditInstance) -> None:
    """``GuardExceeded`` if m * R * q exceeds 1e6, q the largest support size
    of a realized action: 2 for the binary models, and for glm at least the
    distinct ``outcome_values`` of one pair, read from the outcome table only
    when that count does not already refuse the instance."""
    size = instance.n_params * instance.slots[0].size
    q = 2
    if instance.model.kind == GLM:
        mean = instance.mean_rewards(0, instance.slots[0][0])
        q = len(set(outcome_values(instance.model, mean).tolist()))
        if size * q <= 1_000_000:
            q = int(instance.outcomes[0].max()) + 1
    if size * q > 1_000_000:
        raise GuardExceeded("m * R * |outcomes| exceeds the exact-audit guard")


_AUDIT_CHECKS = (
    "regret_slack", "ratio_identity", "data_processing_rep", "data_processing_ts", "entropy_cap"
)


def _audit_body(regret, diff, info_comp, info_psi_comp, info_psi_ts, mass, eps: float) -> dict:
    """An audit row without "run" and "t": one belief row's ``_chain_terms``
    and the checks of the chain's almost-sure inequalities on them."""
    report = _ratio_report(float(diff * diff), float(info_comp))
    h_psi = entropy(mass)
    checks = (
        regret - diff <= eps + AUDIT_TOL,
        abs(diff * diff - report.ratio * info_comp) <= AUDIT_TOL,
        info_comp <= info_psi_comp + AUDIT_TOL,
        info_psi_comp <= info_psi_ts + AUDIT_TOL,
        info_psi_ts <= h_psi + AUDIT_TOL,
    )
    return {
        "expected_regret": float(regret),
        "compressed_regret": float(diff),
        "ratio": report.ratio,
        "info_compressed": float(info_comp),
        "info_psi_compressed": float(info_psi_comp),
        "info_psi_ts": float(info_psi_ts),
        "entropy_psi": h_psi,
        **{name: bool(ok) for name, ok in zip(_AUDIT_CHECKS, checks)},
    }


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
    ones ``simulate_ts`` follows. A row's terms depend on that row of the
    belief matrix alone (``information._chain_terms`` is row-invariant), so
    the audit evaluates them once per distinct belief row: each period, the
    rows not met at this period or the last (bitwise equal, keyed by their
    bytes) go through one ``_chain_terms`` call, and every run holding a
    row gets that row's body (every field but "run" and "t"), the same
    bytes as evaluating the run alone. Rows are returned run by run, period
    by period. The audit's tables are m x R: ``GuardExceeded`` if m * R * q,
    q the largest outcome support, exceeds 1e6 (``_audit_guard``).
    """
    _audit_guard(instance)
    periods = _ts_rollout(instance, prior, T, runs, rng)
    eps = partition.epsilon
    info_prior = statistic_mutual_information(prior, partition)
    chain_terms = _chain_terms(instance, partition)
    rows: list[list[dict]] = [[] for _ in range(runs)]
    gamma_bar = 0.0
    totals = np.zeros(runs)
    psi_series = np.zeros((T, runs))
    all_ok = True
    bodies: dict[bytes, dict] = {}  # the last period's row bodies, by belief row bytes
    for t, (belief, *_) in enumerate(periods):
        keys = [row.tobytes() for row in belief]
        known = {key: bodies[key] for key in keys if key in bodies}
        new = {key: r for r, key in enumerate(keys) if key not in known}
        if new:
            for key, terms in zip(new, zip(*chain_terms(belief[list(new.values())]))):
                body = known[key] = _audit_body(*terms, eps)
                gamma_bar = max(gamma_bar, body["ratio"])
                all_ok = all_ok and all(body[check] for check in _AUDIT_CHECKS)
        bodies = known
        period = [bodies[key] for key in keys]
        for r, body in enumerate(period):
            rows[r].append({"run": r, "t": t + 1, **body})
        totals += [body["expected_regret"] for body in period]
        psi_series[t] = [body["info_psi_ts"] for body in period]
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
