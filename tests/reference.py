"""The per-run, per-action implementations that the batched information layer
replaced, kept verbatim as test oracles.

Each function here computes one belief, one action and one run at a time,
from the dense ``outcome_support`` rows, exactly as ``rdts.information``,
``rdts.compression.build_representation`` and ``rdts.policy`` did before the
information terms of every (run, action) pair came from one grouped kernel.
The batched code must agree with these to rounding. ``glm_two_point_outcomes``
builds the glm supports one action at a time, in a Python loop of exact float
comparisons, where ``rdts.model.two_point_outcomes`` ranks all actions in one
sort; those two must agree bit for bit. ``compressed_info_ratio`` is the one
helper here that is not an oracle: it forms the compressed ratio from the
batched ``compressed_moments``, for tests that read that ratio.

``mean_table`` and ``inner_table`` build the full m x n tables of mean
rewards and of inner products that an instance no longer keeps: the first
from ``mean_rewards``, the second from the construction's own blocks, so
each entry has the bits every read of the instance gives.
``optimal_action_distribution`` is the belief's pushforward onto all n
actions, where ``rdts.information.ts_info_ratio`` takes its mass on the R
realized actions' slots.

Three more pieces only tests use: ``rate_distortion_bruteforce``, the
exhaustive rate-distortion oracle over every set partition of at most 8
parameters, ``grouped_mutual_information``, the kernel
``rdts.information._grouped_mi`` called on one dense 2-D joint, and
``logistic_ladder``, every level of the logistic ladder in one list, as
``rdts.compression.build_partition_logistic`` built it before it computed
only the levels its bands need.
"""

from __future__ import annotations

import numpy as np

from rdts import information
from rdts.bounds import EpsilonTooLarge, compressed_bound
from rdts.compression import (
    Partition,
    Representation,
    _split_cells,
    distortion_matrix,
    statistic_mutual_information,
    two_point_pair,
)
from rdts.information import (
    _checked_cell_mass,
    _checked_input_pmf,
    _grouped_mi,
    _ratio_report,
    entropy,
)
from rdts.inference import posterior_update, sample_parameter
from rdts.model import GLM, _checked_pmf, outcome_support
from rdts.policy import AuditReport, GuardExceeded, sample_outcome, thompson_step
from rdts.tolerances import AUDIT_TOL, CERT_TOL, LADDER_TOL

# The brute-force oracle treats two statistic entropies within this as a tie,
# which the partition with fewer cells wins.
TIE_TOL = 1e-15


class TooLarge(ValueError):
    pass


def optimal_action_distribution(belief, instance):
    """Pushforward of the belief through the best-action map alpha, onto all
    n actions."""
    return np.bincount(instance.astar, weights=belief.probs, minlength=instance.n_actions)


def mean_table(instance):
    """The ``(m, n)`` mean rewards of every (parameter, action) pair, from
    ``instance.mean_rewards``."""
    return instance.mean_rewards(np.arange(instance.n_params)[:, None],
                                 np.arange(instance.n_actions))


def inner_table(instance):
    """The ``(m, n)`` inner products ``a_j . theta_i``, from the blocks that
    construction multiplies."""
    return np.concatenate([block.copy() for _, block in instance._blocks()])


def _dedupe_sorted(values):
    """The distinct floats of the sorted ``values``, in order: each value is
    kept unless it equals the last one kept."""
    keep = [values[0]]
    for v in values[1:]:
        if v != keep[-1]:
            keep.append(v)
    return np.asarray(keep)


def _locate(grid, values):
    """The index in ``grid`` of the entry equal to each of ``values``; a value
    no entry equals (a NaN) raises ``StopIteration``."""
    return np.array([next(j for j, g in enumerate(grid) if g == v) for v in values],
                    dtype=np.intp)


def glm_two_point_outcomes(means, eta):
    """``(idx, points, weights)`` of the glm outcomes ``means -/+ eta``, shape
    ``(A, m, 2)`` for ``(A, m)`` means without NaN: per row, the sorted
    support of distinct values and each value's place on it."""
    idx = np.empty(means.shape + (2,), dtype=np.intp)
    points = np.empty(idx.shape)
    for s, row in enumerate(means):
        values = _dedupe_sorted(np.sort(np.concatenate([row - eta, row + eta])))
        idx[s] = np.stack([_locate(values, row - eta), _locate(values, row + eta)], axis=1)
        points[s] = values[idx[s]]
    # each point carries half the mass; two equal values are one point of mass 1
    w = np.where((idx[..., 0] == idx[..., 1])[..., None], [1.0, 0.0], 0.5)
    return idx, points, _checked_pmf(w)


def grouped_mutual_information(joint):
    """Mutual information of a joint pmf given as a 2-D array, in nats."""
    j = _checked_input_pmf(joint, 2)
    rows, cols = np.indices(j.shape)
    # the check lets entries down to -INPUT_PMF_TOL through; they count as 0
    return float(_grouped_mi(0, rows, cols, np.maximum(j, 0.0), 1)[0])


def mutual_information(joint):
    """Mutual information of a dense 2-D joint pmf, in nats."""
    j = np.clip(_checked_input_pmf(joint, 2), 0.0, None)
    pu = j.sum(axis=1)
    pv = j.sum(axis=0)
    outer = pu[:, None] * pv[None, :]
    mask = j > 0.0
    total = float((j[mask] * np.log(j[mask] / outer[mask])).sum())
    return max(total, 0.0)


def _mi_rows(weights, rows):
    """MI of the joint weights[i] * rows[i, y], assuming valid inputs."""
    marginal = weights @ rows
    mask = (rows > 0.0) & (weights[:, None] > 0.0) & (marginal[None, :] > 0.0)
    ratio = np.ones_like(rows)
    np.divide(rows, marginal[None, :], out=ratio, where=mask)
    terms = weights[:, None] * rows * np.log(ratio, where=mask, out=np.zeros_like(rows))
    return max(float(terms[mask].sum()), 0.0)


def action_information(instance, belief, action_idx):
    """I(theta*; Y_a) from the action's dense outcome rows."""
    _, probs = outcome_support(instance, action_idx)
    return _mi_rows(belief.probs, probs)


def ts_expected_regret(instance, belief):
    p = belief.probs
    mu = mean_table(instance)
    astar = instance.astar
    e_star = float(p @ mu[np.arange(mu.shape[0]), astar])
    mean_rewards = p @ mu
    e_ts = float(p @ mean_rewards[astar])
    return e_star - e_ts


def ts_info_ratio(instance, belief):
    """The TS information ratio, one realized action at a time."""
    p = belief.probs
    diff = ts_expected_regret(instance, belief)
    realized, inverse = np.unique(instance.astar, return_inverse=True)
    action_mass = np.bincount(inverse, weights=p, minlength=realized.size)
    denominator = 0.0
    for col, a in enumerate(realized):
        if action_mass[col] <= 0.0:
            continue
        denominator += action_mass[col] * action_information(instance, belief, int(a))
    return _ratio_report(diff * diff, denominator)


def info_gain_about_statistic(instance, belief, partition, action_idx):
    """I(psi; Y_a) from a dense scatter of the (cell, outcome) joint."""
    values, probs = outcome_support(instance, action_idx)
    joint = np.zeros((partition.K, values.size))
    np.add.at(joint, partition.cell_of, belief.probs[:, None] * probs)
    return mutual_information(joint)


def _representation_support(belief, representation):
    mass = _checked_cell_mass(belief, representation)
    support = []
    for k, (i1, i2, r) in enumerate(representation.cells):
        if mass[k] <= 0.0:
            continue
        if i1 == i2:
            support.append((i1, k, float(mass[k])))
            continue
        if r > 0.0:
            support.append((i1, k, float(mass[k] * r)))
        if r < 1.0:
            support.append((i2, k, float(mass[k] * (1.0 - r))))
    return support, mass


def compressed_moments(instance, belief, representation):
    """Compressed-step (diff, info), one representative action at a time."""
    part = representation.partition
    p = belief.probs
    support, mass = _representation_support(belief, representation)
    mu = mean_table(instance)
    mean_rewards = p @ mu
    cond = np.zeros((part.K, p.size))
    np.add.at(cond, (part.cell_of, np.arange(p.size)), p)
    positive = mass > 0.0
    cond[positive] /= mass[positive, None]
    diff = 0.0
    for param_idx, cell, q in support:
        a = instance.astar[param_idx]
        diff += q * float(cond[cell] @ mu[:, a] - mean_rewards[a])
    q_vec = np.array([q for _, _, q in support])
    cells_arr = np.array([c for _, c, _ in support])
    rep_actions = np.array([instance.astar[i] for i, _, _ in support])
    info = 0.0
    for a in np.unique(rep_actions):
        weight = q_vec[rep_actions == a].sum()
        _, probs = outcome_support(instance, int(a))
        rows = cond[cells_arr] @ probs
        info += weight * _mi_rows(q_vec, rows)
    return diff, info


def compressed_info_ratio(instance, belief, representation):
    """The compressed-TS information ratio from ``rdts.information.compressed_moments``."""
    diff, info = information.compressed_moments(instance, belief, representation)
    return _ratio_report(diff * diff, info)


def build_representation(instance, belief, partition):
    """Per-cell two-point representatives, scoring one action at a time."""
    p = belief.probs
    mean_rewards = p @ mean_table(instance)
    mass = np.bincount(partition.cell_of, weights=p, minlength=partition.K)
    info_cache = {}

    def gain(action_idx):
        if action_idx not in info_cache:
            info_cache[action_idx] = info_gain_about_statistic(
                instance, belief, partition, action_idx
            )
        return info_cache[action_idx]

    cells = []
    for k in range(partition.K):
        members = partition.members(k)
        if mass[k] <= 0.0:
            cells.append((int(members[0]), int(members[0]), 1.0))
            continue
        weights = p[members] / mass[k]
        scores_reward = np.array([mean_rewards[instance.astar[i]] for i in members])
        scores_info = np.array([gain(int(instance.astar[i])) for i in members])
        j, kk, r = two_point_pair(scores_reward, scores_info, weights)
        cells.append((int(members[j]), int(members[kk]), r))
    return Representation(partition=partition, cells=tuple(cells), cell_mass=mass)


def audit_regret_chain(instance, prior, partition, T, rng, runs=1):
    """The regret-chain audit, one run and one period at a time."""
    # the guard counts m * R * q: q is 2 for the binary models, and a glm q is
    # at least the count of distinct values of one pair, read exactly only
    # when that count does not refuse the instance
    size = instance.n_params * instance.slots[0].size
    q = 2
    if instance.model.kind == GLM:
        mean, eta = float(instance.mean_rewards(0, instance.slots[0][0])), instance.model.eta
        q = len({mean - eta, mean + eta})
        if size * q <= 1_000_000:
            q = max(outcome_support(instance, a)[0].size for a in instance.slots[0].tolist())
    if size * q > 1_000_000:
        raise GuardExceeded("m * R * |outcomes| exceeds the exact-audit guard")
    eps = partition.epsilon
    info_prior = statistic_mutual_information(prior, partition)
    rows = []
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
            gain_cache = {}

            def psi_gain(action):
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
                "ratio_identity": abs(diff * diff - report.ratio * info_comp) <= AUDIT_TOL,
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


def _set_partitions(m: int):
    """All set partitions of range(m) as cell-index vectors (restricted growth)."""
    code = np.zeros(m, dtype=np.intp)

    def rec(i: int, max_used: int):
        if i == m:
            yield code.copy()
            return
        for c in range(max_used + 2):
            code[i] = c
            yield from rec(i + 1, max(max_used, c))

    yield from rec(1, 0)


def rate_distortion_bruteforce(instance, belief, epsilon):
    """Exhaustive minimum of I(theta*; psi) over all distortion-valid partitions.

    Enumerates every set partition of the parameter set (Bell-number growth),
    so m is capped at 8. Returns ``(K, info, partition)``.
    """
    m = instance.n_params
    if m > 8:
        raise TooLarge("brute-force partition search is capped at m <= 8")
    dmat = distortion_matrix(instance)
    best = None
    for code in _set_partitions(m):
        K = int(code.max()) + 1
        if any(
            idx.size > 1 and dmat[np.ix_(idx, idx)].max() > epsilon + CERT_TOL
            for idx in _split_cells(code)
        ):
            continue
        mass = np.bincount(code, weights=belief.probs, minlength=K)
        info = entropy(mass)
        if best is None or info < best[0] - TIE_TOL or (
            abs(info - best[0]) <= TIE_TOL and K < best[1]
        ):
            best = (info, K, code)
    assert best is not None  # the singleton partition is always valid
    info, K, code = best
    return K, info, Partition(cell_of=code, epsilon=epsilon, K=K)


def logistic_ladder(model, epsilon: float, delta: float) -> list[float]:
    """Level sequence s_0 < s_1 = delta < ... < s_L = 1 with equal link increments.

    L is the smallest integer with phi(delta) + (L-1) * epsilon >= phi(1), so
    consecutive levels (past s_0) advance the link value by exactly epsilon.
    """
    phi_delta = float(model.link(delta))
    if epsilon >= phi_delta - 0.5:
        raise EpsilonTooLarge(
            f"epsilon {epsilon!r} must be < phi(delta) - 1/2 = {phi_delta - 0.5!r}"
        )
    s0 = float(model.link_inv(phi_delta - epsilon))
    gap = float(model.link(1.0)) - phi_delta
    levels_needed = int(np.ceil(gap / epsilon - LADDER_TOL)) if gap > 0 else 0
    L = max(1, levels_needed + 1)
    s = [s0, delta]
    for ell in range(2, L):
        s.append(float(model.link_inv(phi_delta + (ell - 1) * epsilon)))
    if L >= 2:
        s.append(1.0)
    else:
        s[-1] = 1.0  # delta == 1: degenerate single band
    return s
