"""Exact entropy, mutual information, and information-ratio computations.

Everything here is finite summation in nats; there is no sampling or
estimation. The one-step Thompson sampling ratio follows the decomposition
I(theta~*; (theta~, Y)) = sum_i P(theta~ = theta_i) I(theta~*; Y_{alpha(theta_i)}),
with the squared one-step expected regret in the numerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from .inference import BeliefState
from .model import BanditInstance, outcome_support
from .tolerances import CELL_MASS_TOL, DENOMINATOR_TOL, INPUT_PMF_TOL, NUMERATOR_TOL

if TYPE_CHECKING:  # pragma: no cover
    from .compression import Partition, Representation


class InvalidPmf(ValueError):
    pass


class DegenerateInformation(ArithmeticError):
    """Positive regret with zero information gain: mathematically impossible."""


class InconsistentRepresentation(ValueError):
    """Representation cell masses disagree with the supplied belief."""


@dataclass(frozen=True)
class InfoRatioReport:
    numerator: float
    denominator: float
    ratio: float
    degenerate: bool


def _checked_input_pmf(p: NDArray, ndim: int) -> NDArray:
    """``p`` as a float array, checked to be a non-empty ``ndim``-D pmf to
    ``INPUT_PMF_TOL``."""
    p = np.asarray(p, dtype=float)
    if p.ndim != ndim or p.size < 1 or np.any(p < -INPUT_PMF_TOL):
        raise InvalidPmf(f"need a non-negative {ndim}-D pmf")
    if abs(p.sum() - 1.0) > INPUT_PMF_TOL:
        raise InvalidPmf(f"pmf sums to {p.sum()!r}, not 1")
    return p


def entropy(p: NDArray) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    p = _checked_input_pmf(p, 1)
    pos = p[p > 0.0]
    # + 0.0 turns the -0.0 of a point mass into 0.0 and changes nothing else
    return float(-(pos * np.log(pos)).sum() + 0.0)


def mutual_information(joint: NDArray) -> float:
    """Mutual information of a joint pmf given as a 2-D array, in nats."""
    j = np.clip(_checked_input_pmf(joint, 2), 0.0, None)
    pu = j.sum(axis=1)
    pv = j.sum(axis=0)
    outer = pu[:, None] * pv[None, :]
    mask = j > 0.0
    total = float((j[mask] * np.log(j[mask] / outer[mask])).sum())
    return max(total, 0.0)


def _mi_rows(weights: NDArray, rows: NDArray) -> float:
    """MI of the joint weights[i] * rows[i, y], assuming valid inputs."""
    marginal = weights @ rows
    mask = (rows > 0.0) & (weights[:, None] > 0.0) & (marginal[None, :] > 0.0)
    ratio = np.ones_like(rows)
    np.divide(rows, marginal[None, :], out=ratio, where=mask)
    terms = weights[:, None] * rows * np.log(ratio, where=mask, out=np.zeros_like(rows))
    return max(float(terms[mask].sum()), 0.0)


def action_information(
    instance: BanditInstance, belief: BeliefState, action_idx: int
) -> float:
    """I(theta*; Y_a) under the belief, by exact summation."""
    _, probs = outcome_support(instance, action_idx)
    return _mi_rows(belief.probs, probs)


def _ratio_report(numerator: float, denominator: float) -> InfoRatioReport:
    if denominator <= DENOMINATOR_TOL:
        if numerator > NUMERATOR_TOL:
            raise DegenerateInformation(
                f"numerator {numerator!r} with denominator {denominator!r}"
            )
        return InfoRatioReport(numerator, denominator, 0.0, True)
    return InfoRatioReport(numerator, denominator, numerator / denominator, False)


def ts_expected_regret(instance: BanditInstance, belief: BeliefState) -> float:
    """Exact one-step expected regret of vanilla Thompson sampling at a belief."""
    p = belief.probs
    mu = instance.mu
    astar = instance.astar
    e_star = float(p @ mu[np.arange(mu.shape[0]), astar])
    mean_rewards = p @ mu  # E[R_a] for every action
    e_ts = float(p @ mean_rewards[astar])
    return e_star - e_ts


def ts_info_ratio(instance: BanditInstance, belief: BeliefState) -> InfoRatioReport:
    """One-step information ratio of vanilla Thompson sampling at a belief."""
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


def info_gain_about_statistic(
    instance: BanditInstance,
    belief: BeliefState,
    partition: "Partition",
    action_idx: int,
) -> float:
    """I(psi; Y_a): information one action's outcome carries about the cell index.

    The joint pmf of (cell, outcome) is scattered from the action's two-point
    ``OutcomeTable``: only the 2m possibly nonzero terms, added in parameter
    order as a dense scatter of ``outcome_support`` would add them.
    """
    table = instance.outcome_table(action_idx)
    joint = np.zeros((partition.K, table.values.size))
    np.add.at(
        joint,
        (partition.cell_of[:, None], table.idx),
        belief.probs[:, None] * table.w,
    )
    return mutual_information(joint)


def _checked_cell_mass(belief: BeliefState, representation: "Representation") -> NDArray:
    """The belief's pushforward onto cells, checked against the representation's
    stored ``cell_mass`` to ``CELL_MASS_TOL``."""
    part = representation.partition
    mass = np.bincount(part.cell_of, weights=belief.probs, minlength=part.K)
    if np.max(np.abs(mass - representation.cell_mass)) > CELL_MASS_TOL:
        raise InconsistentRepresentation(
            "cell masses do not match the belief pushforward"
        )
    return mass


def _representation_support(
    belief: BeliefState, representation: "Representation"
) -> tuple[list[tuple[int, int, float]], NDArray]:
    """Positive-probability representative values as (param_idx, cell, q) triples."""
    mass = _checked_cell_mass(belief, representation)
    support: list[tuple[int, int, float]] = []
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


def compressed_moments(
    instance: BanditInstance,
    belief: BeliefState,
    representation: "Representation",
) -> tuple[float, float]:
    """Signed one-step expected regret and information gain of compressed TS.

    Returns ``(diff, info)`` where ``diff = E[R_{alpha(theta~*)}] -
    E[R_{alpha(theta~)}]`` and ``info = I(theta~*; (theta~, Y_{alpha(theta~)}))``,
    both exact at the given belief.
    """
    part = representation.partition
    p = belief.probs
    support, mass = _representation_support(belief, representation)
    mu = instance.mu
    mean_rewards = p @ mu

    # conditional parameter weights per cell: P(theta* = . | psi = k)
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


def compressed_info_ratio(
    instance: BanditInstance,
    belief: BeliefState,
    representation: "Representation",
) -> InfoRatioReport:
    """One-step information ratio of compressed Thompson sampling at a belief."""
    diff, info = compressed_moments(instance, belief, representation)
    return _ratio_report(diff * diff, info)
