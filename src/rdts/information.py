"""Exact entropy, mutual information, and information-ratio computations.

Everything here is finite summation in nats; there is no sampling or
estimation. The one-step Thompson sampling ratio follows the decomposition
I(theta~*; (theta~, Y)) = sum_i P(theta~ = theta_i) I(theta~*; Y_{alpha(theta_i)}),
with the squared one-step expected regret in the numerator.

Every mutual information here comes from one private kernel,
``_grouped_mi``, which takes the joints of many (belief, action) pairs as
flat entries built from the instances' cached two-point ``OutcomeTable``
arrays and returns one MI per joint. The public functions are one-belief
calls of the same code that the batched audit (``policy.audit_regret_chain``)
runs on all of its runs at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from .inference import BeliefState
# outcome_support stays importable from here for code that traces or patches it by name
from .model import BanditInstance, outcome_support, two_point_outcomes  # noqa: F401
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
    if not abs(p.sum() - 1.0) <= INPUT_PMF_TOL:  # NaN fails
        raise InvalidPmf(f"pmf sums to {p.sum()!r}, not 1")
    return p


def entropy(p: NDArray) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    p = _checked_input_pmf(p, 1)
    pos = p[p > 0.0]
    # a point mass summed to 1 + 2**-52 gives -2.2e-16, which is clipped to
    # 0; + 0.0 turns the -0.0 of a point mass into 0.0 and changes nothing else
    return float(max(-(pos * np.log(pos)).sum(), 0.0) + 0.0)


def mutual_information(joint: NDArray) -> float:
    """Mutual information of a joint pmf given as a 2-D array, in nats."""
    j = _checked_input_pmf(joint, 2)
    rows, cols = np.indices(j.shape)
    return float(_grouped_mi(0, rows, cols, j, 1)[0])


def _grouped_mi(group, label, outcome, weight, n_groups: int) -> NDArray:
    """Mutual information of ``n_groups`` joint pmfs at once, in nats.

    Entry ``e`` puts ``weight[e]`` on cell ``(label[e], outcome[e])`` of the
    joint pmf of group ``group[e]``; the four arguments broadcast together,
    labels and outcomes are non-negative integer codes, and entries sharing a
    cell add up in entry order. Each group's masses must be non-negative and
    sum to 1 within ``INPUT_PMF_TOL``, as ``mutual_information`` requires.
    Cells are merged by a bincount over the dense (group, label, outcome)
    index when that index is small, as for the binary models' two shared
    outcomes, and over the sorted distinct cells otherwise, as for glm's
    merged supports. Both ways add every sum in index order, so they return
    the same floats. Returns each group's MI, clipped at 0.
    """
    n_labels = int(np.max(label)) + 1
    n_outcomes = int(np.max(outcome)) + 1
    key = (np.asarray(group) * n_labels + label) * n_outcomes + outcome
    key, weight = (np.ravel(a) for a in np.broadcast_arrays(key, weight))
    if weight.size and weight.min() < 0.0:
        if weight.min() < -INPUT_PMF_TOL:
            raise InvalidPmf("need a non-negative joint pmf")
        weight = np.maximum(weight, 0.0)
    size = n_groups * n_labels * n_outcomes
    if size <= _DENSE_CELLS_PER_ENTRY * key.size:
        joint = np.bincount(key, weights=weight, minlength=size)
        joint = joint.reshape(n_groups, n_labels, n_outcomes)
        _check_group_mass(joint.reshape(n_groups, -1).sum(axis=1))
        return _dense_mi(joint)
    keep = ~(weight <= 0.0)  # NaN is kept, so the mass check sees it
    cells, inverse = np.unique(key[keep], return_inverse=True)
    joint = np.bincount(inverse, weights=weight[keep])
    row = cells // n_outcomes  # (group, label) code
    cell_group = row // n_labels
    col = cell_group * n_outcomes + cells % n_outcomes  # (group, outcome) code
    _check_group_mass(np.bincount(cell_group, weights=joint, minlength=n_groups))
    p_row = np.bincount(row, weights=joint)[row]
    p_col = np.bincount(col, weights=joint)[col]
    terms = joint * np.log(joint / (p_row * p_col))
    return np.maximum(np.bincount(cell_group, weights=terms, minlength=n_groups), 0.0)


def _check_group_mass(total: NDArray) -> None:
    off = ~(np.abs(total - 1.0) <= INPUT_PMF_TOL)  # NaN is off
    if off.any():
        raise InvalidPmf(f"pmf sums to {total[off][0]!r}, not 1")


# ``_grouped_mi`` scatters into the dense (group, label, outcome) index when
# it has at most this many cells per entry. Timed on 108 joints of 140 entries
# each (BENCH_7.json), the dense merge is 6x faster than the sorted one at 0.26
# cells per entry and 1.3x at 1, even at 2, and 1.6x or more slower from 4 on.
# The binary models' joints have at most 1, glm's usually far more than 2
_DENSE_CELLS_PER_ENTRY = 2


def _dense_mi(joint: NDArray) -> NDArray:
    """MI of each ``(labels, outcomes)`` slice of a ``(groups, labels,
    outcomes)`` joint, clipped at 0. Every sum is a cumulative sum in index
    order, which adds the positive cells in the order the sparse path of
    ``_grouped_mi`` adds them, so both return the same floats."""
    p_row = joint[:, :, :1]
    for y in range(1, joint.shape[2]):  # few outcomes: slices beat a cumsum
        p_row = p_row + joint[:, :, y : y + 1]
    p_col = np.cumsum(joint, axis=1)[:, -1:, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = joint * np.log(joint / (p_row * p_col))
    terms = np.where(joint > 0.0, terms, 0.0)
    return np.maximum(np.cumsum(terms.reshape(joint.shape[0], -1), axis=1)[:, -1], 0.0)


def _outcome_information(idx: NDArray, w: NDArray, weight: NDArray, label: NDArray) -> NDArray:
    """I(L; Y_a) for every row of ``weight`` and every stacked action, as ``(runs, A)``.

    Row ``r``'s joint of (L, Y_a) puts ``weight[r, i, j] * w[s, i, k]`` on
    (``label[i, j]``, ``idx[s, i, k]``) for every positive ``weight[r, i, j]``
    and ``k = 0, 1``, where ``weight`` has shape ``(runs, m, J)``, ``label``
    broadcasts to ``(m, J)`` and ``idx``, ``w`` are stacked outcome tables
    (``two_point_outcomes``). The joints go through one ``_grouped_mi`` call
    per block of actions, a block holding at most ``_ENTRIES_PER_CALL``
    entries (or one action), which bounds the memory the kernel's
    temporaries take.
    """
    runs, n_actions = weight.shape[0], idx.shape[0]
    run, param, j = np.nonzero(weight > 0.0)
    mass = weight[run, param, j]
    label = np.broadcast_to(label, weight.shape[1:])[param, j]
    step = max(1, _ENTRIES_PER_CALL // (2 * max(1, param.size)))
    mi = np.empty((runs, n_actions))
    for lo in range(0, n_actions, step):
        block = np.arange(lo, min(lo + step, n_actions))
        group = run[None, :, None] * block.size + np.arange(block.size)[:, None, None]
        mi[:, block] = _grouped_mi(
            group, label[None, :, None], idx[block][:, param],
            mass[None, :, None] * w[block][:, param], runs * block.size,
        ).reshape(runs, block.size)
    return mi


# ``_outcome_information`` hands ``_grouped_mi`` at most this many entries at
# once, unless one action alone has more
_ENTRIES_PER_CALL = 4096


def action_information(
    instance: BanditInstance, belief: BeliefState, action_idx: int
) -> float:
    """I(theta*; Y_a) under the belief, by exact summation."""
    idx, _, w = two_point_outcomes(instance, [action_idx])
    labels = np.arange(instance.n_params)[:, None]
    return float(_outcome_information(idx, w, belief.probs[None, :, None], labels)[0, 0])


def _ratio_report(numerator: float, denominator: float) -> InfoRatioReport:
    if denominator <= DENOMINATOR_TOL:
        if numerator > NUMERATOR_TOL:
            raise DegenerateInformation(
                f"numerator {numerator!r} with denominator {denominator!r}"
            )
        return InfoRatioReport(numerator, denominator, 0.0, True)
    return InfoRatioReport(numerator, denominator, numerator / denominator, False)


def _ts_regret_rows(instance: BanditInstance, probs: NDArray, mean_rewards: NDArray) -> NDArray:
    """One-step expected regret of vanilla TS at each row of a ``(runs, m)``
    belief matrix, given the rows' mean rewards ``probs @ instance.mu``."""
    e_star = probs @ instance.mu[np.arange(instance.n_params), instance.astar]
    e_ts = np.einsum("ri,ri->r", probs, mean_rewards[:, instance.astar])
    return e_star - e_ts


def ts_expected_regret(instance: BanditInstance, belief: BeliefState) -> float:
    """Exact one-step expected regret of vanilla Thompson sampling at a belief."""
    p = belief.probs[None]
    return float(_ts_regret_rows(instance, p, p @ instance.mu)[0])


def ts_info_ratio(instance: BanditInstance, belief: BeliefState) -> InfoRatioReport:
    """One-step information ratio of vanilla Thompson sampling at a belief.

    The denominator sum_a P(alpha(theta) = a) I(theta*; Y_a) takes the
    information of every realized action with positive mass from one
    ``_grouped_mi`` call.
    """
    p = belief.probs
    diff = ts_expected_regret(instance, belief)
    action_mass = np.bincount(instance.astar, weights=p, minlength=instance.n_actions)
    played = np.flatnonzero(action_mass > 0.0)
    idx, _, w = two_point_outcomes(instance, played)
    info = _outcome_information(idx, w, p[None, :, None], np.arange(p.size)[:, None])[0]
    # actions added in index order
    denominator = float(np.cumsum(action_mass[played] * info)[-1])
    return _ratio_report(diff * diff, denominator)


def info_gain_about_statistic(
    instance: BanditInstance,
    belief: BeliefState,
    partition: "Partition",
    action_idx: int,
) -> float:
    """I(psi; Y_a): information one action's outcome carries about the cell index.

    The (cell, outcome) joint is built from the action's two-point
    ``OutcomeTable``, only its 2m possibly nonzero terms, added in parameter
    order.
    """
    idx, _, w = two_point_outcomes(instance, [action_idx])
    labels = partition.cell_of[:, None]
    return float(_outcome_information(idx, w, belief.probs[None, :, None], labels)[0, 0])


def _checked_cell_mass(belief: BeliefState, representation: "Representation") -> NDArray:
    """The belief's pushforward onto cells, checked against the representation's
    stored ``cell_mass`` to ``CELL_MASS_TOL``."""
    part = representation.partition
    mass = np.bincount(part.cell_of, weights=belief.probs, minlength=part.K)
    if not np.max(np.abs(mass - representation.cell_mass)) <= CELL_MASS_TOL:  # NaN fails
        raise InconsistentRepresentation(
            "cell masses do not match the belief pushforward"
        )
    return mass


def _representative_atoms(
    i1: NDArray, i2: NDArray, r: NDArray, mass: NDArray
) -> tuple[NDArray, NDArray]:
    """Each cell's representative values as two slots, ``(param, q)`` of
    shape ``(..., K, 2)``, from the cells' pairs ``(i1, i2, r)``: slot 0 is
    theta_{i1} with probability mass * r (the whole mass when i1 == i2),
    slot 1 is theta_{i2} with mass * (1 - r). A zero-mass cell has
    probability 0 in both slots."""
    single = i1 == i2
    q = np.stack(
        [np.where(single, mass, mass * r), np.where(single, 0.0, mass * (1.0 - r))], axis=-1
    )
    q[mass <= 0.0] = 0.0
    return np.stack([i1, i2], axis=-1), q


def _compressed_rows(
    instance: BanditInstance,
    probs: NDArray,
    mean_rewards: NDArray,
    cell_of: NDArray,
    mass: NDArray,
    atom_param: NDArray,
    atom_q: NDArray,
    idx: NDArray,
    w: NDArray,
    slot: NDArray,
) -> tuple[NDArray, NDArray]:
    """``compressed_moments`` at each row of a ``(runs, m)`` belief matrix.

    ``mean_rewards`` is ``probs @ instance.mu``, ``mass`` holds each row's
    cell masses ``(runs, K)`` and ``atom_param``, ``atom_q`` its
    representative values ``(runs, K, 2)`` from ``_representative_atoms``.
    ``idx`` and ``w`` are stacked outcome tables (``two_point_outcomes``) and
    ``slot[a]`` is the stacked row of action ``a``, for every action a
    representative value with positive probability plays.
    """
    runs = probs.shape[0]
    # every positive belief entry (run, theta_i) with P(theta* = i | psi = cell)
    run, param = np.nonzero(probs > 0.0)
    cell = cell_of[param]
    cond = probs[run, param] / mass[run, cell]
    # the two representative values of the entry's cell: probabilities, actions
    q = atom_q[run, cell]
    action = instance.astar[atom_param[run, cell]]
    # diff = sum over values v of q_v (E[R_a(v) | psi = cell(v)] - E[R_a(v)])
    gap = instance.mu[param[:, None], action] - mean_rewards[run[:, None], action]
    diff = np.bincount(run, weights=(cond[:, None] * q * gap).sum(axis=1), minlength=runs)

    # I(theta~*; Y_a) for every run and every action a representative plays,
    # from the joint of (representative value, outcome): the value in slot j
    # of cell k puts q * P(theta* = i | psi = k) * P(y | a, theta_i) on y
    n_stacked = idx.shape[0]
    atom_group = np.arange(runs)[:, None, None] * n_stacked + slot[instance.astar[atom_param]]
    weight = np.bincount(
        atom_group.ravel(), weights=atom_q.ravel(), minlength=runs * n_stacked
    ).reshape(runs, n_stacked)
    used = np.flatnonzero(weight.any(axis=0))
    value_mass = np.zeros(probs.shape + (2,))
    value_mass[run, param] = q * cond[:, None]
    info = _outcome_information(idx[used], w[used], value_mass, 2 * cell_of[:, None] + np.arange(2))
    return diff, (weight[:, used] * info).sum(axis=1)


def compressed_moments(
    instance: BanditInstance,
    belief: BeliefState,
    representation: "Representation",
) -> tuple[float, float]:
    """Signed one-step expected regret and information gain of compressed TS.

    Returns ``(diff, info)`` where ``diff = E[R_{alpha(theta~*)}] -
    E[R_{alpha(theta~)}]`` and ``info = I(theta~*; (theta~, Y_{alpha(theta~)}))``,
    both exact at the given belief.

    ``info`` is sum_a P(alpha(theta~) = a) I(theta~*; Y_a), each term the MI
    of the joint of (representative value, outcome), never a reweighting of
    the I(psi; Y_a) gains. A representative value lies in its cell, so
    theta~* determines psi, while the outcome given theta~* = v depends only
    on v's cell; hence I(theta~*; Y_a) = I(psi; Y_a) in exact arithmetic, and
    the audit's ``data_processing_rep`` check compares two separately
    computed sums that must agree to rounding.
    """
    mass = _checked_cell_mass(belief, representation)
    i1, i2, r = (np.array(col) for col in zip(*representation.cells))
    atom_param, atom_q = _representative_atoms(i1, i2, r, mass)
    actions = np.unique(instance.astar[atom_param[atom_q > 0.0]])
    idx, _, w = two_point_outcomes(instance, actions)
    slot = np.zeros(instance.n_actions, dtype=np.intp)
    slot[actions] = np.arange(actions.size)
    p = belief.probs[None]
    diff, info = _compressed_rows(
        instance, p, p @ instance.mu, representation.partition.cell_of, mass[None],
        atom_param[None], atom_q[None], idx, w, slot,
    )
    return float(diff[0]), float(info[0])


def _chain_terms(instance: BanditInstance, partition: "Partition"):
    """The per-period terms of the compressed-regret chain, for many beliefs.

    Returns a function of a ``(runs, m)`` belief matrix that gives, per row,
    ``(regret, diff, info_compressed, info_psi_compressed, info_psi_ts,
    cell_mass)``: the one-step TS regret, ``compressed_moments`` of the row's
    ``build_representation``, I(psi; Y_a) summed under the representative's
    and under TS's action probabilities, and the cell masses ``(runs, K)``.
    The outcome tables of every action a parameter plays are stacked once,
    and each call takes I(psi; Y_a) for all (row, action) pairs from one
    grouped call and the compressed information of all rows from another.
    """
    # compression imports this module, so it is imported on use
    from .compression import _representative_pairs

    realized = np.unique(instance.astar)
    idx, _, w = two_point_outcomes(instance, realized)
    slot = np.zeros(instance.n_actions, dtype=np.intp)
    slot[realized] = np.arange(realized.size)
    cell_of, K = partition.cell_of, partition.K

    def terms(probs: NDArray) -> tuple[NDArray, ...]:
        runs = probs.shape[0]
        mean_rewards = probs @ instance.mu
        regret = _ts_regret_rows(instance, probs, mean_rewards)
        run_cell = (np.arange(runs)[:, None] * K + cell_of).ravel()
        mass = np.bincount(run_cell, weights=probs.ravel(), minlength=runs * K).reshape(runs, K)
        # I(psi; Y_a) of every row and action, 0 for actions no parameter plays
        gain = np.zeros((runs, instance.n_actions))
        gain[:, realized] = _outcome_information(idx, w, probs[:, :, None], cell_of[:, None])
        pairs = [
            _representative_pairs(instance, probs[r], mean_rewards[r], partition, mass[r], gain[r])
            for r in range(runs)
        ]
        atom_param, atom_q = _representative_atoms(*map(np.stack, zip(*pairs)), mass)
        diff, info_comp = _compressed_rows(
            instance, probs, mean_rewards, cell_of, mass, atom_param, atom_q, idx, w, slot
        )
        info_psi_ts = (probs * gain[:, instance.astar]).sum(axis=1)
        rep_gain = gain[np.arange(runs)[:, None, None], instance.astar[atom_param]]
        info_psi_comp = (atom_q * rep_gain).sum(axis=(1, 2))
        return regret, diff, info_comp, info_psi_comp, info_psi_ts, mass

    return terms


def compressed_info_ratio(
    instance: BanditInstance,
    belief: BeliefState,
    representation: "Representation",
) -> InfoRatioReport:
    """One-step information ratio of compressed Thompson sampling at a belief."""
    diff, info = compressed_moments(instance, belief, representation)
    return _ratio_report(diff * diff, info)
