"""Exact entropy, mutual information, and information-ratio computations.

Everything here is finite summation in nats; there is no sampling or
estimation. The one-step Thompson sampling ratio follows the decomposition
I(theta~*; (theta~, Y)) = sum_i P(theta~ = theta_i) I(theta~*; Y_{alpha(theta_i)}),
with the squared one-step expected regret in the numerator.

Every mutual information here comes from one private kernel,
``_grouped_mi``, which takes the joints of many (belief, action) pairs as
flat entries built from two-point outcome pmfs (``model.two_point_outcomes``,
read as rows of ``BanditInstance.outcomes`` for the realized actions) and
returns one MI per joint, from one formula over the joints' positive cells
that takes logs apart where the marginals' product underflows, so it stays
finite at saturated logistic beta.
The public functions, and ``compression.build_representation``, are
one-belief calls of the same code that the batched audit
(``policy.audit_regret_chain``) runs on a matrix of belief rows. Every
per-row quantity of that code is batch-invariant: row ``r`` of a batched
call equals the one-row call on that row bit for bit, whatever the other
rows are. The mean rewards of the rows come from one one-row product per row
(``_row_products``), not from one matrix product over all rows, which BLAS
may add in another order, and each sum over a row's terms runs over that
row's own terms only. A row of per-action terms has one entry per realized
action, at its slot (``BanditInstance.slots``): its column in ``realized``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from .inference import BeliefState
from .model import BanditInstance, two_point_outcomes
# outcome_support stays importable from here for code that traces or patches it by name
from .model import outcome_support  # noqa: F401
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


def _grouped_mi(group, label, outcome, weight, n_groups: int) -> NDArray:
    """Mutual information of ``n_groups`` joint pmfs at once, in nats.

    Entry ``e`` puts ``weight[e]`` on cell ``(label[e], outcome[e])`` of the
    joint pmf of group ``group[e]``; the four arguments broadcast together,
    labels and outcomes are non-negative integer codes, and entries sharing a
    cell add up in entry order. Each group's masses must be non-negative and
    sum to 1 within ``INPUT_PMF_TOL``.
    The positive cells are found by a bincount over the dense (group, label,
    outcome) index when that index is small, as for the binary models' two
    shared outcomes, and by sorting the entries' cells otherwise, as for
    glm's merged supports. Both give the same cells in index order with the
    same masses, and one formula takes every MI from them, adding each sum in
    cell order. A cell whose marginals' product is below the smallest normal
    float (it has lost bits or reads 0) takes log(joint) - log(p_row) -
    log(p_col) as its log ratio. Returns each group's MI, clipped at 0.
    """
    n_labels = int(np.max(label)) + 1
    n_outcomes = int(np.max(outcome)) + 1
    key = (np.asarray(group) * n_labels + label) * n_outcomes + outcome
    key, weight = (np.ravel(a) for a in np.broadcast_arrays(key, weight))
    size = n_groups * n_labels * n_outcomes
    # NaN is kept as a cell, so the mass check sees it
    if size <= _DENSE_CELLS_PER_ENTRY * key.size:
        joint = np.bincount(key, weights=weight, minlength=size)
        cells = np.flatnonzero(~(joint <= 0.0))
        joint = joint[cells]
    else:
        keep = ~(weight <= 0.0)
        cells, inverse = np.unique(key[keep], return_inverse=True)
        joint = np.bincount(inverse, weights=weight[keep])
    row = cells // n_outcomes  # (group, label) code
    cell_group = row // n_labels
    col = cell_group * n_outcomes + cells % n_outcomes  # (group, outcome) code
    total = np.bincount(cell_group, weights=joint, minlength=n_groups)
    off = ~(np.abs(total - 1.0) <= INPUT_PMF_TOL)  # NaN is off
    if off.any():
        raise InvalidPmf(f"pmf sums to {total[off][0]!r}, not 1")
    p_row = np.bincount(row, weights=joint)[row]
    p_col = np.bincount(col, weights=joint)[col]
    outer = p_row * p_col
    tiny = np.finfo(float).tiny
    terms = joint * np.log(joint / np.maximum(outer, tiny))
    low = outer < tiny
    if low.any():
        terms[low] = joint[low] * (np.log(joint[low]) - np.log(p_row[low]) - np.log(p_col[low]))
    return np.maximum(np.bincount(cell_group, weights=terms, minlength=n_groups), 0.0)


# ``_grouped_mi`` finds the positive cells by a bincount over the dense
# (group, label, outcome) index when it has at most this many cells per entry,
# and by sorting the entries' cells otherwise. The MI formula is the same
# either way, so the switch changes only speed. Timed for finding cells alone
# (BENCH_12.json), the bincount was as fast as or faster than sorting at every
# ratio tried, 0.26 to 8 cells per entry; nothing above 8 was timed, so the
# crossover is unknown. The binary models' joints have at most 1 cell per
# entry and the audit-glm workload's glm joints 18 to 70, so on these any
# value from 1 to 8 picks the same way as this one
_DENSE_CELLS_PER_ENTRY = 2


def _outcome_information(idx: NDArray, w: NDArray, weight: NDArray, label: NDArray) -> NDArray:
    """I(L; Y_a) for every row of ``weight`` and every action row, as ``(runs, A)``.

    Row ``r``'s joint of (L, Y_a) puts ``weight[r, i, j] * w[s, i, k]`` on
    (``label[i, j]``, ``idx[s, i, k]``) for every positive ``weight[r, i, j]``
    and ``k = 0, 1``, where ``weight`` has shape ``(runs, m, J)``, ``label``
    broadcasts to ``(m, J)`` and ``idx``, ``w`` hold the two-point outcome
    pmfs of A actions (``two_point_outcomes``). The joints go through one
    ``_grouped_mi`` call per block of actions, a block holding at most
    ``_ENTRIES_PER_CALL`` entries (or one action), which bounds the memory
    the kernel's temporaries take.
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
    means = instance.mean_rewards(np.arange(instance.n_params), action_idx)
    idx, w = two_point_outcomes(instance.model, means[None])
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


def _row_products(probs: NDArray, table: NDArray) -> NDArray:
    """``probs @ table`` for a ``(runs, m)`` belief matrix, as one one-row
    product per row: row ``r`` is ``probs[r][None] @ table`` bit for bit,
    whatever the other rows are. A single product over all rows would let
    BLAS add a many-row product in another order than a one-row one."""
    return np.matmul(probs[:, None, :], table)[:, 0]


def _ts_regret_rows(instance: BanditInstance, probs: NDArray, mean_rewards: NDArray) -> NDArray:
    """One-step expected regret of vanilla TS at each row of a ``(runs, m)``
    belief matrix, given the rows' ``_row_products`` of the instance's
    ``realized`` means. Row ``r`` does not depend on the other rows."""
    best = instance.slots[1]
    e_star = _row_products(probs, instance.realized[np.arange(instance.n_params), best])
    # the gather of a many-row matrix comes out column-major, and einsum adds
    # a column-major row in another order than a one-row one
    e_ts = np.einsum("ri,ri->r", probs, np.ascontiguousarray(mean_rewards[:, best]))
    return e_star - e_ts


def ts_expected_regret(instance: BanditInstance, belief: BeliefState) -> float:
    """Exact one-step expected regret of vanilla Thompson sampling at a belief."""
    p = belief.probs[None]
    return float(_ts_regret_rows(instance, p, _row_products(p, instance.realized))[0])


def ts_info_ratio(instance: BanditInstance, belief: BeliefState) -> InfoRatioReport:
    """One-step information ratio of vanilla Thompson sampling at a belief.

    The denominator sum_a P(alpha(theta) = a) I(theta*; Y_a) takes the
    belief's mass on each realized action's slot from one ``bincount`` and
    the information of every slot with positive mass from one
    ``_grouped_mi`` call over those rows of the instance's outcome table.
    """
    p = belief.probs
    diff = ts_expected_regret(instance, belief)
    slot_mass = np.bincount(instance.slots[1], weights=p)
    played = np.flatnonzero(slot_mass > 0.0)
    idx, w = instance.outcomes
    labels = np.arange(p.size)[:, None]
    info = _outcome_information(idx[played], w[played], p[None, :, None], labels)[0]
    # slots, so actions, added in increasing order
    denominator = float(np.cumsum(slot_mass[played] * info)[-1])
    return _ratio_report(diff * diff, denominator)


def info_gain_about_statistic(
    instance: BanditInstance,
    belief: BeliefState,
    partition: "Partition",
    action_idx: int,
) -> float:
    """I(psi; Y_a): information one action's outcome carries about the cell index.

    The (cell, outcome) joint is built from the action's two-point pmfs
    (``two_point_outcomes``), only its 2m possibly nonzero terms, added in
    parameter order.
    """
    means = instance.mean_rewards(np.arange(instance.n_params), action_idx)
    idx, w = two_point_outcomes(instance.model, means[None])
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
) -> tuple[NDArray, NDArray]:
    """``compressed_moments`` at each row of a ``(runs, m)`` belief matrix.

    ``mean_rewards`` is ``_row_products`` of the ``realized`` means, ``mass``
    holds each row's cell masses ``(runs, K)`` and ``atom_param``, ``atom_q`` its
    representative values ``(runs, K, 2)`` from ``_representative_atoms``.
    The outcome pmfs are the rows of the instance's outcome table that a
    representative value with positive probability plays.
    """
    runs = probs.shape[0]
    # every positive belief entry (run, theta_i) with P(theta* = i | psi = cell)
    run, param = np.nonzero(probs > 0.0)
    cell = cell_of[param]
    cond = probs[run, param] / mass[run, cell]
    # the two representative values of the entry's cell: probabilities, and
    # the slots of their best actions
    q = atom_q[run, cell]
    played = instance.slots[1][atom_param]
    col = played[run, cell]
    # diff = sum over values v of q_v (E[R_a(v) | psi = cell(v)] - E[R_a(v)])
    gap = instance.realized[param[:, None], col] - mean_rewards[run[:, None], col]
    diff = np.bincount(run, weights=(cond[:, None] * q * gap).sum(axis=1), minlength=runs)

    # I(theta~*; Y_a) for every run and every action a representative plays,
    # from the joint of (representative value, outcome): the value in slot j
    # of cell k puts q * P(theta* = i | psi = k) * P(y | a, theta_i) on y
    idx, w = instance.outcomes
    n_rows = idx.shape[0]
    atom_group = np.arange(runs)[:, None, None] * n_rows + played
    weight = np.bincount(
        atom_group.ravel(), weights=atom_q.ravel(), minlength=runs * n_rows
    ).reshape(runs, n_rows)
    used = np.flatnonzero(weight.any(axis=0))
    value_mass = np.zeros(probs.shape + (2,))
    value_mass[run, param] = q * cond[:, None]
    info = _outcome_information(idx[used], w[used], value_mass, 2 * cell_of[:, None] + np.arange(2))
    # a row sums over its own actions only, as a one-row call does: the zero
    # terms of actions that only other rows play would regroup numpy's
    # pairwise sum
    rows = zip(weight[:, used], info)
    return diff, np.array([(row * gains)[row != 0.0].sum() for row, gains in rows])


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
    p = belief.probs[None]
    diff, info = _compressed_rows(
        instance, p, _row_products(p, instance.realized), representation.partition.cell_of,
        mass[None], atom_param[None], atom_q[None],
    )
    return float(diff[0]), float(info[0])


def _cell_masses_and_gains(
    instance: BanditInstance, probs: NDArray, partition: "Partition"
) -> tuple[NDArray, NDArray]:
    """The cell masses ``(runs, K)`` of each row of a ``(runs, m)`` belief
    matrix, and I(psi; Y_a) ``(runs, R)`` for every row and every realized
    action, by slot, the latter from one grouped call over the instance's
    outcome table."""
    runs, K = probs.shape[0], partition.K
    run_cell = (np.arange(runs)[:, None] * K + partition.cell_of).ravel()
    mass = np.bincount(run_cell, weights=probs.ravel(), minlength=runs * K).reshape(runs, K)
    idx, w = instance.outcomes
    return mass, _outcome_information(idx, w, probs[:, :, None], partition.cell_of[:, None])


def _chain_terms(instance: BanditInstance, partition: "Partition"):
    """The per-period terms of the compressed-regret chain, for many beliefs.

    Returns a function of a ``(runs, m)`` belief matrix that gives, per row,
    ``(regret, diff, info_compressed, info_psi_compressed, info_psi_ts,
    cell_mass)``: the one-step TS regret, ``compressed_moments`` of the row's
    ``build_representation``, I(psi; Y_a) summed under the representative's
    and under TS's action probabilities, and the cell masses ``(runs, K)``.
    The masses, gains and representatives of all rows come from the code
    that ``build_representation`` runs on one row, and the compressed
    information of all rows from one more grouped call. Each row's terms are
    those of the one-row call on it, bit for bit, so a caller may evaluate a
    distinct row once and share its terms.
    """
    # compression imports this module, so it is imported on use
    from .compression import _representative_pairs

    best = instance.slots[1]

    def terms(probs: NDArray) -> tuple[NDArray, ...]:
        runs = probs.shape[0]
        mean_rewards = _row_products(probs, instance.realized)
        regret = _ts_regret_rows(instance, probs, mean_rewards)
        mass, gain = _cell_masses_and_gains(instance, probs, partition)
        pairs = _representative_pairs(instance, probs, mean_rewards, partition, mass, gain)
        atom_param, atom_q = _representative_atoms(*pairs, mass)
        diff, info_comp = _compressed_rows(
            instance, probs, mean_rewards, partition.cell_of, mass, atom_param, atom_q
        )
        info_psi_ts = (probs * gain[:, best]).sum(axis=1)
        rep_gain = gain[np.arange(runs)[:, None, None], best[atom_param]]
        info_psi_comp = (atom_q * rep_gain).sum(axis=(1, 2))
        return regret, diff, info_comp, info_psi_comp, info_psi_ts, mass

    return terms

