"""Distortion-bounded partitions of the parameter set and two-point representatives.

The distortion of theta with respect to theta' is the regret of playing
theta's best action when theta' is true. Partition builders group parameters
whose best actions are close (greedy epsilon-net covering of the realized
best-action set), certify the intra-cell distortion pairwise, and the
representation builder compresses each cell onto a two-point mixture whose
expected reward and information gain are no better than the cell average.

Certification reads one cell's distortion block at a time
(``distortion_block``), so it costs O(sum of |cell|^2) memory, not O(m^2);
only the brute-force oracle builds the full m x m ``distortion_matrix``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .bounds import EpsilonTooLarge, c_phi, ladder_start
from .inference import BeliefState
from .information import _outcome_information, entropy
from .model import GLM, LINEAR_BINARY, LOGISTIC, BanditInstance, two_point_outcomes
from .tolerances import CERT_TOL, INPUT_PMF_TOL, LADDER_TOL, MARGIN_TOL, PAIR_TOL, TIE_TOL

__all__ = [
    "Partition",
    "Representation",
    "distortion",
    "distortion_block",
    "distortion_matrix",
    "best_action_margins",
    "build_partition_linear",
    "build_partition_glm",
    "build_partition_logistic",
    "two_point_pair",
    "build_representation",
    "statistic_mutual_information",
    "rate_distortion_bruteforce",
    "InvalidEpsilon",
    "EpsilonTooLarge",
    "MarginViolated",
    "TooLarge",
    "Infeasible",
]


class InvalidEpsilon(ValueError):
    pass


class MarginViolated(ValueError):
    pass


class TooLarge(ValueError):
    pass


class Infeasible(ArithmeticError):
    """Two-point mixture search found no feasible pair: indicates a bug or NaNs."""


def _split_cells(cell_of: NDArray, K: int = 0) -> list[NDArray]:
    """Read-only member arrays of cells 0, 1, ..., max(K, max(cell_of) + 1) - 1,
    each in increasing index order (an unused cell number gets an empty one)."""
    counts = np.bincount(cell_of, minlength=K)
    # a stable sort keeps each cell's members in increasing index order
    order = np.argsort(cell_of, kind="stable")
    order.setflags(write=False)
    return np.split(order, np.cumsum(counts)[:-1])


@dataclass(frozen=True)
class Partition:
    """Assignment of each parameter to a cell with certified distortion <= epsilon."""

    cell_of: NDArray
    epsilon: float
    K: int
    _members: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells = np.asarray(self.cell_of, dtype=np.intp)
        object.__setattr__(self, "cell_of", cells)
        cells.setflags(write=False)
        members = _split_cells(cells, self.K)
        if len(members) != self.K or any(idx.size == 0 for idx in members):
            raise ValueError("cells must be exactly 0..K-1 and all non-empty")
        object.__setattr__(self, "_members", tuple(members))

    def members(self, k: int) -> NDArray:
        """Parameter indices of cell ``k`` in increasing order (read-only)."""
        return self._members[k]

    def to_json(self) -> str:
        return json.dumps(
            {"cell_of": self.cell_of.tolist(), "epsilon": self.epsilon, "K": self.K}
        )

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        doc = json.loads(text)
        return cls(
            cell_of=np.asarray(doc["cell_of"], dtype=np.intp),
            epsilon=float(doc["epsilon"]),
            K=int(doc["K"]),
        )


@dataclass(frozen=True)
class Representation:
    """Per-cell two-point mixture (idx1, idx2, r) with the cell-mass pmf."""

    partition: Partition
    cells: tuple[tuple[int, int, float], ...]
    cell_mass: NDArray

    def to_json(self) -> str:
        return json.dumps(
            {
                "partition": json.loads(self.partition.to_json()),
                "cells": [list(c) for c in self.cells],
                "cell_mass": self.cell_mass.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Representation":
        doc = json.loads(text)
        part = Partition(
            cell_of=np.asarray(doc["partition"]["cell_of"], dtype=np.intp),
            epsilon=float(doc["partition"]["epsilon"]),
            K=int(doc["partition"]["K"]),
        )
        cells = tuple((int(a), int(b), float(r)) for a, b, r in doc["cells"])
        return cls(
            partition=part, cells=cells, cell_mass=np.asarray(doc["cell_mass"])
        )


def distortion(instance: BanditInstance, i: int, j: int) -> float:
    """Regret of playing theta_i's best action when theta_j is true."""
    return float(
        instance.mu[j, instance.astar[j]] - instance.mu[j, instance.astar[i]]
    )


def distortion_block(instance: BanditInstance, idx: NDArray) -> NDArray:
    """``distortion_matrix(instance)[np.ix_(idx, idx)]``, bit for bit, from
    the |idx|^2 entries of ``mu`` it needs."""
    idx = np.asarray(idx, dtype=np.intp)
    mu = instance.mu
    played = instance.astar[idx]
    best = mu[idx, played]
    return (best[:, None] - mu[np.ix_(idx, played)]).T


def distortion_matrix(instance: BanditInstance) -> NDArray:
    """D[i, j] = distortion of theta_i with respect to theta_j (m x m)."""
    return distortion_block(instance, np.arange(instance.n_params))


def max_intra_cell_distortion(instance: BanditInstance, cell_of: NDArray, K: int) -> float:
    """Largest pairwise distortion within cells 0..K-1, one cell block at a time."""
    worst = 0.0
    for idx in _split_cells(cell_of, K)[:K]:
        if idx.size > 1:
            worst = max(worst, float(distortion_block(instance, idx).max()))
    return worst


def _greedy_cover(points: NDArray, radius: float) -> NDArray:
    """Greedy center-based covering: the lowest-index uncovered point becomes a
    center and takes every uncovered point within ``radius``. Returns each
    point's group index, groups numbered in the order they are made."""
    uncovered = np.ones(points.shape[0], dtype=bool)
    group = np.empty(points.shape[0], dtype=np.intp)
    count = 0
    while uncovered.any():
        center = points[np.argmax(uncovered)]
        taken = uncovered & (np.linalg.norm(points - center, axis=1) <= radius)
        group[taken] = count
        uncovered &= ~taken
        count += 1
    return group


def _cover_best_actions(
    instance: BanditInstance, astar: NDArray, radius: float
) -> tuple[NDArray, int]:
    """Greedy-cover the distinct actions in ``astar`` at center ``radius``.

    Returns the group index of each entry of ``astar`` and the number of
    groups.
    """
    realized, inverse = np.unique(astar, return_inverse=True)
    group = _greedy_cover(instance.actions[realized], radius)
    return group[inverse], int(group.max()) + 1


def _refine_certified(
    instance: BanditInstance, cell_of: NDArray, epsilon: float
) -> NDArray:
    """Split any cell whose pairwise distortion exceeds epsilon (safety net).

    The covering arguments certify the tolerance analytically, so this should
    never fire; it guarantees the constructed partition always carries a valid
    certificate regardless of floating-point edge cases.
    """
    limit = epsilon + CERT_TOL
    out = np.empty_like(cell_of)
    next_cell = 0
    for idx in _split_cells(cell_of):
        if idx.size == 0:
            continue
        block = distortion_block(instance, idx)
        if idx.size == 1 or block.max() <= limit:
            out[idx] = next_cell
            next_cell += 1
            continue
        # greedy re-split over local positions in the block: the lowest
        # remaining member seeds a cell that takes every later member within
        # epsilon of all its members, in both directions
        left = list(range(idx.size))
        while left:
            sub = [left[0]]
            for cand in left[1:]:
                if np.all(block[cand, sub] <= limit) and np.all(block[sub, cand] <= limit):
                    sub.append(cand)
            out[idx[sub]] = next_cell
            next_cell += 1
            taken = set(sub)
            left = [t for t in left if t not in taken]
    return out


def _finish_partition(
    instance: BanditInstance, cell_of: NDArray, epsilon: float
) -> Partition:
    cell_of = _refine_certified(instance, cell_of, epsilon)
    return Partition(cell_of=cell_of, epsilon=epsilon, K=int(cell_of.max()) + 1)


def _link_cover_partition(instance: BanditInstance, epsilon: float) -> Partition:
    """Greedy covering of the realized best-action set at center radius
    epsilon / (2 C(phi)); C(phi) = 1/2 makes the linear radius epsilon exactly."""
    radius = epsilon / (2.0 * realized_link_slope(instance))
    cell_of, _ = _cover_best_actions(instance, instance.astar, radius)
    return _finish_partition(instance, cell_of, epsilon)


def build_partition_linear(instance: BanditInstance, epsilon: float) -> Partition:
    """Greedy covering of the realized best-action set at center radius epsilon.

    Cell diameter <= 2 * epsilon in action space implies intra-cell distortion
    <= epsilon for the linear model (Cauchy-Schwarz with ||theta|| <= 1).
    """
    if not epsilon > 0.0:  # NaN fails
        raise InvalidEpsilon("epsilon must be positive")
    if instance.model.kind != LINEAR_BINARY:
        raise InvalidEpsilon("linear partition builder requires a linear_binary model")
    return _link_cover_partition(instance, epsilon)


def realized_link_slope(instance: BanditInstance) -> float:
    """C(phi): supremum of the link derivative over the realized inner products."""
    inner = instance.params @ instance.actions.T
    return c_phi(instance.model, float(inner.min()), float(inner.max()))


def build_partition_glm(instance: BanditInstance, epsilon: float) -> Partition:
    """Greedy covering at center radius epsilon / (2 C(phi)).

    Cell diameter <= epsilon / C(phi) in action space bounds the intra-cell
    distortion by epsilon through the link's Lipschitz constant.
    """
    if not epsilon > 0.0:  # NaN fails
        raise InvalidEpsilon("epsilon must be positive")
    if instance.model.kind not in (GLM, LOGISTIC):
        raise InvalidEpsilon("glm partition builder requires a glm or logistic model")
    return _link_cover_partition(instance, epsilon)


def best_action_margins(instance: BanditInstance) -> NDArray:
    """alpha(theta).theta for every parameter, from exact inner products
    rather than by inverting a link that may have saturated to 0 or 1."""
    return np.einsum("ij,ij->i", instance.params, instance.actions[instance.astar])


def logistic_ladder(model, epsilon: float, delta: float) -> list[float]:
    """Level sequence s_0 < s_1 = delta < ... < s_L = 1 with equal link increments.

    L is the smallest integer with phi(delta) + (L-1) * epsilon >= phi(1), so
    consecutive levels (past s_0) advance the link value by exactly epsilon.
    """
    phi_delta, s0 = ladder_start(model, epsilon, delta)
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


def build_partition_logistic(
    instance: BanditInstance, epsilon: float, delta: float
) -> Partition:
    """Layered partition for the logistic model with classification margin delta.

    Parameters are banded by alpha(theta).theta into link-level layers (and a
    mirrored negative side); each band's best actions are greedily covered at
    half the preceding level gap, which certifies distortion <= epsilon.
    """
    if not epsilon > 0.0:  # NaN fails
        raise InvalidEpsilon("epsilon must be positive")
    if instance.model.kind != LOGISTIC:
        raise InvalidEpsilon("logistic partition builder requires a logistic model")
    if not delta > 0.0:
        raise MarginViolated("delta must be positive")
    inner = best_action_margins(instance)
    if np.min(np.abs(inner)) < delta - MARGIN_TOL:
        raise MarginViolated(
            f"min |alpha(theta).theta| = {float(np.min(np.abs(inner)))!r} < delta"
        )
    s = logistic_ladder(instance.model, epsilon, delta)
    L = len(s) - 1

    # band b spans (s[b], s[b+1]] with covering diameter s[b] - s[b-1]; the
    # margin puts every parameter at |alpha(theta).theta| >= delta = s[1],
    # so band 1 is closed at its left endpoint
    if L >= 2:
        bands = [(s[b], s[b + 1], s[b] - s[b - 1], b == 1) for b in range(1, L)]
    else:
        bands = [(s[0], s[1], s[1] - s[0], True)]

    cell_of = np.full(instance.n_params, -1, dtype=np.intp)
    next_cell = 0
    for sign in (1.0, -1.0):
        for lo, hi, gap, closed_left in bands:
            v = sign * inner
            if closed_left:
                in_band = (v >= lo - MARGIN_TOL) & (v <= hi + MARGIN_TOL)
            else:
                in_band = (v > lo + MARGIN_TOL) & (v <= hi + MARGIN_TOL)
            members = np.flatnonzero(in_band & (sign * inner > 0) & (cell_of < 0))
            if members.size == 0:
                continue
            group_of, count = _cover_best_actions(
                instance, instance.astar[members], gap / 2.0
            )
            cell_of[members] = next_cell + group_of
            next_cell += count
    if np.any(cell_of < 0):
        raise MarginViolated("some parameter fell outside every layer band")
    # greedy groups that absorbed no member leave gaps in the numbering
    _, cell_of = np.unique(cell_of, return_inverse=True)
    return _finish_partition(instance, cell_of, epsilon)


def two_point_pair(
    a: NDArray, b: NDArray, p: NDArray
) -> tuple[int, int, float]:
    """Find (j, k, r) with r*a_j + (1-r)*a_k and r*b_j + (1-r)*b_k both below
    the p-weighted means.

    Existence is guaranteed for any valid inputs; the scan is lexicographic
    over ordered pairs and picks the smallest feasible r, so the result is
    deterministic. Two scores within ``PAIR_TOL`` of each other leave r
    free, as equal scores would, so rounding noise in tied scores (glm
    actions whose outcomes all identify theta carry the same information)
    cannot change the pair; such a pair must meet its target within
    ``PAIR_TOL`` at every r in [0, 1].
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = np.asarray(p, dtype=float)
    if a.shape != b.shape or a.shape != p.shape or a.ndim != 1 or a.size < 1:
        raise ValueError("a, b, p must be 1-D arrays of equal positive length")
    if np.any(p < -PAIR_TOL) or not abs(p.sum() - 1.0) <= INPUT_PMF_TOL:  # NaN fails
        raise ValueError("p must be a valid pmf")
    mean_a = float(p @ a)
    mean_b = float(p @ b)
    n = a.size
    # Python floats do the same IEEE arithmetic as numpy scalars, faster
    a, b = a.tolist(), b.tolist()
    for j in range(n):
        for k in range(n):
            lo, hi = 0.0, 1.0
            feasible = True
            for (xj, xk, target) in ((a[j], a[k], mean_a), (b[j], b[k], mean_b)):
                coeff = xj - xk
                rhs = target - xk
                if coeff > PAIR_TOL:
                    hi = min(hi, (rhs + PAIR_TOL) / coeff)
                elif coeff < -PAIR_TOL:
                    lo = max(lo, (rhs - PAIR_TOL) / coeff)
                elif rhs - max(coeff, 0.0) < -PAIR_TOL:  # r = 1 if coeff > 0, else r = 0
                    feasible = False
                    break
            if not feasible or lo > hi:
                continue
            r = float(min(max(lo, 0.0), 1.0))
            mix_a = r * a[j] + (1.0 - r) * a[k]
            mix_b = r * b[j] + (1.0 - r) * b[k]
            if mix_a <= mean_a + PAIR_TOL and mix_b <= mean_b + PAIR_TOL:
                return j, k, r
    raise Infeasible("no feasible two-point mixture found (NaNs or broken invariants)")


def build_representation(
    instance: BanditInstance, belief: BeliefState, partition: Partition
) -> Representation:
    """Per-cell two-point representatives realizing the compressed statistic.

    Each positive-mass cell is compressed onto a pair of its own parameters
    whose mixture underperforms the cell's conditional expected reward and
    conditional information gain simultaneously. Zero-mass cells get a
    trivial in-cell singleton. The information scores I(psi; Y_a) of every
    action a member of a positive-mass cell plays come from one grouped call.
    """
    p = belief.probs
    if p.size != partition.cell_of.size:
        raise ValueError("belief and partition cover different parameter counts")
    mass = np.bincount(partition.cell_of, weights=p, minlength=partition.K)
    scored = np.unique(instance.astar[mass[partition.cell_of] > 0.0])
    idx, _, w = two_point_outcomes(instance, scored)
    gain = np.zeros(instance.n_actions)
    gain[scored] = _outcome_information(idx, w, p[None, :, None], partition.cell_of[:, None])[0]
    i1, i2, r = _representative_pairs(instance, p, p @ instance.mu, partition, mass, gain)
    cells = tuple(zip(i1.tolist(), i2.tolist(), r.tolist()))
    return Representation(partition=partition, cells=cells, cell_mass=mass)


def _representative_pairs(
    instance: BanditInstance,
    p: NDArray,
    mean_rewards: NDArray,
    partition: Partition,
    mass: NDArray,
    gain: NDArray,
) -> tuple[NDArray, NDArray, NDArray]:
    """``build_representation``'s cells as arrays ``(i1, i2, r)`` at belief
    ``p`` with mean rewards ``p @ instance.mu`` and cell masses ``mass``,
    given I(psi; Y_a) as ``gain[a]`` for every action a member of a
    positive-mass cell plays."""
    i1 = np.empty(partition.K, dtype=np.intp)
    i2 = np.empty(partition.K, dtype=np.intp)
    r = np.ones(partition.K)
    for k in range(partition.K):
        members = partition.members(k)
        if mass[k] <= 0.0:
            i1[k] = i2[k] = members[0]
            continue
        played = instance.astar[members]
        j, kk, r[k] = two_point_pair(mean_rewards[played], gain[played], p[members] / mass[k])
        i1[k], i2[k] = members[j], members[kk]
    return i1, i2, r


def statistic_mutual_information(belief: BeliefState, partition: Partition) -> float:
    """I(theta*; psi): entropy of the belief pushforward onto cells (psi is
    a deterministic function of theta*)."""
    mass = np.bincount(partition.cell_of, weights=belief.probs, minlength=partition.K)
    return entropy(mass)


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


def rate_distortion_bruteforce(
    instance: BanditInstance, belief: BeliefState, epsilon: float
) -> tuple[int, float, Partition]:
    """Exhaustive minimum of I(theta*; psi) over all distortion-valid partitions.

    Test oracle only: enumerates every set partition of the parameter set
    (Bell-number growth), so m is capped at 8.
    """
    m = instance.n_params
    if m > 8:
        raise TooLarge("brute-force partition search is capped at m <= 8")
    dmat = distortion_matrix(instance)
    best: tuple[float, int, NDArray] | None = None
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
