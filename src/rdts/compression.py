"""Distortion-bounded partitions of the parameter set and two-point representatives.

The distortion of theta with respect to theta' is the regret of playing
theta's best action when theta' is true. Two partition builders group
parameters whose best actions are close and certify the intra-cell
distortion pairwise: ``build_partition_glm``, the one cover builder for
every model kind, greedily covers the realized best-action set at radius
epsilon / (2 C(phi)) (the linear model is the case C(phi) = 1/2), and
``build_partition_logistic`` covers the logistic model layer by layer. The
representation builder compresses each cell onto a two-point mixture whose
expected reward and information gain are no better than the cell average.

The greedy cover measures each point against the centers found so far and
against the earlier points of its row block that no center takes, in blocks
under a byte cap, and visits one at a time only the contested points among
those, so its work is about the number of points times the number of
centers, at a fine radius or a coarse one. The logistic builder finds
each parameter's band from the ladder levels its bands need alone
(``bounds.LogisticLadder``) and covers every non-empty band in one call, so
its work follows m and the cells, not the ladder's length, which grows like
1 / epsilon.

A cell's worst distortion depends on its members only through their
distinct best actions, and every distortion in a cell of one such action
is b - b = +0.0, so certification reads |cell| * |distinct best actions in
the cell| mean rewards of each cell with two or more, in one
``mean_rewards`` call, which multiplies again only the instance's product
blocks that hold those members. A builder certifies once and keeps each
cell's worst distortion in its partition (``Partition.distortion``). Only a
cell over epsilon reads its |cell|^2 ``distortion_block``, to re-split it,
and no builder reads the full m x m ``distortion_matrix`` (the brute-force
rate-distortion oracle in ``tests/reference.py`` does). Partitions and
representations live in memory only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .bounds import LogisticLadder, c_phi
from .inference import BeliefState
from .information import _cell_masses_and_gains, _row_products, entropy
from .model import LOGISTIC, BanditInstance, _sorted_distinct
from .tolerances import CERT_TOL, INPUT_PMF_TOL, MARGIN_TOL, PAIR_TOL


class InvalidEpsilon(ValueError):
    pass


class MarginViolated(ValueError):
    pass


class Infeasible(ArithmeticError):
    """Two-point mixture search found no feasible pair: indicates a bug or NaNs."""


def _split_cells(cell_of: NDArray, K: int = 0) -> list[NDArray]:
    """Read-only member arrays of cells 0, 1, ..., max(K, max(cell_of) + 1) - 1,
    each in increasing index order (an unused cell number gets an empty one)."""
    ends = np.cumsum(np.bincount(cell_of, minlength=K)).tolist()
    # a stable sort keeps each cell's members in increasing index order
    order = np.argsort(cell_of, kind="stable")
    order.setflags(write=False)
    return [order[a:b] for a, b in zip([0] + ends[:-1], ends)]


@dataclass(frozen=True)
class Partition:
    """Assignment of each parameter to a cell with certified distortion <= epsilon.

    ``distortion[k]``, read-only, is the largest pairwise distortion within
    cell ``k`` as the builder certified it; a partition built by hand has
    none.
    """

    cell_of: NDArray
    epsilon: float
    K: int
    distortion: NDArray | None = None

    def __post_init__(self) -> None:
        cells = np.asarray(self.cell_of, dtype=np.intp)
        object.__setattr__(self, "cell_of", cells)
        cells.setflags(write=False)
        if self.distortion is not None:
            self.distortion.setflags(write=False)
        counts = np.bincount(cells, minlength=self.K)  # a negative cell raises
        if counts.size != self.K or not counts.all():
            raise ValueError("cells must be exactly 0..K-1 and all non-empty")

    @functools.cached_property
    def _members(self) -> tuple[NDArray, ...]:
        # split on first use: the partition subcommand never reads a member list
        return tuple(_split_cells(self.cell_of, self.K))

    def members(self, k: int) -> NDArray:
        """Parameter indices of cell ``k`` in increasing order (read-only)."""
        return self._members[k]


@dataclass(frozen=True)
class Representation:
    """Per-cell two-point mixture (idx1, idx2, r) with the cell-mass pmf."""

    partition: Partition
    cells: tuple[tuple[int, int, float], ...]
    cell_mass: NDArray


def distortion_block(instance: BanditInstance, idx: NDArray) -> NDArray:
    """``distortion_matrix(instance)[np.ix_(idx, idx)]``, bit for bit, from
    the |idx|^2 mean rewards it needs, which ``mean_rewards`` takes from the
    product blocks that hold the rows of ``idx``."""
    idx = np.asarray(idx, dtype=np.intp)
    played = instance.astar[idx]
    best = instance.mean_rewards(idx, played)
    return (best[:, None] - instance.mean_rewards(*np.ix_(idx, played))).T


def distortion_matrix(instance: BanditInstance) -> NDArray:
    """D[i, j] = distortion of theta_i with respect to theta_j (m x m)."""
    return distortion_block(instance, np.arange(instance.n_params))


def _cell_distortions(instance: BanditInstance, cell_of: NDArray, K: int = 0) -> NDArray:
    """Largest pairwise distortion within each cell 0, 1, ...,
    max(K, max(cell_of) + 1) - 1, equal to the max of its ``distortion_block``
    (0 for an unused cell number).

    D[i, j] = mu[j, a*_j] - mu[j, a*_i] depends on i only through a*_i, and
    a rounded difference b - x never grows with x, so a cell's worst is the
    max over its members j of mu[j, a*_j] - min_a mu[j, a], the min taken
    over the cell's distinct best actions a. That reads each member's mean
    rewards of those actions only, and a cell with one distinct best action
    reads none.
    """
    n = instance.n_actions
    # the distinct (cell, best action) pairs, by cell and then action
    pairs = _sorted_distinct(cell_of * n + instance.astar)
    pair_cell, pair_action = np.divmod(pairs, n)
    actions_in = np.bincount(pair_cell)
    worst = np.zeros(max(K, actions_in.size))
    # every distortion in a cell of one best action is b - b = +0.0, so only
    # the members of the other cells read mean rewards
    member = np.flatnonzero(actions_in[cell_of] > 1)
    if not member.size:
        return worst
    cells = cell_of[member]
    first = np.cumsum(actions_in) - actions_in
    # member j reads its cell's actions as entries start[j] .. start[j] + reps[j] - 1
    reps = actions_in[cells]
    start = np.cumsum(reps) - reps
    entry = np.arange(start[-1] + reps[-1]) + np.repeat(first[cells] - start, reps)
    rows, cols = np.repeat(member, reps), pair_action[entry]
    value = instance.mean_rewards(rows, cols)
    # each member's own best action is one of its entries
    best = value[cols == instance.astar[rows]]
    np.maximum.at(worst, cells, best - np.minimum.reduceat(value, start))
    return worst


def max_intra_cell_distortion(instance: BanditInstance, cell_of: NDArray, K: int) -> float:
    """Largest pairwise distortion within cells 0..K-1."""
    cell_of = np.asarray(cell_of, dtype=np.intp)
    return float(_cell_distortions(instance, cell_of, K)[:K].max(initial=0.0))


# ``_greedy_cover`` decides its points in row blocks, the differences of a
# block's pairs taking at most this many bytes, or one point's if that is more
_COVER_BLOCK_BYTES = 1 << 20


def _ranges(starts: NDArray, counts: NDArray) -> NDArray:
    """``arange(s, s + c)`` for each pair (s, c), concatenated."""
    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]) if ends.size else 0) + np.repeat(starts - ends + counts, counts)


def _pair_distances(points: NDArray, row: NDArray, col: NDArray) -> NDArray:
    """``np.linalg.norm(points[row] - points[col], axis=1)``, bit for bit.

    numpy sums fewer than 8 squares left to right, which adding them one
    coordinate at a time repeats without its slow reduction over a short
    axis; from 8 coordinates on it sums pairwise, and the norm itself runs.
    """
    if points.shape[1] >= 8:
        return np.linalg.norm(points.take(row, axis=0) - points.take(col, axis=0), axis=1)
    total = np.zeros(row.size)
    for x in points.T:
        diff = x.take(row) - x.take(col)
        total += diff * diff
    return np.sqrt(total, out=total)


def _greedy_cover(
    points: NDArray, radius: float | NDArray, first: NDArray | None = None
) -> NDArray:
    """Greedy center-based covering: the lowest-index uncovered point becomes a
    center and takes every uncovered point within ``radius``. Returns each
    point's group index, groups numbered in the order they are made.

    With ``first``, the points are consecutive segments, covered one after
    another and each on its own: point i is in the segment that starts at
    point ``first[i]``, and ``radius`` may be an array of each point's
    segment radius.

    Equivalently, a point is a center unless an earlier center of its
    segment lies within radius, and it joins the first such center. Points
    are decided in row blocks, whose centers are final once its rows are.
    Each row first joins the first center of an earlier block within
    radius, if any. The first row left is a center and takes the rows left
    within radius. The others are measured against each other: a row with
    none of them earlier within radius is a center outright, and only the
    rest, the contested rows, are visited one at a time (those that an
    outright center takes are skipped). A row is measured against centers
    and the earlier free rows of its block only, so the work is about the
    number of points times the number of centers, whether most points are
    centers or few are.
    """
    count = points.shape[0]
    if first is None:
        first = np.zeros(count, dtype=np.intp)
    radius = np.broadcast_to(radius, (count,))
    limit = max(1, _COVER_BLOCK_BYTES // (points.itemsize * points.shape[1]))
    center = np.empty(count, dtype=np.intp)
    centers = np.empty(0, dtype=np.intp)  # those of the earlier blocks, in order
    lo = 0
    while lo < count:
        # each row against the centers of earlier blocks in its segment, as
        # many rows as their pairs allow
        rows = np.arange(lo, min(count, lo + limit))
        known = centers.size - np.searchsorted(centers, first[rows])
        size = max(1, int(np.searchsorted(np.cumsum(known), limit, "right")))
        rows, known = rows[:size], known[:size]
        row = np.repeat(rows, known)
        col = centers[_ranges(centers.size - known, known)]
        hit = np.flatnonzero(_pair_distances(points, row, col) <= radius[row])
        taken = hit[np.diff(row[hit], prepend=-1) != 0]
        center[row[taken]] = col[taken]
        left = np.ones(size, dtype=bool)
        left[row[taken] - lo] = False
        free = rows[left]
        if not free.size:
            lo += size
            continue
        # the first row left is a center and takes the rows left within radius
        head, free = free[0], free[1:]
        center[head] = head
        near = _pair_distances(points, free, np.full(free.size, head)) <= radius[free]
        taken = near & (first[free] == first[head])
        center[free[taken]] = head
        free = free[~taken]
        # the rows left against each other, free[own] with its earlier
        # free[other], as many as their pairs allow; the block ends there
        pairs = np.arange(free.size) - np.searchsorted(free, first[free])
        keep = min(free.size, int(np.searchsorted(np.cumsum(pairs), limit, "right")))
        lo = int(free[keep]) if keep < free.size else lo + size
        free, pairs = free[:keep], pairs[:keep]
        own = np.repeat(np.arange(keep), pairs)
        other = _ranges(np.arange(keep) - pairs, pairs)
        near = _pair_distances(points[free], own, other) <= radius[free][own]
        is_center = np.ones(keep, dtype=bool)
        if near.any():
            contested = np.zeros(keep, dtype=bool)
            contested[own[near]] = True
            # a row that an outright center takes is no center
            is_center[own[near & ~contested[other]]] = False
            at = np.cumsum(pairs) - pairs
            for i in np.flatnonzero(contested & is_center).tolist():
                span = slice(at[i], at[i] + pairs[i])
                is_center[i] = not (near[span] & is_center[other[span]]).any()
            # a row that is no center joins its first pair with a center
            hit = np.flatnonzero(near & is_center[other])
            taken = hit[np.diff(own[hit], prepend=-1) != 0]
            center[free[own[taken]]] = free[other[taken]]
        made = free[is_center]
        center[made] = made
        centers = np.concatenate([centers, [head], made])
    return np.searchsorted(centers, center)


def _cover_best_actions(instance: BanditInstance, radius: float) -> NDArray:
    """Greedy-cover the realized actions at center ``radius``: the group
    index of each parameter's best action."""
    actions, best = instance.slots
    return _greedy_cover(instance.actions[actions], radius)[best]


def _refine_certified(
    instance: BanditInstance, cell_of: NDArray, epsilon: float
) -> NDArray:
    """Split any cell whose pairwise distortion exceeds epsilon (safety net).

    The covering arguments certify the tolerance analytically, so this should
    never fire; it guarantees the constructed partition always carries a valid
    certificate regardless of floating-point edge cases.
    """
    limit = epsilon + CERT_TOL
    # each used cell number becomes parts[k] consecutive cells, numbered in
    # cell order; a member's local number picks its part
    parts = (np.bincount(cell_of) > 0).astype(np.intp)
    local = np.zeros_like(cell_of)
    for k in np.flatnonzero(_cell_distortions(instance, cell_of) > limit):
        idx = np.flatnonzero(cell_of == k)
        block = distortion_block(instance, idx)
        # greedy re-split over local positions in the block: the lowest
        # remaining member seeds a cell that takes every later member within
        # epsilon of all its members, in both directions
        left = list(range(idx.size))
        parts[k] = 0
        while left:
            sub = [left[0]]
            for cand in left[1:]:
                if np.all(block[cand, sub] <= limit) and np.all(block[sub, cand] <= limit):
                    sub.append(cand)
            local[idx[sub]] = parts[k]
            parts[k] += 1
            taken = set(sub)
            left = [t for t in left if t not in taken]
    return (np.cumsum(parts) - parts)[cell_of] + local


def _finish_partition(
    instance: BanditInstance, cell_of: NDArray, epsilon: float
) -> Partition:
    """The partition into cells ``cell_of``, with each cell's certified worst
    distortion; should one exceed epsilon, the cells re-split and are
    certified again."""
    worst = _cell_distortions(instance, cell_of)
    if (worst > epsilon + CERT_TOL).any():
        cell_of = _refine_certified(instance, cell_of, epsilon)
        worst = _cell_distortions(instance, cell_of)
    return Partition(cell_of=cell_of, epsilon=epsilon, K=worst.size, distortion=worst)


def realized_link_slope(instance: BanditInstance) -> float:
    """C(phi): supremum of the link derivative over the realized inner products."""
    return c_phi(instance.model, *instance.inner_range)


def build_partition_glm(instance: BanditInstance, epsilon: float) -> Partition:
    """Greedy covering of the realized best-action set at center radius
    epsilon / (2 C(phi)), for every model kind.

    Cell diameter <= epsilon / C(phi) in action space bounds the intra-cell
    distortion by epsilon through the link's Lipschitz constant (Cauchy-Schwarz
    with ||theta|| <= 1). The linear mean a.theta / 2 has C(phi) = 1/2, which
    makes its radius epsilon exactly. A steep link whose derivative underflows
    to 0 at every realized inner product has saturated there, every float
    distortion is 0, and the radius is infinite; the certificate still checks
    the one cell.
    """
    if not epsilon > 0.0:  # NaN fails
        raise InvalidEpsilon("epsilon must be positive")
    slope = realized_link_slope(instance)
    radius = epsilon / (2.0 * slope) if slope > 0.0 else np.inf
    cell_of = _cover_best_actions(instance, radius)
    return _finish_partition(instance, cell_of, epsilon)


def best_action_margins(instance: BanditInstance) -> NDArray:
    """alpha(theta).theta for every parameter, from exact inner products
    rather than by inverting a link that may have saturated to 0 or 1."""
    return np.einsum("ij,ij->i", instance.params, instance.actions[instance.astar])


def build_partition_logistic(
    instance: BanditInstance, epsilon: float, delta: float
) -> Partition:
    """Layered partition for the logistic model with classification margin delta.

    Parameters are banded by alpha(theta).theta into link-level layers (and a
    mirrored negative side); each band's best actions are greedily covered at
    half the preceding level gap, which certifies distortion <= epsilon.
    Bands are numbered positive side first, each side in increasing level
    order, and only the non-empty ones are visited: the work follows m and
    the cells, not the ladder's length L, which grows like 1 / epsilon.
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
    ladder = LogisticLadder(instance.model, epsilon, delta)
    band = ladder.band_of(np.abs(inner))
    if not np.all((band > 0) & (inner != 0.0)):
        raise MarginViolated("some parameter fell outside every layer band")
    # the negative side's band b is layer bands + b
    layer = np.where(inner > 0.0, band, ladder.bands + band)
    layers = _sorted_distinct(layer)
    # each layer's distinct best actions, by layer and then action, are one
    # segment of the cover
    n = instance.n_actions
    code = np.searchsorted(layers, layer) * n + instance.astar
    entries = _sorted_distinct(code)
    entry_layer, action = np.divmod(entries, n)
    # both sides' band b cover at half its gap
    radius = ladder.gaps(layers - ladder.bands * (layers > ladder.bands)) / 2.0
    first = np.searchsorted(entry_layer, entry_layer)  # the first entry of its layer
    group = _greedy_cover(instance.actions[action], radius[entry_layer], first)
    cell_of = group[np.searchsorted(entries, code)]
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
    trivial in-cell singleton. This is the audit's step
    (``information._chain_terms``) on a one-row belief matrix.
    """
    p = belief.probs[None]
    if p.shape[1] != partition.cell_of.size:
        raise ValueError("belief and partition cover different parameter counts")
    mass, gain = _cell_masses_and_gains(instance, p, partition)
    mean_rewards = _row_products(p, instance.realized)
    i1, i2, r = _representative_pairs(instance, p, mean_rewards, partition, mass, gain)
    cells = tuple(zip(i1[0].tolist(), i2[0].tolist(), r[0].tolist()))
    return Representation(partition=partition, cells=cells, cell_mass=mass[0])


def _representative_pairs(
    instance: BanditInstance,
    probs: NDArray,
    mean_rewards: NDArray,
    partition: Partition,
    mass: NDArray,
    gain: NDArray,
) -> tuple[NDArray, NDArray, NDArray]:
    """``build_representation``'s cells at each row of a ``(runs, m)`` belief
    matrix, as ``(runs, K)`` arrays ``(i1, i2, r)``, given the rows'
    ``information._row_products`` of the ``realized`` means, cell masses
    ``mass`` and I(psi; Y_a) as ``gain[run, s]`` for the action of every
    slot s that a member of a positive-mass cell plays. A row's cells depend
    on that row's inputs alone."""
    members = [partition.members(k) for k in range(partition.K)]
    best = instance.slots[1]
    played = [best[idx] for idx in members]
    i1 = np.tile(np.asarray([idx[0] for idx in members], dtype=np.intp), (mass.shape[0], 1))
    i2 = i1.copy()
    r = np.ones(mass.shape)
    # Python ints and row views index faster than numpy scalars and 2-D picks
    for run, k in np.argwhere(mass > 0.0).tolist():
        a = played[k]
        j, jj, r[run, k] = two_point_pair(
            mean_rewards[run][a], gain[run][a], probs[run][members[k]] / mass[run, k]
        )
        i1[run, k], i2[run, k] = members[k][j], members[k][jj]
    return i1, i2, r


def statistic_mutual_information(belief: BeliefState, partition: Partition) -> float:
    """I(theta*; psi): entropy of the belief pushforward onto cells (psi is
    a deterministic function of theta*)."""
    mass = np.bincount(partition.cell_of, weights=belief.probs, minlength=partition.K)
    return entropy(mass)
