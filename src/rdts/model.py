"""Finite Bayesian bandit instances: action/parameter sets and outcome models.

An instance couples a finite action set and a finite parameter set (both
living in the closed unit ball of R^d) with one of three outcome models:

* ``linear_binary`` -- mean reward ``a.theta / 2``, outcomes ``{-1/2, +1/2}``;
* ``glm`` -- logistic-link mean ``phi(a.theta)`` plus symmetric two-point
  noise ``+/- eta``;
* ``logistic`` -- Bernoulli outcome in ``{0, 1}`` with success probability
  ``phi(a.theta)``.

All mean rewards and outcome pmfs are exact closed forms, so downstream
information quantities can be computed by finite summation.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .tolerances import NORM_TOL, OUTCOME_PMF_TOL

LINEAR_BINARY = "linear_binary"
GLM = "glm"
LOGISTIC = "logistic"

_KINDS = (LINEAR_BINARY, GLM, LOGISTIC)


class InvalidInstanceError(ValueError):
    """An instance violates a model invariant (e.g. probability outside [0,1])."""


@dataclass(frozen=True)
class OutcomeModel:
    """Outcome model descriptor.

    ``beta`` is the logistic steepness (used by ``glm`` and ``logistic``);
    ``eta`` is the half-width of the two-point reward noise (``glm`` only).
    """

    kind: str
    beta: float | None = None
    eta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidInstanceError(f"unknown model kind {self.kind!r}")
        # written so that NaN fails each check
        if self.kind in (GLM, LOGISTIC):
            if self.beta is None or not 0 < self.beta < np.inf:
                raise InvalidInstanceError("glm/logistic models need a finite beta > 0")
        if self.kind == GLM:
            if self.eta is None or not 0 <= self.eta < np.inf:
                raise InvalidInstanceError("glm models need a finite noise half-width eta >= 0")

    def link(self, x: NDArray | float) -> NDArray | float:
        """Strictly increasing link: sigmoid with steepness beta."""
        assert self.beta is not None
        # exp overflows to inf for beta * x below about -709, which gives the limit 0.0
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-self.beta * np.asarray(x, dtype=float)))

    def link_inv(self, y: NDArray | float) -> NDArray | float:
        assert self.beta is not None
        y = np.asarray(y, dtype=float)
        return np.log(y / (1.0 - y)) / self.beta

    def link_deriv(self, x: NDArray | float) -> NDArray | float:
        assert self.beta is not None
        p = self.link(x)
        return self.beta * p * (1.0 - p)


def _check_ball(vectors: NDArray, name: str) -> None:
    if vectors.ndim != 2 or vectors.shape[0] == 0 or vectors.shape[1] < 1:
        raise InvalidInstanceError(f"{name} must be a non-empty (count, d) array")
    if not np.isfinite(vectors).all():
        raise InvalidInstanceError(f"{name} contains non-finite coordinates")
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms > 1.0 + NORM_TOL):
        raise InvalidInstanceError(f"{name} contains vectors with norm > 1")


# ``BanditInstance`` computes its inner products in row chunks of at most this
# many multiply-adds. Under OPENBLAS_NUM_THREADS=2 (2 vCPUs, numpy 2.4's
# OpenBLAS), building a d=3, n=500, m=6000 instance in chunks of up to 2**19
# left OpenBLAS's second thread idle; chunks of 2**20, or one full product,
# woke it, and it then spun for 0.13-0.16 s of CPU time
_PRODUCT_CHUNK = 1 << 17


@dataclass(frozen=True)
class BanditInstance:
    """Immutable bandit instance with its best actions.

    ``astar[i]`` is the lowest-index maximizer of the inner products
    ``a_j . theta_i`` over actions ``j``. Construction computes them in
    blocks of ``block_rows`` consecutive parameters, each block at most
    ``_PRODUCT_CHUNK`` multiply-adds and written into one reused buffer, and
    keeps only the argmaxes. OpenBLAS may round a product differently when
    its shape differs, so every later read repeats these blocks exactly.
    Every link is strictly increasing, so ``astar[i]`` is the best action of
    row ``i`` even where the float link saturates and the mean rewards tie.
    No m x n table is kept. ``mean_rewards(rows, cols)``, the exact mean
    reward of actions ``cols`` under parameters ``rows``, multiplies again
    only the blocks its rows lie in. ``inner_range``, the extremes of the
    inner products, comes from the blocks too: a linear_binary or glm
    construction keeps it for its range check, and a logistic instance
    finds it on first read.

    Thompson sampling only plays realized actions, the ``R`` distinct
    entries of ``astar``. ``slots`` maps each parameter to the slot of its
    best action among them, ``realized`` holds their mean rewards, ``(m,
    R)``, and ``outcomes`` their two-point outcome pmfs (a binary model's
    are one array of weights), each indexed by slot. All three are built on
    first read and then kept; ``slots`` reads ``astar`` alone.
    """

    actions: NDArray
    params: NDArray
    model: OutcomeModel
    astar: NDArray = field(init=False, repr=False)
    block_rows: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        actions = np.asarray(self.actions, dtype=float)
        params = np.asarray(self.params, dtype=float)
        _check_ball(actions, "actions")
        _check_ball(params, "params")
        if actions.shape[1] != params.shape[1]:
            raise InvalidInstanceError("actions and params must share dimension d")
        for arr in (actions, params):
            arr.setflags(write=False)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "params", params)
        m, n = params.shape[0], actions.shape[0]
        step = max(1, _PRODUCT_CHUNK // (n * actions.shape[1]))
        object.__setattr__(self, "block_rows", step)
        astar = np.empty(m, dtype=np.intp)
        extremes = []  # each block's least and largest a.theta, for the range checks
        for lo, block in self._blocks():
            # np.argmax breaks ties at the lowest index
            np.argmax(block, axis=1, out=astar[lo:lo + step])
            if self.model.kind != LOGISTIC:
                extremes += (block.min(), block.max())
        astar.setflags(write=False)
        object.__setattr__(self, "astar", astar)
        if extremes:
            self.__dict__["inner_range"] = (float(min(extremes)), float(max(extremes)))
        if self.model.kind == LINEAR_BINARY:
            # success probability 1/2 + a.theta/2 must be a probability
            if np.abs(self.inner_range).max() > 1.0 + OUTCOME_PMF_TOL:
                raise InvalidInstanceError("linear_binary requires |a.theta| <= 1")
        elif self.model.kind == GLM:
            eta = float(self.model.eta or 0.0)
            # the link is increasing, so it is extreme where a.theta is
            spread = float(np.ptp(self._mean(np.array(self.inner_range)))) + 2.0 * eta
            if spread > 1.0 + OUTCOME_PMF_TOL:
                raise InvalidInstanceError(
                    "glm reward range exceeds 1 (link spread + 2*eta)"
                )

    def _block(self, lo: int, out: NDArray) -> NDArray:
        """The inner products of the block of parameters that starts at row
        ``lo``, written to the first rows of ``out`` and returned."""
        rows = self.params[lo:lo + self.block_rows]
        return np.matmul(rows, self.actions.T, out=out[:rows.shape[0]])

    def _blocks(self) -> Iterator[tuple[int, NDArray]]:
        """``(lo, block)`` for every block of parameters in order, each block
        written to the same buffer."""
        buffer = np.empty((min(self.block_rows, self.n_params), self.n_actions))
        for lo in range(0, self.n_params, self.block_rows):
            yield lo, self._block(lo, buffer)

    def _mean(self, x: NDArray) -> NDArray:
        """The model's mean reward at inner products ``x``, elementwise."""
        if self.model.kind == LINEAR_BINARY:
            return 0.5 * x
        return np.asarray(self.model.link(x))

    @cached_property
    def inner_range(self) -> tuple[float, float]:
        """The least and largest inner product ``a . theta``, from the blocks;
        a linear_binary or glm construction keeps it from its own pass."""
        extremes = [e for _, block in self._blocks() for e in (block.min(), block.max())]
        return float(min(extremes)), float(max(extremes))

    def mean_rewards(self, rows, cols) -> NDArray:
        """The mean rewards of actions ``cols`` under parameters ``rows``, for
        integer indexes ``rows`` and ``cols`` (scalars or arrays that
        broadcast together, such as ``np.ix_``'s).

        Each block of parameters that holds an indexed row is multiplied
        again, as construction multiplied it, and the entries are taken from
        it; the mean is elementwise, so every read of an entry gives its bits.
        """
        rows, cols = np.broadcast_arrays(
            np.arange(self.n_params)[rows], np.arange(self.n_actions)[cols]
        )
        x = np.empty(rows.shape)
        block = rows // self.block_rows
        buffer = np.empty((min(self.block_rows, self.n_params), self.n_actions))
        for b in _distinct(block.ravel(), 0).tolist():
            at = block == b
            lo = b * self.block_rows
            x[at] = self._block(lo, buffer)[rows[at] - lo, cols[at]]
        return self._mean(x)

    @cached_property
    def slots(self) -> tuple[NDArray, NDArray]:
        """Read-only ``(actions, best)``, built from ``astar`` alone on first
        read: the ``R`` realized actions in increasing order, and each
        parameter's slot among them, so ``actions[best] == astar``. A slot
        is a column of ``realized`` and a row of ``outcomes``."""
        actions = _distinct(self.astar, self.n_actions)
        best = np.searchsorted(actions, self.astar)
        for arr in (actions, best):
            arr.setflags(write=False)
        return actions, best

    @cached_property
    def realized(self) -> NDArray:
        """Read-only mean rewards ``(m, R)`` of the realized actions, built on
        first read: ``realized[i, s]`` is ``mean_rewards(i, slots[0][s])`` bit
        for bit, gathered from the construction's blocks in one pass."""
        actions = self.slots[0]
        x = np.empty((self.n_params, actions.size))
        for lo, block in self._blocks():
            x[lo:lo + block.shape[0]] = block[:, actions]
        means = self._mean(x)
        means.setflags(write=False)
        return means

    @cached_property
    def outcomes(self) -> tuple[NDArray, NDArray, NDArray]:
        """Read-only ``(idx, points, weights)`` of the realized actions, built
        on first read: ``two_point_outcomes`` of ``realized``'s columns, shape
        ``(R, m, 2)``, row ``s`` for slot ``s`` (a binary model's ``idx`` and
        ``points`` are views). Every support value of an action is a point of
        some parameter, so row ``s`` has ``idx[s].max() + 1`` of them.
        """
        table = two_point_outcomes(self.model, self.realized.T)
        for arr in table:
            arr.setflags(write=False)
        return table

    @property
    def d(self) -> int:
        return int(self.actions.shape[1])

    @property
    def n_actions(self) -> int:
        return int(self.actions.shape[0])

    @property
    def n_params(self) -> int:
        return int(self.params.shape[0])


# (low, high) outcome values of the binary models
_BINARY_VALUES = {LINEAR_BINARY: (-0.5, 0.5), LOGISTIC: (0.0, 1.0)}


def outcome_support(
    instance: BanditInstance, action_idx: int
) -> tuple[NDArray, NDArray]:
    """Finite outcome support of one action, with per-parameter probabilities.

    Returns ``(values, probs)`` where ``values`` has shape ``(q,)`` and
    ``probs`` has shape ``(m, q)``: ``probs[i, y]`` is the probability that
    playing the action yields ``values[y]`` when parameter ``i`` is true.
    Both arrays are read-only, built from ``two_point_outcomes`` on every
    call and never cached.
    """
    rows = np.arange(instance.n_params)
    idx, points, w = two_point_outcomes(instance.model, instance.mean_rewards(rows, action_idx))
    # every support value is a point of some parameter
    values = np.empty(int(idx.max()) + 1)
    values[idx] = points
    probs = np.zeros((rows.size, values.size))
    # second point first, so a single point's weight 1 overwrites its 0
    probs[rows, idx[:, 1]] = w[:, 1]
    probs[rows, idx[:, 0]] = w[:, 0]
    for arr in (values, probs):
        arr.setflags(write=False)
    return values, probs


def _checked_pmf(w: NDArray) -> NDArray:
    """``(..., 2)`` two-point pmfs, validated to ``OUTCOME_PMF_TOL`` and clipped
    to [0, 1] in place, so ``w`` must be the caller's own array."""
    if ((w < -OUTCOME_PMF_TOL) | (w > 1.0 + OUTCOME_PMF_TOL)).any():
        raise InvalidInstanceError("outcome probability outside [0, 1]")
    if not (abs(w[..., 0] + w[..., 1] - 1.0) <= OUTCOME_PMF_TOL).all():  # NaN fails
        raise InvalidInstanceError("outcome pmf does not sum to 1")
    return w.clip(0.0, 1.0, out=w)


def two_point_outcomes(
    model: OutcomeModel, means: NDArray
) -> tuple[NDArray, NDArray, NDArray]:
    """Outcome pmfs of actions with mean rewards ``means``, as two points per
    (action, parameter).

    ``means`` has shape ``(..., m)``: the last axis runs over parameters, one
    row per action. Every outcome model puts its mass on at most two values
    per pair: the binary models on their two outcomes, ``glm`` on ``mean -/+
    eta``, one point when the two are equal floats. Returns ``(idx, points,
    weights)``, each of shape ``means.shape + (2,)``: playing action ``s``
    under parameter ``i`` yields ``points[s, i, k]``, the action's support
    value ``idx[s, i, k]``, with probability ``weights[s, i, k]``. An
    action's support is its distinct outcome values in increasing order, so
    two outcomes are the same observation exactly when their floats are
    equal. The pmfs are validated (``OUTCOME_PMF_TOL``) and built on every
    call: glm's supports in one sort over all actions; for the binary models
    only the weights, while ``idx`` and ``points`` are read-only broadcast
    views of ``(0, 1)`` and of the model's two values. The points of a pair
    are in support order, so an inverse-CDF draw over ``weights[s, i]``
    picks the same value as one over the full row of ``outcome_support``; a
    single-point pmf has weight 0 on its second point, which repeats the first.
    """
    means = np.asarray(means, dtype=float)
    if model.kind == GLM:
        eta = float(model.eta or 0.0)
        idx, points = _merged_supports(means, eta)
        # each point carries half the mass; two equal values are one point of mass 1
        w = np.where((idx[..., 0] == idx[..., 1])[..., None], [1.0, 0.0], 0.5)
    else:
        w = np.empty(means.shape + (2,))  # the one array of the pmfs, written in place
        w[..., 1] = means
        if model.kind == LINEAR_BINARY:
            w[..., 1] += 0.5
        np.subtract(1.0, w[..., 1], out=w[..., 0])
        idx = np.broadcast_to(np.arange(2, dtype=np.intp), w.shape)
        points = np.broadcast_to(np.array(_BINARY_VALUES[model.kind]), w.shape)
    return idx, points, _checked_pmf(w)


def _distinct(codes: NDArray, n: int) -> NDArray:
    """The distinct values of non-negative integer ``codes`` below ``n``, in
    increasing order, as ``np.unique(codes)`` gives them. With numpy 2.4 a
    flag-less ``np.unique`` imports ``numpy.ma`` on first use, which costs
    time and memory and which nothing here needs."""
    return np.flatnonzero(np.bincount(codes, minlength=n))


def _sorted_distinct(values: NDArray) -> NDArray:
    """The distinct ``values`` in increasing order, as ``_distinct`` gives
    them, by one sort: for integer codes too large to count in bins."""
    x = np.sort(values)
    keep = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _merged_supports(means: NDArray, eta: float) -> tuple[NDArray, NDArray]:
    """Place each row's outcome values ``means -/+ eta`` on the row's sorted
    support of distinct values.

    Two values are the same observation exactly when their floats are equal;
    a NaN equals none. One sort ranks every row: a new support index starts
    wherever a sorted value differs from the one before it. Returns ``(idx,
    points)`` of shape ``means.shape + (2,)``: each value's index in its row's
    support, and the value itself.
    """
    points = means[..., None] + np.array([-eta, eta])
    flat = points.reshape(means.shape[:-1] + (2 * means.shape[-1],))
    order = np.argsort(flat, axis=-1)
    ranked = np.take_along_axis(flat, order, axis=-1)
    ranks = np.zeros(flat.shape, dtype=np.intp)
    np.not_equal(ranked[..., 1:], ranked[..., :-1], out=ranks[..., 1:])
    del ranked  # so at most four arrays the size of ``points`` are live at once
    np.cumsum(ranks, axis=-1, out=ranks)
    idx = np.empty_like(ranks)
    np.put_along_axis(idx, order, ranks, axis=-1)
    return idx.reshape(points.shape), points


def sample_in_ball(rng: np.random.Generator, count: int, d: int) -> NDArray:
    """Draw ``count`` points i.i.d. uniformly from the closed unit ball in R^d."""
    direction = rng.standard_normal((count, d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = rng.random(count) ** (1.0 / d)
    return direction * radius[:, None]


def sample_instance(
    rng: np.random.Generator,
    d: int,
    n_actions: int,
    m_params: int,
    model: OutcomeModel,
) -> BanditInstance:
    """Random instance with actions and parameters uniform in the unit ball."""
    if d < 1 or n_actions < 1 or m_params < 1:
        raise InvalidInstanceError("d, n_actions, m_params must all be >= 1")
    actions = sample_in_ball(rng, n_actions, d)
    params = sample_in_ball(rng, m_params, d)
    return BanditInstance(actions=actions, params=params, model=model)
