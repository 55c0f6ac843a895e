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

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .tolerances import MERGE_TOL, NORM_TOL, OUTCOME_PMF_TOL, SUPPORT_MATCH_TOL

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
        return 1.0 / (1.0 + np.exp(-self.beta * np.asarray(x, dtype=float)))

    def link_inv(self, y: NDArray | float) -> NDArray | float:
        assert self.beta is not None
        y = np.asarray(y, dtype=float)
        return np.log(y / (1.0 - y)) / self.beta

    def link_deriv(self, x: NDArray | float) -> NDArray | float:
        assert self.beta is not None
        p = self.link(x)
        return self.beta * p * (1.0 - p)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.beta is not None:
            out["beta"] = self.beta
        if self.eta is not None:
            out["eta"] = self.eta
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "OutcomeModel":
        return cls(kind=d["kind"], beta=d.get("beta"), eta=d.get("eta"))


def _check_ball(vectors: NDArray, name: str) -> None:
    if vectors.ndim != 2 or vectors.shape[0] == 0 or vectors.shape[1] < 1:
        raise InvalidInstanceError(f"{name} must be a non-empty (count, d) array")
    if not np.isfinite(vectors).all():
        raise InvalidInstanceError(f"{name} contains non-finite coordinates")
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms > 1.0 + NORM_TOL):
        raise InvalidInstanceError(f"{name} contains vectors with norm > 1")


@dataclass(frozen=True)
class BanditInstance:
    """Immutable bandit instance with its inner products and argmaxes.

    ``inner[i, j]`` is ``a_j . theta_i``; ``astar[i]`` is the lowest-index
    maximizer of row ``i``. Every link is strictly increasing, so that is the
    best action of row ``i`` even where the float link saturates and the mean
    rewards tie. ``mu[i, j]``, the exact mean reward of action ``j`` under
    parameter ``i``, is built from ``inner`` on first read and then kept;
    ``mean_rewards(rows, cols)`` gives ``mu[rows, cols]`` bit for bit from
    the entries of ``inner`` it needs, without building the table.

    The outcome pmfs are tabulated lazily, one :class:`OutcomeTable` per
    action, built and validated the first time ``outcome_table`` is asked for
    that action and shared by every later call. An entry holds O(q + m)
    read-only numbers (q support values, two point indices and two weights
    per parameter); no dense ``(m, q)`` array is cached, and actions nothing
    asks for cost nothing.
    """

    actions: NDArray
    params: NDArray
    model: OutcomeModel
    inner: NDArray = field(init=False, repr=False)
    astar: NDArray = field(init=False, repr=False)
    _outcomes: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        actions = np.asarray(self.actions, dtype=float)
        params = np.asarray(self.params, dtype=float)
        _check_ball(actions, "actions")
        _check_ball(params, "params")
        if actions.shape[1] != params.shape[1]:
            raise InvalidInstanceError("actions and params must share dimension d")
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "params", params)
        inner = params @ actions.T
        # np.argmax breaks ties at the lowest index
        astar = np.argmax(inner, axis=1).astype(np.intp)
        for arr in (actions, params, inner, astar):
            arr.setflags(write=False)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "astar", astar)
        object.__setattr__(self, "_outcomes", {})
        if self.model.kind == LINEAR_BINARY:
            # success probability 1/2 + a.theta/2 must be a probability
            if np.any(np.abs(inner) > 1.0 + OUTCOME_PMF_TOL):
                raise InvalidInstanceError("linear_binary requires |a.theta| <= 1")
        elif self.model.kind == GLM:
            eta = float(self.model.eta or 0.0)
            spread = float(self.mu.max() - self.mu.min()) + 2.0 * eta
            if spread > 1.0 + OUTCOME_PMF_TOL:
                raise InvalidInstanceError(
                    "glm reward range exceeds 1 (link spread + 2*eta)"
                )

    @cached_property
    def mu(self) -> NDArray:
        """Read-only ``(m, n)`` mean-reward table, built on first read."""
        mu = self.mean_rewards(slice(None), slice(None))
        mu.setflags(write=False)
        return mu

    def mean_rewards(self, rows, cols) -> NDArray:
        """``mu[rows, cols]``: the model's mean applied to ``inner[rows, cols]``.

        The mean is elementwise, so the values equal the table's bit for bit
        whatever the index shapes, and only the gathered entries are computed.
        """
        x = self.inner[rows, cols]
        if self.model.kind == LINEAR_BINARY:
            return 0.5 * x
        return np.asarray(self.model.link(x))

    def outcome_table(self, action_idx: int) -> "OutcomeTable":
        """The action's outcome pmfs, built on first use and then shared."""
        return self.outcome_tables([action_idx])[0]

    def outcome_tables(self, actions) -> list["OutcomeTable"]:
        """``outcome_table(a)`` for every ``a`` in ``actions``, in order; the
        entries not yet built are built together."""
        actions = [int(a) for a in actions]
        missing = [a for a in dict.fromkeys(actions) if a not in self._outcomes]
        if missing:
            for a, table in zip(missing, _build_outcome_tables(self, missing)):
                self._outcomes[a] = table
        return [self._outcomes[a] for a in actions]

    @property
    def d(self) -> int:
        return int(self.actions.shape[1])

    @property
    def n_actions(self) -> int:
        return int(self.actions.shape[0])

    @property
    def n_params(self) -> int:
        return int(self.params.shape[0])

    def to_json(self) -> str:
        doc = {
            "d": self.d,
            "actions": self.actions.tolist(),
            "params": self.params.tolist(),
            "model": self.model.to_dict(),
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "BanditInstance":
        doc = json.loads(text)
        return cls(
            actions=np.asarray(doc["actions"], dtype=float),
            params=np.asarray(doc["params"], dtype=float),
            model=OutcomeModel.from_dict(doc["model"]),
        )


def mean_reward(instance: BanditInstance, action_idx: int, param_idx: int) -> float:
    """Exact mean reward of one (action, parameter) pair, from the formula."""
    a = instance.actions[action_idx]
    theta = instance.params[param_idx]
    x = float(a @ theta)
    if instance.model.kind == LINEAR_BINARY:
        return 0.5 * x
    return float(instance.model.link(x))


def best_action(instance: BanditInstance, param_idx: int) -> int:
    """Index of the optimal action under the given parameter (lowest-index ties)."""
    return int(instance.astar[param_idx])


@dataclass(frozen=True)
class OutcomeTable:
    """Outcome pmfs of one action, at most two points per parameter.

    ``values`` (shape ``(q,)``) is the sorted merged support. Under parameter
    ``i`` the action yields ``values[idx[i, k]]`` with probability ``w[i, k]``
    for ``k = 0, 1``; ``idx[i, 0] <= idx[i, 1]``, so the points are in support
    order. A single-point pmf has weights ``(1, 0)`` and repeats its index.
    All three arrays are read-only.
    """

    values: NDArray
    idx: NDArray
    w: NDArray

    def __post_init__(self) -> None:
        for arr in (self.values, self.idx, self.w):
            arr.setflags(write=False)

    def points(self) -> NDArray:
        """``(m, 2)`` outcome values of the two points of every parameter."""
        return self.values[self.idx]


# (low, high) outcome values of the binary models, and their point indices
_BINARY_VALUES = {LINEAR_BINARY: (-0.5, 0.5), LOGISTIC: (0.0, 1.0)}
_BINARY_IDX = np.arange(2, dtype=np.intp)
_BINARY_IDX.setflags(write=False)


def _build_outcome_tables(instance: BanditInstance, actions: list[int]) -> list[OutcomeTable]:
    """Tabulate and validate the actions' pmfs (``OUTCOME_PMF_TOL``, support
    match): the binary models' weights in one pass over ``mu``, glm one
    merged support per action."""
    kind = instance.model.kind
    if kind == GLM:
        return [_build_outcome_table(instance, a) for a in actions]
    p_hi = instance.mu[:, actions].T
    if kind == LINEAR_BINARY:
        p_hi = p_hi + 0.5
    w = np.empty(p_hi.shape + (2,))
    w[..., 0] = 1.0 - p_hi
    w[..., 1] = p_hi
    w = _checked_pmf(w)
    # every row views the same two indices (stride 0 over parameters)
    idx = np.ndarray(w.shape[1:], np.intp, _BINARY_IDX, strides=(0, _BINARY_IDX.itemsize))
    return [OutcomeTable(values=np.array(_BINARY_VALUES[kind]), idx=idx, w=ws) for ws in w]


def _build_outcome_table(instance: BanditInstance, action_idx: int) -> OutcomeTable:
    """Tabulate and validate one glm action's pmfs on its merged support."""
    eta = float(instance.model.eta or 0.0)
    means = instance.mu[:, action_idx]
    values = _dedupe_sorted(np.sort(np.concatenate([means - eta, means + eta])))
    lo = _locate(values, means - eta)
    hi = _locate(values, means + eta)
    # each point carries half the mass; a merged pair is one point of mass 1
    w = np.where((lo == hi)[:, None], [1.0, 0.0], 0.5)
    return OutcomeTable(
        values=values, idx=np.stack([lo, hi], axis=1), w=_checked_pmf(w)
    )


def outcome_support(
    instance: BanditInstance, action_idx: int
) -> tuple[NDArray, NDArray]:
    """Finite outcome support of one action, with per-parameter probabilities.

    Returns ``(values, probs)`` where ``values`` has shape ``(q,)`` and
    ``probs`` has shape ``(m, q)``: ``probs[i, y]`` is the probability that
    playing the action yields ``values[y]`` when parameter ``i`` is true.
    Both arrays are read-only and come from the instance's cached
    :class:`OutcomeTable` (``BanditInstance.outcome_table``): for the binary
    models ``probs`` is the table's weights, for ``glm`` a fresh dense array
    scattered from it, which is never cached.
    """
    table = instance.outcome_table(action_idx)
    if instance.model.kind != GLM:
        return table.values, table.w  # points (low, high) in every row
    rows = np.arange(instance.n_params)
    probs = np.zeros((rows.size, table.values.size))
    # second point first, so a single point's weight 1 overwrites its 0
    probs[rows, table.idx[:, 1]] = table.w[:, 1]
    probs[rows, table.idx[:, 0]] = table.w[:, 0]
    probs.setflags(write=False)
    return table.values, probs


def _checked_pmf(w: NDArray) -> NDArray:
    """``(..., 2)`` two-point pmfs, validated to ``OUTCOME_PMF_TOL`` and clipped to [0, 1]."""
    if ((w < -OUTCOME_PMF_TOL) | (w > 1.0 + OUTCOME_PMF_TOL)).any():
        raise InvalidInstanceError("outcome probability outside [0, 1]")
    if not (abs(w[..., 0] + w[..., 1] - 1.0) <= OUTCOME_PMF_TOL).all():  # NaN fails
        raise InvalidInstanceError("outcome pmf does not sum to 1")
    return w.clip(0.0, 1.0)


def two_point_outcomes(
    instance: BanditInstance, actions: NDArray
) -> tuple[NDArray, NDArray, NDArray]:
    """Outcome pmfs of several actions, as two points per (action, parameter).

    Every outcome model puts its mass on at most two values per pair: the
    binary models on their two outcomes, ``glm`` on ``mean -/+ eta`` after
    merging coincident values. Returns ``(idx, points, weights)``, each of
    shape ``(len(actions), m, 2)``: playing ``actions[s]`` under parameter
    ``i`` yields ``points[s, i, k]``, the action's support value
    ``idx[s, i, k]``, with probability ``weights[s, i, k]``. They are
    gathered from the instance's cached :class:`OutcomeTable` entries, so the
    points of a pair are in support order and an inverse-CDF draw over
    ``weights[s, i]`` picks the same value as one over the full row of
    ``outcome_support``; a single-point pmf has weight 0 on its second point.
    """
    tables = instance.outcome_tables(np.asarray(actions, dtype=np.intp))
    idx = np.stack([table.idx for table in tables])
    weights = np.stack([table.w for table in tables])
    # each action's support values, one after another
    start = np.cumsum([0] + [table.values.size for table in tables[:-1]])
    values = np.concatenate([table.values for table in tables])
    return idx, values[idx + start[:, None, None]], weights


def _distinct(codes: NDArray, n: int) -> NDArray:
    """The distinct values of non-negative integer ``codes`` below ``n``, in
    increasing order, as ``np.unique(codes)`` gives them. With numpy 2.4 a
    flag-less ``np.unique`` imports ``numpy.ma`` on first use, which costs
    time and memory and which nothing here needs."""
    return np.flatnonzero(np.bincount(codes, minlength=n))


def _dedupe_sorted(values: NDArray) -> NDArray:
    keep = [values[0]]
    for v in values[1:]:
        if v - keep[-1] > MERGE_TOL:
            keep.append(v)
    return np.asarray(keep)


def _locate(grid: NDArray, values: NDArray) -> NDArray:
    idx = np.searchsorted(grid, values)
    idx = np.clip(idx, 0, grid.size - 1)
    # searchsorted may land one slot right of the merged representative
    left = np.clip(idx - 1, 0, grid.size - 1)
    use_left = np.abs(grid[left] - values) <= np.abs(grid[idx] - values)
    out = np.where(use_left, left, idx)
    if np.any(np.abs(grid[out] - values) > SUPPORT_MATCH_TOL):
        raise InvalidInstanceError("outcome value does not match merged support")
    return out


def outcome_distribution(
    instance: BanditInstance, action_idx: int, param_idx: int
) -> dict[float, float]:
    """Exact outcome pmf of one (action, parameter) pair as {value: prob}."""
    values, probs = outcome_support(instance, action_idx)
    row = probs[param_idx]
    return {float(v): float(p) for v, p in zip(values, row) if p > 0.0}


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
