"""Exact Bayesian posterior over the finite parameter set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

# outcome_support stays importable from here for code that traces or patches it by name
from .model import BanditInstance, outcome_support  # noqa: F401
from .tolerances import BELIEF_TOL, OUTCOME_MATCH_TOL


class AllZeroLikelihood(ValueError):
    """The observed outcome has probability zero under every parameter."""


@dataclass(frozen=True)
class BeliefState:
    """Probability vector over the finite parameter set. Immutable value."""

    probs: NDArray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("belief must be a non-empty 1-D probability vector")
        p = _normalised(p)
        object.__setattr__(self, "probs", p)
        p.setflags(write=False)

    @classmethod
    def uniform(cls, m: int) -> "BeliefState":
        return cls(np.full(m, 1.0 / m))

    @classmethod
    def point_mass(cls, m: int, idx: int) -> "BeliefState":
        p = np.zeros(m)
        p[idx] = 1.0
        return cls(p)


def outcome_likelihoods(
    instance: BanditInstance, action_idx: int, outcome: float
) -> NDArray:
    """P(outcome | action, theta_i) for every parameter i.

    The mass on the support points within ``OUTCOME_MATCH_TOL`` of
    ``outcome``, read from the action's two-point ``OutcomeTable``; a pmf has
    at most two nonzero terms, so this is the same float as the sum over the
    matching columns of ``outcome_support``.
    """
    table = instance.outcome_table(action_idx)
    return _match_likelihood(table.points(), table.w, outcome)


def _match_likelihood(points: NDArray, weights: NDArray, y: NDArray | float) -> NDArray:
    """Mass of the two-point pmfs ``(points, weights)`` (last axis) on the
    points within ``OUTCOME_MATCH_TOL`` of ``y``, which broadcasts against
    ``points``; a pmf has at most two nonzero terms, so the sum is the same
    float in any order."""
    hit = np.abs(points - y) <= OUTCOME_MATCH_TOL
    return np.where(hit, weights, 0.0).sum(axis=-1)


def _normalised(p: NDArray) -> NDArray:
    """Probability vectors along the last axis, checked to ``BELIEF_TOL`` and
    renormalised after clipping rounding negatives to zero."""
    if (p < -BELIEF_TOL).any():
        raise ValueError("belief entries must be non-negative")
    total = p.sum(axis=-1, keepdims=True)
    off = ~(np.abs(total - 1.0) <= BELIEF_TOL)  # NaN is off
    if off.any():
        raise ValueError(f"belief must sum to 1, got {total[off][0]!r}")
    return np.clip(p, 0.0, None) / total


def _bayes_numerator(probs: NDArray, like: NDArray) -> tuple[NDArray, NDArray]:
    """Row-wise unnormalised posterior ``probs * like`` of 2-D arrays, and its sums.

    A row whose direct product underflows to zero although some parameter has
    both mass and likelihood (only for huge m) is redone in log space, scaled
    so its largest term is 1. A row that nothing explains keeps sum 0.
    """
    post = probs * like
    total = post.sum(axis=1)
    for r in np.flatnonzero(total <= 0.0):
        p, l = probs[r], like[r]
        if np.any((p > 0) & (l > 0)):
            logp = np.where(p > 0, np.log(p, where=p > 0), -np.inf)
            logl = np.where(l > 0, np.log(l, where=l > 0), -np.inf)
            logpost = logp + logl
            logpost -= logpost.max()
            post[r] = np.exp(logpost)
            total[r] = post[r].sum()
    return post, total


def posterior_update(
    belief: BeliefState, instance: BanditInstance, action_idx: int, outcome: float
) -> BeliefState:
    """Exact Bayes update after observing ``outcome`` from ``action_idx``.

    Parameters with zero likelihood drop to probability zero. Raises
    :class:`AllZeroLikelihood` if nothing in the support explains the outcome.
    """
    like = outcome_likelihoods(instance, action_idx, outcome)
    post, total = _bayes_numerator(belief.probs[None], like[None])
    if total[0] <= 0.0:
        raise AllZeroLikelihood(
            f"outcome {outcome!r} impossible for action {action_idx} under every parameter"
        )
    return BeliefState(post[0] / total[0])


def posterior_update_rows(beliefs: NDArray, like: NDArray) -> NDArray:
    """``posterior_update`` of each row of a ``(runs, m)`` belief matrix, given
    the ``(runs, m)`` likelihoods of each row's observation; same arithmetic."""
    post, total = _bayes_numerator(beliefs, like)
    if np.any(total <= 0.0):
        raise AllZeroLikelihood("an observed outcome is impossible under every parameter")
    return _normalised(post / total[:, None])


def optimal_action_distribution(
    belief: BeliefState, instance: BanditInstance
) -> NDArray:
    """Pushforward of the belief through the best-action map alpha."""
    return np.bincount(
        instance.astar, weights=belief.probs, minlength=instance.n_actions
    )


def inverse_cdf(probs: NDArray, u: NDArray | float) -> NDArray:
    """Inverse-CDF draw along the last axis of ``probs``, one uniform ``u`` per row.

    Returns the first index whose cumulative mass exceeds ``u``. When float
    rounding leaves the total mass at or below ``u``, the draw goes to the
    row's last index with positive mass, never to a zero-mass index.
    """
    cdf = np.cumsum(probs, axis=-1)
    idx = np.count_nonzero(cdf <= np.asarray(u)[..., None], axis=-1)
    size = probs.shape[-1]
    over = idx == size
    if np.any(over):
        last = size - 1 - np.argmax(probs[..., ::-1] > 0.0, axis=-1)
        idx = np.where(over, last, idx)
    return idx


def sample_parameter(belief: BeliefState, rng: np.random.Generator) -> int:
    """Inverse-CDF draw over the fixed parameter ordering (reproducible)."""
    return int(inverse_cdf(belief.probs, rng.random()))
