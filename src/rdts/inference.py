"""Exact Bayesian posterior over the finite parameter set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .model import BanditInstance, outcome_values, two_point_outcomes
# outcome_support stays importable from here for code that traces or patches it by name
from .model import outcome_support  # noqa: F401
from .tolerances import BELIEF_TOL


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


def outcome_likelihoods(
    instance: BanditInstance, action_idx: int, outcome: float
) -> NDArray:
    """P(outcome | action, theta_i) for every parameter i.

    The mass on the pair's outcomes whose value equals ``outcome``
    (``two_point_outcomes``, ``outcome_values``): distinct support values are
    distinct floats, so this is the mass on the outcome's support index, and
    0 off the support.
    """
    means = instance.mean_rewards(np.arange(instance.n_params), action_idx)
    _, weights = two_point_outcomes(instance.model, means)
    return _mass_on(outcome_values(instance.model, means), weights, outcome)


def _mass_on(labels: NDArray, weights: NDArray, key: NDArray | float) -> NDArray:
    """Mass of the two-point pmfs ``(labels, weights)`` (last axis) on the
    entries whose label equals ``key`` (broadcast). The two terms are added
    directly: the float of ``sum(axis=-1)``, without a reduction's overhead."""
    mass = np.where(labels == key, weights, 0.0)
    return mass[..., 0] + mass[..., 1]


def _normalised(p: NDArray, owned: bool = False) -> NDArray:
    """Probability vectors along the last axis, checked to ``BELIEF_TOL`` and
    renormalised after clipping rounding negatives to zero. Each check is one
    reduction over every row: ``fmin`` for the entries, which skips NaN as the
    elementwise test ``(p < -BELIEF_TOL).any()`` does, and ``maximum`` for
    the distance of each sum from 1, which propagates NaN, so a NaN sum is
    rejected. With ``owned`` the clip and the division write into ``p``,
    which the caller must own."""
    if np.fmin.reduce(p, axis=None) < -BELIEF_TOL:
        raise ValueError("belief entries must be non-negative")
    total = np.add.reduce(p, axis=-1, keepdims=True)
    if not np.maximum.reduce(abs(total - 1.0), axis=None) <= BELIEF_TOL:
        bad = total[~(abs(total - 1.0) <= BELIEF_TOL)][0]
        raise ValueError(f"belief must sum to 1, got {bad!r}")
    clipped = np.maximum(p, 0.0, out=p if owned else None)
    return np.divide(clipped, total, out=clipped)


def _bayes_numerator(probs: NDArray, like: NDArray) -> tuple[NDArray, NDArray, bool]:
    """Row-wise unnormalised posterior ``probs * like`` of 2-D arrays, its
    sums, and whether every row has a positive sum.

    A row whose direct product underflows to zero although some parameter has
    both mass and likelihood (only for huge m) is redone in log space, scaled
    so its largest term is 1. A row that nothing explains keeps sum 0.
    """
    post = probs * like
    total = np.add.reduce(post, axis=1)
    # fmin skips NaN sums as the elementwise test (total <= 0).any() does
    if not np.fmin.reduce(total) <= 0.0:
        return post, total, True
    for r in np.flatnonzero(total <= 0.0):
        p, l = probs[r], like[r]
        if np.any((p > 0) & (l > 0)):
            logp = np.log(p, out=np.full_like(p, -np.inf), where=p > 0)
            logl = np.log(l, out=np.full_like(l, -np.inf), where=l > 0)
            logpost = logp + logl
            logpost -= logpost.max()
            post[r] = np.exp(logpost)
            total[r] = post[r].sum()
    return post, total, not (total <= 0.0).any()


def posterior_update(
    belief: BeliefState, instance: BanditInstance, action_idx: int, outcome: float
) -> BeliefState:
    """Exact Bayes update after observing ``outcome`` from ``action_idx``.

    Parameters with zero likelihood drop to probability zero. Raises
    :class:`AllZeroLikelihood` if nothing in the support explains the outcome.
    """
    like = outcome_likelihoods(instance, action_idx, outcome)
    post, total, explained = _bayes_numerator(belief.probs[None], like[None])
    if not explained:
        raise AllZeroLikelihood(
            f"outcome {outcome!r} impossible for action {action_idx} under every parameter"
        )
    return BeliefState(post[0] / total[0])


def posterior_update_rows(beliefs: NDArray, like: NDArray) -> NDArray:
    """``posterior_update`` of each row of a ``(runs, m)`` belief matrix, given
    the ``(runs, m)`` likelihoods of each row's observation; same arithmetic.
    The division and the normalisation write into the product's own array.
    Whether some row is empty is one ``fmin`` reduction over the row sums,
    and ``_normalised`` checks every row with one reduction per check; the
    second normalisation keeps each row bit for bit the per-run update's."""
    post, total, explained = _bayes_numerator(beliefs, like)
    if not explained:
        raise AllZeroLikelihood("an observed outcome is impossible under every parameter")
    return _normalised(np.divide(post, total[:, None], out=post), owned=True)


def inverse_cdf(probs: NDArray, u: NDArray | float) -> NDArray:
    """Inverse-CDF draw along the last axis of ``probs``, one uniform ``u`` per row.

    Returns the first index whose cumulative mass exceeds ``u``. When float
    rounding leaves the total mass at or below ``u``, the draw goes to the
    row's last index with positive mass, never to a zero-mass index.
    """
    cdf = np.cumsum(probs, axis=-1)
    idx = (cdf <= np.asarray(u)[..., None]).sum(-1)
    size = probs.shape[-1]
    over = idx == size
    if over.any():
        last = size - 1 - np.argmax(probs[..., ::-1] > 0.0, axis=-1)
        idx = np.where(over, last, idx)
    return idx


def sample_parameter(belief: BeliefState, rng: np.random.Generator) -> int:
    """Inverse-CDF draw over the fixed parameter ordering (reproducible)."""
    return int(inverse_cdf(belief.probs, rng.random()))
