"""Closed-form evaluators for the regret bounds and their constants, and
the logistic ladder whose bands both the partition-count bound and the
layered partition builder use.

All logarithms are natural. Each evaluator is a pure function.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .model import GLM, LINEAR_BINARY, LOGISTIC, OutcomeModel, _sorted_distinct
from .tolerances import LADDER_TOL, MARGIN_TOL


class EpsilonTooLarge(ValueError):
    """epsilon at or above phi(delta) - 1/2: the logistic ladder cannot start."""


def _require_nonnegative(**kwargs: float) -> None:
    for name, v in kwargs.items():
        if not v >= 0:  # NaN fails
            raise ValueError(f"{name} must be non-negative, got {v!r}")


def entropy_bound(gamma_bar: float, entropy_nats: float, horizon: int) -> float:
    """sqrt(gamma_bar * H * T): the worst-case information-ratio regret bound."""
    _require_nonnegative(gamma_bar=gamma_bar, entropy_nats=entropy_nats, horizon=horizon)
    return math.sqrt(gamma_bar * entropy_nats * horizon)


def compressed_bound(
    gamma_bar: float, info_nats: float, epsilon: float, horizon: int
) -> float:
    """sqrt(gamma_bar * I * T) + epsilon * T: the rate-distortion regret bound."""
    _require_nonnegative(
        gamma_bar=gamma_bar, info_nats=info_nats, epsilon=epsilon, horizon=horizon
    )
    return math.sqrt(gamma_bar * info_nats * horizon) + epsilon * horizon


def linear_bound(d: int, horizon: int) -> float:
    """d * sqrt(T * log(3 + 3*sqrt(2T)/d)) for the linear bandit."""
    if d < 1 or horizon < 1:
        raise ValueError("d and horizon must be >= 1")
    return d * math.sqrt(horizon * math.log(3.0 + 3.0 * math.sqrt(2.0 * horizon) / d))


def glm_bound(d: int, horizon: int, c_phi_value: float) -> float:
    """2 * C(phi) * d * sqrt(T * log(3 + 3*sqrt(2T)/d)) for GLM bandits."""
    # C(phi) = 0, a link saturated at every realized inner product, makes every
    # float mean reward equal: the float regret is exactly 0, and so is the bound
    if not c_phi_value >= 0:  # NaN fails
        raise ValueError("c_phi must be non-negative")
    return 2.0 * c_phi_value * linear_bound(d, horizon)


def logistic_bound(
    d: int, horizon: int, beta: float, delta: float
) -> tuple[float, float]:
    """Both displayed forms of the logistic bandit bound (primary, simplified).

    The primary form uses the sigmoid derivative at the margin and converges
    to 2d*sqrt(T log 3) as beta grows; the simplified form replaces it with
    min(1/delta, beta)/4 and always dominates the primary one.
    """
    # written so that NaN fails; an infinite beta would make the slope inf * 0
    if d < 1 or horizon < 1 or not (0 < beta < math.inf and 0 < delta < math.inf):
        raise ValueError("need d, T >= 1 and finite beta, delta > 0")
    # beta * e^{beta delta} / (1 + e^{beta delta})^2, computed overflow-safe
    x = beta * delta
    slope = beta * math.exp(-x) / (1.0 + math.exp(-x)) ** 2
    root = math.sqrt(2.0 * horizon)
    primary = 2.0 * d * math.sqrt(
        horizon * math.log(3.0 + (6.0 * root / d) * slope)
    )
    simplified = 2.0 * d * math.sqrt(
        horizon * math.log(3.0 + (3.0 * root / (2.0 * d)) * min(1.0 / delta, beta))
    )
    return primary, simplified


def c_phi(model: OutcomeModel, interval_lo: float, interval_hi: float) -> float:
    """Supremum of the link derivative over [interval_lo, interval_hi].

    The sigmoid derivative peaks at 0 and decays with |x|, so the supremum
    sits at the interval point nearest 0. The linear model's slope is 1/2.
    """
    if interval_lo > interval_hi:
        raise ValueError("interval_lo must not exceed interval_hi")
    if model.kind == LINEAR_BINARY:
        return 0.5
    if model.kind in (GLM, LOGISTIC):
        if interval_lo <= 0.0 <= interval_hi:
            nearest = 0.0
        elif interval_lo > 0.0:
            nearest = interval_lo
        else:
            nearest = interval_hi
        return float(model.link_deriv(nearest))
    raise ValueError(f"unsupported model kind {model.kind!r}")


class LogisticLadder:
    """The logistic levels s_0 < s_1 = delta < ... < s_L = 1, with equal link
    increments, computed on demand.

    phi(s_0) = phi(delta) - epsilon, and L is the smallest integer with
    phi(delta) + (L-1) * epsilon >= phi(1), so consecutive levels past s_0
    advance the link value by exactly epsilon: s_ell = link_inv(phi(delta)
    + (ell-1) * epsilon) for 1 < ell < L, a function of ell alone. Band b
    spans (s_b, s_{b+1}] for b = 1, ..., L - 1, closed on the left for
    b = 1; if delta >= 1, or the link saturates there, L = 1 and the one band
    spans [s_0, s_1 = 1].

    Raises :class:`EpsilonTooLarge` unless epsilon < phi(delta) - 1/2, which
    is what puts s_0 above 0.
    """

    def __init__(self, model: OutcomeModel, epsilon: float, delta: float) -> None:
        self.model, self.epsilon, self.delta = model, epsilon, delta
        self.phi_delta = float(model.link(delta))
        if epsilon >= self.phi_delta - 0.5:
            raise EpsilonTooLarge(
                f"epsilon {epsilon!r} must be < phi(delta) - 1/2 = {self.phi_delta - 0.5!r}"
            )
        self.s0 = float(model.link_inv(self.phi_delta - epsilon))
        gap = float(model.link(1.0)) - self.phi_delta
        # L - 1 as a float, infinite at a subnormal epsilon
        self._past_delta = float(np.ceil(gap / epsilon - LADDER_TOL)) if gap > 0 else 0.0

    @property
    def L(self) -> int:
        """The number of levels past s_0. Raises ValueError if the ladder
        has 2**62 bands or more (band numbers are 64-bit integers); the
        partition-count bound reads s_0 alone and evaluates at any epsilon."""
        if not self._past_delta < 2.0**62:
            raise ValueError(f"epsilon {self.epsilon!r} gives 2**62 or more ladder bands")
        return max(1, int(self._past_delta) + 1)

    @property
    def bands(self) -> int:
        """The number of bands: L - 1, or the degenerate ladder's one."""
        return max(self.L - 1, 1)

    def levels(self, ell: NDArray) -> NDArray:
        """s_ell for each entry of the integer array ``ell`` (0 <= ell <= L)."""
        if self.L < 2:
            return np.where(ell == 0, self.s0, 1.0)
        s = np.where(ell == 0, self.s0, np.where(ell == 1, self.delta, 1.0))
        middle = (ell > 1) & (ell < self.L)
        s[middle] = self.model.link_inv(self.phi_delta + (ell[middle] - 1) * self.epsilon)
        return s

    def gaps(self, band: NDArray) -> NDArray:
        """Each band's covering diameter: s_b - s_{b-1}, which for the
        degenerate band is s_1 - s_0."""
        s = self.levels(np.concatenate([band - 1, band]))
        return s[band.size :] - s[: band.size]

    def band_of(self, v: NDArray) -> NDArray:
        """For each margin v > 0, the first band whose edges, widened by
        ``MARGIN_TOL``, hold it, or 0 if none does.

        Band b ends at s_{b+1} + MARGIN_TOL, which never decreases with b, so
        only the first band that ends at or above v can hold v. The link
        guesses that band, two edges confirm the guess, and a bisection over
        the bands finds it where they do not; every edge is a float the
        full ladder holds. Each step computes the level of each distinct
        band once.
        """
        nb = self.bands
        shift = -1 if self.L < 2 else 0

        def ends(band: NDArray) -> NDArray:
            ell = band + 1 + shift
            distinct = _sorted_distinct(ell)
            return self.levels(distinct)[np.searchsorted(distinct, ell)] + MARGIN_TOL

        guess = np.ceil((self.model.link(v) - self.phi_delta) / self.epsilon)
        guess = np.clip(guess, 1, nb).astype(np.intp)
        # the band sought lies in [lo, hi]
        reaches = ends(guess) >= v
        lo = np.where(reaches, 1, np.minimum(guess + 1, nb))
        hi = np.where(reaches, guess, nb)
        confirmed = np.flatnonzero(reaches & (guess > 1))
        confirmed = confirmed[ends(guess[confirmed] - 1) < v[confirmed]]
        lo[confirmed] = guess[confirmed]
        while (open_ := np.flatnonzero(lo < hi)).size:
            mid = lo[open_] + (hi[open_] - lo[open_]) // 2
            reaches = ends(mid) >= v[open_]
            hi[open_] = np.where(reaches, mid, hi[open_])
            lo[open_] = np.where(reaches, lo[open_], mid + 1)
        # band 1 is closed on the left, at s_1 (s_0 for the degenerate band)
        start = self.s0 if self.L < 2 else self.delta
        opens = np.where(lo == 1, v >= start - MARGIN_TOL, v > ends(lo - 1))
        return np.where(opens & (v <= ends(lo)), lo, 0)


def partition_count_bounds(
    d: int,
    epsilon: float,
    kind: str,
    c_phi_value: float | None = None,
    beta: float | None = None,
    delta: float | None = None,
) -> float:
    """Covering-number bounds on the number of cells K, by model kind."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if kind == LINEAR_BINARY:
        return (1.0 / epsilon + 1.0) ** d
    if kind == GLM:
        # C(phi) = 0, a link saturated at every realized inner product, makes
        # every distortion 0: one cell, and the formula gives 1
        if c_phi_value is None or not c_phi_value >= 0:
            raise ValueError("glm bound needs c_phi >= 0")
        return (2.0 * c_phi_value / epsilon + 1.0) ** d
    if kind == LOGISTIC:
        if beta is None or delta is None or not (beta > 0 and delta > 0):
            raise ValueError("logistic bound needs beta, delta > 0")
        ladder = LogisticLadder(OutcomeModel(kind=LOGISTIC, beta=beta), epsilon, delta)
        return (1.0 / epsilon) * (1.0 + 2.0 / (delta - ladder.s0)) ** d
    raise ValueError(f"unsupported kind {kind!r}")
