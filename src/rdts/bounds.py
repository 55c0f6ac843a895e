"""Closed-form evaluators for the regret bounds and their constants.

All logarithms are natural. Each evaluator is a pure function.
"""

from __future__ import annotations

import math

from .model import GLM, LINEAR_BINARY, LOGISTIC, OutcomeModel


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
    if not c_phi_value > 0:
        raise ValueError("c_phi must be positive")
    return 2.0 * c_phi_value * linear_bound(d, horizon)


def logistic_bound(
    d: int, horizon: int, beta: float, delta: float
) -> tuple[float, float]:
    """Both displayed forms of the logistic bandit bound (primary, simplified).

    The primary form uses the sigmoid derivative at the margin and converges
    to 2d*sqrt(T log 3) as beta grows; the simplified form replaces it with
    min(1/delta, beta)/4 and always dominates the primary one.
    """
    if d < 1 or horizon < 1 or not (beta > 0 and delta > 0):
        raise ValueError("need d, T >= 1 and beta, delta > 0")
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


def ladder_start(
    model: OutcomeModel, epsilon: float, delta: float
) -> tuple[float, float]:
    """``(phi(delta), s_0)`` of the logistic ladder, with phi(s_0) = phi(delta) - epsilon.

    Raises :class:`EpsilonTooLarge` unless epsilon < phi(delta) - 1/2, which
    is what puts s_0 above 0.
    """
    phi_delta = float(model.link(delta))
    if epsilon >= phi_delta - 0.5:
        raise EpsilonTooLarge(
            f"epsilon {epsilon!r} must be < phi(delta) - 1/2 = {phi_delta - 0.5!r}"
        )
    return phi_delta, float(model.link_inv(phi_delta - epsilon))


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
        if c_phi_value is None or not c_phi_value > 0:
            raise ValueError("glm bound needs c_phi > 0")
        return (2.0 * c_phi_value / epsilon + 1.0) ** d
    if kind == LOGISTIC:
        if beta is None or delta is None or not (beta > 0 and delta > 0):
            raise ValueError("logistic bound needs beta, delta > 0")
        _, s0 = ladder_start(OutcomeModel(kind=LOGISTIC, beta=beta), epsilon, delta)
        return (1.0 / epsilon) * (1.0 + 2.0 / (delta - s0)) ** d
    raise ValueError(f"unsupported kind {kind!r}")
