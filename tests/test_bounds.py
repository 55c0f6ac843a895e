import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdts.bounds import (
    EpsilonTooLarge,
    c_phi,
    compressed_bound,
    entropy_bound,
    glm_bound,
    linear_bound,
    logistic_bound,
    partition_count_bounds,
)
from rdts.model import GLM, LINEAR_BINARY, LOGISTIC, OutcomeModel


def test_entropy_bound_values():
    assert entropy_bound(1.0, math.log(2.0), 4) == pytest.approx(
        2.0 * math.sqrt(math.log(2.0)), abs=1e-12
    )
    assert entropy_bound(1.0, math.log(2.0), 4) == pytest.approx(1.665109, abs=1e-6)
    assert entropy_bound(0.0, 1.0, 100) == 0.0
    with pytest.raises(ValueError):
        entropy_bound(-1.0, 1.0, 10)


def test_compressed_bound_value():
    assert compressed_bound(0.5, math.log(2.0), 0.01, 100) == pytest.approx(
        math.sqrt(0.5 * math.log(2.0) * 100) + 1.0, abs=1e-12
    )
    assert compressed_bound(0.5, math.log(2.0), 0.01, 100) == pytest.approx(
        6.887, abs=1e-3
    )
    # epsilon = 0 recovers the plain entropy-style bound
    assert compressed_bound(0.5, 1.0, 0.0, 100) == entropy_bound(0.5, 1.0, 100)


def test_linear_bound_values():
    assert linear_bound(10, 10_000) == pytest.approx(1953.5, abs=0.1)
    expected = 3.0 * math.sqrt(500 * math.log(3.0 + 3.0 * math.sqrt(1000.0) / 3.0))
    assert linear_bound(3, 500) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        linear_bound(0, 100)


def test_glm_bound_scales_linear():
    assert glm_bound(4, 200, 0.5) == pytest.approx(linear_bound(4, 200), abs=1e-12)
    assert glm_bound(4, 200, 0.25) == pytest.approx(0.5 * linear_bound(4, 200), abs=1e-12)
    # a slope of 0 (a link saturated at every realized inner product) bounds a
    # regret that is exactly 0
    assert glm_bound(4, 200, 0.0) == 0.0
    with pytest.raises(ValueError):
        glm_bound(4, 200, -0.25)


def test_logistic_bound_large_beta_limit():
    primary, _ = logistic_bound(2, 100, 1e6, 0.5)
    limit = 2.0 * 2 * math.sqrt(100 * math.log(3.0))
    assert primary == pytest.approx(limit, rel=1e-3)
    assert limit == pytest.approx(41.93, abs=0.01)


def test_logistic_bound_no_overflow_and_positive():
    primary, simplified = logistic_bound(5, 1000, 1e12, 0.3)
    assert math.isfinite(primary) and math.isfinite(simplified)
    assert 0.0 < primary <= simplified


@pytest.mark.parametrize("beta, delta", [(math.inf, 0.5), (2.0, math.inf), (math.inf, math.inf)])
def test_logistic_bound_rejects_infinite_beta_and_delta(beta, delta):
    # an infinite beta made the slope inf * exp(-inf) = nan, returned as the bound
    with pytest.raises(ValueError, match="finite beta, delta"):
        logistic_bound(2, 10, beta, delta)


@given(
    st.floats(min_value=0.01, max_value=1000.0),
    st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_logistic_primary_never_exceeds_simplified(beta, delta):
    primary, simplified = logistic_bound(3, 250, beta, delta)
    assert primary <= simplified + 1e-12


def test_c_phi_linear_is_half():
    assert c_phi(OutcomeModel(kind=LINEAR_BINARY), -1.0, 1.0) == 0.5


def test_c_phi_sigmoid_peak_location():
    model = OutcomeModel(kind=LOGISTIC, beta=2.0)
    # derivative peaks at 0: any interval containing 0 hits beta / 4
    assert c_phi(model, -1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    # strictly positive interval: supremum at the left endpoint
    assert c_phi(model, 0.5, 1.0) == pytest.approx(float(model.link_deriv(0.5)), abs=1e-15)
    # strictly negative interval: supremum at the right endpoint
    assert c_phi(model, -1.0, -0.5) == pytest.approx(float(model.link_deriv(-0.5)), abs=1e-15)
    with pytest.raises(ValueError):
        c_phi(model, 1.0, 0.0)


def test_partition_count_bounds_linear_and_glm():
    assert partition_count_bounds(3, 0.5, LINEAR_BINARY) == pytest.approx(27.0, abs=1e-9)
    assert partition_count_bounds(2, 0.5, GLM, c_phi_value=0.25) == pytest.approx(
        4.0, abs=1e-9
    )
    with pytest.raises(ValueError):
        partition_count_bounds(2, 0.0, LINEAR_BINARY)
    # C(phi) = 0 makes every distortion 0: one cell
    assert partition_count_bounds(2, 0.5, GLM, c_phi_value=0.0) == 1.0
    with pytest.raises(ValueError):
        partition_count_bounds(2, 0.5, GLM, c_phi_value=-0.25)
    with pytest.raises(ValueError):
        partition_count_bounds(2, 0.5, GLM)


def test_partition_count_bounds_logistic():
    beta, delta, eps = 2.0, 0.5, 0.05
    model = OutcomeModel(kind=LOGISTIC, beta=beta)
    phi_delta = float(model.link(delta))
    s0 = float(model.link_inv(phi_delta - eps))
    expected = (1.0 / eps) * (1.0 + 2.0 / (delta - s0)) ** 2
    assert partition_count_bounds(2, eps, LOGISTIC, beta=beta, delta=delta) == pytest.approx(
        expected, rel=1e-12
    )
    with pytest.raises(EpsilonTooLarge):
        partition_count_bounds(2, phi_delta - 0.5 + 1e-9, LOGISTIC, beta=beta, delta=delta)



@pytest.mark.parametrize("call", [
    lambda nan: entropy_bound(nan, 1.0, 10),
    lambda nan: entropy_bound(1.0, nan, 10),
    lambda nan: compressed_bound(nan, 1.0, 0.1, 10),
    lambda nan: compressed_bound(1.0, 1.0, nan, 10),
    lambda nan: glm_bound(2, 10, nan),
    lambda nan: logistic_bound(2, 10, nan, 0.5),
    lambda nan: logistic_bound(2, 10, 2.0, nan),
    lambda nan: partition_count_bounds(2, nan, LINEAR_BINARY),
    lambda nan: partition_count_bounds(2, 0.1, GLM, c_phi_value=nan),
    lambda nan: partition_count_bounds(2, 0.05, LOGISTIC, beta=nan, delta=0.5),
], ids=["entropy-gamma", "entropy-H", "compressed-gamma", "compressed-epsilon", "glm-c_phi",
        "logistic-beta", "logistic-delta", "count-epsilon", "count-c_phi", "count-beta"])
def test_bounds_reject_nan_inputs(call):
    # NaN compares False against every bound, so "v < 0" let it through
    with pytest.raises(ValueError):
        call(math.nan)
