import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import instance_with_shared_points, make_model, random_instance
from rdts import model as model_mod
from rdts.bounds import c_phi
from rdts.compression import (
    best_action_margins,
    build_partition_glm,
    build_partition_logistic,
    build_representation,
    max_intra_cell_distortion,
    realized_link_slope,
)
from rdts.inference import BeliefState
from rdts.information import compressed_moments, ts_info_ratio
from rdts.model import (
    GLM,
    LINEAR_BINARY,
    LOGISTIC,
    BanditInstance,
    InvalidInstanceError,
    OutcomeModel,
    outcome_support,
    outcome_values,
    sample_in_ball,
    sample_instance,
    two_point_outcomes,
)
from rdts.policy import audit_regret_chain, simulate_ts
from rdts.tolerances import OUTCOME_PMF_TOL


def test_model_kind_validation():
    with pytest.raises(InvalidInstanceError):
        OutcomeModel(kind="gaussian")
    with pytest.raises(InvalidInstanceError):
        OutcomeModel(kind=LOGISTIC)  # missing beta
    with pytest.raises(InvalidInstanceError):
        OutcomeModel(kind=GLM, beta=1.0)  # missing eta
    with pytest.raises(InvalidInstanceError):
        OutcomeModel(kind=GLM, beta=-1.0, eta=0.1)


@pytest.mark.parametrize("beta, eta", [
    (math.nan, 0.05), (math.inf, 0.05), (1.0, math.nan), (1.0, math.inf),
])
def test_model_rejects_non_finite_beta_and_eta(beta, eta):
    # NaN compares False against every bound, so "beta <= 0" let it through
    with pytest.raises(InvalidInstanceError, match="finite"):
        OutcomeModel(kind=GLM, beta=beta, eta=eta)
    if not math.isfinite(beta):
        with pytest.raises(InvalidInstanceError, match="finite"):
            OutcomeModel(kind=LOGISTIC, beta=beta)


def test_checked_pmf_rejects_nan():
    with pytest.raises(InvalidInstanceError, match="sum to 1"):
        model_mod._checked_pmf(np.array([[math.nan, 0.5], [0.5, 0.5]]))


def test_link_matches_sigmoid():
    model = OutcomeModel(kind=LOGISTIC, beta=2.0)
    x = 0.7
    expected = math.exp(2.0 * x) / (1.0 + math.exp(2.0 * x))
    assert model.link(x) == pytest.approx(expected, abs=1e-15)
    assert model.link_inv(model.link(x)) == pytest.approx(x, abs=1e-12)
    # derivative of the sigmoid at the margin used by the closed-form bounds
    assert model.link_deriv(0.5) == pytest.approx(
        2.0 * math.e / (1.0 + math.e) ** 2, abs=1e-12
    )
    assert model.link_deriv(0.5) == pytest.approx(0.393224, abs=1e-6)


def test_link_saturates_to_zero_without_overflow_warning():
    model = OutcomeModel(kind=LOGISTIC, beta=1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.link(np.array([-0.8, 0.8])).tolist() == [0.0, 1.0]


def test_unit_ball_enforced():
    big = np.array([[1.2, 0.0]])
    ok = np.array([[0.5, 0.0]])
    with pytest.raises(InvalidInstanceError):
        BanditInstance(actions=big, params=ok, model=make_model(LINEAR_BINARY))
    with pytest.raises(InvalidInstanceError):
        BanditInstance(actions=ok, params=big, model=make_model(LINEAR_BINARY))


def test_glm_reward_range_enforced():
    # link spread + 2*eta must stay within a length-1 range
    actions = np.array([[1.0, 0.0], [-1.0, 0.0]])
    params = np.array([[1.0, 0.0], [-1.0, 0.0]])
    model = OutcomeModel(kind=GLM, beta=10.0, eta=0.2)
    with pytest.raises(InvalidInstanceError):
        BanditInstance(actions=actions, params=params, model=model)
    small = OutcomeModel(kind=GLM, beta=0.1, eta=0.01)
    BanditInstance(actions=actions, params=params, model=small)


def test_mean_reward_linear(tiny_linear):
    # mu(a, theta) = a.theta / 2 entry by entry
    for i in range(tiny_linear.n_params):
        for j in range(tiny_linear.n_actions):
            x = float(tiny_linear.actions[j] @ tiny_linear.params[i])
            assert tiny_linear.mean_rewards(i, j) == pytest.approx(0.5 * x, abs=1e-15)
            assert reference.mean_table(tiny_linear)[i, j] == pytest.approx(0.5 * x, abs=1e-15)


def test_mean_reward_logistic(tiny_logistic):
    mu = reference.mean_table(tiny_logistic)
    for i in range(tiny_logistic.n_params):
        for j in range(tiny_logistic.n_actions):
            x = float(tiny_logistic.actions[j] @ tiny_logistic.params[i])
            expected = 1.0 / (1.0 + math.exp(-2.0 * x))
            assert mu[i, j] == pytest.approx(expected, abs=1e-14)


@given(
    st.integers(min_value=0),
    st.sampled_from([LINEAR_BINARY, LOGISTIC, GLM]),
    st.sampled_from([0.1, 5.0, 100.0]),
)
@settings(max_examples=60, deadline=None)
def test_mean_rewards_gather_equals_table_entries(seed, kind, beta):
    rng = np.random.default_rng(seed)
    # eta = 0 keeps any glm link spread inside the reward range
    inst = random_instance(rng, kind, d=int(rng.integers(1, 6)), n=int(rng.integers(1, 30)),
                           m=int(rng.integers(1, 30)), beta=beta, eta=0.0)
    # the table as the instance built it when it kept one; these are one block
    inner = inst.params @ inst.actions.T
    old_mu = 0.5 * inner if kind == LINEAR_BINARY else np.asarray(inst.model.link(inner))
    # the realized-action table is built on first read, then kept read-only
    assert "realized" not in vars(inst)
    means = inst.realized
    assert inst.realized is means and not means.flags.writeable
    realized = np.unique(inst.astar)
    assert np.array_equal(means, old_mu[:, realized])
    assert np.array_equal(inst.slots[0], realized)
    mu = reference.mean_table(inst)
    assert np.array_equal(mu, old_mu)
    m, n = mu.shape
    for _ in range(10):
        rows = rng.integers(0, m, size=int(rng.integers(0, 50)))
        cols = rng.integers(0, n, size=rows.size)
        assert np.array_equal(inst.mean_rewards(rows, cols), mu[rows, cols])
        ix = np.ix_(rng.integers(0, m, size=int(rng.integers(0, 8))),
                    rng.integers(0, n, size=int(rng.integers(0, 8))))
        assert np.array_equal(inst.mean_rewards(*ix), mu[ix])
        i, j = int(rng.integers(0, m)), int(rng.integers(0, n))
        assert inst.mean_rewards(i, j) == mu[i, j]


def test_best_action_lowest_index_tie():
    actions = np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 0.5]])
    params = np.array([[1.0, 0.0]])
    inst = BanditInstance(actions=actions, params=params, model=make_model(LINEAR_BINARY))
    assert inst.astar[0] == 0


def _table_range_ok(actions, params, model) -> bool:
    """The range check of linear_binary (|a.theta| <= 1) or glm (link spread
    + 2 eta <= 1) read from the full inner-product and mean-reward tables of
    the same blocks, those of the unchecked logistic model with glm's beta."""
    table = BanditInstance(actions=actions, params=params,
                           model=OutcomeModel(kind=LOGISTIC, beta=model.beta or 1.0))
    if model.kind == LINEAR_BINARY:
        return not np.any(np.abs(reference.inner_table(table)) > 1.0 + OUTCOME_PMF_TOL)
    mu = reference.mean_table(table)
    spread = float(mu.max() - mu.min()) + 2.0 * model.eta
    return not spread > 1.0 + OUTCOME_PMF_TOL


@given(
    st.sampled_from([LINEAR_BINARY, GLM]),
    st.integers(min_value=0),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-12, max_value=12),
    st.sampled_from([1, 4, None]),
)
@settings(max_examples=120, deadline=None)
def test_range_checks_from_block_extremes_decide_as_the_tables(kind, seed, d, step, chunk):
    # instances placed a few ulps (glm) or a few 1e-13 (linear) either side of
    # the range bound, in one block or in blocks of 1 or 4 rows; the check and
    # realized_link_slope read the blocks' extremes, never the tables
    rng = np.random.default_rng(seed)
    actions = 0.9 * sample_in_ball(rng, 7, d)
    params = 0.9 * sample_in_ball(rng, 9, d)
    axis = np.eye(d)[0]
    if kind == LINEAR_BINARY:
        actions[3] = axis * (1.0 + 1e-13 * (step % 5))
        params[4] = -axis * (1.0 + 1e-13 * (step // 3 + 5))
        model = OutcomeModel(kind=LINEAR_BINARY)
    else:
        beta = float(rng.uniform(0.5, 3.0))
        table = BanditInstance(actions=actions, params=params,
                               model=OutcomeModel(kind=LOGISTIC, beta=beta))
        mu = reference.mean_table(table)
        gap = (1.0 + OUTCOME_PMF_TOL - float(mu.max() - mu.min())) / 2.0
        eta = gap + step * np.spacing(gap)
        model = OutcomeModel(kind=GLM, beta=beta, eta=eta)
    # blocks of ``chunk`` rows of 7 actions
    size = chunk * 7 * d if chunk else model_mod._PRODUCT_CHUNK
    with mock.patch.object(model_mod, "_PRODUCT_CHUNK", size):
        expected = _table_range_ok(actions, params, model)
        try:
            inst = BanditInstance(actions=actions, params=params, model=model)
        except InvalidInstanceError:
            inst = None
    assert (inst is not None) == expected
    if inst is None:
        return
    assert "realized" not in vars(inst)
    low, high = inst.inner_range
    inner = reference.inner_table(inst)
    assert (low, high) == (float(inner.min()), float(inner.max()))
    slope = c_phi(model, float(inner.min()), float(inner.max()))
    assert realized_link_slope(inst) == slope


@pytest.mark.parametrize("kind", [LINEAR_BINARY, GLM])
def test_range_checked_construction_at_m_6000_builds_no_table(kind):
    model = make_model(kind, beta=1.0, eta=0.05)
    tracemalloc.start()
    try:
        inst = sample_instance(np.random.default_rng(0), 3, 500, 6000, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "realized" not in vars(inst)
    # the m x n inner products alone take 24 MB
    assert peak <= 4e6, peak


def test_logistic_inner_range_is_read_from_the_blocks():
    # a logistic construction keeps no range; its first read multiplies the
    # blocks again, in one reused buffer, and builds no table
    model = make_model(LOGISTIC, beta=1.0, eta=0.05)
    inst = sample_instance(np.random.default_rng(0), 3, 500, 6000, model)
    assert "inner_range" not in vars(inst)
    tracemalloc.start()
    try:
        low, high = inst.inner_range
        slope = realized_link_slope(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "realized" not in vars(inst)
    assert peak <= 4e6, peak
    inner = reference.inner_table(inst)
    assert (low, high) == (float(inner.min()), float(inner.max()))
    assert slope == c_phi(model, low, high)


@given(
    st.integers(min_value=0),
    st.integers(min_value=1, max_value=13),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=1, max_value=100),
)
@settings(max_examples=40, deadline=None)
def test_inner_products_of_one_chunk_are_one_product(seed, d, n, m):
    # every such instance, the golden ones too, is at most one chunk
    assert m * n * d <= model_mod._PRODUCT_CHUNK
    inst = sample_instance(np.random.default_rng(seed), d, n, m, make_model(LOGISTIC))
    # construction's one block is one product, and the realized means are its columns
    inner = inst.params @ inst.actions.T
    assert np.array_equal(reference.inner_table(inst), inner)
    assert np.array_equal(inst.astar, np.argmax(inner, axis=1))
    realized = np.unique(inst.astar)
    assert np.array_equal(inst.realized, inst.model.link(inner[:, realized]))
    assert np.array_equal(inst.slots[1], np.searchsorted(realized, inst.astar))


@pytest.mark.parametrize("chunk", [1, 1000, None])
def test_inner_products_of_several_chunks(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(model_mod, "_PRODUCT_CHUNK", chunk)
    rng = np.random.default_rng(11)
    # each action twice, so rows tie at their maximum unless the chunked
    # product rounds the two copies apart
    half = sample_in_ball(rng, 100, 3)
    actions = np.concatenate([half, half])
    params = sample_in_ball(rng, 500, 3)
    assert params.size * actions.shape[0] > 2 * model_mod._PRODUCT_CHUNK
    inst = BanditInstance(actions=actions, params=params, model=make_model(LOGISTIC, beta=5.0))
    inner = reference.inner_table(inst)
    np.testing.assert_allclose(inner, params @ actions.T, rtol=0, atol=1e-15)
    for i, row in enumerate(inner):
        assert inst.astar[i] == np.flatnonzero(row == row.max())[0]
    mu = inst.model.link(inner)
    rows = rng.integers(0, 500, size=300)
    cols = rng.integers(0, 200, size=300)
    assert np.array_equal(inst.mean_rewards(rows, cols), mu[rows, cols])
    assert np.array_equal(inst.mean_rewards(np.arange(500), inst.astar),
                          mu[np.arange(500), inst.astar])
    assert np.array_equal(inst.realized[np.arange(500), inst.slots[1]],
                          mu[np.arange(500), inst.astar])


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("chunk", [1, 1000, None])
def test_reads_without_the_table_repeat_the_construction_blocks(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(model_mod, "_PRODUCT_CHUNK", chunk)
    rng = np.random.default_rng(12)
    # each action twice, so best actions tie unless a product rounds the copies apart
    half = sample_in_ball(rng, 100, 3)
    actions = np.concatenate([half, half])
    params = sample_in_ball(rng, 500, 3)

    def make():
        return BanditInstance(actions=actions, params=params, model=make_model(LOGISTIC, beta=5.0))

    # one instance builds its realized-action table first, the other only
    # after the chunk size changes, and gathers before building it
    read, fresh = make(), make()
    inner = reference.inner_table(read)
    mu = read.model.link(inner)
    means = read.realized
    realized = np.unique(read.astar)
    assert np.array_equal(_bits(means), _bits(mu[:, realized]))
    assert np.array_equal(read.astar, fresh.astar)
    assert np.array_equal(read.astar, [np.flatnonzero(row == row.max())[0] for row in inner])
    monkeypatch.setattr(model_mod, "_PRODUCT_CHUNK", 7)
    assert fresh.block_rows == read.block_rows
    rows = rng.integers(0, 500, size=300)
    cols = rng.integers(0, 200, size=300)
    ix = np.ix_(rng.integers(0, 500, size=40), rng.integers(0, 200, size=30))
    for inst in (fresh, read):
        assert np.array_equal(_bits(inst.mean_rewards(rows, cols)), _bits(mu[rows, cols]))
        assert np.array_equal(_bits(inst.mean_rewards(*ix)), _bits(mu[ix]))
        assert np.array_equal(_bits(inst.mean_rewards(np.arange(500), inst.astar)),
                              _bits(mu[np.arange(500), read.astar]))
    assert "realized" not in vars(fresh)
    assert np.array_equal(_bits(reference.inner_table(fresh)), _bits(inner))
    assert np.array_equal(_bits(fresh.realized), _bits(means))
    assert np.array_equal(fresh.slots[0], read.slots[0])


@pytest.mark.parametrize(
    "kind, eta", [(LINEAR_BINARY, 0.05), (LOGISTIC, 0.05), (GLM, 0.05), (GLM, 0.0)]
)
def test_realized_table_repeats_mean_rewards_across_blocks(monkeypatch, kind, eta):
    # blocks of 3 parameters, so the table gathers its columns from 17 blocks
    monkeypatch.setattr(model_mod, "_PRODUCT_CHUNK", 3 * 40 * 3)
    inst = random_instance(np.random.default_rng(9), kind, d=3, n=40, m=50, eta=eta)
    assert inst.block_rows == 3
    means = inst.realized
    realized = np.unique(inst.astar)
    expected = inst.mean_rewards(np.arange(50)[:, None], realized)
    assert means.shape == (50, realized.size)
    assert np.array_equal(_bits(means), _bits(expected))
    assert np.array_equal(inst.slots[0], realized)
    assert len(inst.outcomes) == 2
    for got, want in zip(inst.outcomes, two_point_outcomes(inst.model, expected.T)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", [LINEAR_BINARY, LOGISTIC, GLM])
def test_slots_map_each_parameter_to_its_realized_action(kind):
    inst = random_instance(np.random.default_rng(8), kind, d=2, n=30, m=12)
    actions, best = inst.slots
    # read from astar alone: no mean reward is computed
    assert inst.slots is inst.slots and "realized" not in vars(inst)
    assert actions.size < inst.n_actions  # some action is never best
    assert np.array_equal(actions, np.unique(inst.astar))
    assert np.array_equal(actions[best], inst.astar)
    for arr in (actions, best):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_outcome_support_linear(tiny_linear):
    values, probs = outcome_support(tiny_linear, 0)
    assert values.tolist() == [-0.5, 0.5]
    # P(+1/2) = 1/2 + a.theta/2, so theta_0 = (0.8, 0) gives 0.9
    assert probs[0, 1] == pytest.approx(0.9, abs=1e-12)
    assert probs[0, 0] == pytest.approx(0.1, abs=1e-12)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_outcome_support_logistic(tiny_logistic):
    values, probs = outcome_support(tiny_logistic, 1)
    assert values.tolist() == [0.0, 1.0]
    for i in range(tiny_logistic.n_params):
        assert probs[i, 1] == pytest.approx(tiny_logistic.mean_rewards(i, 1), abs=1e-14)


def test_outcome_support_glm_two_point_noise():
    actions = np.array([[0.4, 0.0]])
    params = np.array([[0.5, 0.0], [-0.5, 0.0]])
    model = OutcomeModel(kind=GLM, beta=1.0, eta=0.03)
    inst = BanditInstance(actions=actions, params=params, model=model)
    values, probs = outcome_support(inst, 0)
    # two parameters, disjoint noise pairs: four support points, each 1/2
    assert values.size == 4
    for i in range(2):
        mean = inst.mean_rewards(i, 0)
        dist = {float(v): float(p) for v, p in zip(values, probs[i]) if p > 0.0}
        assert dist == pytest.approx(
            {mean - 0.03: 0.5, mean + 0.03: 0.5}, abs=1e-12
        )
        assert sum(v * p for v, p in dist.items()) == pytest.approx(mean, abs=1e-12)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_outcome_support_glm_merges_coincident_points():
    # eta = 0 collapses each noise pair onto the mean
    actions = np.array([[0.4, 0.0]])
    params = np.array([[0.5, 0.0], [0.5, 0.0]])
    model = OutcomeModel(kind=GLM, beta=1.0, eta=0.0)
    inst = BanditInstance(actions=actions, params=params, model=model)
    values, probs = outcome_support(inst, 0)
    assert values.size == 1
    np.testing.assert_allclose(probs, 1.0, atol=1e-12)


@pytest.mark.parametrize("kind, eta", [(LINEAR_BINARY, 0.05), (LOGISTIC, 0.05), (GLM, 0.05), (GLM, 0.0)])
def test_two_point_outcomes_match_outcome_support(kind, eta):
    inst = random_instance(np.random.default_rng(4), kind, d=3, n=6, m=9, eta=eta)
    actions = np.array([5, 0, 3])
    means = reference.mean_table(inst)[:, actions].T
    idx, weights = two_point_outcomes(inst.model, means)
    points = outcome_values(inst.model, means)
    assert idx.shape == points.shape == weights.shape == (3, 9, 2)
    for s, a in enumerate(actions):
        values, probs = outcome_support(inst, int(a))
        np.testing.assert_array_equal(values[idx[s]], points[s])
        # the two points are support values in support order
        col = np.searchsorted(values, points[s])
        np.testing.assert_array_equal(values[col], points[s])
        assert np.all(col[:, 0] <= col[:, 1])
        dense = np.zeros_like(probs)
        np.add.at(dense, (np.arange(9)[:, None], col), weights[s])
        np.testing.assert_array_equal(dense, probs)


def _checked_dense_pmf(probs):
    assert np.all(probs >= -1e-12) and np.all(probs <= 1.0 + 1e-12)
    assert np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-12)
    return np.clip(probs, 0.0, 1.0)


def _dense_outcome_support(instance, action_idx):
    """The dense (values, probs) build that the outcome table replaced: the oracle."""
    m = instance.n_params
    kind = instance.model.kind
    means = reference.mean_table(instance)[:, action_idx]
    if kind != GLM:
        p_hi = means + (0.5 if kind == LINEAR_BINARY else 0.0)
        probs = np.stack([1.0 - p_hi, p_hi], axis=1)
        values = [-0.5, 0.5] if kind == LINEAR_BINARY else [0.0, 1.0]
        return np.array(values), _checked_dense_pmf(probs)
    eta = float(instance.model.eta)
    values = reference._dedupe_sorted(np.sort(np.concatenate([means - eta, means + eta])))
    probs = np.zeros((m, values.size))
    np.add.at(probs, (np.arange(m), reference._locate(values, means - eta)), 0.5)
    np.add.at(probs, (np.arange(m), reference._locate(values, means + eta)), 0.5)
    return values, _checked_dense_pmf(probs)


@given(
    st.integers(min_value=0),
    st.sampled_from([(LINEAR_BINARY, 0.05), (LOGISTIC, 0.05), (GLM, 0.05), (GLM, 0.0)]),
)
@settings(max_examples=60, deadline=None)
def test_outcome_support_bit_identical_to_dense_build(seed, kind_eta):
    inst = instance_with_shared_points(seed, *kind_eta)
    for a in range(inst.n_actions):
        values, probs = outcome_support(inst, a)
        ref_values, ref_probs = _dense_outcome_support(inst, a)
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(probs, ref_probs)


# cluster centres of glm means; at eta = 0.05 a mean's upper value meets the
# lower value of a mean 0.1 above it up to rounding, and the values of means a
# few ulps apart (``_ulps``) are equal or one ulp apart
_CENTRES = [0.2, 0.3, 0.4, 0.5, math.inf, -math.inf]
_ETAS = [0.0, 0.05, float(np.spacing(0.5))]


def _ulps(x, k):
    """The float ``k`` steps from ``x`` (down for negative ``k``)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return float(x)


@st.composite
def _glm_means(draw, centres=_CENTRES):
    rows, m = draw(st.integers(0, 4)), draw(st.integers(1, 8))
    mean = st.builds(_ulps, st.sampled_from(centres), st.integers(-3, 3))
    means = draw(st.lists(mean, min_size=rows * m, max_size=rows * m))
    return np.array(means, dtype=float).reshape(rows, m)


def _glm_outcomes(means, eta):
    """``(idx, points, weights)``: ``two_point_outcomes`` and the
    ``outcome_values`` of a glm model's ``means``, in the oracle's order."""
    model = OutcomeModel(kind=GLM, beta=1.0, eta=eta)
    idx, weights = two_point_outcomes(model, means)
    return idx, outcome_values(model, means), weights


@given(_glm_means(), st.sampled_from(_ETAS))
# a value that lies one ulp from the next: two observations, not one
@example(np.array([[0.5, _ulps(0.5, 1), _ulps(0.5, 2)]]), 0.0)
@settings(max_examples=200, deadline=None)
def test_glm_outcomes_bit_identical_to_per_action_oracle(means, eta):
    got = _glm_outcomes(means, eta)
    expected = reference.glm_two_point_outcomes(means, eta)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@given(_glm_means([*_CENTRES, math.nan]), st.sampled_from(_ETAS))
@example(np.array([[0.3, math.nan, 0.3, math.nan]]), 0.0)
@settings(max_examples=200, deadline=None)
def test_glm_outcomes_share_an_index_exactly_when_equal(means, eta):
    # an observation is its support index: two outcome values share one
    # exactly when their floats are equal (a NaN equals none), the indexes
    # follow the values' order, and each point is its value. An instance
    # whose means would hold a NaN is rejected: its parameters have
    # non-finite coordinates
    idx, points, _ = _glm_outcomes(means, eta)
    values = np.stack([means - eta, means + eta], axis=-1)
    np.testing.assert_array_equal(points, values)
    for s in range(idx.shape[0]):
        i, v = idx[s].ravel(), values[s].ravel()
        equal = v[:, None] == v[None, :]
        np.fill_diagonal(equal, True)  # a NaN value keeps its own index
        assert ((i[:, None] == i[None, :]) == equal).all()
        assert ((i[:, None] < i[None, :]) >= (v[:, None] < v[None, :])).all()
        assert np.array_equal(np.unique(i), np.arange(i.max() + 1))
    if np.isnan(means).any():
        with pytest.raises(InvalidInstanceError, match="non-finite"):
            BanditInstance(actions=np.ones((1, 1)), params=means.reshape(-1, 1),
                           model=OutcomeModel(kind=GLM, beta=1.0, eta=eta))


@pytest.mark.parametrize("eta", _ETAS[:2])
def test_glm_values_one_ulp_apart_are_two_observations(eta):
    # the lower value of the second mean lies one ulp above the upper value
    # of the first, and the third mean is one ulp above the second
    low = 0.3
    high = _ulps(low + eta, 1) + eta
    means = np.array([[low, high, _ulps(high, 1)]])
    idx, points, weights = _glm_outcomes(means, eta)
    assert points[0, 1, 0] == np.nextafter(points[0, 0, 1], 1.0)
    assert idx[0, 1, 0] != idx[0, 0, 1] and idx[0, 2, 0] != idx[0, 1, 0]
    assert np.unique(idx).size == np.unique(points).size
    assert (weights[0, :, 0] == (1.0 if eta == 0.0 else 0.5)).all()


def _count_table_builds(monkeypatch) -> list:
    """The shape of the means of every call through
    ``model.two_point_outcomes``, the builder ``BanditInstance.outcomes``
    calls."""
    built = []
    original = model_mod.two_point_outcomes

    def counting(model, means):
        built.append(np.shape(means))
        return original(model, means)

    monkeypatch.setattr(model_mod, "two_point_outcomes", counting)
    return built


def test_outcome_table_is_lazy_and_built_once(monkeypatch):
    built = _count_table_builds(monkeypatch)
    rng = np.random.default_rng(2)
    audited = random_instance(rng, GLM, d=2, n=6, m=5)
    regret = random_instance(rng, LINEAR_BINARY, d=2, n=6, m=5)
    assert built == [] and "outcomes" not in vars(audited) and "realized" not in vars(audited)
    prior = BeliefState.uniform(5)
    partition = build_partition_glm(audited, 0.2)
    audit_regret_chain(audited, prior, partition, T=4, rng=rng, runs=2)
    realized = (np.unique(audited.astar).size, 5)
    assert built == [realized]
    # the information layer reads the same table
    belief = BeliefState(rng.dirichlet(np.ones(5)))
    ts_info_ratio(audited, belief)
    compressed_moments(audited, belief, build_representation(audited, belief, partition))
    assert built == [realized]
    simulate_ts(regret, prior, T=6, runs=3, rng=rng)
    simulate_ts(regret, prior, T=6, runs=3, rng=rng)
    assert built == [realized, (np.unique(regret.astar).size, 5)]


def test_partition_path_builds_no_outcome_table():
    rng = np.random.default_rng(3)
    for kind in (LINEAR_BINARY, GLM, LOGISTIC):
        inst = random_instance(rng, kind, d=2, n=12, m=10)
        if kind != LOGISTIC:
            part = build_partition_glm(inst, 0.2)
        else:
            delta = float(np.min(np.abs(best_action_margins(inst))))
            part = build_partition_logistic(inst, 0.2, delta)
        max_intra_cell_distortion(inst, part.cell_of, part.K)
        assert "outcomes" not in vars(inst) and "realized" not in vars(inst)


@pytest.mark.parametrize("kind", [LINEAR_BINARY, LOGISTIC, GLM])
def test_outcome_table_arrays_are_read_only(kind):
    inst = random_instance(np.random.default_rng(5), kind, d=2, n=4, m=6)
    assert inst.outcomes is inst.outcomes
    for arr in inst.outcomes:
        with pytest.raises(ValueError):
            arr[0] = 0
    for arr in outcome_support(inst, 1):
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("kind", [LINEAR_BINARY, LOGISTIC])
def test_binary_outcome_table_owns_only_its_weights(kind):
    # every pair of a binary model has support indexes (0, 1) and the model's
    # two values, so those are read-only views with no memory of their own
    inst = random_instance(np.random.default_rng(5), kind, d=2, n=30, m=40)
    R, m = inst.slots[0].size, inst.n_params
    points = outcome_values(inst.model, inst.realized.T)
    for idx, weights in (inst.outcomes, two_point_outcomes(inst.model, inst.realized.T)):
        for arr, values in ((idx, (0, 1)), (points, model_mod._BINARY_VALUES[kind])):
            assert arr.shape == (R, m, 2) and arr.strides[:2] == (0, 0)
            assert not arr.flags.writeable and not arr.flags.owndata
            assert tuple(arr[-1, -1].tolist()) == values
        assert weights.flags.owndata and weights.nbytes == R * m * 2 * 8
    # one pair's values, as sample_outcome reads them
    one = outcome_values(inst.model, inst.realized[0, 0])
    assert one.tolist() == list(model_mod._BINARY_VALUES[kind]) and not one.flags.writeable


def _owner(arr):
    """The array that owns ``arr``'s memory."""
    while arr.base is not None:
        arr = arr.base
    return arr


@pytest.mark.parametrize("kind", [LINEAR_BINARY, LOGISTIC, GLM])
def test_outcome_table_holds_the_pmfs_alone(kind):
    # the table is (idx, weights), no outcome values: a glm table owns two
    # R x m x 2 arrays, a binary one only its weights, its idx a zero-stride
    # view of (0, 1)
    inst = random_instance(np.random.default_rng(5), kind, d=2, n=30, m=40)
    R, m = inst.slots[0].size, inst.n_params
    table = inst.outcomes
    assert type(table) is tuple and len(table) == 2
    idx, weights = table
    assert idx.shape == weights.shape == (R, m, 2)
    assert idx.dtype == np.intp and weights.dtype == np.float64
    owners = [_owner(arr) for arr in table]
    assert owners[0] is not owners[1]
    large = [arr for arr in owners if arr.nbytes == R * m * 2 * 8]
    assert len(large) == (2 if kind == GLM else 1)
    if kind != GLM:
        assert idx.strides[:2] == (0, 0) and owners[0].nbytes == 2 * idx.itemsize


def test_glm_outcome_table_build_holds_three_table_sized_arrays():
    # the instance of `regret --model glm --d 3 --n 500 --m 6000`, seed 0.
    # The merge drops the outcome values once they are ranked, so building
    # the table holds at most three R x m x 2 arrays at once, and it keeps two
    inst = sample_instance(np.random.default_rng(0), 3, 500, 6000, make_model(GLM, 1.0, 0.05))
    inst.realized
    one = inst.slots[0].size * inst.n_params * 2 * 8
    tracemalloc.start()
    try:
        inst.outcomes
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * one, (peak, one)
    assert 2 * one <= kept < 2.5 * one, (kept, one)


@pytest.mark.parametrize("eta", _ETAS)
@pytest.mark.parametrize("beta", [1.0, 40.0])
def test_outcome_values_are_the_oracle_points(beta, eta):
    # bit for bit the oracle's points: at eta = 0, on means one ulp apart,
    # and at beta = 40, where many means saturate to 0 or 1
    model = OutcomeModel(kind=GLM, beta=beta, eta=eta)
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 50))
    means = np.vstack([model.link(x), [[_ulps(0.3, k) for k in range(50)]]])
    if beta == 40.0:
        assert (means == 1.0).any()
    got = outcome_values(model, means)
    want = reference.glm_two_point_outcomes(means, eta)[1]
    assert got.shape == means.shape + (2,) and got.dtype == want.dtype
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize(
    "kind, eta", [(LINEAR_BINARY, 0.05), (LOGISTIC, 0.05), (GLM, 0.05), (GLM, 0.0)]
)
def test_outcome_table_rows_match_two_point_outcomes(kind, eta):
    inst = random_instance(np.random.default_rng(4), kind, d=3, n=12, m=9, eta=eta)
    idx, weights = inst.outcomes
    points = outcome_values(inst.model, inst.realized.T)
    realized = np.unique(inst.astar)
    assert realized.size < inst.n_actions  # some action is never best
    np.testing.assert_array_equal(inst.slots[0], realized)
    means = reference.mean_table(inst)[:, realized].T
    expected = (*two_point_outcomes(inst.model, means), outcome_values(inst.model, means))
    for got, want in zip((idx, weights, points), expected):
        np.testing.assert_array_equal(got, want)
    for s, a in enumerate(realized):
        values, probs = outcome_support(inst, int(a))
        assert values.size == idx[s].max() + 1
        np.testing.assert_array_equal(values[idx[s]], points[s])
        dense = np.zeros_like(probs)
        np.add.at(dense, (np.arange(9)[:, None], idx[s]), weights[s])
        np.testing.assert_array_equal(dense, probs)


def test_outcome_table_glm_eta0_is_single_points():
    inst = random_instance(np.random.default_rng(6), GLM, d=2, n=4, m=7, eta=0.0)
    everything = np.arange(inst.n_actions)
    mu = reference.mean_table(inst)
    for actions, (idx, w), points in [
        (np.unique(inst.astar), inst.outcomes, outcome_values(inst.model, inst.realized.T)),
        (everything, two_point_outcomes(inst.model, mu.T), outcome_values(inst.model, mu.T)),
    ]:
        for s, a in enumerate(actions):
            assert idx[s].max() + 1 == np.unique(mu[:, a]).size
            np.testing.assert_array_equal(idx[s, :, 0], idx[s, :, 1])
            np.testing.assert_array_equal(w[s], np.tile([1.0, 0.0], (7, 1)))
            np.testing.assert_array_equal(points[s, :, 0], mu[:, a])


def test_outcome_table_glm_two_points_in_support_order():
    inst = instance_with_shared_points(8, GLM, eta=0.05)
    idx, w = inst.outcomes
    points = outcome_values(inst.model, inst.realized.T)
    assert np.all(idx[..., 0] < idx[..., 1]) and np.all(points[..., 0] < points[..., 1])
    np.testing.assert_array_equal(w, np.full(idx.shape, 0.5))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0))
@settings(max_examples=50, deadline=None)
def test_sample_in_ball_inside(d, seed):
    rng = np.random.default_rng(seed)
    pts = sample_in_ball(rng, 32, d)
    assert pts.shape == (32, d)
    assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12)


def test_sample_in_ball_radius_cdf_matches_r_to_the_d():
    # uniform measure in the d-ball puts mass r^d inside radius r
    rng = np.random.default_rng(7)
    for d in (3, 20):
        radii = np.sort(np.linalg.norm(sample_in_ball(rng, 200_000, d), axis=1))
        empirical = np.arange(1, radii.size + 1) / radii.size
        ks = np.max(np.abs(empirical - radii**d))
        # DKW: P(KS > 0.005) < 2 exp(-2 * 200000 * 0.005^2) ~ 9e-5
        assert ks < 0.005


def test_sample_in_ball_ks_against_rejection_sampling():
    # compare against the straightforward rejection sampler at low dimension
    rng = np.random.default_rng(11)
    d, count = 3, 20_000
    fast = np.linalg.norm(sample_in_ball(rng, count, d), axis=1)
    kept = []
    while len(kept) < count:
        cand = rng.uniform(-1.0, 1.0, size=(4 * count, d))
        norms = np.linalg.norm(cand, axis=1)
        kept.extend(norms[norms <= 1.0][: count - len(kept)])
    slow = np.asarray(kept)
    from scipy.stats import ks_2samp

    assert ks_2samp(fast, slow).pvalue > 1e-4


def test_sample_instance_shapes_and_validation(rng):
    inst = sample_instance(rng, 3, 7, 5, make_model(LINEAR_BINARY))
    assert inst.d == 3 and inst.n_actions == 7 and inst.n_params == 5
    with pytest.raises(InvalidInstanceError):
        sample_instance(rng, 0, 7, 5, make_model(LINEAR_BINARY))


@pytest.mark.parametrize("field", ["actions", "params"])
def test_from_json_rejects_nan_coordinates(tiny_linear, field):
    # a NaN norm compares False against 1 + NORM_TOL, so the ball check alone
    # would let it through
    arrays = {"actions": tiny_linear.actions.copy(), "params": tiny_linear.params.copy()}
    arrays[field][0, 0] = np.nan
    with pytest.raises(InvalidInstanceError, match="non-finite"):
        BanditInstance(**arrays, model=tiny_linear.model)
