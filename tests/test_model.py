import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instance_with_shared_points, make_model, random_instance
from rdts import model as model_mod
from rdts.model import (
    GLM,
    LINEAR_BINARY,
    LOGISTIC,
    BanditInstance,
    InvalidInstanceError,
    OutcomeModel,
    OutcomeTable,
    best_action,
    mean_reward,
    outcome_distribution,
    outcome_support,
    sample_in_ball,
    sample_instance,
    two_point_outcomes,
)


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
            assert mean_reward(tiny_linear, j, i) == pytest.approx(0.5 * x, abs=1e-15)
            assert tiny_linear.mu[i, j] == pytest.approx(0.5 * x, abs=1e-15)


def test_mean_reward_logistic(tiny_logistic):
    for i in range(tiny_logistic.n_params):
        for j in range(tiny_logistic.n_actions):
            x = float(tiny_logistic.actions[j] @ tiny_logistic.params[i])
            expected = 1.0 / (1.0 + math.exp(-2.0 * x))
            assert tiny_logistic.mu[i, j] == pytest.approx(expected, abs=1e-14)


def test_best_action_lowest_index_tie():
    actions = np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 0.5]])
    params = np.array([[1.0, 0.0]])
    inst = BanditInstance(actions=actions, params=params, model=make_model(LINEAR_BINARY))
    assert best_action(inst, 0) == 0


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
        assert probs[i, 1] == pytest.approx(tiny_logistic.mu[i, 1], abs=1e-14)


def test_outcome_support_glm_two_point_noise():
    actions = np.array([[0.4, 0.0]])
    params = np.array([[0.5, 0.0], [-0.5, 0.0]])
    model = OutcomeModel(kind=GLM, beta=1.0, eta=0.03)
    inst = BanditInstance(actions=actions, params=params, model=model)
    values, probs = outcome_support(inst, 0)
    # two parameters, disjoint noise pairs: four support points, each 1/2
    assert values.size == 4
    for i in range(2):
        mean = inst.mu[i, 0]
        dist = outcome_distribution(inst, 0, i)
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
    idx, points, weights = two_point_outcomes(inst, actions)
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
    if kind != GLM:
        p_hi = instance.mu[:, action_idx] + (0.5 if kind == LINEAR_BINARY else 0.0)
        probs = np.stack([1.0 - p_hi, p_hi], axis=1)
        values = [-0.5, 0.5] if kind == LINEAR_BINARY else [0.0, 1.0]
        return np.array(values), _checked_dense_pmf(probs)
    eta = float(instance.model.eta)
    means = instance.mu[:, action_idx]
    values = model_mod._dedupe_sorted(np.sort(np.concatenate([means - eta, means + eta])))
    probs = np.zeros((m, values.size))
    np.add.at(probs, (np.arange(m), model_mod._locate(values, means - eta)), 0.5)
    np.add.at(probs, (np.arange(m), model_mod._locate(values, means + eta)), 0.5)
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


def test_outcome_table_is_lazy_and_built_once_per_action(monkeypatch):
    built = []
    original = model_mod._build_outcome_table

    def counting(instance, action_idx):
        built.append(action_idx)
        return original(instance, action_idx)

    monkeypatch.setattr(model_mod, "_build_outcome_table", counting)
    inst = random_instance(np.random.default_rng(2), GLM, d=2, n=6, m=5)
    assert built == []
    table = inst.outcome_table(3)
    for _ in range(3):
        outcome_support(inst, 3)
        two_point_outcomes(inst, np.array([3, 3]))
        assert inst.outcome_table(np.int64(3)) is table
    assert built == [3]


@pytest.mark.parametrize("kind", [LINEAR_BINARY, LOGISTIC, GLM])
def test_outcome_table_arrays_are_read_only(kind):
    inst = random_instance(np.random.default_rng(5), kind, d=2, n=4, m=6)
    table = inst.outcome_table(1)
    assert isinstance(table, OutcomeTable)
    for arr in (table.values, table.idx, table.w):
        with pytest.raises(ValueError):
            arr[0] = 0
    for arr in outcome_support(inst, 1):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_outcome_table_glm_eta0_is_single_points():
    inst = random_instance(np.random.default_rng(6), GLM, d=2, n=4, m=7, eta=0.0)
    for a in range(inst.n_actions):
        table = inst.outcome_table(a)
        assert table.values.size == np.unique(inst.mu[:, a]).size
        np.testing.assert_array_equal(table.idx[:, 0], table.idx[:, 1])
        np.testing.assert_array_equal(table.w, np.tile([1.0, 0.0], (7, 1)))
        np.testing.assert_array_equal(table.points()[:, 0], inst.mu[:, a])


def test_outcome_table_glm_two_points_in_support_order():
    inst = instance_with_shared_points(8, GLM, eta=0.05)
    for a in range(inst.n_actions):
        table = inst.outcome_table(a)
        assert np.all(table.idx[:, 0] < table.idx[:, 1])
        np.testing.assert_array_equal(table.w, np.full((inst.n_params, 2), 0.5))


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


@given(
    st.sampled_from([LINEAR_BINARY, GLM, LOGISTIC]),
    st.integers(min_value=0),
)
@settings(max_examples=40, deadline=None)
def test_instance_json_round_trip(kind, seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, kind, d=2, n=4, m=3, beta=1.5, eta=0.02)
    back = BanditInstance.from_json(inst.to_json())
    np.testing.assert_array_equal(back.actions, inst.actions)
    np.testing.assert_array_equal(back.params, inst.params)
    assert back.model == inst.model
    np.testing.assert_array_equal(back.astar, inst.astar)


@pytest.mark.parametrize("field", ["actions", "params"])
def test_from_json_rejects_nan_coordinates(tiny_linear, field):
    # a NaN norm compares False against 1 + NORM_TOL, so the ball check alone
    # would let it through
    doc = json.loads(tiny_linear.to_json())
    doc[field][0][0] = float("nan")
    text = json.dumps(doc)
    assert "NaN" in text
    with pytest.raises(InvalidInstanceError, match="non-finite"):
        BanditInstance.from_json(text)


def test_to_json_is_plain_json(tiny_linear):
    doc = json.loads(tiny_linear.to_json())
    assert doc["d"] == 2
    assert doc["model"]["kind"] == LINEAR_BINARY
