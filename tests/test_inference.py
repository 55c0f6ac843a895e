import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import instance_with_shared_points, random_belief, random_instance
from rdts.inference import (
    AllZeroLikelihood,
    BeliefState,
    _normalised,
    inverse_cdf,
    optimal_action_distribution,
    outcome_likelihoods,
    posterior_update,
    posterior_update_rows,
    sample_parameter,
)
from rdts.model import GLM, LINEAR_BINARY, LOGISTIC, outcome_support
from rdts.tolerances import BELIEF_TOL


def test_belief_validation():
    with pytest.raises(ValueError):
        BeliefState(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        BeliefState(np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        BeliefState(np.zeros((2, 2)))
    for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5]):
        with pytest.raises(ValueError, match="sum to 1"):
            BeliefState(np.array(bad))
    b = BeliefState.uniform(4)
    np.testing.assert_allclose(b.probs, 0.25, atol=1e-15)
    pm = BeliefState.point_mass(3, 1)
    assert pm.probs.tolist() == [0.0, 1.0, 0.0]


def test_belief_is_immutable():
    b = BeliefState.uniform(3)
    with pytest.raises(ValueError):
        b.probs[0] = 1.0


def test_belief_and_row_update_leave_their_inputs_unchanged():
    # the row update clips and divides in place, but only on its own product
    given = np.array([0.5, 0.5 + 5e-11, -5e-11])
    kept = given.tobytes()
    assert BeliefState(given).probs[2] == 0.0
    assert given.tobytes() == kept
    beliefs = np.array([[0.25, 0.75, 0.0], [0.5, 0.25, 0.25]])
    like = np.array([[0.5, 0.5, 1.0], [0.0, 1.0, 1.0]])
    inputs = beliefs.tobytes(), like.tobytes()
    post = posterior_update_rows(beliefs, like)
    assert (beliefs.tobytes(), like.tobytes()) == inputs
    assert post.tolist() == [[0.25, 0.75, 0.0], [0.0, 0.5, 0.5]]


def test_belief_checks_keep_their_messages_on_nan_rows():
    # a negative entry is reported as such even beside a NaN; NaN alone fails the sum
    with pytest.raises(ValueError, match="non-negative"):
        BeliefState(np.array([np.nan, -1.0, 2.0]))
    with pytest.raises(ValueError, match="non-negative"):
        _normalised(np.array([[0.5, 0.5], [np.nan, -1.0]]))
    with pytest.raises(ValueError, match="sum to 1"):
        _normalised(np.array([[0.5, 0.5], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="sum to 1"):
        posterior_update_rows(np.array([[np.nan, -1.0, 2.0]]), np.ones((1, 3)))


_NOT_NEGATIVE = "belief entries must be non-negative"


def _off_sum(total):
    return f"belief must sum to 1, got {np.float64(total)!r}"


_ALL_ZERO = "an observed outcome is impossible under every parameter"


@pytest.mark.parametrize(
    "bad_rows, error, message",
    [
        ([[np.nan, 1.0, 1.0]], ValueError, _off_sum(np.nan)),
        ([[np.inf, 1.0, 1.0]], ValueError, _off_sum(np.nan)),
        ([[1.0, np.inf, 1.0]], ValueError, _off_sum(np.nan)),
        ([[-0.1, 1.0, 1.0]], ValueError, _NOT_NEGATIVE),
        ([[0.0, 0.0, 0.0]], AllZeroLikelihood, _ALL_ZERO),
        # a NaN sum does not hide an empty row from the emptiness test
        ([[np.nan, 1.0, 1.0], [0.0, 0.0, 0.0]], AllZeroLikelihood, _ALL_ZERO),
    ],
    ids=["nan", "inf", "inf-on-mass", "negative", "all-zero", "nan-beside-all-zero"],
)
def test_row_update_checks_keep_their_errors(bad_rows, error, message):
    # the faulty rows sit below a good one: each check reduces over all rows
    beliefs = np.array([[0.5, 0.5, 0.0]] + [[0.2, 0.3, 0.5]] * len(bad_rows))
    like = np.array([[1.0, 1.0, 1.0], *bad_rows])
    with np.errstate(invalid="ignore"), pytest.raises(error) as raised:
        posterior_update_rows(beliefs, like)
    assert type(raised.value) is error and str(raised.value) == message


@pytest.mark.parametrize(
    "probs, message",
    [
        ([np.nan, 0.5, 0.5], _off_sum(np.nan)),
        ([np.inf, 0.5, 0.5], _off_sum(np.inf)),
        ([0.5, 0.5 + 1.5 * BELIEF_TOL, -1.5 * BELIEF_TOL], _NOT_NEGATIVE),
        ([0.5, 0.5 + 1.5 * BELIEF_TOL], _off_sum(1.0 + 1.5 * BELIEF_TOL)),
        ([0.5, 0.5 - 1.5 * BELIEF_TOL], _off_sum(1.0 - 1.5 * BELIEF_TOL)),
        ([0.0, 0.0], _off_sum(0.0)),
        ([0.5, 0.5 + 0.5 * BELIEF_TOL, -0.5 * BELIEF_TOL], None),
        ([0.5, 0.5 + 0.5 * BELIEF_TOL], None),
        ([0.5, 0.5 - 0.5 * BELIEF_TOL], None),
    ],
    ids=["nan", "inf", "negative", "sum-over", "sum-under", "zero",
         "negative-within", "sum-over-within", "sum-under-within"],
)
def test_belief_checks_keep_their_errors(probs, message):
    # a belief and a row of a belief matrix get the same checks
    rows = np.array([np.full(len(probs), 1.0 / len(probs)), probs])
    for check in (BeliefState, _normalised):
        given = np.array(probs) if check is BeliefState else rows
        if message is None:
            check(given)
            continue
        with pytest.raises(ValueError) as raised:
            check(given)
        assert type(raised.value) is ValueError and str(raised.value) == message


def _hand_bayes(prior, like):
    post = [p * l for p, l in zip(prior, like)]
    total = sum(post)
    return [x / total for x in post]


def test_posterior_update_matches_hand_bayes(tiny_linear):
    prior = BeliefState(np.array([0.4, 0.3, 0.2, 0.1]))
    post = posterior_update(prior, tiny_linear, 0, 0.5)
    like = [float(tiny_linear.mu[i, 0]) + 0.5 for i in range(4)]
    expected = _hand_bayes([0.4, 0.3, 0.2, 0.1], like)
    np.testing.assert_allclose(post.probs, expected, atol=1e-12)


def test_posterior_update_zero_likelihood_drops_param():
    # a deterministic-success parameter can never produce the failure outcome
    import rdts.model as model

    actions = np.array([[1.0, 0.0]])
    params = np.array([[1.0, 0.0], [0.0, 0.0]])
    inst = model.BanditInstance(
        actions=actions, params=params, model=model.OutcomeModel(kind=LINEAR_BINARY)
    )
    prior = BeliefState.uniform(2)
    post = posterior_update(prior, inst, 0, -0.5)
    assert post.probs[0] == 0.0
    assert post.probs[1] == 1.0


def test_posterior_update_all_zero_raises(tiny_linear):
    prior = BeliefState.uniform(4)
    with pytest.raises(AllZeroLikelihood):
        posterior_update(prior, tiny_linear, 0, 7.0)


def test_underflowing_posterior_is_redone_in_log_space_without_warnings():
    # every product belief * likelihood underflows to 0, although parameter 1
    # (row 0) and parameters 0 and 1 (row 1) have both mass and likelihood
    beliefs = np.array([[1.0 - 1e-200, 1e-200, 0.0], [1e-10, 2e-10, 1.0 - 3e-10]])
    like = np.array([[0.0, 1e-200, 3e-201], [1e-320, 2e-320, 0.0]])
    assert not (beliefs * like).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        post = posterior_update_rows(beliefs, like)
    assert post[0].tolist() == [0.0, 1.0, 0.0]
    assert post[1] == pytest.approx([0.2, 0.8, 0.0], rel=1e-12)


@given(
    st.sampled_from([LINEAR_BINARY, GLM, LOGISTIC]),
    st.integers(min_value=0),
)
@settings(max_examples=60, deadline=None)
def test_posterior_is_martingale(kind, seed):
    # averaging the posterior over the outcome distribution returns the prior
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, kind, d=2, n=4, m=5, beta=1.5, eta=0.02)
    prior = random_belief(rng, 5)
    for a in range(inst.n_actions):
        values, probs = outcome_support(inst, a)
        marginal = prior.probs @ probs
        mixed = np.zeros(5)
        for y, py in zip(values, marginal):
            if py <= 0:
                continue
            mixed += py * posterior_update(prior, inst, a, float(y)).probs
        np.testing.assert_allclose(mixed, prior.probs, atol=1e-9)


@given(
    st.integers(min_value=0),
    st.sampled_from([(LINEAR_BINARY, 0.05), (LOGISTIC, 0.05), (GLM, 0.05), (GLM, 0.0)]),
)
@settings(max_examples=40, deadline=None)
def test_outcome_likelihoods_equal_dense_column_sums(seed, kind_eta):
    # an observation is one support value: its likelihood is that column, and
    # a value next to a support point, however close, is no observation
    inst = instance_with_shared_points(seed, *kind_eta)
    for a in range(inst.n_actions):
        values, probs = outcome_support(inst, a)
        for y in (*values, np.nextafter(values[0], np.inf), values[-1] + 1e-3):
            dense = probs[:, values == y].sum(axis=1)
            np.testing.assert_array_equal(outcome_likelihoods(inst, a, float(y)), dense)


@given(st.integers(min_value=0))
@settings(max_examples=40, deadline=None)
def test_posterior_updates_commute(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, LINEAR_BINARY, d=2, n=4, m=5)
    prior = random_belief(rng, 5)
    obs = [(0, 0.5), (1, -0.5)]
    one = posterior_update(posterior_update(prior, inst, *obs[0]), inst, *obs[1])
    two = posterior_update(posterior_update(prior, inst, *obs[1]), inst, *obs[0])
    np.testing.assert_allclose(one.probs, two.probs, atol=1e-9)


def test_outcome_likelihoods_matches_support(tiny_logistic):
    like = outcome_likelihoods(tiny_logistic, 0, 1.0)
    np.testing.assert_allclose(like, tiny_logistic.mu[:, 0], atol=1e-14)
    assert outcome_likelihoods(tiny_logistic, 0, 3.0).tolist() == [0.0, 0.0, 0.0]


def test_optimal_action_distribution(tiny_linear):
    belief = BeliefState(np.array([0.4, 0.3, 0.2, 0.1]))
    dist = optimal_action_distribution(belief, tiny_linear)
    expected = np.zeros(tiny_linear.n_actions)
    for i, p in enumerate(belief.probs):
        expected[tiny_linear.astar[i]] += p
    np.testing.assert_allclose(dist, expected, atol=1e-15)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_sample_parameter_frequencies():
    belief = BeliefState(np.array([0.7, 0.2, 0.1]))
    rng = np.random.default_rng(0)
    draws = np.array([sample_parameter(belief, rng) for _ in range(30_000)])
    freq = np.bincount(draws, minlength=3) / draws.size
    np.testing.assert_allclose(freq, belief.probs, atol=0.01)


def test_sample_parameter_skips_zero_mass():
    belief = BeliefState(np.array([0.0, 1.0, 0.0]))
    rng = np.random.default_rng(0)
    assert all(sample_parameter(belief, rng) == 1 for _ in range(100))


class _FixedUniform:
    """Stands in for a generator whose next uniform is known."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@example(k=8, zeros=2, seed=5, frac=0.0)  # total mass 0.9999999999999999
@settings(max_examples=200, deadline=None)
def test_inverse_cdf_never_returns_zero_mass(k, zeros, seed, frac):
    probs = np.concatenate([np.random.default_rng(seed).dirichlet(np.ones(k)), np.zeros(zeros)])
    belief = BeliefState(probs)
    top = float(np.cumsum(belief.probs)[-1])
    # a uniform at or above the rounded total mass whenever that total is below 1
    u = min(top + frac * (1.0 - top), float(np.nextafter(1.0, 0.0)))
    assert belief.probs[sample_parameter(belief, _FixedUniform(u))] > 0.0
    rows = np.stack([belief.probs, belief.probs[::-1]])
    idx = inverse_cdf(rows, np.array([u, u]))
    assert rows[0, idx[0]] > 0.0 and rows[1, idx[1]] > 0.0


@st.composite
def _row_and_uniform(draw):
    """A non-negative row, possibly ending in zero-mass entries, and a
    uniform that may sit exactly on one of its cdf values."""
    head = draw(st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1.0)),
                         min_size=1, max_size=12))
    row = np.array(head + [0.0] * draw(st.integers(min_value=0, max_value=3)))
    cdf = np.cumsum(row)
    u = draw(st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                       st.sampled_from(cdf.tolist())))
    return row, u


@given(_row_and_uniform())
@example((np.array([0.25, 0.25, 0.5, 0.0]), 0.5))
@example((np.array([0.0, 0.5, 0.5, 0.0, 0.0]), 0.0))
@settings(max_examples=300, deadline=None)
def test_inverse_cdf_is_the_first_index_whose_cdf_exceeds_u(row_u):
    row, u = row_u
    cdf = np.cumsum(row)
    assume(cdf[-1] > u)
    expected = np.searchsorted(cdf, u, side="right")
    assert inverse_cdf(row, u) == expected
    # row by row, the same index for each row of a matrix
    assert inverse_cdf(np.stack([row, row]), np.array([u, u])).tolist() == [expected] * 2
