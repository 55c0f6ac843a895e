import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import instance_with_shared_points, make_model, random_belief, random_instance
from rdts import model as model_mod
from rdts.compression import (
    Partition,
    build_partition_glm,
    build_partition_linear,
    build_representation,
)
from rdts.inference import BeliefState, inverse_cdf, posterior_update, sample_parameter
from rdts.information import InconsistentRepresentation, ts_expected_regret
from rdts.model import GLM, LINEAR_BINARY, LOGISTIC, BanditInstance, OutcomeModel, outcome_support
from rdts.policy import (
    GuardExceeded,
    _ts_rollout,
    audit_regret_chain,
    compressed_ts_step,
    sample_outcome,
    simulate_ts,
    thompson_step,
)


def _tree_expected_pseudo_regret(instance, prior, T):
    """Exact per-period expected pseudo-regret by enumerating every branch.

    Branches over (true parameter, sampled parameter, outcome) at each period
    with exact probabilities; exponential in T, so only for tiny instances.
    """
    m = instance.n_params
    best = instance.mu[np.arange(m), instance.astar]
    supports = {a: outcome_support(instance, a) for a in range(instance.n_actions)}
    per_period = np.zeros(T)

    def recurse(belief, cond_star, weight, t):
        # cond_star[i] = P(theta* = i | history); belief is the agent's posterior
        if t == T:
            return
        for j in range(m):
            pj = float(belief.probs[j])
            if pj <= 0.0:
                continue
            a = int(instance.astar[j])
            regret = float(cond_star @ (best - instance.mu[:, a]))
            per_period[t] += weight * pj * regret
            values, probs = supports[a]
            for y in range(values.size):
                py = float(cond_star @ probs[:, y])
                if py <= 0.0:
                    continue
                post = posterior_update(belief, instance, a, float(values[y]))
                next_star = cond_star * probs[:, y]
                next_star = next_star / next_star.sum()
                recurse(post, next_star, weight * pj * py, t + 1)

    recurse(prior, prior.probs.copy(), 1.0, 0)
    return per_period


def _reference_simulate_ts(instance, prior, T, runs, rng, realized_rewards=False):
    """Per-run, per-period Thompson sampling loop: the oracle for simulate_ts."""
    best = instance.mu[np.arange(instance.n_params), instance.astar]
    per_period = np.zeros(T)
    totals = np.zeros(runs)
    for run, run_rng in enumerate(rng.spawn(runs)):
        theta_star = sample_parameter(prior, run_rng)
        belief = prior
        for t in range(T):
            param_idx, action = thompson_step(instance, belief, run_rng)
            y = sample_outcome(instance, action, theta_star, run_rng)
            if realized_rewards:
                regret = float(best[theta_star]) - y
            else:
                regret = float(best[theta_star] - instance.mu[theta_star, action])
            per_period[t] += regret
            totals[run] += regret
            belief = posterior_update(belief, instance, action, y)
    per_period /= runs
    std_error = float(totals.std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0
    return per_period, float(per_period.sum()), std_error


def _assert_matches_reference(instance, prior, T, runs, seed, realized):
    trace = simulate_ts(
        instance, prior, T, runs, np.random.default_rng(seed), realized_rewards=realized
    )
    per_period, cumulative, std_error = _reference_simulate_ts(
        instance, prior, T, runs, np.random.default_rng(seed), realized_rewards=realized
    )
    np.testing.assert_array_equal(trace.per_period_regret, per_period)
    np.testing.assert_array_equal(trace.cumulative, cumulative)
    np.testing.assert_array_equal(trace.std_error, std_error)


@pytest.mark.parametrize("m", [7, 129, 513])
@pytest.mark.parametrize("runs", [1, 9])
@pytest.mark.parametrize("T", [0, 1, 60])
@pytest.mark.parametrize("realized", [False, True], ids=["pseudo", "realized"])
@pytest.mark.parametrize(
    "kind, eta",
    [(LINEAR_BINARY, 0.05), (LOGISTIC, 0.05), (GLM, 0.05), (GLM, 0.0)],
    ids=["linear_binary", "logistic", "glm", "glm-eta0"],
)
def test_simulate_ts_bit_identical_to_per_run_loop(kind, eta, realized, T, runs, m):
    rng = np.random.default_rng(1000 * m + 10 * T + runs)
    instance = random_instance(rng, kind, d=3, n=12, m=m, eta=eta)
    # two trailing zero-mass parameters: their best actions need no outcome table
    prior = BeliefState(np.concatenate([rng.dirichlet(np.ones(m - 2)), [0.0, 0.0]]))
    _assert_matches_reference(instance, prior, T, runs, 7 + m + T, realized)


def test_simulate_ts_bit_identical_on_near_coincident_glm_outcomes():
    # means 1e-10 apart stay distinct support values (merge tolerance 1e-12) but
    # both match an observation within OUTCOME_MATCH_TOL, so likelihoods add up
    base = 0.3
    params = np.array([[base], [base + 2e-10], [base + 4e-10], [-0.4], [0.7]])
    actions = np.array([[1.0], [-1.0], [0.5]])
    instance = BanditInstance(
        actions=actions, params=params, model=OutcomeModel(kind=GLM, beta=1.5, eta=0.02)
    )
    for realized in (False, True):
        _assert_matches_reference(instance, BeliefState.uniform(5), 40, 9, 5, realized)


def test_generator_random_block_equals_successive_draws():
    # simulate_ts draws each run's uniforms as one block; this is the contract
    for block, single in zip(
        np.random.default_rng(11).spawn(4), np.random.default_rng(11).spawn(4)
    ):
        k = 121
        np.testing.assert_array_equal(
            block.random(k), np.array([single.random() for _ in range(k)])
        )


KINDS = [(LINEAR_BINARY, 0.05), (LOGISTIC, 0.05), (GLM, 0.05), (GLM, 0.0)]
KIND_IDS = ["linear_binary", "logistic", "glm", "glm-eta0"]


@pytest.mark.parametrize("kind, eta", KINDS, ids=KIND_IDS)
def test_ts_rollout_run_does_not_depend_on_run_count(kind, eta):
    for seed in range(30):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 12))
        instance = random_instance(rng, kind, d=2, n=int(rng.integers(2, 8)), m=m, eta=eta)
        prior = random_belief(rng, m)
        alone, batched = (
            list(_ts_rollout(instance, prior, 12, runs, np.random.default_rng(seed)))
            for runs in (1, 4)
        )
        assert len(alone) == len(batched) == 12
        for one, many in zip(alone, batched):
            for a, b in zip(one, many):
                np.testing.assert_array_equal(a[0], b[0])


@pytest.mark.parametrize("kind, eta", KINDS, ids=KIND_IDS)
def test_audit_run_rows_do_not_depend_on_run_count(kind, eta):
    # the trajectories are the same; the chain's terms of a run may move by
    # rounding, since a matrix product over all runs' beliefs may add in
    # another order than one over a single belief
    for seed in range(30):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, kind, d=2, n=6, m=8, eta=eta)
        part = (build_partition_linear if kind == LINEAR_BINARY else build_partition_glm)(
            inst, 0.2
        )
        alone, batched = (
            audit_regret_chain(inst, BeliefState.uniform(8), part, 8,
                               np.random.default_rng(seed), runs=runs).rows
            for runs in (1, 3)
        )
        assert len(alone) == 8
        for one, many in zip(alone, batched):
            assert list(one) == list(many)
            for key, value in one.items():
                if isinstance(value, float):
                    assert math.isclose(value, many[key], rel_tol=1e-13), (seed, key)
                else:
                    assert value == many[key], (seed, key)


def test_rollout_and_audit_reject_bad_T_and_runs(two_param_line):
    part = build_partition_linear(two_param_line, 0.2)
    for T, runs in ((-1, 1), (1, 0), (-3, -2)):
        with pytest.raises(ValueError, match="need T >= 0 and runs >= 1"):
            _ts_rollout(two_param_line, BeliefState.uniform(2), T, runs,
                        np.random.default_rng(0))
        with pytest.raises(ValueError, match="need T >= 0 and runs >= 1"):
            audit_regret_chain(two_param_line, BeliefState.uniform(2), part, T,
                               np.random.default_rng(0), runs=runs)


@pytest.fixture
def two_param_line():
    actions = np.array([[1.0], [-1.0]])
    params = np.array([[0.8], [-0.6]])
    return BanditInstance(
        actions=actions, params=params, model=OutcomeModel(kind=LINEAR_BINARY)
    )


def test_thompson_step_plays_best_of_sample(tiny_linear):
    rng = np.random.default_rng(3)
    belief = BeliefState(np.array([0.4, 0.3, 0.2, 0.1]))
    for _ in range(50):
        param_idx, action = thompson_step(tiny_linear, belief, rng)
        assert action == int(tiny_linear.astar[param_idx])


def test_sample_outcome_frequencies(two_param_line):
    rng = np.random.default_rng(9)
    # P(+1/2 | action 0, theta 0) = 0.5 + 0.8 / 2 = 0.9
    draws = np.array([sample_outcome(two_param_line, 0, 0, rng) for _ in range(20_000)])
    assert set(np.unique(draws)) == {-0.5, 0.5}
    assert np.mean(draws == 0.5) == pytest.approx(0.9, abs=0.01)


def test_simulate_ts_matches_exact_tree(two_param_line):
    prior = BeliefState.uniform(2)
    T, runs = 3, 40_000
    exact = _tree_expected_pseudo_regret(two_param_line, prior, T)
    rng = np.random.default_rng(123)
    trace = simulate_ts(two_param_line, prior, T, runs, rng)
    # CLT check: per-period regret is bounded by 1, so 5 sigma ~ 5 / sqrt(runs)
    np.testing.assert_allclose(trace.per_period_regret, exact, atol=5.0 / math.sqrt(runs))
    assert trace.cumulative == pytest.approx(float(trace.per_period_regret.sum()), abs=1e-12)
    assert trace.estimator == "pseudo"
    assert trace.std_error > 0.0


def test_simulate_ts_first_period_mean_is_prior_regret(two_param_line):
    prior = BeliefState.uniform(2)
    exact = ts_expected_regret(two_param_line, prior)
    trace = simulate_ts(two_param_line, prior, 1, 40_000, np.random.default_rng(7))
    assert trace.per_period_regret[0] == pytest.approx(exact, abs=5.0 / math.sqrt(40_000))


def test_simulate_ts_deterministic_given_seed(two_param_line):
    prior = BeliefState.uniform(2)
    a = simulate_ts(two_param_line, prior, 5, 20, np.random.default_rng(42))
    b = simulate_ts(two_param_line, prior, 5, 20, np.random.default_rng(42))
    np.testing.assert_array_equal(a.per_period_regret, b.per_period_regret)
    assert a.cumulative == b.cumulative and a.std_error == b.std_error


def test_simulate_ts_realized_estimator(two_param_line):
    prior = BeliefState.uniform(2)
    trace = simulate_ts(
        two_param_line, prior, 2, 500, np.random.default_rng(1), realized_rewards=True
    )
    assert trace.estimator == "realized"
    assert trace.per_period_regret.shape == (2,)


def test_simulate_ts_validation(two_param_line):
    for T, runs in ((-1, 5), (1, 0), (1, -1)):
        with pytest.raises(ValueError, match="need T >= 0 and runs >= 1"):
            simulate_ts(two_param_line, BeliefState.uniform(2), T, runs,
                        np.random.default_rng(0))


def test_regret_trace_csv_rows(two_param_line):
    trace = simulate_ts(two_param_line, BeliefState.uniform(2), 4, 10, np.random.default_rng(0))
    rows = trace.csv_rows()
    assert [r[0] for r in rows] == [1, 2, 3, 4]
    assert rows[-1][2] == pytest.approx(trace.cumulative, abs=1e-12)
    cum = 0.0
    for t, r, c, se in rows:
        cum += r
        assert c == pytest.approx(cum, abs=1e-12)
        assert se == trace.std_error


def test_compressed_ts_step_frequencies(rng):
    inst = random_instance(rng, LINEAR_BINARY, d=2, n=6, m=6)
    belief = random_belief(rng, 6)
    part = build_partition_linear(inst, 0.15)
    rep = build_representation(inst, belief, part)
    draws = np.zeros(inst.n_params)
    sampler = np.random.default_rng(77)
    N = 30_000
    for _ in range(N):
        param_idx, action = compressed_ts_step(inst, belief, rep, sampler)
        assert action == int(inst.astar[param_idx])
        draws[param_idx] += 1
    expected = np.zeros(inst.n_params)
    for k, (i1, i2, r) in enumerate(rep.cells):
        mass = float(rep.cell_mass[k])
        expected[i1] += mass * r
        expected[i2] += mass * (1.0 - r)
    np.testing.assert_allclose(draws / N, expected, atol=0.02)


def test_compressed_ts_step_rejects_stale_representation(rng):
    inst = random_instance(rng, LINEAR_BINARY, d=2, n=6, m=6)
    belief = random_belief(rng, 6)
    part = build_partition_linear(inst, 0.15)
    rep = build_representation(inst, belief, part)
    other = random_belief(rng, 6)
    with pytest.raises(InconsistentRepresentation):
        compressed_ts_step(inst, other, rep, np.random.default_rng(0))


def test_audit_chain_passes_on_small_instances():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, LINEAR_BINARY, d=2, n=8, m=6)
        part = build_partition_linear(inst, 0.2)
        report = audit_regret_chain(
            inst, BeliefState.uniform(6), part, 8, rng, runs=2
        )
        assert report.passed
        assert len(report.rows) == 16
        for row in report.rows:
            assert row["regret_slack"] and row["ratio_identity"]
            assert row["data_processing_rep"] and row["data_processing_ts"]
            assert row["entropy_cap"]
        assert report.gamma_bar >= 0.0
        assert report.mean_cumulative_regret <= report.bound_value + 1e-8


def test_audit_merges_each_glm_support_once_per_action(monkeypatch):
    merges = []
    original = model_mod._dedupe_sorted

    def counting(values, *args):
        merges.append(values.size)
        return original(values, *args)

    monkeypatch.setattr(model_mod, "_dedupe_sorted", counting)
    rng = np.random.default_rng(3)
    inst = random_instance(rng, GLM, d=2, n=6, m=9)
    part = build_partition_glm(inst, 0.02)
    prior = BeliefState.uniform(9)
    report = audit_regret_chain(inst, prior, part, 6, rng, runs=3)
    assert report.passed and len(report.rows) == 18
    # one merge per action whose outcome table the audit used, and no more
    used = np.unique(inst.astar).size
    assert len(merges) == used
    audit_regret_chain(inst, prior, part, 6, rng, runs=2)
    assert len(merges) == used


@given(
    st.integers(min_value=0),
    st.sampled_from([(LINEAR_BINARY, 0.05), (LOGISTIC, 0.05), (GLM, 0.05), (GLM, 0.0)]),
)
@settings(max_examples=40, deadline=None)
def test_sample_outcome_matches_dense_inverse_cdf(seed, kind_eta):
    inst = instance_with_shared_points(seed, *kind_eta)
    for a in range(inst.n_actions):
        values, probs = outcome_support(inst, a)
        for i in range(inst.n_params):
            rng_a, rng_b = np.random.default_rng([seed, a, i]), np.random.default_rng([seed, a, i])
            for _ in range(4):
                dense = float(values[inverse_cdf(probs[i], rng_b.random())])
                assert sample_outcome(inst, a, i, rng_a) == dense


def _agree(a: float, b: float, slack: float = 0.0) -> bool:
    """Equal to rounding: 1e-10 relative, or 1e-15 absolute near 0, plus ``slack``."""
    return abs(a - b) <= max(1e-10 * max(abs(a), abs(b)), 1e-15) + slack


def _ratio_slack(row: dict) -> float:
    """How far the ratio diff**2 / info_compressed moves when its denominator
    moves by the 1e-15 that two sums of the same information may differ by;
    near-independent joints make info_compressed small and this large."""
    info = row["info_compressed"]
    return row["ratio"] * 1e-15 / info if info > 0.0 else 0.0


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([(LINEAR_BINARY, 0.05), (LOGISTIC, 0.05), (GLM, 0.05), (GLM, 0.0)]),
    st.sampled_from([1, 3]),
)
@settings(max_examples=60, deadline=None)
def test_batched_audit_matches_per_run_oracle(seed, kind_eta, runs):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 10))
    inst = random_instance(rng, kind_eta[0], d=2, n=int(rng.integers(2, 7)), m=m,
                           eta=kind_eta[1])
    # any partition will do: the audit reports its checks whether or not they hold
    K = int(rng.integers(1, m + 1))
    cell_of = rng.permutation(np.arange(m) % K)
    p = rng.dirichlet(np.ones(m))
    if K > 1:
        p[cell_of == rng.integers(K)] = 0.0  # a cell of zero prior mass
    prior = BeliefState(p / p.sum())
    part = Partition(cell_of=cell_of, epsilon=float(rng.choice([0.02, 0.2])), K=K)
    T = int(rng.integers(1, 7))
    got = audit_regret_chain(inst, prior, part, T, np.random.default_rng(seed), runs=runs)
    want = reference.audit_regret_chain(inst, prior, part, T, np.random.default_rng(seed),
                                        runs=runs)
    assert got.passed == want.passed
    assert (got.epsilon, got.horizon, got.runs) == (want.epsilon, want.horizon, want.runs)
    assert len(got.rows) == len(want.rows) == runs * T
    gamma_slack = max([_ratio_slack(w) for w in want.rows], default=0.0)
    assert _agree(got.gamma_bar, want.gamma_bar, gamma_slack)
    for key in ("info_prior_nats", "mean_cumulative_regret"):
        assert _agree(getattr(got, key), getattr(want, key)), key
    # the bound grows with sqrt(gamma_bar), so its relative slack is at most gamma_bar's
    bound_slack = want.bound_value * gamma_slack / want.gamma_bar if want.gamma_bar > 0 else 0.0
    assert _agree(got.bound_value, want.bound_value, bound_slack)
    for g, w in zip(got.rows, want.rows):
        assert list(g) == list(w)
        for key, value in w.items():
            where = (g["run"], g["t"], key, g[key], value)
            if isinstance(value, (bool, np.bool_)):
                assert g[key] is bool(value), where
            elif isinstance(value, int):
                assert g[key] == value, where
            else:
                slack = _ratio_slack(w) if key == "ratio" else 0.0
                assert _agree(g[key], value, slack), where


def test_audit_guard_rejects_large_instances():
    rng = np.random.default_rng(0)
    n = 1024
    inst = random_instance(rng, LINEAR_BINARY, d=3, n=n, m=n)
    part = build_partition_linear(inst, 0.5)
    with pytest.raises(GuardExceeded):
        audit_regret_chain(inst, BeliefState.uniform(n), part, 1, rng)
