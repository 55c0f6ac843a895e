import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import instance_with_shared_points, make_model, random_belief, random_instance
from rdts import model as model_mod
from rdts import policy as policy_mod
from rdts.bounds import compressed_bound
from rdts.cli import main
from rdts.compression import (
    Partition,
    _representative_pairs,
    build_partition_glm,
    build_representation,
    statistic_mutual_information,
)
from rdts.inference import (
    BeliefState,
    _mass_on,
    inverse_cdf,
    posterior_update,
    sample_parameter,
)
from rdts.information import (
    _cell_masses_and_gains,
    _chain_terms,
    _ratio_report,
    compressed_moments,
    entropy,
    ts_expected_regret,
)
from rdts.model import GLM, LINEAR_BINARY, LOGISTIC, BanditInstance, OutcomeModel, outcome_support
from rdts.policy import (
    GuardExceeded,
    _ts_rollout,
    audit_regret_chain,
    sample_outcome,
    simulate_ts,
    thompson_step,
)
from rdts.tolerances import AUDIT_TOL


def _tree_expected_pseudo_regret(instance, prior, T):
    """Exact per-period expected pseudo-regret by enumerating every branch.

    Branches over (true parameter, sampled parameter, outcome) at each period
    with exact probabilities; exponential in T, so only for tiny instances.
    """
    m = instance.n_params
    mu = reference.mean_table(instance)
    best = mu[np.arange(m), instance.astar]
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
            regret = float(cond_star @ (best - mu[:, a]))
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
    mu = reference.mean_table(instance)
    best = mu[np.arange(instance.n_params), instance.astar]
    per_period = np.zeros(T)
    totals = np.zeros(runs)
    played = np.zeros((T, runs), dtype=np.intp)
    for run, run_rng in enumerate(rng.spawn(runs)):
        theta_star = sample_parameter(prior, run_rng)
        belief = prior
        for t in range(T):
            param_idx, action = thompson_step(instance, belief, run_rng)
            played[t, run] = action
            y = sample_outcome(instance, action, theta_star, run_rng)
            if realized_rewards:
                regret = float(best[theta_star]) - y
            else:
                regret = float(best[theta_star] - mu[theta_star, action])
            per_period[t] += regret
            totals[run] += regret
            belief = posterior_update(belief, instance, action, y)
    per_period /= runs
    std_error = float(totals.std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0
    return per_period, float(per_period.sum()), std_error, played


def _assert_matches_reference(
    instance, prior, T, runs, seed, realized, make_rng=np.random.default_rng
):
    trace = simulate_ts(instance, prior, T, runs, make_rng(seed), realized_rewards=realized)
    per_period, cumulative, std_error, played = _reference_simulate_ts(
        instance, prior, T, runs, make_rng(seed), realized_rewards=realized
    )
    np.testing.assert_array_equal(trace.per_period_regret, per_period)
    np.testing.assert_array_equal(trace.cumulative, cumulative)
    np.testing.assert_array_equal(trace.std_error, std_error)
    # the rollout yields slots: through the realized actions, thompson_step's actions
    slots = [s for _, _, s, _ in _ts_rollout(instance, prior, T, runs, make_rng(seed))]
    slots = np.array(slots, dtype=np.intp).reshape(T, runs)
    np.testing.assert_array_equal(instance.slots[0][slots], played)


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
    # means 2e-10 apart stay distinct support values (merge tolerance 1e-12):
    # the rollout's likelihood of an observation, the mass on its support
    # index, is posterior_update's mass on the points equal to it
    base = 0.3
    params = np.array([[base], [base + 2e-10], [base + 4e-10], [-0.4], [0.7]])
    actions = np.array([[1.0], [-1.0], [0.5]])
    instance = BanditInstance(
        actions=actions, params=params, model=OutcomeModel(kind=GLM, beta=1.5, eta=0.02)
    )
    prior = BeliefState.uniform(5)
    for realized in (False, True):
        _assert_matches_reference(instance, prior, 40, 9, 5, realized)
    # in the slot of action 0, parameter 0's upper point is another support
    # value than parameter 1's, under 1e-9 away, and an observation of it
    # rules parameters 1 and 2 out
    idx, points, weights = instance.outcomes
    assert instance.slots[0].tolist() == [0, 1]
    s = 0  # the slot of action 0
    assert idx[s, 0, 1] != idx[s, 1, 1]
    assert 0 < abs(points[s, 1, 1] - points[s, 0, 1]) < 1e-9
    like = _mass_on(idx[s], weights[s], idx[s, 0, 1])
    assert like[:3].tolist() == [0.5, 0.0, 0.0]
    assert like.tobytes() == _mass_on(points[s], weights[s], points[s, 0, 1]).tobytes()
    # enough runs and periods that every realized action is played
    played = set()
    for _, _, slot, _ in _ts_rollout(instance, prior, 120, 40, np.random.default_rng(6)):
        played.update(instance.slots[0][slot].tolist())
    assert played == {0, 1}
    for realized in (False, True):
        _assert_matches_reference(instance, prior, 120, 40, 6, realized)


def test_glm_with_one_valued_supports_matches_per_run_loop():
    # two parameters with one mean and eta = 0: the played action's support is
    # one value, whose weight 1 sits on the first point of each pair
    instance = BanditInstance(
        actions=np.array([[1.0], [-1.0]]),
        params=np.array([[0.4], [0.4]]),
        model=OutcomeModel(kind=GLM, beta=2.0, eta=0.0),
    )
    idx, _, weights = instance.outcomes
    assert idx.tolist() == [[[0, 0], [0, 0]]] and weights.tolist() == [[[1.0, 0.0], [1.0, 0.0]]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for realized in (False, True):
            _assert_matches_reference(instance, BeliefState.uniform(2), 12, 3, 8, realized)


# the three models, and logistic at a beta whose weights hold exact 0s and 1s
_EVERY_KIND_AND_SATURATED = pytest.mark.parametrize(
    "kind, beta, eta",
    [(LINEAR_BINARY, 2.0, 0.05), (LOGISTIC, 2.0, 0.05), (LOGISTIC, 1000.0, 0.05), (GLM, 2.0, 0.05)],
    ids=["linear_binary", "logistic", "logistic-saturated", "glm"],
)


class _EdgeUniforms:
    """Stand-in for a generator: each spawned run hands out a fixed stream of
    uniforms, at or above many CDF totals in every other period. Of the
    ``1 + 2T`` draws of a run, both of period ``t``'s are 1.0 for odd ``t``,
    and every seventh from the second is the largest float below 1.
    ``spawn`` and ``random`` are the calls the rollout and the per-run loop
    make."""

    def __init__(self, seed, run=None):
        self.seed, self.drawn = seed, 0
        if run is not None:
            self.stream = np.random.default_rng([seed, run]).random(1024)
            self.stream[3::4] = self.stream[4::4] = 1.0
            self.stream[1::7] = np.nextafter(1.0, 0.0)

    def spawn(self, n):
        return [_EdgeUniforms(self.seed, run) for run in range(n)]

    def random(self, size=None):
        start = self.drawn
        self.drawn += 1 if size is None else size
        if size is None:
            return float(self.stream[start])
        return self.stream[start:self.drawn].copy()


class _CdfEdgeUniforms(_EdgeUniforms):
    """Stand-in for a generator whose outcome uniforms lie on the outcome
    CDFs of the run's true parameter: period ``t``'s cycles through each
    slot's first CDF value and total mass, each exactly and as its two
    ``np.nextafter`` neighbours, clipped to [0, 1]. The other uniforms are
    ordinary draws."""

    def __init__(self, seed, instance, prior, run=None):
        self.seed, self.drawn, self.instance, self.prior = seed, 0, instance, prior
        if run is not None:
            self.stream = np.random.default_rng([seed, run]).random(1024)
            theta_star = inverse_cdf(prior.probs, self.stream[0])
            cdf = np.cumsum(instance.outcomes[2][:, theta_star], axis=-1)
            edges = np.stack([np.nextafter(cdf, -1.0), cdf, np.nextafter(cdf, 2.0)], axis=-1)
            self.stream[2::2] = np.clip(np.resize(edges, self.stream[2::2].size), 0.0, 1.0)

    def spawn(self, n):
        return [_CdfEdgeUniforms(self.seed, self.instance, self.prior, run) for run in range(n)]


def _fallback_instance(kind, beta, eta):
    """Nine parameters, four actions and a prior with two zero-mass parameters.

    The two zero-mass parameters are the only ones that play action 3. The
    last positive-mass parameters play action 0, from which parameter 0 gets
    outcome 0.5 with probability exactly 0 on linear_binary and at beta = 1000.
    """
    actions = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    params = np.array([
        [-1.0, 0.0], [-0.8, -0.3], [0.6, 0.5], [0.3, 0.8], [-0.5, 0.6],
        [0.002, 0.001], [1.0, 0.0], [0.0, -0.9], [0.2, -0.95],
    ])
    instance = BanditInstance(actions=actions, params=params, model=make_model(kind, beta, eta))
    assert instance.astar.tolist() == [1, 1, 0, 2, 2, 0, 0, 3, 3]
    return instance, BeliefState(np.r_[np.full(7, 1 / 7), 0.0, 0.0])


@_EVERY_KIND_AND_SATURATED
def test_rollout_fallback_draws_match_per_run_loop(kind, beta, eta):
    # uniforms at or above a row's CDF total take inverse_cdf's fallback to
    # the row's last positive-mass index, in both the parameter and the
    # outcome draw; the trajectories stay the per-run loop's bit for bit
    instance, prior = _fallback_instance(kind, beta, eta)
    T, runs = 30, 8
    for realized in (False, True):
        _assert_matches_reference(instance, prior, T, runs, 3, realized, make_rng=_EdgeUniforms)
    # both fallbacks are reached, no run plays a zero-mass parameter's action,
    # and every observed outcome has positive mass under the true parameter
    draws = np.stack([r.random(1 + 2 * T) for r in _EdgeUniforms(3).spawn(runs)])
    _, points, weights = instance.outcomes
    param_over = outcome_over = False
    periods = _ts_rollout(instance, prior, T, runs, _EdgeUniforms(3))
    for t, (belief, theta_star, slot, k) in enumerate(periods):
        param_over |= bool((belief.cumsum(-1)[:, -1] <= draws[:, 2 * t + 1]).any())
        y = points[slot, theta_star, k]
        true_pmf = (points[slot, theta_star], weights[slot, theta_star])
        outcome_over |= bool((true_pmf[1].cumsum(-1)[:, -1] <= draws[:, 2 * t + 2]).any())
        assert (instance.slots[0][slot] != 3).all()
        assert (_mass_on(*true_pmf, y[:, None]) > 0).all()
    assert param_over and outcome_over
    if kind == LINEAR_BINARY or beta == 1000.0:
        # every action is realized, so action 0 has slot 0
        assert weights[0, 0].tolist() == [1.0, 0.0]


@_EVERY_KIND_AND_SATURATED
def test_rollout_outcome_draws_on_cdf_edges_match_per_run_loop(kind, beta, eta):
    # outcome uniforms equal to a played slot's first CDF value or total, or
    # one ulp beside either, draw the per-run loop's outcome bit for bit
    instance, prior = _fallback_instance(kind, beta, eta)
    T, runs = 60, 8

    def make_rng(seed):
        return _CdfEdgeUniforms(seed, instance, prior)

    for realized in (False, True):
        _assert_matches_reference(instance, prior, T, runs, 4, realized, make_rng=make_rng)
    # every edge is met: (CDF entry, ulps beside it) of some run's played slot
    draws = np.stack([r.random(1 + 2 * T) for r in make_rng(4).spawn(runs)])
    weights = instance.outcomes[2]
    met = set()
    periods = _ts_rollout(instance, prior, T, runs, make_rng(4))
    for t, (_, theta_star, slot, _) in enumerate(periods):
        cdf = np.cumsum(weights[slot, theta_star], axis=-1)
        u = draws[:, 2 * t + 2, None]
        for step, edge in ((-1, np.nextafter(cdf, -1.0)), (0, cdf), (1, np.nextafter(cdf, 2.0))):
            met.update((entry, step) for entry in np.flatnonzero((u == edge).any(axis=0)))
    assert {(0, -1), (0, 0), (0, 1), (1, -1), (1, 0)} <= met


def _record_flags(monkeypatch):
    """Patch the rollout's fallback flagging to also append each result to
    the returned list."""
    flagged, flag = [], policy_mod._outcome_fallback_periods

    def recording(*args):
        flagged.append(flag(*args))
        return flagged[-1]

    monkeypatch.setattr(policy_mod, "_outcome_fallback_periods", recording)
    return flagged


@_EVERY_KIND_AND_SATURATED
@pytest.mark.parametrize("edges", ["totals", "cdf", "cdf-short-totals"])
def test_outcome_fallback_periods_are_flagged_up_front(kind, beta, eta, edges, monkeypatch):
    # a count guard, not a timing test: the outcome draw calls inverse_cdf
    # only in flagged periods, and every period in which some run's uniform
    # reaches its played slot's total is flagged. Every pmf of these models
    # sums to exactly 1, so "cdf-short-totals" scales the first slot's pmfs
    # by 1 - 2**-53 to hold totals below 1 beside totals of 1
    instance, prior = _fallback_instance(kind, beta, eta)
    T, runs, m = 60, 8, instance.n_params
    if edges == "cdf-short-totals":
        idx, points, weights = instance.outcomes
        weights = weights.copy()
        weights[0] *= 1.0 - 2.0**-53
        vars(instance)["outcomes"] = idx, points, weights
        totals = np.cumsum(weights, axis=-1)[..., -1]
        assert (totals[0] < 1.0).any() and (totals[1:] == 1.0).all()
    make_rng = _EdgeUniforms if edges == "totals" else (
        lambda seed: _CdfEdgeUniforms(seed, instance, prior)
    )
    draws = np.stack([r.random(1 + 2 * T) for r in make_rng(5).spawn(runs)])
    flagged, sizes = _record_flags(monkeypatch), []
    counted = policy_mod.inverse_cdf

    def counting(probs, u):
        sizes.append(probs.shape[-1])
        return counted(probs, u)

    monkeypatch.setattr(policy_mod, "inverse_cdf", counting)
    weights = instance.outcomes[2]
    needed, called, seen = [], [], 0
    periods = _ts_rollout(instance, prior, T, runs, make_rng(5))
    for t, (_, theta_star, slot, _) in enumerate(periods):
        total = np.cumsum(weights[slot, theta_star], axis=-1)[:, -1]
        needed.append(bool((draws[:, 2 * t + 2] >= total).any()))
        called.append(sizes[seen:].count(2) > 0)
        seen = len(sizes)
    # outcome pmfs have 2 entries, beliefs m
    assert m != 2 and len(flagged) == 1
    flagged, needed = flagged[0], np.array(needed)
    assert needed.any() and not flagged.all()
    assert called == needed.tolist() and flagged[needed].all()


@_EVERY_KIND_AND_SATURATED
def test_ordinary_rollout_never_calls_inverse_cdf(kind, beta, eta, monkeypatch):
    # a count guard, not a timing test: once the true parameters are drawn,
    # an ordinary seeded rollout flags no period and calls inverse_cdf 0 times
    T, m = 60, 12
    rng = np.random.default_rng(29)
    instance = random_instance(rng, kind, d=2, n=8, m=m, beta=beta, eta=eta)
    flagged, calls = _record_flags(monkeypatch), []
    periods = _ts_rollout(instance, BeliefState.uniform(m), T, 6, rng)
    monkeypatch.setattr(policy_mod, "inverse_cdf", lambda *args: calls.append(args))
    assert len(list(periods)) == T
    assert calls == [] and not flagged[0].any()


@_EVERY_KIND_AND_SATURATED
def test_rollout_matches_likelihoods_once_on_two_valued_supports(kind, beta, eta, monkeypatch):
    # a count guard, not a timing test: the binary models read an observation's
    # likelihoods from the outcome weights and call _mass_on 0 times; glm,
    # with up to 2m support values per action, makes one call per period
    T, m = 25, 12
    rng = np.random.default_rng(23)
    instance = random_instance(rng, kind, d=2, n=8, m=m, beta=beta, eta=eta)
    idx, points, weights = instance.outcomes
    if beta == 1000.0:
        assert (weights == 0.0).any() and (weights == 1.0).any()
    calls = []
    original = policy_mod._mass_on

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(policy_mod, "_mass_on", counting)
    for _ in _ts_rollout(instance, BeliefState.uniform(m), T, 4, rng):
        pass
    monkeypatch.undo()
    if kind == GLM:
        assert len(calls) == T
        return
    assert calls == []
    # a binary pair's k is its support index, so the weights at k are the
    # likelihoods of index k bit for bit
    for s in range(idx.shape[0]):
        for v in range(2):
            expected = _mass_on(idx[s], weights[s], v)
            assert weights[s, :, v].tobytes() == expected.tobytes()
    # the binary values lie 1/2 or 1 apart, so the weights have the bits of a
    # likelihood that matches each value's float within any distance below
    # that, 1e-9 here
    values = np.array(model_mod._BINARY_VALUES[kind])
    mass = np.where(np.abs(points[:, None] - values[:, None, None]) <= 1e-9, weights[:, None], 0.0)
    assert np.moveaxis(weights, -1, 1).tobytes() == (mass[..., 0] + mass[..., 1]).tobytes()


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
    for seed in range(30):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, kind, d=2, n=6, m=8, eta=eta)
        part = build_partition_glm(inst, 0.2)
        alone, batched = (
            audit_regret_chain(inst, BeliefState.uniform(8), part, 8,
                               np.random.default_rng(seed), runs=runs).rows
            for runs in (1, 3)
        )
        assert len(alone) == 8
        for one, many in zip(alone, batched):
            assert list(one) == list(many)
            for key, value in one.items():
                assert repr(value) == repr(many[key]), (seed, key)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(KINDS),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_chain_terms_row_is_its_one_row_call_bit_for_bit(seed, kind_eta, runs):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 40))
    inst = random_instance(rng, kind_eta[0], d=3, n=int(rng.integers(2, 30)), m=m,
                           eta=kind_eta[1])
    part = build_partition_glm(inst, float(rng.choice([0.02, 0.2])))
    # Dirichlet rows with zero entries, point masses, and copies of earlier rows
    rows = []
    for _ in range(runs):
        pick = rng.integers(3 if rows else 2)
        if pick == 0:
            p = rng.dirichlet(np.ones(m)) * (rng.random(m) < 0.6)
            p[rng.integers(m)] += 0.5
            rows.append(p / p.sum())
        elif pick == 1:
            rows.append(np.eye(m)[rng.integers(m)])
        else:
            rows.append(rows[rng.integers(len(rows))].copy())
    probs = np.array(rows)
    terms = _chain_terms(inst, part)
    batched = terms(probs)
    for r in range(runs):
        for got, want in zip(batched, terms(probs[r][None])):
            assert got[r].tobytes() == want[0].tobytes(), r


@pytest.mark.parametrize("model, rows_at", [
    # one glm outcome identifies theta*: rows are new only at t = 1 and t = 2
    (("glm", "--beta", "2", "--eta", "0.05"), lambda rows: rows[0] == 1 and len(rows) == 2),
    (("logistic", "--beta", "3"), lambda rows: rows[0] == 1),
], ids=["glm", "logistic"])
def test_audit_evaluates_each_distinct_belief_row_once(model, rows_at, monkeypatch, tmp_path):
    evaluated = []

    def counting_chain_terms(instance, partition):
        terms = _chain_terms(instance, partition)

        def counted(probs):
            evaluated.append(probs.shape[0])
            return terms(probs)

        return counted

    monkeypatch.setattr(policy_mod, "_chain_terms", counting_chain_terms)
    argv = ["audit", "--model", *model, "--epsilon", "0.05", "--T", "6", "--runs", "4",
            "--d", "2", "--n", "8", "--m", "8", "--seed", "7", "--out", str(tmp_path / "a")]
    assert main(argv) == 0
    # every run starts from the prior, so t = 1 holds one distinct row, and it
    # is the first call: the rows of t = 1 are met at no earlier period
    assert rows_at(evaluated), evaluated


def test_rollout_and_audit_reject_bad_T_and_runs(two_param_line):
    part = build_partition_glm(two_param_line, 0.2)
    for T, runs in ((-1, 1), (1, 0), (-3, -2)):
        with pytest.raises(ValueError, match="need T >= 0 and runs >= 1"):
            _ts_rollout(two_param_line, BeliefState.uniform(2), T, runs,
                        np.random.default_rng(0))
        with pytest.raises(ValueError, match="need T >= 0 and runs >= 1"):
            audit_regret_chain(two_param_line, BeliefState.uniform(2), part, T,
                               np.random.default_rng(0), runs=runs)


def _audit_on_every_period(instance, prior, partition, T, seed, runs):
    """The audit's rows and report fields with ``_chain_terms`` evaluated at
    every period of the rollout, whether or not the beliefs moved."""
    terms = _chain_terms(instance, partition)
    eps = partition.epsilon
    rows = [[] for _ in range(runs)]
    gamma_bar, totals, psi, ok = 0.0, np.zeros(runs), [], True
    rollout = _ts_rollout(instance, prior, T, runs, np.random.default_rng(seed))
    for t, (belief, *_) in enumerate(rollout):
        regret, diff, info_comp, info_psi_comp, info_psi_ts, mass = terms(belief)
        for r in range(runs):
            ratio = _ratio_report(float(diff[r] * diff[r]), float(info_comp[r])).ratio
            gamma_bar = max(gamma_bar, ratio)
            h_psi = entropy(mass[r])
            checks = {
                "regret_slack": bool(regret[r] - diff[r] <= eps + AUDIT_TOL),
                "ratio_identity": bool(abs(diff[r] * diff[r] - ratio * info_comp[r]) <= AUDIT_TOL),
                "data_processing_rep": bool(info_comp[r] <= info_psi_comp[r] + AUDIT_TOL),
                "data_processing_ts": bool(info_psi_comp[r] <= info_psi_ts[r] + AUDIT_TOL),
                "entropy_cap": bool(info_psi_ts[r] <= h_psi + AUDIT_TOL),
            }
            ok = ok and all(checks.values())
            rows[r].append({
                "run": r, "t": t + 1, "expected_regret": float(regret[r]),
                "compressed_regret": float(diff[r]), "ratio": ratio,
                "info_compressed": float(info_comp[r]),
                "info_psi_compressed": float(info_psi_comp[r]),
                "info_psi_ts": float(info_psi_ts[r]), "entropy_psi": h_psi, **checks,
            })
        totals += regret
        psi.append(info_psi_ts)
    for series in np.array(psi).T.tolist():
        lhs = sum(np.sqrt(np.maximum(series, 0.0)))
        ok = ok and bool(lhs <= np.sqrt(T * sum(series)) + AUDIT_TOL)
    info_prior = statistic_mutual_information(prior, partition)
    bound = compressed_bound(gamma_bar, info_prior, eps, T)
    mean_cum = float(np.mean(totals))
    return {
        "rows": [row for run_rows in rows for row in run_rows],
        "gamma_bar": gamma_bar, "info_prior_nats": info_prior, "epsilon": eps, "horizon": T,
        "runs": runs, "mean_cumulative_regret": mean_cum, "bound_value": bound,
        "passed": ok and mean_cum <= bound + AUDIT_TOL,
    }


@pytest.mark.parametrize("kind, eta", KINDS, ids=KIND_IDS)
def test_audit_repeats_terms_of_an_unchanged_belief_exactly(kind, eta, monkeypatch):
    evaluations = []

    def counting_chain_terms(instance, partition):
        terms = _chain_terms(instance, partition)

        def counted(probs):
            evaluations.append(probs.shape)
            return terms(probs)

        return counted

    monkeypatch.setattr(policy_mod, "_chain_terms", counting_chain_terms)
    T, runs = 50, 3
    for seed in range(3):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, kind, d=2, n=6, m=8, eta=eta)
        part = build_partition_glm(inst, 0.05)
        prior = BeliefState.uniform(8)
        evaluations.clear()
        report = audit_regret_chain(inst, prior, part, T, np.random.default_rng(seed), runs=runs)
        # glm: one outcome identifies theta*, so the beliefs only move at t = 1;
        # Bernoulli outcomes move them every period
        assert len(evaluations) == (2 if kind == GLM else T), seed
        want = _audit_on_every_period(inst, prior, part, T, seed, runs)
        assert {key: getattr(report, key) for key in want} == want


@pytest.mark.parametrize("kind, eta", KINDS, ids=KIND_IDS)
def test_build_representation_is_the_audit_steps_row(kind, eta):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, kind, d=2, n=10, m=16, eta=eta)
        part = build_partition_glm(inst, 0.05)
        # beliefs that leave about half of the cells (at least one) at zero mass
        beliefs = []
        for _ in range(4):
            kept = rng.random(part.K) < 0.5
            kept[rng.integers(part.K)] = True
            p = rng.dirichlet(np.ones(16)) * kept[part.cell_of]
            beliefs.append(BeliefState(p / p.sum()))
        probs = np.stack([b.probs for b in beliefs])
        # the audit step's masses, gains and pairs of all rows at once, given
        # each row's own mean rewards
        mean_rewards = np.stack([p @ inst.realized for p in probs])
        mass, gain = _cell_masses_and_gains(inst, probs, part)
        i1, i2, r = _representative_pairs(inst, probs, mean_rewards, part, mass, gain)
        assert (mass == 0.0).any()
        step = _chain_terms(inst, part)
        for row, belief in enumerate(beliefs):
            rep = build_representation(inst, belief, part)
            assert rep.cells == tuple(zip(i1[row].tolist(), i2[row].tolist(), r[row].tolist()))
            assert rep.cell_mass.tobytes() == mass[row].tobytes()
            # the audit's terms at this one belief are those of the representation
            _, diff, info, *_, one_mass = step(belief.probs[None])
            assert (float(diff[0]), float(info[0])) == compressed_moments(inst, belief, rep)
            assert one_mass[0].tobytes() == mass[row].tobytes()


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


def test_audit_chain_passes_on_small_instances():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, LINEAR_BINARY, d=2, n=8, m=6)
        part = build_partition_glm(inst, 0.2)
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
    original = model_mod._merged_supports

    def counting(means, eta):
        merges.append(means.shape[0])
        return original(means, eta)

    monkeypatch.setattr(model_mod, "_merged_supports", counting)
    rng = np.random.default_rng(3)
    inst = random_instance(rng, GLM, d=2, n=6, m=9)
    part = build_partition_glm(inst, 0.02)
    prior = BeliefState.uniform(9)
    report = audit_regret_chain(inst, prior, part, 6, rng, runs=3)
    assert report.passed and len(report.rows) == 18
    # one merge call over the rows of the actions whose outcomes the audit
    # used, and none on a second audit
    used = np.unique(inst.astar).size
    assert merges == [used]
    audit_regret_chain(inst, prior, part, 6, rng, runs=2)
    assert merges == [used]


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
    # the audit holds m x R tables, so the guard counts m * R * |outcomes|:
    # a glm action has up to 2m outcome values
    rng = np.random.default_rng(0)
    m = 300
    inst = random_instance(rng, GLM, d=3, n=64, m=m)
    assert m * inst.slots[0].size * (int(inst.outcomes[0].max()) + 1) > 1_000_000
    part = build_partition_glm(inst, 0.5)
    for audit in (audit_regret_chain, reference.audit_regret_chain):
        with pytest.raises(GuardExceeded, match=r"m \* R \* \|outcomes\|"):
            audit(inst, BeliefState.uniform(m), part, 1, rng)


@pytest.mark.parametrize("m, eta, refused, early", [
    (83_333, 0.01, False, False),
    (83_334, 0.01, True, False),
    (166_666, 0.0, False, False),
    (166_667, 0.0, True, False),
    (250_000, 0.01, True, False),
    (250_001, 0.01, True, True),
])
def test_audit_guard_decides_as_the_full_outcome_table(m, eta, refused, early):
    # three distinct means per action and two realized actions, so
    # m * R * q is 12m (eta > 0) or 6m (eta = 0) and crosses 1e6 between the
    # cases; one pair's values give q >= 2 (eta > 0) or q >= 1, which alone
    # refuses at m * R * 2 > 1e6 before the outcome table is built
    params = np.resize([0.5, -0.5, 0.25], m)[:, None]
    model = OutcomeModel(kind=GLM, beta=1.0, eta=eta)
    inst, twin = (BanditInstance(actions=np.array([[1.0], [-1.0]]), params=params, model=model)
                  for _ in range(2))
    table_refuses = m * twin.slots[0].size * (int(twin.outcomes[0].max()) + 1) > 1_000_000
    assert table_refuses == refused
    if refused:
        with pytest.raises(GuardExceeded, match=r"m \* R \* \|outcomes\|"):
            policy_mod._audit_guard(inst)
    else:
        policy_mod._audit_guard(inst)
    assert ("outcomes" not in vars(inst)) == early
