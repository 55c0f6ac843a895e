import json
import math
import signal
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_belief, random_instance
from rdts.compression import (
    CERT_TOL,
    EpsilonTooLarge,
    Infeasible,
    InvalidEpsilon,
    MarginViolated,
    Partition,
    TooLarge,
    _refine_certified,
    best_action_margins,
    build_partition_glm,
    build_partition_linear,
    build_partition_logistic,
    build_representation,
    distortion,
    distortion_block,
    distortion_matrix,
    logistic_ladder,
    max_intra_cell_distortion,
    rate_distortion_bruteforce,
    realized_link_slope,
    statistic_mutual_information,
    two_point_pair,
)
from rdts.inference import BeliefState
from rdts.information import entropy, info_gain_about_statistic
from rdts.model import GLM, LINEAR_BINARY, LOGISTIC, OutcomeModel, sample_instance
from rdts.tolerances import CERT_TOL, PAIR_TOL


def margin_logistic_instance(rng, d=2, n=10, m=8, beta=4.0, delta=0.25):
    """Random logistic instance whose best-action inner products clear delta."""
    for _ in range(200):
        inst = random_instance(rng, LOGISTIC, d=d, n=n, m=m, beta=beta)
        if np.abs(best_action_margins(inst)).min() >= delta:
            return inst
    raise AssertionError("could not draw a margin-respecting instance")


# ---------------------------------------------------------------------------
# distortion
# ---------------------------------------------------------------------------

def test_distortion_definition(tiny_linear):
    # regret of playing theta_i's best action when theta_j is true
    for i in range(4):
        for j in range(4):
            expected = float(
                tiny_linear.mu[j, tiny_linear.astar[j]]
                - tiny_linear.mu[j, tiny_linear.astar[i]]
            )
            assert distortion(tiny_linear, i, j) == pytest.approx(expected, abs=1e-15)
    dmat = distortion_matrix(tiny_linear)
    for i in range(4):
        for j in range(4):
            assert dmat[i, j] == pytest.approx(distortion(tiny_linear, i, j), abs=1e-15)
        assert dmat[i, i] == 0.0
    assert np.all(dmat >= -1e-15)


# The full-matrix certification as it was before certification read per-cell
# blocks, kept verbatim as the oracle for the block version.

def oracle_distortion_matrix(instance):
    """D[i, j] = distortion of theta_i with respect to theta_j."""
    mu = instance.mu
    best = mu[np.arange(mu.shape[0]), instance.astar]
    return (best[:, None] - mu[:, instance.astar]).T


def oracle_max_intra_cell_distortion(instance, cell_of, K):
    dmat = oracle_distortion_matrix(instance)
    worst = 0.0
    for k in range(K):
        idx = np.flatnonzero(cell_of == k)
        if idx.size > 1:
            worst = max(worst, float(dmat[np.ix_(idx, idx)].max()))
    return worst


def oracle_refine_certified(instance, cell_of, epsilon):
    dmat = oracle_distortion_matrix(instance)
    out = np.empty_like(cell_of)
    next_cell = 0
    for k in range(int(cell_of.max()) + 1):
        members = list(np.flatnonzero(cell_of == k))
        if not members:
            continue
        if len(members) == 1 or dmat[np.ix_(members, members)].max() <= epsilon + CERT_TOL:
            for i in members:
                out[i] = next_cell
            next_cell += 1
            continue
        while members:
            seed = members[0]
            sub = [seed]
            for cand in members[1:]:
                ok = all(
                    dmat[cand, s] <= epsilon + CERT_TOL
                    and dmat[s, cand] <= epsilon + CERT_TOL
                    for s in sub
                )
                if ok:
                    sub.append(cand)
            for i in sub:
                out[i] = next_cell
            next_cell += 1
            members = [t for t in members if t not in set(sub)]
    return out


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([LINEAR_BINARY, LOGISTIC, GLM]),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([1e-4, 0.01, 0.05, 0.3]),
)
@settings(max_examples=200, deadline=None)
def test_block_certification_matches_full_matrix_oracle(seed, kind, m, K, epsilon):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, kind, d=3, n=int(rng.integers(1, 12)), m=m, eta=0.02)
    full = distortion_matrix(inst)
    assert np.array_equal(_bits(full), _bits(oracle_distortion_matrix(inst)))
    # any index list: unsorted, repeated or empty
    idx = rng.integers(0, m, size=int(rng.integers(0, m + 2)))
    assert np.array_equal(_bits(distortion_block(inst, idx)), _bits(full[np.ix_(idx, idx)]))
    # few cells for many parameters: cells wider than epsilon, some numbers unused
    cell_of = rng.integers(0, K, size=m).astype(np.intp)
    refined = _refine_certified(inst, cell_of, epsilon)
    assert np.array_equal(refined, oracle_refine_certified(inst, cell_of, epsilon))
    for cells in (cell_of, refined):
        k = int(cells.max()) + 1
        assert max_intra_cell_distortion(inst, cells, k) == oracle_max_intra_cell_distortion(
            inst, cells, k
        )
    # a K below the largest cell number ignores the cells past it
    assert max_intra_cell_distortion(inst, cell_of, 1) == oracle_max_intra_cell_distortion(
        inst, cell_of, 1
    )


def test_refine_resplits_an_over_wide_cell_like_the_oracle():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, LINEAR_BINARY, d=2, n=12, m=30)
    cell_of = np.zeros(30, dtype=np.intp)
    assert max_intra_cell_distortion(inst, cell_of, 1) > 0.05
    refined = _refine_certified(inst, cell_of, 0.05)
    assert refined.max() > 0  # the greedy re-split fired
    assert np.array_equal(refined, oracle_refine_certified(inst, cell_of, 0.05))
    assert max_intra_cell_distortion(inst, refined, int(refined.max()) + 1) <= 0.05 + CERT_TOL
    # a pair whose distortion exceeds epsilon by less than CERT_TOL stays together
    dmat = distortion_matrix(inst)
    i, j = np.unravel_index(np.argmax(dmat), dmat.shape)
    pair = np.arange(30)
    pair[j] = i
    tight = float(max(dmat[i, j], dmat[j, i])) - CERT_TOL / 2
    refined = _refine_certified(inst, pair, tight)
    assert refined[i] == refined[j]
    assert np.array_equal(refined, oracle_refine_certified(inst, pair, tight))


def test_certification_memory_is_per_cell_not_m_squared():
    m = 3000
    model = OutcomeModel(kind=LOGISTIC, beta=5.0)
    inst = sample_instance(np.random.default_rng(0), 3, 200, m, model)
    tracemalloc.start()
    try:
        part = build_partition_logistic(inst, 0.02, 0.02)
        max_intra_cell_distortion(inst, part.cell_of, part.K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one m x m float matrix is m*m*8 bytes; allow an eighth of one
    assert peak < m * m * 8 / 8


def test_max_intra_cell_distortion(tiny_linear):
    cell_of = np.array([0, 0, 1, 0])
    dmat = distortion_matrix(tiny_linear)
    idx = [0, 1, 3]
    expected = max(dmat[i, j] for i in idx for j in idx)
    assert max_intra_cell_distortion(tiny_linear, cell_of, 2) == pytest.approx(
        expected, abs=1e-15
    )


# ---------------------------------------------------------------------------
# Partition container
# ---------------------------------------------------------------------------

def test_partition_validation_and_json():
    part = Partition(cell_of=np.array([0, 1, 0, 2]), epsilon=0.1, K=3)
    assert part.members(0).tolist() == [0, 2]
    back = Partition.from_json(part.to_json())
    assert back.cell_of.tolist() == part.cell_of.tolist()
    assert back.K == 3 and back.epsilon == 0.1
    with pytest.raises(ValueError):
        Partition(cell_of=np.array([0, 2]), epsilon=0.1, K=3)  # empty cell 1


# ---------------------------------------------------------------------------
# partition builders
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0), st.sampled_from([0.02, 0.1, 0.3, 1.0]))
@settings(max_examples=60, deadline=None)
def test_linear_builder_certificate(seed, epsilon):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, LINEAR_BINARY, d=3, n=12, m=10)
    part = build_partition_linear(inst, epsilon)
    assert part.K >= 1
    assert max_intra_cell_distortion(inst, part.cell_of, part.K) <= epsilon + CERT_TOL


@given(st.integers(min_value=0), st.sampled_from([0.02, 0.1, 0.3]))
@settings(max_examples=60, deadline=None)
def test_glm_builder_certificate(seed, epsilon):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, GLM, d=3, n=12, m=10, beta=0.8, eta=0.02)
    part = build_partition_glm(inst, epsilon)
    assert max_intra_cell_distortion(inst, part.cell_of, part.K) <= epsilon + CERT_TOL


def test_builder_input_validation(tiny_linear, tiny_logistic):
    with pytest.raises(InvalidEpsilon):
        build_partition_linear(tiny_linear, 0.0)
    with pytest.raises(InvalidEpsilon):
        build_partition_linear(tiny_logistic, 0.1)
    with pytest.raises(InvalidEpsilon):
        build_partition_glm(tiny_linear, 0.1)
    with pytest.raises(InvalidEpsilon):
        build_partition_logistic(tiny_linear, 0.1, 0.5)


def test_builders_reject_nan_epsilon_and_delta(tiny_linear, tiny_logistic):
    # a NaN covering radius takes no point, so the greedy cover used to loop
    # for ever; the alarm turns such a hang into a failure
    def hang(signum, frame):
        raise TimeoutError("builder did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        with pytest.raises(InvalidEpsilon):
            build_partition_linear(tiny_linear, math.nan)
        with pytest.raises(InvalidEpsilon):
            build_partition_glm(tiny_logistic, math.nan)
        with pytest.raises(InvalidEpsilon):
            build_partition_logistic(tiny_logistic, math.nan, 0.01)
        with pytest.raises(MarginViolated):
            build_partition_logistic(tiny_logistic, 0.01, math.nan)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_realized_link_slope_peaks_at_zero():
    from rdts.model import BanditInstance

    model = OutcomeModel(kind=LOGISTIC, beta=2.0)
    actions = np.array([[1.0, 0.0], [-1.0, 0.0]])
    params = np.array([[0.5, 0.0]])
    inst = BanditInstance(actions=actions, params=params, model=model)
    # realized inner products are {-0.5, 0.5}, straddling 0: slope = beta/4
    assert realized_link_slope(inst) == pytest.approx(0.5, abs=1e-12)


def test_logistic_ladder_structure():
    model = OutcomeModel(kind=LOGISTIC, beta=2.0)
    eps, delta = 0.05, 0.5
    s = logistic_ladder(model, eps, delta)
    L = len(s) - 1
    phi = lambda x: float(model.link(x))
    assert s[1] == delta
    assert s[-1] == 1.0
    assert all(s[i] < s[i + 1] for i in range(L))
    # the ladder climbs the link in exact epsilon steps past the margin level
    assert phi(s[0]) == pytest.approx(phi(delta) - eps, abs=1e-12)
    for ell in range(2, L):
        assert phi(s[ell]) == pytest.approx(phi(delta) + (ell - 1) * eps, abs=1e-12)
    # L is the smallest count whose top step clears phi(1)
    assert phi(delta) + (L - 1) * eps >= phi(1.0) - 1e-12
    assert phi(delta) + (L - 2) * eps < phi(1.0)


def test_logistic_ladder_epsilon_guard():
    model = OutcomeModel(kind=LOGISTIC, beta=2.0)
    delta = 0.5
    limit = float(model.link(delta)) - 0.5
    with pytest.raises(EpsilonTooLarge):
        logistic_ladder(model, limit + 1e-6, delta)
    logistic_ladder(model, limit - 1e-6, delta)


@given(st.integers(min_value=0), st.sampled_from([0.05, 0.1, 0.2]))
@settings(max_examples=40, deadline=None)
def test_logistic_builder_certificate(seed, epsilon):
    rng = np.random.default_rng(seed)
    inst = margin_logistic_instance(rng, d=2, n=10, m=8, beta=4.0, delta=0.25)
    delta = float(np.min(np.abs(best_action_margins(inst))))
    part = build_partition_logistic(inst, epsilon, delta)
    assert max_intra_cell_distortion(inst, part.cell_of, part.K) <= epsilon + CERT_TOL


def test_logistic_margins_come_from_exact_inner_products():
    # at beta=100 many means round to 1.0, where inverting the link gives inf
    model = OutcomeModel(kind=LOGISTIC, beta=100.0)
    inst = sample_instance(np.random.default_rng(3), 2, 100, 100, model)
    assert np.any(inst.mu[np.arange(100), inst.astar] == 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        margins = best_action_margins(inst)
        part = build_partition_logistic(inst, 0.02, 0.02)
    inner = inst.params @ inst.actions.T
    np.testing.assert_allclose(margins, inner[np.arange(100), inst.astar], rtol=0, atol=1e-15)
    assert max_intra_cell_distortion(inst, part.cell_of, part.K) <= 0.02 + CERT_TOL


def test_logistic_builder_margin_violation():
    rng = np.random.default_rng(1)
    inst = margin_logistic_instance(rng, delta=0.25)
    with pytest.raises(MarginViolated):
        build_partition_logistic(inst, 0.05, 0.9)


# ---------------------------------------------------------------------------
# two-point mixtures
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0), st.integers(min_value=1, max_value=12))
@settings(max_examples=300, deadline=None)
def test_two_point_pair_exists_and_underperforms(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    p = rng.dirichlet(np.ones(n))
    j, k, r = two_point_pair(a, b, p)
    assert 0.0 <= r <= 1.0
    assert r * a[j] + (1.0 - r) * a[k] <= float(p @ a) + PAIR_TOL
    assert r * b[j] + (1.0 - r) * b[k] <= float(p @ b) + PAIR_TOL


def test_two_point_pair_rejects_nan_pmf():
    a = np.array([0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="valid pmf"):
        two_point_pair(a, a, np.array([np.nan, 0.5, 0.5]))


def test_two_point_pair_is_deterministic():
    rng = np.random.default_rng(5)
    a, b, p = rng.normal(size=6), rng.normal(size=6), rng.dirichlet(np.ones(6))
    assert two_point_pair(a, b, p) == two_point_pair(a, b, p)


def test_two_point_pair_ignores_rounding_noise_in_tied_scores():
    # glm outcomes that identify theta give every action the same I(psi; Y_a)
    # up to rounding; the sign of that rounding must not pick the pair
    a = np.array([0.6, 0.6, 0.4])
    p = np.array([0.3, 0.3, 0.4])
    g = 0.7
    picks = {
        two_point_pair(a, np.array([g, g, x]), p)[:2]
        for x in (np.nextafter(g, 0.0), g, np.nextafter(g, 1.0))
    }
    assert picks == {(0, 2)}


@given(st.integers(min_value=0), st.integers(min_value=1, max_value=8))
@settings(max_examples=200, deadline=None)
def test_two_point_pair_underperforms_with_near_tied_scores(seed, n):
    # scores a few ulps or up to 2 * PAIR_TOL apart fall in the tied branch,
    # where r is left free; the mixture must still meet both targets
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    g = rng.normal()
    ulps = np.array([np.nextafter(g, -np.inf), g, np.nextafter(g, np.inf)])
    b = np.where(rng.random(n) < 0.5, rng.choice(ulps, n), g + rng.uniform(-2, 2, n) * PAIR_TOL)
    p = rng.dirichlet(np.ones(n))
    j, k, r = two_point_pair(a, b, p)
    assert 0.0 <= r <= 1.0
    assert r * a[j] + (1.0 - r) * a[k] <= float(p @ a) + PAIR_TOL
    assert r * b[j] + (1.0 - r) * b[k] <= float(p @ b) + PAIR_TOL


def test_two_point_pair_validation():
    with pytest.raises(ValueError):
        two_point_pair(np.ones(3), np.ones(2), np.full(3, 1 / 3))
    with pytest.raises(ValueError):
        two_point_pair(np.ones(3), np.ones(3), np.array([0.5, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0))
@settings(max_examples=50, deadline=None)
def test_representation_underperforms_cell_averages(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, LINEAR_BINARY, d=2, n=6, m=8)
    belief = random_belief(rng, 8)
    part = build_partition_linear(inst, 0.15)
    rep = build_representation(inst, belief, part)
    p = belief.probs
    mean_rewards = p @ inst.mu
    mass = np.bincount(part.cell_of, weights=p, minlength=part.K)
    for k, (i1, i2, r) in enumerate(rep.cells):
        members = part.members(k)
        assert i1 in members and i2 in members
        if mass[k] <= 0.0:
            continue
        w = p[members] / mass[k]
        rew = np.array([mean_rewards[inst.astar[i]] for i in members])
        inf = np.array(
            [info_gain_about_statistic(inst, belief, part, int(inst.astar[i])) for i in members]
        )

        def score(values, idx1, idx2):
            one = float(values[list(members).index(idx1)])
            two = float(values[list(members).index(idx2)])
            return r * one + (1.0 - r) * two

        assert score(rew, i1, i2) <= float(w @ rew) + PAIR_TOL
        assert score(inf, i1, i2) <= float(w @ inf) + PAIR_TOL
    np.testing.assert_allclose(rep.cell_mass, mass, atol=1e-15)


def test_representation_json_round_trip(tiny_linear):
    part = build_partition_linear(tiny_linear, 0.2)
    rep = build_representation(tiny_linear, BeliefState.uniform(4), part)
    from rdts.compression import Representation

    back = Representation.from_json(rep.to_json())
    assert back.cells == rep.cells
    np.testing.assert_allclose(back.cell_mass, rep.cell_mass, atol=1e-15)


def test_statistic_mutual_information_is_pushforward_entropy(tiny_linear):
    part = build_partition_linear(tiny_linear, 0.2)
    belief = BeliefState(np.array([0.4, 0.3, 0.2, 0.1]))
    mass = np.bincount(part.cell_of, weights=belief.probs, minlength=part.K)
    assert statistic_mutual_information(belief, part) == pytest.approx(
        entropy(mass), abs=1e-15
    )


# ---------------------------------------------------------------------------
# brute-force rate-distortion oracle
# ---------------------------------------------------------------------------

def test_bruteforce_guard(rng):
    inst = random_instance(rng, LINEAR_BINARY, d=2, n=4, m=9)
    with pytest.raises(TooLarge):
        rate_distortion_bruteforce(inst, BeliefState.uniform(9), 0.1)


@given(st.integers(min_value=0), st.sampled_from([0.05, 0.2, 0.6]))
@settings(max_examples=40, deadline=None)
def test_bruteforce_is_optimal_and_valid(seed, epsilon):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, LINEAR_BINARY, d=2, n=5, m=5)
    belief = random_belief(rng, 5)
    K, info, part = rate_distortion_bruteforce(inst, belief, epsilon)
    assert part.K == K
    assert max_intra_cell_distortion(inst, part.cell_of, K) <= epsilon + CERT_TOL
    # the greedy construction can never beat the exhaustive minimum
    greedy = build_partition_linear(inst, epsilon)
    assert statistic_mutual_information(belief, greedy) >= info - 1e-12
    assert info >= -1e-15


def test_bruteforce_singleton_epsilon_huge(rng):
    inst = random_instance(rng, LINEAR_BINARY, d=2, n=4, m=4)
    K, info, _ = rate_distortion_bruteforce(inst, BeliefState.uniform(4), 10.0)
    assert K == 1
    assert info == pytest.approx(0.0, abs=1e-15)
