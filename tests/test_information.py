import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import grouped_mutual_information
from conftest import instance_with_shared_points, point_mass, random_belief, random_instance
from rdts import information
from rdts.compression import (
    Partition,
    Representation,
    build_partition_glm,
    build_representation,
)
from rdts.inference import BeliefState
from rdts.information import (
    DegenerateInformation,
    InconsistentRepresentation,
    InvalidPmf,
    action_information,
    compressed_moments,
    entropy,
    info_gain_about_statistic,
    ts_expected_regret,
    ts_info_ratio,
)
from rdts.model import GLM, LINEAR_BINARY, LOGISTIC, outcome_support


# ---------------------------------------------------------------------------
# plain-Python oracles: exhaustive enumeration with math.log, no numpy math
# ---------------------------------------------------------------------------

def oracle_mutual_information(joint) -> float:
    rows = [list(map(float, r)) for r in joint]
    pu = [sum(r) for r in rows]
    pv = [sum(r[j] for r in rows) for j in range(len(rows[0]))]
    total = 0.0
    for i, row in enumerate(rows):
        for j, p in enumerate(row):
            if p > 0.0:
                total += p * math.log(p / (pu[i] * pv[j]))
    return total


def oracle_ts_moments(instance, belief) -> tuple[float, float]:
    """One-step expected regret and I(theta*; (theta~, Y)) by full enumeration."""
    p = [float(x) for x in belief.probs]
    m = instance.n_params
    mu = reference.mean_table(instance)
    astar = [int(a) for a in instance.astar]
    regret = sum(p[i] * mu[i, astar[i]] for i in range(m)) - sum(
        p[i] * p[j] * mu[i, astar[j]] for i in range(m) for j in range(m)
    )
    # joint over theta* = i and the observed pair (sampled j, outcome slot y)
    supports = {a: outcome_support(instance, a) for a in set(astar)}
    joint = {}
    for i in range(m):
        for j in range(m):
            a = astar[j]
            _, probs = supports[a]
            for y in range(probs.shape[1]):
                key = (i, (j, y))
                joint[key] = joint.get(key, 0.0) + p[i] * p[j] * float(probs[i, y])
    pu = {}
    pv = {}
    for (i, jy), q in joint.items():
        pu[i] = pu.get(i, 0.0) + q
        pv[jy] = pv.get(jy, 0.0) + q
    info = sum(
        q * math.log(q / (pu[i] * pv[jy]))
        for (i, jy), q in joint.items()
        if q > 0.0
    )
    return regret, info


def oracle_compressed_moments(instance, belief, rep) -> tuple[float, float]:
    """Compressed-step moments by enumerating the representative atoms.

    An atom w is one positive-probability representative value; the
    compressed truth picks atom w with the cell's mass times its mixture
    weight, and the played representative is an independent copy.
    """
    part = rep.partition
    p = [float(x) for x in belief.probs]
    m = instance.n_params
    mass = [0.0] * part.K
    for i in range(m):
        mass[int(part.cell_of[i])] += p[i]
    atoms = []  # (param_idx, cell, probability)
    for k, (i1, i2, r) in enumerate(rep.cells):
        if mass[k] <= 0.0:
            continue
        if i1 == i2:
            atoms.append((i1, k, mass[k]))
            continue
        if r > 0.0:
            atoms.append((i1, k, mass[k] * r))
        if r < 1.0:
            atoms.append((i2, k, mass[k] * (1.0 - r)))
    cond = [
        [p[i] / mass[k] if part.cell_of[i] == k and mass[k] > 0 else 0.0 for i in range(m)]
        for k in range(part.K)
    ]
    mu = reference.mean_table(instance)
    astar = [int(a) for a in instance.astar]
    mean_rewards = [sum(p[i] * mu[i, a] for i in range(m)) for a in range(instance.n_actions)]
    diff = sum(
        q * (sum(cond[k][i] * mu[i, astar[w]] for i in range(m)) - mean_rewards[astar[w]])
        for w, k, q in atoms
    )
    # I(compressed truth; (played atom, outcome)) over the full joint
    supports = {astar[w]: outcome_support(instance, astar[w]) for w, _, _ in atoms}
    joint = {}
    for wi, (w_star, k_star, q_star) in enumerate(atoms):
        for wj, (w_play, _, q_play) in enumerate(atoms):
            a = astar[w_play]
            _, probs = supports[a]
            for y in range(probs.shape[1]):
                py = sum(cond[k_star][i] * float(probs[i, y]) for i in range(m))
                key = (wi, (wj, y))
                joint[key] = joint.get(key, 0.0) + q_star * q_play * py
    pu = {}
    pv = {}
    for (i, jy), q in joint.items():
        pu[i] = pu.get(i, 0.0) + q
        pv[jy] = pv.get(jy, 0.0) + q
    info = sum(
        q * math.log(q / (pu[i] * pv[jy]))
        for (i, jy), q in joint.items()
        if q > 0.0
    )
    return diff, info


# ---------------------------------------------------------------------------
# entropy and mutual information
# ---------------------------------------------------------------------------

def test_entropy_known_values():
    assert entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2.0), abs=1e-15)
    assert entropy(np.array([0.25, 0.75])) == pytest.approx(0.562335, abs=1e-6)
    assert entropy(np.array([1.0, 0.0])) == 0.0


def test_entropy_of_point_mass_is_positive_zero():
    assert math.copysign(1.0, entropy(np.array([1.0, 0.0]))) == 1.0


def test_entropy_of_a_point_mass_rounded_above_one_is_zero():
    # a cell mass summed to 1 + 2**-52 once made entropy -2.2e-16, and
    # compressed_bound then rejected that I(theta*; psi) as negative
    assert entropy(np.array([1.0 + 2.0**-52])) == 0.0
    assert entropy(np.array([1.0 + 2.0**-52, 0.0])) == 0.0


def test_entropy_validation():
    with pytest.raises(InvalidPmf):
        entropy(np.array([0.4, 0.4]))
    with pytest.raises(InvalidPmf):
        entropy(np.array([-0.2, 1.2]))
    with pytest.raises(InvalidPmf):
        entropy(np.array([np.nan, 1.0]))


def test_nan_joint_is_rejected():
    with pytest.raises(InvalidPmf):
        grouped_mutual_information(np.array([[np.nan, 0.5], [0.25, 0.25]]))
    # the grouped kernel's own mass check, on both of its merges
    for label in (np.array([0, 1]), np.array([0, 40])):
        with pytest.raises(InvalidPmf):
            information._grouped_mi(0, label, np.array([0, 1]), np.array([np.nan, 1.0]), 1)


def test_tiny_negative_joint_entries_count_as_zero():
    # the pmf check lets entries down to -INPUT_PMF_TOL through, and
    # mutual_information clips them before the kernel sees them
    tiny = np.array([[0.4, -1e-12], [0.1, 0.5 + 1e-12]])
    assert grouped_mutual_information(tiny) == grouped_mutual_information(np.maximum(tiny, 0.0))
    with pytest.raises(InvalidPmf):
        grouped_mutual_information(np.array([[0.4, -2e-9], [0.1, 0.5 + 2e-9]]))


def test_nan_cell_mass_is_inconsistent(tiny_linear):
    belief = BeliefState(np.array([0.4, 0.3, 0.2, 0.1]))
    rep = build_representation(tiny_linear, belief, build_partition_glm(tiny_linear, 0.3))
    stale = Representation(rep.partition, rep.cells, np.full(rep.partition.K, np.nan))
    with pytest.raises(InconsistentRepresentation):
        compressed_moments(tiny_linear, belief, stale)


def test_compressed_moments_rejects_stale_representation(rng):
    inst = random_instance(rng, LINEAR_BINARY, d=2, n=6, m=6)
    part = build_partition_glm(inst, 0.15)
    rep = build_representation(inst, random_belief(rng, 6), part)
    with pytest.raises(InconsistentRepresentation):
        compressed_moments(inst, random_belief(rng, 6), rep)


def test_mutual_information_known_value():
    # binary channel: P(Y=1 | row 0) = 0.2, P(Y=1 | row 1) = 0.8, uniform rows
    joint = 0.5 * np.array([[0.8, 0.2], [0.2, 0.8]])
    expected = math.log(2.0) - (-0.2 * math.log(0.2) - 0.8 * math.log(0.8))
    assert grouped_mutual_information(joint) == pytest.approx(expected, abs=1e-12)
    assert grouped_mutual_information(joint) == pytest.approx(0.192745, abs=1e-6)


def test_mutual_information_independent_is_zero():
    joint = np.outer([0.3, 0.7], [0.1, 0.4, 0.5])
    assert grouped_mutual_information(joint) == pytest.approx(0.0, abs=1e-15)


def test_mutual_information_stays_finite_when_marginal_product_underflows():
    # cell (0, 0) has joint 1e-200 and marginals 1e-200 each: their product,
    # 1e-400, reads 0 in floats, while the cell's term is -1e-200 ln(1e-200)
    x = 1e-200
    with mpmath.workdps(50):
        exact = float(-mpmath.mpf(x) * mpmath.log(x))
    joint = np.array([[x, 0.0], [0.0, 1.0]])
    assert grouped_mutual_information(joint) == pytest.approx(exact, rel=1e-15)


@given(st.integers(min_value=0))
@settings(max_examples=80, deadline=None)
def test_mutual_information_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    shape = (rng.integers(1, 5), rng.integers(1, 5))
    joint = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
    assert grouped_mutual_information(joint) == pytest.approx(
        oracle_mutual_information(joint), abs=1e-12
    )


@given(st.integers(min_value=0))
@settings(max_examples=80, deadline=None)
def test_grouped_mi_dense_and_sorted_merges_agree_bit_for_bit(seed):
    # entries share cells, groups skip labels and outcomes, some weights are 0
    rng = np.random.default_rng(seed)
    n_groups = int(rng.integers(1, 5))
    size = int(rng.integers(1, 40))
    group = np.concatenate([np.arange(n_groups), rng.integers(0, n_groups, size)])
    label = rng.integers(0, 6, group.size)
    outcome = rng.integers(0, 7, group.size)
    weight = rng.random(group.size) * (rng.random(group.size) > 0.2)
    weight[:n_groups] += 0.1  # every group has mass
    weight /= np.bincount(group, weights=weight)[group]
    results = []
    for cells_per_entry in (0, 10**9):  # always sorted, always dense
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(information, "_DENSE_CELLS_PER_ENTRY", cells_per_entry)
            results.append(information._grouped_mi(group, label, outcome, weight, n_groups))
    np.testing.assert_array_equal(results[0], results[1])
    for g in range(n_groups):
        joint = np.zeros((6, 7))
        np.add.at(joint, (label[group == g], outcome[group == g]), weight[group == g])
        assert results[0][g] == pytest.approx(oracle_mutual_information(joint), abs=1e-12)


@given(st.integers(min_value=0))
@settings(max_examples=60, deadline=None)
def test_mutual_information_bounded_by_entropies(seed):
    rng = np.random.default_rng(seed)
    joint = rng.dirichlet(np.ones(12)).reshape(3, 4)
    mi = grouped_mutual_information(joint)
    assert 0.0 <= mi <= entropy(joint.sum(axis=1)) + 1e-12
    assert mi <= entropy(joint.sum(axis=0)) + 1e-12


# ---------------------------------------------------------------------------
# Thompson sampling information ratio
# ---------------------------------------------------------------------------

def test_action_information_point_mass_is_zero(tiny_linear):
    belief = point_mass(4, 2)
    assert action_information(tiny_linear, belief, 0) == pytest.approx(0.0, abs=1e-15)


def test_ts_expected_regret_nonnegative_and_zero_at_point_mass(tiny_linear):
    assert ts_expected_regret(tiny_linear, point_mass(4, 1)) == pytest.approx(
        0.0, abs=1e-15
    )
    assert ts_expected_regret(tiny_linear, BeliefState.uniform(4)) >= -1e-15


@given(
    st.sampled_from([LINEAR_BINARY, GLM, LOGISTIC]),
    st.integers(min_value=0),
)
@settings(max_examples=60, deadline=None)
def test_ts_info_ratio_matches_oracle(kind, seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, kind, d=2, n=4, m=4, beta=1.5, eta=0.02)
    belief = random_belief(rng, 4)
    report = ts_info_ratio(inst, belief)
    regret, info = oracle_ts_moments(inst, belief)
    assert report.numerator == pytest.approx(regret * regret, abs=1e-12)
    assert report.denominator == pytest.approx(info, abs=1e-12)
    if not report.degenerate:
        assert report.ratio == pytest.approx(regret * regret / info, abs=1e-9)


@pytest.mark.parametrize("kind", [LINEAR_BINARY, LOGISTIC, GLM])
def test_ts_info_ratio_denominator_is_the_pushforward_onto_actions(kind):
    # the slot masses of one R-bin bincount are the realized entries of the
    # n-bin pushforward onto actions, and the denominator formed from the
    # latter has the same bits
    rng = np.random.default_rng(14)
    for _ in range(10):
        inst = random_instance(rng, kind, d=2, n=25, m=15)
        actions = inst.slots[0]
        assert actions.size < inst.n_actions  # some action is never best
        probs = rng.dirichlet(np.ones(15)) * (rng.random(15) < 0.7)
        belief = BeliefState(probs / probs.sum())
        mass = reference.optimal_action_distribution(belief, inst)
        played = np.flatnonzero(mass > 0.0)
        assert np.array_equal(mass[actions], np.bincount(inst.slots[1], weights=belief.probs))
        idx, w = inst.outcomes
        rows = np.searchsorted(actions, played)
        labels = np.arange(15)[:, None]
        info = information._outcome_information(
            idx[rows], w[rows], belief.probs[None, :, None], labels
        )[0]
        expected = float(np.cumsum(mass[played] * info)[-1])
        assert ts_info_ratio(inst, belief).denominator == expected


def test_ts_info_ratio_degenerate_at_point_mass(tiny_linear):
    report = ts_info_ratio(tiny_linear, point_mass(4, 0))
    assert report.degenerate
    assert report.ratio == 0.0


def test_degenerate_information_raises():
    from rdts.information import _ratio_report

    with pytest.raises(DegenerateInformation):
        _ratio_report(1.0, 0.0)


# ---------------------------------------------------------------------------
# compressed statistics
# ---------------------------------------------------------------------------

def test_info_gain_about_statistic_vs_direct_joint(tiny_linear):
    part = build_partition_glm(tiny_linear, 0.3)
    belief = BeliefState(np.array([0.4, 0.3, 0.2, 0.1]))
    for a in range(tiny_linear.n_actions):
        values, probs = outcome_support(tiny_linear, a)
        joint = np.zeros((part.K, values.size))
        for i in range(4):
            joint[part.cell_of[i]] += belief.probs[i] * probs[i]
        assert info_gain_about_statistic(tiny_linear, belief, part, a) == pytest.approx(
            oracle_mutual_information(joint), abs=1e-12
        )


@given(
    st.integers(min_value=0),
    st.sampled_from([(LINEAR_BINARY, 0.05), (LOGISTIC, 0.05), (GLM, 0.05), (GLM, 0.0)]),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=80, deadline=None)
def test_info_gain_about_statistic_equals_dense_scatter(seed, kind_eta, K):
    # the compact scatter adds the same nonzero terms in the same order as a
    # dense np.add.at over outcome_support, so the result is the same float
    inst = instance_with_shared_points(seed, *kind_eta)
    rng = np.random.default_rng(seed)
    m = inst.n_params
    part = Partition(cell_of=rng.permutation(np.arange(m) % K), epsilon=0.1, K=K)
    p = rng.dirichlet(np.ones(m))
    p[rng.random(m) < 0.25] = 0.0
    belief = BeliefState(p / p.sum()) if p.sum() > 0 else BeliefState.uniform(m)
    for a in range(inst.n_actions):
        _, probs = outcome_support(inst, a)
        joint = np.zeros((K, probs.shape[1]))
        np.add.at(joint, part.cell_of, belief.probs[:, None] * probs)
        gain = info_gain_about_statistic(inst, belief, part, a)
        assert gain == grouped_mutual_information(joint)


@given(st.integers(min_value=0), st.sampled_from([0.05, 0.15, 0.4]))
@settings(max_examples=60, deadline=None)
def test_compressed_moments_match_oracle(seed, epsilon):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, LINEAR_BINARY, d=2, n=4, m=4)
    belief = random_belief(rng, 4)
    part = build_partition_glm(inst, epsilon)
    rep = build_representation(inst, belief, part)
    diff, info = compressed_moments(inst, belief, rep)
    o_diff, o_info = oracle_compressed_moments(inst, belief, rep)
    assert diff == pytest.approx(o_diff, abs=1e-12)
    assert info == pytest.approx(o_info, abs=1e-12)
    report = reference.compressed_info_ratio(inst, belief, rep)
    assert report.numerator == pytest.approx(o_diff * o_diff, abs=1e-12)


@given(st.integers(min_value=0))
@settings(max_examples=40, deadline=None)
def test_compressed_regret_within_epsilon_of_ts(seed):
    # the representative construction gives ts_regret - compressed_diff <= eps
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, LINEAR_BINARY, d=2, n=5, m=6)
    belief = random_belief(rng, 6)
    eps = 0.1
    part = build_partition_glm(inst, eps)
    rep = build_representation(inst, belief, part)
    diff, _ = compressed_moments(inst, belief, rep)
    assert ts_expected_regret(inst, belief) - diff <= eps + 1e-9


@given(
    st.integers(min_value=0),
    st.sampled_from([(LINEAR_BINARY, 0.05), (LOGISTIC, 0.05), (GLM, 0.05), (GLM, 0.0)]),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_one_belief_calls_match_per_action_reference(seed, kind_eta, K):
    # every public information function is a one-belief call of the grouped
    # kernel; the per-action code it replaced must agree to rounding
    inst = instance_with_shared_points(seed, *kind_eta)
    rng = np.random.default_rng(seed)
    m = inst.n_params
    part = Partition(cell_of=rng.permutation(np.arange(m) % K), epsilon=0.1, K=K)
    p = rng.dirichlet(np.ones(m))
    p[rng.random(m) < 0.25] = 0.0
    belief = BeliefState(p / p.sum()) if p.sum() > 0 else BeliefState.uniform(m)
    close = dict(rel=1e-10, abs=1e-15)
    for a in range(inst.n_actions):
        assert action_information(inst, belief, a) == pytest.approx(
            reference.action_information(inst, belief, a), **close)
        assert info_gain_about_statistic(inst, belief, part, a) == pytest.approx(
            reference.info_gain_about_statistic(inst, belief, part, a), **close)
    got, want = ts_info_ratio(inst, belief), reference.ts_info_ratio(inst, belief)
    assert got.numerator == pytest.approx(want.numerator, **close)
    assert got.denominator == pytest.approx(want.denominator, **close)
    rep = build_representation(inst, belief, part)
    ref_rep = reference.build_representation(inst, belief, part)
    assert [c[:2] for c in rep.cells] == [c[:2] for c in ref_rep.cells]
    assert [c[2] for c in rep.cells] == pytest.approx([c[2] for c in ref_rep.cells], **close)
    diff, info = compressed_moments(inst, belief, rep)
    ref_diff, ref_info = reference.compressed_moments(inst, belief, rep)
    assert diff == pytest.approx(ref_diff, **close)
    assert info == pytest.approx(ref_info, **close)
