import io
import json
import math
import signal
import tracemalloc
import warnings
from contextlib import redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import random_belief, random_instance
from reference import TooLarge, logistic_ladder, rate_distortion_bruteforce
from rdts import cli, compression
from rdts.bounds import EpsilonTooLarge, LogisticLadder, c_phi, partition_count_bounds
from rdts.cli import main
from rdts.compression import (
    InvalidEpsilon,
    MarginViolated,
    Partition,
    _COVER_BLOCK_BYTES,
    _cover_best_actions,
    _cell_distortions,
    _finish_partition,
    _greedy_cover,
    _pair_distances,
    _refine_certified,
    best_action_margins,
    build_partition_glm,
    build_partition_logistic,
    build_representation,
    distortion_block,
    distortion_matrix,
    max_intra_cell_distortion,
    realized_link_slope,
    statistic_mutual_information,
    two_point_pair,
)
from rdts.inference import BeliefState
from rdts.information import entropy, info_gain_about_statistic
from rdts.model import (
    GLM,
    LINEAR_BINARY,
    LOGISTIC,
    BanditInstance,
    OutcomeModel,
    sample_in_ball,
    sample_instance,
)
from rdts.tolerances import CERT_TOL, MARGIN_TOL, PAIR_TOL


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
    dmat = distortion_matrix(tiny_linear)
    mu = reference.mean_table(tiny_linear)
    for i in range(4):
        for j in range(4):
            expected = float(mu[j, tiny_linear.astar[j]] - mu[j, tiny_linear.astar[i]])
            assert dmat[i, j] == pytest.approx(expected, abs=1e-15)
        assert dmat[i, i] == 0.0
    assert np.all(dmat >= -1e-15)


# The full-matrix certification as it was before certification read per-cell
# blocks, kept verbatim as the oracle for the block version.

def oracle_distortion_matrix(instance):
    """D[i, j] = distortion of theta_i with respect to theta_j."""
    mu = reference.mean_table(instance)
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
    # few cells for many parameters: cells wider than epsilon, some numbers
    # unused; and cells that each take the parameters of one or two best
    # actions, so members share 1-2 distinct best actions
    by_action = rng.permutation(inst.n_actions) // int(rng.integers(1, 3))
    for cell_of in (rng.integers(0, K, size=m).astype(np.intp), by_action[inst.astar]):
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
    # the partition keeps the certificate of its final cells, not the over-wide one
    part = _finish_partition(inst, cell_of, 0.05)
    assert np.array_equal(part.cell_of, refined)
    assert np.array_equal(_bits(part.distortion), _bits(_cell_distortions(inst, refined)))
    assert part.distortion.shape == (part.K,) and not part.distortion.flags.writeable
    assert part.distortion.max() <= 0.05 + CERT_TOL
    # a pair whose distortion exceeds epsilon by less than CERT_TOL stays together
    dmat = distortion_matrix(inst)
    i, j = np.unravel_index(np.argmax(dmat), dmat.shape)
    pair = np.arange(30)
    pair[j] = i
    tight = float(max(dmat[i, j], dmat[j, i])) - CERT_TOL / 2
    refined = _refine_certified(inst, pair, tight)
    assert refined[i] == refined[j]
    assert np.array_equal(refined, oracle_refine_certified(inst, pair, tight))


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([LINEAR_BINARY, LOGISTIC, GLM]),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=100, deadline=None)
def test_only_cells_of_two_or_more_best_actions_read_mean_rewards(seed, kind, m, per_cell):
    rng = np.random.default_rng(seed)
    half = sample_in_ball(rng, int(rng.integers(1, 8)), 3)
    # duplicated actions, so best actions tie at the lowest copy
    actions = np.concatenate([half, half[rng.integers(0, half.shape[0], size=3)]])
    beta = 2.0 if kind == GLM else 5.0
    inst = BanditInstance(actions=actions, params=sample_in_ball(rng, m, 3),
                          model=OutcomeModel(kind=kind, beta=beta, eta=0.0 if kind == GLM else None))
    # cells that each take the parameters of up to per_cell best actions;
    # some cell numbers stay unused
    cell_of = (rng.permutation(inst.n_actions) // per_cell)[inst.astar]
    read = []
    gather = BanditInstance.mean_rewards

    def counted(self, rows, cols):
        read.append(np.asarray(rows).ravel())
        return gather(self, rows, cols)

    with mock.patch.object(BanditInstance, "mean_rewards", counted):
        worst = _cell_distortions(inst, cell_of)
    several = [k for k in range(worst.size) if np.unique(inst.astar[cell_of == k]).size > 1]
    assert len(read) == (1 if several else 0)
    assert set(np.concatenate(read + [np.empty(0, dtype=np.intp)]).tolist()) == set(
        np.flatnonzero(np.isin(cell_of, several)).tolist())
    for k in range(worst.size):
        idx = np.flatnonzero(cell_of == k)
        expected = distortion_block(inst, idx).max() if idx.size else 0.0
        assert _bits(worst[k]) == _bits(np.float64(expected)), k


def oracle_greedy_cover(points, radius):
    """The greedy cover as it was before it computed blocks of center
    distances at once, kept verbatim as the oracle."""
    uncovered = np.ones(points.shape[0], dtype=bool)
    group = np.empty(points.shape[0], dtype=np.intp)
    count = 0
    while uncovered.any():
        center = points[np.argmax(uncovered)]
        taken = uncovered & (np.linalg.norm(points - center, axis=1) <= radius)
        group[taken] = count
        uncovered &= ~taken
        count += 1
    return group


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=150),
    st.sampled_from(["zero", "small", "diameter"]),
)
@example(seed=0, d=20, count=150, radius_kind="small")
@settings(max_examples=150, deadline=None)
def test_greedy_cover_matches_per_center_oracle(seed, d, count, radius_kind):
    rng = np.random.default_rng(seed)
    # drawn from fewer distinct points, so some points repeat
    distinct = sample_in_ball(rng, int(rng.integers(1, count + 1)), d)
    points = distinct[rng.integers(0, distinct.shape[0], size=count)]
    radius = {"zero": 0.0, "small": float(rng.uniform(0.0, 1.0)), "diameter": 2.0}[radius_kind]
    group = _greedy_cover(points, radius)
    assert np.array_equal(group, oracle_greedy_cover(points, radius))
    if (d, count) == (20, 150):  # as in the example: the centers span four blocks
        assert count > 3 * (_COVER_BLOCK_BYTES // (8 * points.size))


@pytest.mark.parametrize("d", range(1, 21))
def test_pair_distances_equal_the_norm_bit_for_bit(d):
    rng = np.random.default_rng(d)
    # coordinates spread over many binades, so that a change of summation
    # order would show in the last bits
    points = rng.standard_normal((300, d)) * 10.0 ** rng.uniform(-8, 8, (300, d))
    row, col = rng.integers(0, 300, (2, 5000))
    expected = np.linalg.norm(points[row] - points[col], axis=1)
    assert np.array_equal(_pair_distances(points, row, col), expected)


def segmented_oracle_cover(points, radii, sizes):
    """``oracle_greedy_cover`` on each segment alone, its groups numbered on
    from the previous segment's."""
    groups, base, lo = [], 0, 0
    for radius, size in zip(radii, sizes):
        group = oracle_greedy_cover(points[lo : lo + size], radius)
        groups.append(base + group)
        base += int(group.max()) + 1
        lo += size
    return np.concatenate(groups)


@pytest.mark.parametrize("d", [1, 3, 7, 8, 12])
@pytest.mark.parametrize("share", [0.5, 1.0])
@pytest.mark.parametrize("seed", range(4))
def test_greedy_cover_matches_the_oracle_when_most_points_are_contested(seed, share, d):
    rng = np.random.default_rng(seed)
    distinct = sample_in_ball(rng, 40, d)
    points = distinct[rng.integers(0, 40, size=120)]  # repeated points
    diameter = float(np.linalg.norm(points[:, None] - points[None], axis=2).max())
    group = _greedy_cover(points, share * diameter)
    assert np.array_equal(group, oracle_greedy_cover(points, share * diameter))
    if share == 1.0:
        assert not group.any()


@pytest.mark.parametrize("d", [2, 3, 9])
def test_greedy_cover_takes_points_at_exactly_the_radius(d):
    # integer lattice points: every squared distance is an exact integer, and
    # each radius below is a distance that many pairs have exactly
    rng = np.random.default_rng(d)
    points = rng.integers(-2, 3, size=(150, d)).astype(float)
    dist = np.linalg.norm(points[:, None] - points[None], axis=2)
    values, counts = np.unique(dist[dist > 0], return_counts=True)
    for radius in values[np.argsort(counts)[-4:]].tolist():
        assert np.array_equal(_greedy_cover(points, radius), oracle_greedy_cover(points, radius))


@pytest.mark.parametrize("d", [3, 10])
@pytest.mark.parametrize("block_bytes", [1, 200, 4096])
def test_greedy_cover_in_many_blocks_and_segments(monkeypatch, d, block_bytes):
    monkeypatch.setattr(compression, "_COVER_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(d + block_bytes)
    sizes = [1, 30, 5, 60, 1, 25]
    radii = [0.3, 0.0, 2.0, 0.4, 0.1, 0.7]
    distinct = sample_in_ball(rng, 50, d)
    points = distinct[rng.integers(0, 50, size=sum(sizes))]
    single = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    first = np.repeat(single, sizes)
    group = _greedy_cover(points, np.repeat(radii, sizes), first)
    assert np.array_equal(group, segmented_oracle_cover(points, radii, sizes))
    for radius in (0.0, 0.5):
        assert np.array_equal(_greedy_cover(points, radius), oracle_greedy_cover(points, radius))


@pytest.mark.parametrize("radius", [0.05, 2.0])
def test_greedy_cover_memory_is_per_block_not_k_squared(radius):
    k = 4000
    points = sample_in_ball(np.random.default_rng(0), k, 3)
    tracemalloc.start()
    try:
        group = _greedy_cover(points, radius)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.shape == (k,)
    if radius == 2.0:
        assert not group.any()
    # one k x k float matrix is k*k*8 bytes; allow a sixteenth of one
    assert peak < k * k * 8 / 16


@pytest.mark.parametrize("radius", [0.0, 0.25, 0.5, 1.0, 2.0])
def test_greedy_cover_measures_points_against_centers_not_every_earlier_point(
    monkeypatch, radius
):
    pair_distances = compression._pair_distances
    measured = [0]

    def counted(points, row, col):
        measured[0] += row.size
        return pair_distances(points, row, col)

    monkeypatch.setattr(compression, "_pair_distances", counted)
    k = 4000
    points = sample_in_ball(np.random.default_rng(0), k, 3)
    groups = int(_greedy_cover(points, radius).max()) + 1
    # about k times the number of centers, not k^2 / 2 when centers are few;
    # all k^2 / 2 pairs when every point is a center
    assert measured[0] <= min(4 * k * groups, k * (k - 1) // 2 + k), (groups, measured[0])
    if radius == 2.0:
        assert groups == 1 and measured[0] < k


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


def test_partition_never_builds_the_mean_reward_table():
    m, n = 3000, 200
    model = OutcomeModel(kind=LOGISTIC, beta=5.0)
    tracemalloc.start()
    try:
        inst = sample_instance(np.random.default_rng(0), 3, n, m, model)
        part = build_partition_logistic(inst, 0.02, 0.02)
        max_intra_cell_distortion(inst, part.cell_of, part.K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not {"slots", "realized", "outcomes"} & set(vars(inst))
    # the inner products would be one m x n float table, the mean rewards another
    assert peak < 2 * m * n * 8


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
    assert part.distortion is None
    with pytest.raises(ValueError):
        Partition(cell_of=np.array([0, 2]), epsilon=0.1, K=3)  # empty cell 1


@pytest.mark.parametrize("cells", [[0, 1, 3], [-1, 0, 1], [0, 0, 1]])
def test_partition_rejects_cells_outside_or_missing_from_zero_to_k(cells):
    with pytest.raises(ValueError):
        Partition(cell_of=np.array(cells), epsilon=0.1, K=3)


def test_partition_splits_its_cells_only_when_members_are_read(monkeypatch):
    split, calls = compression._split_cells, []

    def counted(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(compression, "_split_cells", counted)
    part = Partition(cell_of=np.array([0, 1, 0, 2]), epsilon=0.1, K=3)
    assert not calls
    assert [part.members(k).tolist() for k in range(3)] == [[0, 2], [1], [3]]
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# partition builders
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0), st.sampled_from([0.02, 0.1, 0.3, 1.0]))
@settings(max_examples=60, deadline=None)
def test_linear_builder_certificate(seed, epsilon):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, LINEAR_BINARY, d=3, n=12, m=10)
    part = build_partition_glm(inst, epsilon)
    assert part.K >= 1
    assert max_intra_cell_distortion(inst, part.cell_of, part.K) <= epsilon + CERT_TOL


@given(st.integers(min_value=0), st.sampled_from([0.02, 0.1, 0.3]))
@settings(max_examples=60, deadline=None)
def test_glm_builder_certificate(seed, epsilon):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, GLM, d=3, n=12, m=10, beta=0.8, eta=0.02)
    part = build_partition_glm(inst, epsilon)
    assert max_intra_cell_distortion(inst, part.cell_of, part.K) <= epsilon + CERT_TOL


def test_partition_report_at_m_6000_builds_no_inner_product_table(monkeypatch):
    # seed 0 gives an instance whose margins clear delta = 0.02
    argv = ["partition", "--model", "logistic", "--builder", "logistic", "--beta", "5.0",
            "--delta", "0.02", "--epsilon", "0.02", "--d", "3", "--n", "500", "--m", "6000",
            "--format", "json", "--seed", "0"]
    made = []
    sample = cli.sample_instance
    monkeypatch.setattr(cli, "sample_instance", lambda *args: made.append(sample(*args)) or made[-1])
    out = io.StringIO()
    tracemalloc.start()
    try:
        with redirect_stdout(out):
            assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (inst,) = made
    assert not {"slots", "realized", "outcomes"} & set(vars(inst))
    assert json.loads(out.getvalue())["K"] > 1
    # the m x n inner products alone take 24 MB
    assert peak <= 4e6, peak


def oracle_linear_partition(instance, epsilon):
    """The separate linear builder that ``build_partition_glm`` replaced,
    verbatim with the helper it called: greedy covering of the realized
    best-action set at center radius epsilon."""
    if not epsilon > 0.0:  # NaN fails
        raise InvalidEpsilon("epsilon must be positive")
    if instance.model.kind != LINEAR_BINARY:
        raise InvalidEpsilon("linear partition builder requires a linear_binary model")
    radius = epsilon / (2.0 * realized_link_slope(instance))
    cell_of = _cover_best_actions(instance, radius)
    return _finish_partition(instance, cell_of, epsilon)


def _no_resplit(instance, idx):
    raise AssertionError("the certificate re-split a cover cell")


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([LINEAR_BINARY, GLM, LOGISTIC]),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=1e-3, max_value=1.0),
    st.sampled_from([0.5, 2.0, 10.0, 100.0]),
)
@settings(max_examples=200, deadline=None)
def test_cover_cells_pass_the_certificate_without_a_resplit(seed, kind, d, epsilon, beta):
    # cells of action-space diameter epsilon / C(phi) have distortion <= epsilon,
    # so the safety net's re-split (the only reader of distortion_block) never runs
    rng = np.random.default_rng(seed)
    # a glm's reward range must fit in [0, 1], which a steep link breaks
    beta = beta if kind == LOGISTIC else min(beta, 2.0)
    inst = random_instance(rng, kind, d=d, n=int(rng.integers(1, 16)),
                           m=int(rng.integers(1, 31)), beta=beta, eta=0.02)
    with mock.patch.object(compression, "distortion_block", _no_resplit):
        part = build_partition_glm(inst, epsilon)
        if kind == LINEAR_BINARY:
            assert np.array_equal(part.cell_of, oracle_linear_partition(inst, epsilon).cell_of)
    assert max_intra_cell_distortion(inst, part.cell_of, part.K) <= epsilon + CERT_TOL


def test_builder_input_validation(tiny_linear):
    with pytest.raises(InvalidEpsilon):
        build_partition_glm(tiny_linear, 0.0)
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
            build_partition_glm(tiny_linear, math.nan)
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
    model = OutcomeModel(kind=LOGISTIC, beta=2.0)
    actions = np.array([[1.0, 0.0], [-1.0, 0.0]])
    params = np.array([[0.5, 0.0]])
    inst = BanditInstance(actions=actions, params=params, model=model)
    # realized inner products are {-0.5, 0.5}, straddling 0: slope = beta/4
    assert realized_link_slope(inst) == pytest.approx(0.5, abs=1e-12)


def test_cover_at_zero_link_slope_is_one_certified_cell(monkeypatch):
    # at beta = 1000 the sigmoid rounds to 1 at every realized inner
    # product, so C(phi) is 0 in floats and every distortion is 0
    model = OutcomeModel(kind=LOGISTIC, beta=1000.0)
    checked = []
    certify = compression._cell_distortions
    monkeypatch.setattr(compression, "_cell_distortions",
                        lambda inst, cell_of, K=0: checked.append(cell_of.tolist())
                        or certify(inst, cell_of, K))
    for actions, params, realized in [
        ([[1.0], [0.9]], [[0.9], [0.95]], 1),
        ([[1.0, 0.0], [0.8, 0.6]], [[0.95, 0.0], [0.8, 0.6]], 2),
    ]:
        inst = BanditInstance(actions=np.array(actions), params=np.array(params), model=model)
        assert realized_link_slope(inst) == 0.0
        assert np.unique(inst.astar).size == realized
        part = build_partition_glm(inst, 0.1)
        # the certificate ran once, on the one cell
        assert checked == [[0, 0]]
        assert part.K == 1 and part.cell_of.tolist() == [0, 0]
        assert part.distortion.tolist() == [0.0]
        assert max_intra_cell_distortion(inst, part.cell_of, part.K) == 0.0
        checked.clear()


@pytest.mark.parametrize("kind", [LOGISTIC, GLM])
def test_realized_link_slope_reads_the_instance_inner_products(kind):
    inst = random_instance(np.random.default_rng(6), kind, d=3, n=40, m=50, beta=3.0)
    inner = inst.params @ inst.actions.T
    assert realized_link_slope(inst) == c_phi(inst.model, float(inner.min()), float(inner.max()))


def test_logistic_ladder_structure():
    model = OutcomeModel(kind=LOGISTIC, beta=2.0)
    eps, delta = 0.05, 0.5
    ladder = LogisticLadder(model, eps, delta)
    L = ladder.L
    s = ladder.levels(np.arange(L + 1)).tolist()
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
        LogisticLadder(model, limit + 1e-6, delta)
    LogisticLadder(model, limit - 1e-6, delta)


def _ladder_grid():
    """(model, epsilon, delta) over a grid of beta, delta and epsilon as a
    share of its ceiling phi(delta) - 1/2, each ladder at most 20000 levels."""
    for beta in (0.5, 2.0, 5.0, 20.0, 100.0):
        model = OutcomeModel(kind=LOGISTIC, beta=beta)
        for delta in (0.01, 0.1, 0.5, 0.9, 1.0):
            ceiling = float(model.link(delta)) - 0.5
            for share in (0.999, 0.3, 0.01, 1e-3):
                epsilon = share * ceiling
                if (float(model.link(1.0)) - float(model.link(delta))) / epsilon < 20000:
                    yield model, epsilon, delta


def test_ladder_levels_on_demand_equal_the_full_ladder():
    count = 0
    for model, epsilon, delta in _ladder_grid():
        s = logistic_ladder(model, epsilon, delta)
        ladder = LogisticLadder(model, epsilon, delta)
        assert ladder.L == len(s) - 1
        assert ladder.levels(np.arange(ladder.L + 1)).tolist() == s
        # in any order and with repeats
        ell = np.random.default_rng(count).integers(0, ladder.L + 1, size=50)
        assert ladder.levels(ell).tolist() == [s[i] for i in ell]
        count += 1
    assert count > 50


def scanned_bands(s, v):
    """Each margin's band as the builder found it before it computed levels
    on demand: the first band of the full ladder ``s`` whose edges, widened
    by ``MARGIN_TOL``, hold it (0 if none)."""
    L = len(s) - 1
    if L >= 2:
        bands = [(s[b], s[b + 1], b == 1) for b in range(1, L)]
    else:
        bands = [(s[0], s[1], True)]
    found = np.zeros(v.size, dtype=np.intp)
    for b, (lo, hi, closed_left) in enumerate(bands, start=1):
        if closed_left:
            in_band = (v >= lo - MARGIN_TOL) & (v <= hi + MARGIN_TOL)
        else:
            in_band = (v > lo + MARGIN_TOL) & (v <= hi + MARGIN_TOL)
        found[(found == 0) & in_band] = b
    return found


def test_band_of_matches_a_scan_of_every_band():
    rng = np.random.default_rng(0)
    for model, epsilon, delta in _ladder_grid():
        s = np.array(logistic_ladder(model, epsilon, delta))
        if s.size > 2000:
            s_probe = s[rng.choice(s.size, 300, replace=False)]
        else:
            s_probe = s
        # every probed edge, a few ulps either side, and random margins
        edges = np.concatenate([s_probe - MARGIN_TOL, s_probe + MARGIN_TOL])
        v = np.concatenate([
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
            rng.uniform(0.0, 1.0 + 2 * MARGIN_TOL, size=200),
        ])
        v = v[v > 0.0]
        ladder = LogisticLadder(model, epsilon, delta)
        assert np.array_equal(ladder.band_of(v), scanned_bands(s.tolist(), v))


class _MisguidingModel:
    """A logistic model whose link, which ``band_of`` reads only for its
    guess, returns noise."""

    def __init__(self, model, rng):
        self.model, self.rng = model, rng

    def link(self, x):
        return self.rng.uniform(0.0, 1.0, size=np.shape(x))

    def link_inv(self, y):
        return self.model.link_inv(y)


def test_band_of_does_not_rely_on_its_guess():
    rng = np.random.default_rng(1)
    for model, epsilon, delta in _ladder_grid():
        s = logistic_ladder(model, epsilon, delta)
        v = np.concatenate([np.array(s[:300]) + MARGIN_TOL, rng.uniform(0.0, 1.0, 200)])
        ladder = LogisticLadder(model, epsilon, delta)
        ladder.model = _MisguidingModel(model, rng)
        assert np.array_equal(ladder.band_of(v), scanned_bands(s, v))


def test_band_of_at_an_epsilon_below_the_links_resolution():
    # about 5e16 bands, with runs of equal edges where epsilon is below an
    # ulp of phi; each margin's band is checked by bisecting the levels
    model = OutcomeModel(kind=LOGISTIC, beta=5.0)
    ladder = LogisticLadder(model, 1e-17, 0.01)
    v = np.random.default_rng(2).uniform(0.01, 1.0, 60)
    band = ladder.band_of(v)

    def end(b):
        return float(ladder.levels(np.array([b + 1]))[0]) + MARGIN_TOL

    for x, got in zip(v.tolist(), band.tolist()):
        lo, hi = 1, ladder.bands
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if end(mid) >= x else (mid + 1, hi)
        opens = x >= 0.01 - MARGIN_TOL if lo == 1 else x > end(lo - 1)
        assert got == (lo if opens and x <= end(lo) else 0)


@pytest.mark.parametrize("epsilon", [1e-19, 1e-310])  # 1e-310 is subnormal
def test_band_of_refuses_more_bands_than_band_numbers_hold(epsilon):
    model = OutcomeModel(kind=LOGISTIC, beta=5.0)
    ladder = LogisticLadder(model, epsilon, 0.01)  # the count bound needs s_0 only
    assert partition_count_bounds(2, epsilon, LOGISTIC, beta=5.0, delta=0.01) > 0
    with pytest.raises(ValueError, match="2\\*\\*62"):
        ladder.band_of(np.array([0.5]))


def oracle_logistic_partition(instance, epsilon, delta):
    """``build_partition_logistic`` as it was before it computed levels on
    demand and covered every band in one pass, verbatim but for its greedy
    cover, which is ``oracle_greedy_cover`` on each band's distinct actions."""
    inner = best_action_margins(instance)
    if np.min(np.abs(inner)) < delta - MARGIN_TOL:
        raise MarginViolated("margin")
    s = logistic_ladder(instance.model, epsilon, delta)
    L = len(s) - 1
    if L >= 2:
        bands = [(s[b], s[b + 1], s[b] - s[b - 1], b == 1) for b in range(1, L)]
    else:
        bands = [(s[0], s[1], s[1] - s[0], True)]
    cell_of = np.full(instance.n_params, -1, dtype=np.intp)
    next_cell = 0
    for sign in (1.0, -1.0):
        for lo, hi, gap, closed_left in bands:
            v = sign * inner
            if closed_left:
                in_band = (v >= lo - MARGIN_TOL) & (v <= hi + MARGIN_TOL)
            else:
                in_band = (v > lo + MARGIN_TOL) & (v <= hi + MARGIN_TOL)
            members = np.flatnonzero(in_band & (sign * inner > 0) & (cell_of < 0))
            if members.size == 0:
                continue
            realized, inverse = np.unique(instance.astar[members], return_inverse=True)
            group = oracle_greedy_cover(instance.actions[realized], gap / 2.0)
            cell_of[members] = next_cell + group[inverse]
            next_cell += int(group.max()) + 1
    if np.any(cell_of < 0):
        raise MarginViolated("some parameter fell outside every layer band")
    return _finish_partition(instance, cell_of, epsilon)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.5, 2.0, 5.0, 20.0, 100.0]),
    st.sampled_from(["margin", "low", "one"]),
    st.sampled_from([0.999, 0.3, 0.05, 1e-3]),
)
@settings(max_examples=120, deadline=None)
def test_logistic_builder_matches_the_per_band_scan(seed, d, beta, delta_kind, share):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, LOGISTIC, d=d, n=int(rng.integers(1, 30)),
                           m=int(rng.integers(1, 60)), beta=beta)
    margin = float(np.min(np.abs(best_action_margins(inst))))
    delta = {"margin": margin, "low": margin * rng.uniform(0.1, 1.0), "one": 1.0}[delta_kind]
    if not delta > 0.0:
        return
    ceiling = float(inst.model.link(delta)) - 0.5
    if not ceiling > 0.0:
        return
    epsilon = share * ceiling
    if (float(inst.model.link(1.0)) - ceiling - 0.5) / epsilon > 5000:
        return  # the oracle scans every band twice
    outcomes = []
    for build in (build_partition_logistic, oracle_logistic_partition):
        try:
            outcomes.append(build(inst, epsilon, delta).cell_of.tolist())
        except MarginViolated:
            outcomes.append("MarginViolated")
    assert outcomes[0] == outcomes[1]


def test_logistic_builder_levels_follow_m_not_one_over_epsilon(monkeypatch):
    # at epsilon = 1e-9 this ladder has about 4.8e8 levels
    levels = []
    link_inv = OutcomeModel.link_inv

    def counted(self, y):
        levels[-1] += np.size(y)
        return link_inv(self, y)

    monkeypatch.setattr(OutcomeModel, "link_inv", counted)
    m = 50
    for epsilon in ("1e-3", "1e-5", "1e-7", "1e-9"):
        levels.append(0)
        argv = ["partition", "--model", "logistic", "--builder", "logistic", "--beta", "5",
                "--delta", "0.01", "--d", "2", "--n", "20", "--m", str(m), "--seed", "3",
                "--epsilon", epsilon]
        with redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert json.loads(out.getvalue())["epsilon"] == float(epsilon)
    # per distinct band two edges to check the guess and two for the band
    # found, a few more where a guess misses, two per layer for its gap, and
    # s_0 for the builder's ladder and the formula's: a count set by m alone
    assert max(levels) <= 8 * m, levels


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
    assert np.any(inst.mean_rewards(np.arange(100), inst.astar) == 1.0)
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
    part = build_partition_glm(inst, 0.15)
    rep = build_representation(inst, belief, part)
    p = belief.probs
    mean_rewards = p @ reference.mean_table(inst)
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


def test_statistic_mutual_information_is_pushforward_entropy(tiny_linear):
    part = build_partition_glm(tiny_linear, 0.2)
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
    greedy = build_partition_glm(inst, epsilon)
    assert statistic_mutual_information(belief, greedy) >= info - 1e-12
    assert info >= -1e-15


def test_bruteforce_singleton_epsilon_huge(rng):
    inst = random_instance(rng, LINEAR_BINARY, d=2, n=4, m=4)
    K, info, _ = rate_distortion_bruteforce(inst, BeliefState.uniform(4), 10.0)
    assert K == 1
    assert info == pytest.approx(0.0, abs=1e-15)
