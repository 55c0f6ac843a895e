"""60-digit oracles for the logistic model at large beta.

At beta = 100 the float sigmoid saturates to exactly 1.0 for most inner
products above 0.4, so two actions can share a float mean although one is
strictly better. These tests recompute the paper's quantities from the same
float inputs (actions, parameters, belief, partition, representation) with
60-digit ``mpmath`` arithmetic and the exact best action of each parameter,
and compare each float result against the tolerance the program applies to
that quantity. At beta = 1000 the posterior of a short audit holds masses
below 1e-100, and the products of marginals of its information terms fall
below the smallest normal float; that case is checked at 500 digits.

On a glm instance whose outcome values lie 1e-10 apart, the posterior and
the information terms must condition on the same observation classes, the
support indexes; the oracle sums over those classes exactly.
"""

import math

import mpmath
import numpy as np
import pytest

from rdts.compression import Partition, build_partition_glm, build_representation, distortion_block
from rdts.inference import BeliefState, outcome_likelihoods, posterior_update
from rdts.information import (
    action_information,
    compressed_moments,
    info_gain_about_statistic,
    ts_info_ratio,
)
from rdts.model import (
    GLM,
    LOGISTIC,
    BanditInstance,
    OutcomeModel,
    outcome_support,
    outcome_values,
    sample_instance,
)
from rdts.policy import _ts_rollout
from rdts.tolerances import AUDIT_TOL, BELIEF_TOL, CERT_TOL, RATIO_CEILING_TOL

DIGITS = 60


class ExactLogistic:
    """The logistic instance's inner products, best actions and means in
    60-digit arithmetic; every float input converts to an mpf exactly."""

    def __init__(self, instance):
        beta = mpmath.mpf(instance.model.beta)
        acts = [[mpmath.mpf(float(x)) for x in row] for row in instance.actions]
        self.inner = [
            [mpmath.fsum(t * a for t, a in zip(map(mpmath.mpf, map(float, theta)), act))
             for act in acts]
            for theta in instance.params
        ]
        # lowest-index maximiser of the exact inner products
        self.astar = [max(range(len(row)), key=lambda j, row=row: (row[j], -j))
                      for row in self.inner]
        self.mu = [[1 / (1 + mpmath.exp(-beta * x)) for x in row] for row in self.inner]
        self.m = len(self.inner)
        self.n = len(acts)

    def mean_rewards(self, p):
        return [mpmath.fsum(p[i] * self.mu[i][a] for i in range(self.m))
                for a in range(self.n)]

    def mi_rows(self, weights, rows):
        """MI of the joint weights[s] * Bernoulli(rows[s]) over (s, outcome)."""
        total = mpmath.mpf(0)
        hi = mpmath.fsum(w * r for w, r in zip(weights, rows))
        for w, r in zip(weights, rows):
            if w == 0:
                continue
            for cond, marg in ((r, hi), (1 - r, 1 - hi)):
                if cond > 0:
                    total += w * cond * mpmath.log(cond / marg)
        return total


def _case(seed, beta, d=5, m=40):
    rng = np.random.default_rng(seed)
    inst = sample_instance(rng, d, m, m, OutcomeModel(kind=LOGISTIC, beta=beta))
    return inst, BeliefState(rng.dirichlet(np.ones(m)))


def _close(value, exact, tol):
    return abs(mpmath.mpf(value) - exact) <= tol


@pytest.mark.parametrize("beta", [10.0, 100.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_best_actions_and_distortion_match_60_digit_oracle(seed, beta):
    inst, _ = _case(seed, beta)
    with mpmath.workdps(DIGITS):
        ex = ExactLogistic(inst)
        assert inst.astar.tolist() == ex.astar
        block = distortion_block(inst, np.arange(ex.m))
        # certification compares distortions with epsilon + CERT_TOL
        for i in range(ex.m):
            for j in range(ex.m):
                exact = ex.mu[j][ex.astar[j]] - ex.mu[j][ex.astar[i]]
                assert _close(block[i, j], exact, CERT_TOL), (i, j)


@pytest.mark.parametrize("beta", [10.0, 100.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ts_info_ratio_matches_60_digit_oracle(seed, beta):
    inst, belief = _case(seed, beta)
    report = ts_info_ratio(inst, belief)
    with mpmath.workdps(DIGITS):
        ex = ExactLogistic(inst)
        p = [mpmath.mpf(float(x)) for x in belief.probs]
        means = ex.mean_rewards(p)
        regret = mpmath.fsum(p[i] * (ex.mu[i][ex.astar[i]] - means[ex.astar[i]])
                             for i in range(ex.m))
        info = mpmath.mpf(0)
        for a in sorted(set(ex.astar)):
            mass = mpmath.fsum(p[i] for i in range(ex.m) if ex.astar[i] == a)
            info += mass * ex.mi_rows(p, [ex.mu[i][a] for i in range(ex.m)])
        # ir-sweep reads the ratio against d/2 + RATIO_CEILING_TOL
        assert _close(report.ratio, regret * regret / info, RATIO_CEILING_TOL)
        assert _close(report.numerator, regret * regret, RATIO_CEILING_TOL)
        assert _close(report.denominator, info, RATIO_CEILING_TOL)


@pytest.mark.parametrize("beta", [10.0, 100.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compressed_moments_match_60_digit_oracle(seed, beta):
    inst, belief = _case(seed, beta)
    K = 7
    part = Partition(cell_of=np.arange(inst.n_params) % K, epsilon=0.1, K=K)
    rep = build_representation(inst, belief, part)
    diff, info = compressed_moments(inst, belief, rep)
    with mpmath.workdps(DIGITS):
        ex = ExactLogistic(inst)
        p = [mpmath.mpf(float(x)) for x in belief.probs]
        means = ex.mean_rewards(p)
        cell_of = part.cell_of.tolist()
        mass = [mpmath.fsum(p[i] for i in range(ex.m) if cell_of[i] == k) for k in range(K)]
        atoms = []  # (parameter, cell, probability) of every representative value
        for k, (i1, i2, r) in enumerate(rep.cells):
            r = mpmath.mpf(r)
            atoms += [(i1, k, mass[k] * r), (i2, k, mass[k] * (1 - r))]
        atoms = [a for a in atoms if a[2] > 0]

        def cell_mean(k, a):
            return mpmath.fsum(p[i] * ex.mu[i][a] for i in range(ex.m) if cell_of[i] == k) / mass[k]

        exact_diff = mpmath.fsum(q * (cell_mean(k, ex.astar[w]) - means[ex.astar[w]])
                                 for w, k, q in atoms)
        exact_info = mpmath.mpf(0)
        for a in sorted({ex.astar[w] for w, _, _ in atoms}):
            weight = mpmath.fsum(q for w, _, q in atoms if ex.astar[w] == a)
            exact_info += weight * ex.mi_rows([q for _, _, q in atoms],
                                              [cell_mean(k, a) for _, k, _ in atoms])
        # the audit checks both moments with AUDIT_TOL slack
        assert _close(diff, exact_diff, AUDIT_TOL)
        assert _close(info, exact_info, AUDIT_TOL)


# two runs' beliefs at one period of
# ``rdts audit --model logistic --beta 1000 --d 2 --n 5 --m 5 --T 3 --runs 2 --seed 1``
SATURATED_BELIEFS = [
    [0.5, 1.1560586569904979e-134, 7.874122538498594e-117, 0.5, 3.669521515002374e-26],
    [2.2214171494084478e-207, 9.6849210531032963e-129, 0.5, 0.5, 0.0],
]


@pytest.mark.parametrize("probs", SATURATED_BELIEFS)
def test_information_at_saturated_beta_matches_exact_oracle(probs):
    rng = np.random.default_rng(np.random.SeedSequence(1))
    inst = sample_instance(rng, 2, 5, 5, OutcomeModel(kind=LOGISTIC, beta=1000.0))
    part = build_partition_glm(inst, 0.1)
    belief = BeliefState(np.array(probs))
    # 1 - mu at beta = 1000 needs about 1000 / ln(10) ~ 435 digits
    with mpmath.workdps(500):
        ex = ExactLogistic(inst)
        p = [mpmath.mpf(x) for x in probs]
        cell_of = part.cell_of.tolist()
        mass = [mpmath.fsum(p[i] for i in range(ex.m) if cell_of[i] == k) for k in range(part.K)]
        for a in sorted(set(ex.astar)):
            cell_mean = [mpmath.fsum(p[i] * ex.mu[i][a] for i in range(ex.m) if cell_of[i] == k)
                         / mass[k] for k in range(part.K)]
            pairs = [
                (action_information(inst, belief, a),
                 ex.mi_rows(p, [ex.mu[i][a] for i in range(ex.m)])),
                (info_gain_about_statistic(inst, belief, part, a), ex.mi_rows(mass, cell_mean)),
            ]
            for value, exact in pairs:
                # a binary outcome carries at most ln 2 nats
                assert np.isfinite(value) and 0.0 <= value <= math.log(2), (a, value)
                # the float outcome pmfs round 1 - mu to 0 past beta * x ~ 37,
                # so values near 0 agree only to the audit's absolute slack
                assert _close(value, exact, AUDIT_TOL), (a, value)


def _near_coincident_glm():
    """Five parameters, three of them 2e-10 apart: each outcome value of
    theirs is a support value of its own, under 1e-9 from the others'."""
    params = np.array([[0.3], [0.3 + 2e-10], [0.3 + 4e-10], [-0.4], [0.7]])
    actions = np.array([[1.0], [-1.0], [0.5]])
    return BanditInstance(actions=actions, params=params,
                          model=OutcomeModel(kind=GLM, beta=1.5, eta=0.02))


def _class_likelihoods(instance, s):
    """``like[i][v]``: the exact mass parameter i puts on support index v of
    the realized action of slot ``s``, the observation classes."""
    idx, weights = instance.outcomes
    like = [[mpmath.mpf(0)] * (int(idx[s].max()) + 1) for _ in range(instance.n_params)]
    for i in range(instance.n_params):
        for k in range(2):
            like[i][idx[s, i, k]] += mpmath.mpf(float(weights[s, i, k]))
    return like


def _bayes(prior, like, v):
    joint = [p * row[v] for p, row in zip(prior, like)]
    return [x / mpmath.fsum(joint) for x in joint]


def test_near_coincident_glm_outcomes_condition_posterior_and_information_alike():
    inst = _near_coincident_glm()
    prior = BeliefState.uniform(5)
    idx, _ = inst.outcomes
    points = outcome_values(inst.model, inst.realized.T)
    s = int(np.searchsorted(inst.slots[0], 0))  # the slot of action 0
    with mpmath.workdps(DIGITS):
        p = [mpmath.mpf(float(x)) for x in prior.probs]
        like = _class_likelihoods(inst, s)
        # I(theta*; Y_0) sums over the support indexes: each value identifies
        # its parameter, so it is log 5
        exact = mpmath.mpf(0)
        for v in range(len(like[0])):
            marginal = mpmath.fsum(p[i] * like[i][v] for i in range(5))
            exact += mpmath.fsum(p[i] * like[i][v] * mpmath.log(like[i][v] / marginal)
                                 for i in range(5) if like[i][v] > 0)
        assert _close(exact, mpmath.log(5), RATIO_CEILING_TOL)
        assert _close(action_information(inst, prior, 0), exact, RATIO_CEILING_TOL)
        # one observation of parameter 0's upper point separates parameters
        # 0, 1 and 2, whose values on action 0 are under 1e-9 apart
        y = float(points[s, 0, 1])
        assert 0 < abs(points[s, 1, 1] - y) < 1e-9
        assert outcome_likelihoods(inst, 0, y)[:3].tolist() == [0.5, 0.0, 0.0]
        post = posterior_update(prior, inst, 0, y).probs
        for got, want in zip(post, _bayes(p, like, idx[s, 0, 1])):
            assert _close(got, want, BELIEF_TOL)
        # every run's posterior after its first observation is the exact
        # Bayes update on that observation's support index
        runs = 40
        periods = _ts_rollout(inst, prior, 2, runs, np.random.default_rng(6))
        _, theta_star, played, observed = next(periods)
        belief = next(periods)[0]
        for r in range(runs):
            s = int(played[r])
            y = points[s, theta_star[r], observed[r]]
            v = int(np.flatnonzero(points[s, theta_star[r]] == y)[0])
            v = int(idx[s, theta_star[r], v])
            for got, want in zip(belief[r], _bayes(p, _class_likelihoods(inst, s), v)):
                assert _close(got, want, BELIEF_TOL), r
    # some runs observe one of the three near-coincident parameters
    assert np.isin(theta_star, [0, 1, 2]).sum() >= 5


def test_saturated_glm_supports_hold_every_distinct_mean():
    # at beta = 40 many means of an action lie under 1e-12 apart near 0 or 1;
    # each distinct float is an observation of its own. With eta = 0 an
    # outcome is its parameter's mean, so at a uniform belief I(theta*; Y_a)
    # is the entropy of how many parameters share each mean
    m = 60
    inst = sample_instance(np.random.default_rng(1), 2, 30, m,
                           OutcomeModel(kind=GLM, beta=40.0, eta=0.0))
    prior = BeliefState.uniform(m)
    with mpmath.workdps(DIGITS):
        for a in range(inst.n_actions):
            counts = {}
            for mean in inst.mean_rewards(np.arange(m), a).tolist():
                counts[mean] = counts.get(mean, 0) + 1
            assert outcome_support(inst, a)[0].size == len(counts), a
            exact = -mpmath.fsum(mpmath.mpf(c) / m * mpmath.log(mpmath.mpf(c) / m)
                                 for c in counts.values())
            assert _close(action_information(inst, prior, a), exact, RATIO_CEILING_TOL), a
