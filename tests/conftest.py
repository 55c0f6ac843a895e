import numpy as np
import pytest

from rdts.inference import BeliefState
from rdts.model import (
    GLM,
    LINEAR_BINARY,
    LOGISTIC,
    BanditInstance,
    OutcomeModel,
    sample_instance,
)


def make_model(kind: str, beta: float = 2.0, eta: float = 0.05) -> OutcomeModel:
    if kind == LINEAR_BINARY:
        return OutcomeModel(kind=LINEAR_BINARY)
    if kind == GLM:
        return OutcomeModel(kind=GLM, beta=beta, eta=eta)
    return OutcomeModel(kind=LOGISTIC, beta=beta)


def random_instance(
    rng: np.random.Generator,
    kind: str,
    d: int = 2,
    n: int = 5,
    m: int = 4,
    beta: float = 2.0,
    eta: float = 0.05,
) -> BanditInstance:
    return sample_instance(rng, d, n, m, make_model(kind, beta, eta))


def random_belief(rng: np.random.Generator, m: int) -> BeliefState:
    return BeliefState(rng.dirichlet(np.ones(m)))


def point_mass(m: int, idx: int) -> BeliefState:
    """The belief over ``m`` parameters that puts all its mass on ``idx``."""
    p = np.zeros(m)
    p[idx] = 1.0
    return BeliefState(p)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def tiny_linear():
    """Fixed 2-D linear instance with hand-checkable numbers."""
    actions = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.0]])
    params = np.array([[0.8, 0.0], [0.0, 0.5], [-0.9, 0.1], [0.3, 0.3]])
    return BanditInstance(
        actions=actions, params=params, model=OutcomeModel(kind=LINEAR_BINARY)
    )


@pytest.fixture
def tiny_logistic():
    actions = np.array([[1.0, 0.0], [0.0, 1.0], [-0.7, 0.2]])
    params = np.array([[0.9, 0.1], [-0.2, 0.8], [-0.8, -0.3]])
    return BanditInstance(
        actions=actions, params=params, model=OutcomeModel(kind=LOGISTIC, beta=2.0)
    )


def instance_with_shared_points(seed: int, kind: str, eta: float = 0.05) -> BanditInstance:
    """Random instance whose last parameters repeat earlier ones, so several
    parameters put mass on the same outcome values (merged glm support)."""
    rng = np.random.default_rng(seed)
    base = random_instance(rng, kind, d=2, n=5, m=6, eta=eta)
    params = np.vstack([base.params, base.params[:2]])
    return BanditInstance(actions=base.actions, params=params, model=base.model)
