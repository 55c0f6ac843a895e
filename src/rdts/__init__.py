"""Exact information-ratio and rate-distortion experiments for Thompson
sampling on finite Bayesian bandits."""

from .bounds import (
    EpsilonTooLarge,
    c_phi,
    compressed_bound,
    entropy_bound,
    glm_bound,
    linear_bound,
    logistic_bound,
    partition_count_bounds,
)
from .compression import (
    Infeasible,
    InvalidEpsilon,
    MarginViolated,
    Partition,
    Representation,
    TooLarge,
    build_partition_glm,
    build_partition_linear,
    build_partition_logistic,
    build_representation,
    distortion,
    distortion_matrix,
    rate_distortion_bruteforce,
    statistic_mutual_information,
    two_point_pair,
)
from .inference import (
    AllZeroLikelihood,
    BeliefState,
    optimal_action_distribution,
    posterior_update,
    sample_parameter,
)
from .information import (
    DegenerateInformation,
    InconsistentRepresentation,
    InfoRatioReport,
    InvalidPmf,
    compressed_info_ratio,
    entropy,
    info_gain_about_statistic,
    mutual_information,
    ts_info_ratio,
)
from .model import (
    GLM,
    LINEAR_BINARY,
    LOGISTIC,
    BanditInstance,
    InvalidInstanceError,
    OutcomeModel,
    best_action,
    mean_reward,
    outcome_distribution,
    sample_instance,
)
from .policy import (
    AuditReport,
    GuardExceeded,
    RegretTrace,
    audit_regret_chain,
    compressed_ts_step,
    simulate_ts,
    thompson_step,
)

__version__ = "0.1.0"
