"""Significance-aware status-update scheduling for remote safety monitoring.

Builds optimal safety-level estimators from Markov source models and loss
matrices, tabulates entropy penalties and gain indices through average-cost
dynamic programming with a dual price search, and evaluates the Maximum Gain
First policy against baselines in a slotted erasure-channel simulator.
"""

__version__ = "0.1.0"

from .bandit import (
    BanditSolution,
    DualTrace,
    dual_ascent,
    dual_lower_bound,
    policy_iteration,
)
from .errors import ConfigError, ConvergenceError, ValidationError
from .loss import (
    LossMatrix,
    loss_01,
    loss_quadratic,
    loss_safety_example,
)
from .markov import (
    MarkovSource,
    SafetyMap,
    banded_safety_map,
    build_row_chain,
    identity_safety_map,
    is_primitive,
    stationary_distribution,
)
from .policies import POLICY_KEYS
from .simulate import (
    SimConfig,
    SimRecord,
    SolvedSystem,
    run_paired,
    run_simulation,
    run_sweep,
    solve_system,
)
from .tables import AgentClassSpec, EstimatorTable, PenaltyTable, build_tables

__all__ = [
    "__version__",
    "AgentClassSpec",
    "BanditSolution",
    "ConfigError",
    "ConvergenceError",
    "DualTrace",
    "EstimatorTable",
    "LossMatrix",
    "MarkovSource",
    "POLICY_KEYS",
    "PenaltyTable",
    "SafetyMap",
    "SimConfig",
    "SimRecord",
    "SolvedSystem",
    "ValidationError",
    "banded_safety_map",
    "build_row_chain",
    "build_tables",
    "dual_ascent",
    "dual_lower_bound",
    "identity_safety_map",
    "is_primitive",
    "loss_01",
    "loss_quadratic",
    "loss_safety_example",
    "policy_iteration",
    "run_paired",
    "run_simulation",
    "run_sweep",
    "solve_system",
    "stationary_distribution",
]
