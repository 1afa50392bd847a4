"""Online inverse reinforcement learning with model-based data querying.

Observes an optimal tracking agent, concurrently estimates the plant's
unknown drift parameters, the agent's feedback policy, and the reward and
value function weights it optimizes. When the observed trajectory stops being
informative, the estimated model and policy are queried at artificial states
to keep the reward estimator's history stack rich.
"""

from .dynamics import LinearPlant, TrackingScenario, eval_dynamics
from .errors import (ConfigError, DimensionError, DivergenceError,
                     RiccatiConvergenceError, UnstabilizableError)
from .features import FeatureBasis
from .harness import (MetricsRecord, RunResult, ScenarioConfig, ablate,
                      compare_to_oracle, emit_csv, load_config, run_scenario)
from .history import HistoryStack
from .irl_engine import IrlConfig, RewardEstimator, build_row_block
from .oracle import LqrSolution, ideal_policy_weights, solve_are
from .param_estimator import ThetaEstimator, ThetaEstimatorConfig, window_pairs
from .policy_estimator import PolicyEstimator, PolicyEstimatorConfig

__version__ = "0.1.0"

__all__ = [
    "LinearPlant", "TrackingScenario", "eval_dynamics",
    "ConfigError", "DimensionError", "DivergenceError",
    "RiccatiConvergenceError", "UnstabilizableError", "FeatureBasis",
    "MetricsRecord", "RunResult", "ScenarioConfig", "ablate",
    "compare_to_oracle", "emit_csv", "load_config", "run_scenario",
    "HistoryStack",
    "IrlConfig", "RewardEstimator", "build_row_block",
    "LqrSolution", "ideal_policy_weights", "solve_are",
    "ThetaEstimator", "ThetaEstimatorConfig", "window_pairs",
    "PolicyEstimator", "PolicyEstimatorConfig",
]
