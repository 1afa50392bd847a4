"""Feedback-policy estimation by concurrent learning over stored samples.

The demonstrator's policy is modeled as u = -W_u^T sigma_pi(x), with the
policy features sigma_pi(x) = x. Observed (x, u) pairs enter a history stack
as (x^T, -u^T) rows, so that rows @ W_u ~= target as `rls.ConcurrentLearner`
expects; the weight and gain updates are driven by the stacked normal
equations so estimation keeps converging after the live trajectory stops
being informative. A run offers the stack its samples straight from the
demonstration's arrays (`harness._walk`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureBasis
from .history import HistoryStack
from .rls import ConcurrentLearner


@dataclass(frozen=True)
class PolicyEstimatorConfig:
    """The `policy_estimator` config group."""
    alpha: float = 1.0
    beta: float = 2.0
    stack_size: int = 50
    offer_period: float = 0.05
    gamma0: float = 1.0
    rank_threshold: float = 0.1
    gamma_floor: float = 1e-9
    gamma_ceiling: float = 1e7


class PolicyEstimator(ConcurrentLearner):
    """Concurrent-learning estimator of the feedback-policy weights W_u (K x m)."""

    def __init__(self, basis: FeatureBasis, cfg: PolicyEstimatorConfig):
        k, m = basis.policy_dim, basis.input_dim
        super().__init__(
            cfg, HistoryStack(cfg.stack_size, row_dim=k, block_rows=1, target_dim=m),
            np.zeros((k, m)))
