"""Feedback-policy estimation by concurrent learning over stored samples.

The demonstrator's policy is modeled as u = -W_u^T sigma_pi(x). Observed
(x, u) pairs enter a history stack as (sigma_pi(x)^T, -u^T) rows, so that
rows @ W_u ~= target as `rls.ConcurrentLearner` expects; the weight and gain
updates are driven by the stacked normal equations so estimation keeps
converging after the live trajectory stops being informative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureBasis
from .history import HistoryStack
from .rls import ConcurrentLearner, _norm

Vector = np.ndarray


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
        self.basis = basis
        k, m = basis.policy_dim, basis.input_dim
        super().__init__(
            cfg, HistoryStack(cfg.stack_size, row_dim=k, block_rows=1, target_dim=m),
            np.zeros((k, m)))

    def record_sample(self, x: Vector, u: Vector, t: float) -> bool:
        """Offer one (sigma_pi(x), -u) pair to the stack.

        Zero feature rows are rejected up front; they cannot raise the rank
        metric and would waste a slot while the stack is still filling.
        """
        row = self.basis.policy_features(x)
        if _norm(row) < 1e-12:
            return False
        return self.stack.try_insert(row, -np.asarray(u, dtype=float), t)
