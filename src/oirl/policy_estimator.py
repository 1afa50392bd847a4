"""Feedback-policy estimation by recursive least squares over stored samples.

The demonstrator's policy is modeled as u = -W_u^T sigma_pi(x). Observed
(x, u) pairs enter a history stack as (sigma_pi(x)^T, u^T) rows; the weight
and gain updates are driven by the stacked normal equations so estimation
keeps converging after the live trajectory stops being informative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .features import FeatureBasis
from .history import HistoryStack
from .rls import _norm, gain_step

Matrix = np.ndarray
Vector = np.ndarray


@dataclass(frozen=True)
class PolicySnapshot:
    """Immutable copy of the policy weights taken at time t."""
    weights: Matrix
    t: float


class PolicyEstimator:
    """RLS-with-forgetting estimator of the feedback-policy weights W_u (K x m)."""

    def __init__(self, basis: FeatureBasis, stack_size: int = 50,
                 alpha: float = 1.0, beta: float = 2.0, gamma0: float = 1.0,
                 gamma_floor: float = 1e-9, gamma_ceiling: float = 1e7):
        self.basis = basis
        k, m = basis.policy_dim, basis.input_dim
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.gamma_floor = float(gamma_floor)
        self.gamma_ceiling = float(gamma_ceiling)
        self.weights = np.zeros((k, m))
        self._gamma0 = gamma0 * np.eye(k)
        self.gamma = self._gamma0.copy()
        self.stack = HistoryStack(stack_size, row_dim=k, block_rows=1, target_dim=m)
        self.gain_resets = 0
        self.last_gain_reset = False
        self.gamma_eig_range = (gamma0, gamma0)

    def snapshot(self, t: float) -> PolicySnapshot:
        return PolicySnapshot(self.weights.copy(), float(t))

    def record_sample(self, x: Vector, u: Vector, t: float) -> bool:
        """Offer one (sigma_pi(x), u) pair to the stack.

        Zero feature rows are rejected up front; they cannot raise the rank
        metric and would waste a slot while the stack is still filling.
        """
        row = self.basis.policy_features(x)
        u = np.asarray(u, dtype=float)
        if _norm(row) < 1e-12:
            return False
        return self.stack.try_insert(row, u, t)

    def update_weights(self, dt: float) -> None:
        """Euler step of W_dot = alpha * Gamma * Sigma^T (-U - Sigma W)."""
        s = self.stack.normal_matrix()
        c = self.stack.cross_matrix()          # Sigma^T U, shape (K, m)
        w = self.weights + dt * self.alpha * (self.gamma @ (-c - s @ self.weights))
        if not np.isfinite(w).all():
            raise DivergenceError("policy weight update went non-finite")
        self.weights = w

    def update_gain(self, dt: float) -> bool:
        """Euler step of the gain law; returns True on a gain-reset event."""
        s = self.stack.normal_matrix()
        self.gamma, reset, lam_lo, lam_hi = gain_step(
            self.gamma, s, self.alpha, self.beta, dt,
            self.gamma_floor, self.gamma_ceiling, self._gamma0)
        self.last_gain_reset = reset
        if reset:
            self.gain_resets += 1
        self.gamma_eig_range = (lam_lo, lam_hi)
        return reset

    def query(self, x: Vector) -> Vector:
        """Estimated optimal control u_hat = -W_u^T sigma_pi(x)."""
        return -(self.weights.T @ self.basis.policy_features(x))
