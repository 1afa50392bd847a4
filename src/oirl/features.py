"""The feature maps of the value, reward, and policy parameterizations.

The value features are the quadratic monomials of the state and the policy
features are the state itself: the models with an exact LQR ground truth,
V(x) = x^T P x and u = -K x. The state reward is the one basis choice left,
`"squares"` (a diagonal Q) or `"quadratic"` (a full Q over the value's
monomials). The value gradient is analytic, so the estimators never fall back
to finite differences at runtime. Control penalties always use componentwise
input squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

Vector = np.ndarray
Matrix = np.ndarray

REWARDS = ("squares", "quadratic")


def _quadratic_eval(z: Vector) -> Vector:
    """Squares first, then cross terms z_i z_j for i < j in row order."""
    n = z.shape[0]
    out = [z * z]
    cross = [z[i] * z[j] for i in range(n) for j in range(i + 1, n)]
    if cross:
        out.append(np.asarray(cross))
    return np.concatenate(out)


def _quadratic_grad(z: Vector) -> Matrix:
    n = z.shape[0]
    rows = np.zeros((n * (n + 1) // 2, n))
    for i in range(n):
        rows[i, i] = 2.0 * z[i]
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            rows[k, i] = z[j]
            rows[k, j] = z[i]
            k += 1
    return rows


@dataclass(frozen=True)
class FeatureBasis:
    """Value/reward/policy features for an n-state, m-input problem.

    value_dim (P) is n (n + 1) / 2, reward_dim (L) is n for `"squares"` and
    P for `"quadratic"`, and policy_dim (K) is n.
    """

    state_dim: int
    input_dim: int
    reward: str = "squares"

    def __post_init__(self):
        if self.reward not in REWARDS:
            raise ValueError(f"unknown reward basis {self.reward!r}; "
                             f"known: {list(REWARDS)}")

    @property
    def value_dim(self) -> int:
        return self.state_dim * (self.state_dim + 1) // 2

    @property
    def reward_dim(self) -> int:
        return self.value_dim if self.reward == "quadratic" else self.state_dim

    @property
    def policy_dim(self) -> int:
        return self.state_dim

    def _check_state(self, x: Vector) -> Vector:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.state_dim,):
            raise DimensionError(f"state must be ({self.state_dim},), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite state passed to feature basis")
        return x

    def value_gradient(self, x: Vector) -> Matrix:
        """d sigma_V / dx, shape (value_dim, state_dim)."""
        return _quadratic_grad(self._check_state(x))

    def reward_features(self, x: Vector) -> Vector:
        x = self._check_state(x)
        return _quadratic_eval(x) if self.reward == "quadratic" else x * x

    def policy_features(self, x: Vector) -> Vector:
        return self._check_state(x)

    def control_squares(self, u: Vector) -> Vector:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.input_dim,):
            raise DimensionError(f"input must be ({self.input_dim},), got {u.shape}")
        if not np.isfinite(u).all():
            raise ValueError("non-finite input passed to feature basis")
        return u * u
