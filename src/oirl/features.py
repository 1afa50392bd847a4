"""The feature maps of the value, reward, and policy parameterizations.

The value features are the quadratic monomials of the state and the policy
features are the state itself: the models with an exact LQR ground truth,
V(x) = x^T P x and u = -K x. The state reward is the one basis choice left,
`"squares"` (a diagonal Q) or `"quadratic"` (a full Q over the value's
monomials). The value gradient is analytic, so the estimators never fall back
to finite differences at runtime. Control penalties always use componentwise
input squares.

Every map takes an array of states (..., n), or of inputs, and maps the last
axis, so one call serves a batch of samples. The inputs are not checked
here: they come from the configuration, checked once when it is validated,
or from the run's own arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Matrix = np.ndarray

REWARDS = ("squares", "quadratic")


def monomial_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of each quadratic monomial x_i x_j of an n-vector, in basis
    order: the squares first, then x_i x_j for i < j in row order. The one
    place that order is written; the features, their gradient and the
    oracle's value weights all read it."""
    rows, cols = np.triu_indices(n, 1)
    diag = np.arange(n)
    return np.concatenate([diag, rows]), np.concatenate([diag, cols])


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

    def value_gradient(self, x: Matrix) -> Matrix:
        """d sigma_V / dx at each state of x (..., n), shape (..., P, n):
        the row of x_i x_j holds x_j in column i and x_i in column j, and the
        row of x_i^2 holds 2 x_i in column i."""
        i, j = monomial_pairs(self.state_dim)
        k = np.arange(len(i))
        grad = np.zeros(x.shape[:-1] + (len(i), self.state_dim))
        grad[..., k, i] = x[..., j]
        grad[..., k, j] = np.where(i == j, 2.0, 1.0) * x[..., i]
        return grad

    def reward_features(self, x: Matrix) -> Matrix:
        """sigma_Q at each state of x (..., n), shape (..., L)."""
        if self.reward == "squares":
            return x * x
        i, j = monomial_pairs(self.state_dim)
        return x[..., i] * x[..., j]

    def control_squares(self, u: Matrix) -> Matrix:
        """The control-penalty features u_j^2 of each input of u (..., m)."""
        return u * u
