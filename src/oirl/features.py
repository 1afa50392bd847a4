"""Polynomial feature bases for value, reward, and policy parameterizations.

Each basis family packages an evaluator with its analytic gradient so the
estimators never fall back to finite differences at runtime. Scenario configs
select the families by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError

Vector = np.ndarray
Matrix = np.ndarray


# ---------------------------------------------------------------------------
# basis families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisFamily:
    """A named feature map z -> phi(z) with its gradient d phi / d z."""

    name: str
    dim: Callable[[int], int]                 # feature count for input size n
    evaluate: Callable[[Vector], Vector]      # (n,) -> (dim(n),)
    gradient: Callable[[Vector], Matrix]      # (n,) -> (dim(n), n)


def _linear_eval(z: Vector) -> Vector:
    return z.copy()


def _linear_grad(z: Vector) -> Matrix:
    return np.eye(z.shape[0])


def _squares_eval(z: Vector) -> Vector:
    return z * z


def _squares_grad(z: Vector) -> Matrix:
    return np.diag(2.0 * z)


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


_FAMILIES = {
    "linear": BasisFamily("linear", lambda n: n, _linear_eval, _linear_grad),
    "squares": BasisFamily("squares", lambda n: n, _squares_eval, _squares_grad),
    "quadratic": BasisFamily("quadratic", lambda n: n * (n + 1) // 2,
                             _quadratic_eval, _quadratic_grad),
}


def get_family(name: str) -> BasisFamily:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise KeyError(f"unknown basis family {name!r}; "
                       f"known: {sorted(_FAMILIES)}") from None


# ---------------------------------------------------------------------------
# basis bundle used by the estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureBasis:
    """Value/reward/policy bases for an n-state, m-input problem.

    value_dim (P) parameterizes the value function, reward_dim (L) the state
    reward, policy_dim (K) the feedback policy. Control penalties always use
    componentwise input squares, so they are not a selectable family.
    """

    state_dim: int
    input_dim: int
    value: BasisFamily
    reward: BasisFamily
    policy: BasisFamily

    @staticmethod
    def from_names(state_dim: int, input_dim: int, value: str = "quadratic",
                   reward: str = "squares", policy: str = "linear") -> "FeatureBasis":
        return FeatureBasis(state_dim, input_dim, get_family(value),
                            get_family(reward), get_family(policy))

    @property
    def value_dim(self) -> int:
        return self.value.dim(self.state_dim)

    @property
    def reward_dim(self) -> int:
        return self.reward.dim(self.state_dim)

    @property
    def policy_dim(self) -> int:
        return self.policy.dim(self.state_dim)

    def _check_state(self, x: Vector) -> Vector:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.state_dim,):
            raise DimensionError(f"state must be ({self.state_dim},), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite state passed to feature basis")
        return x

    def value_gradient(self, x: Vector) -> Matrix:
        """d sigma_V / dx, shape (value_dim, state_dim)."""
        return self.value.gradient(self._check_state(x))

    def reward_features(self, x: Vector) -> Vector:
        return self.reward.evaluate(self._check_state(x))

    def policy_features(self, x: Vector) -> Vector:
        return self.policy.evaluate(self._check_state(x))

    def control_squares(self, u: Vector) -> Vector:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.input_dim,):
            raise DimensionError(f"input must be ({self.input_dim},), got {u.shape}")
        if not np.isfinite(u).all():
            raise ValueError("non-finite input passed to feature basis")
        return u * u
