"""The linear plant with an unknown additive part, and tracking scenarios.

The plant model is

    xdot = A0 x + B0 u + theta^T [x; u]

where A0 (n x n) and B0 (n x m) are the known nominal part and theta
((n + m) x n) collects the unknown parameters, so the feature vector stacks
the state then the input. The true system is (A0 + theta[:n]^T,
B0 + theta[n:]^T), and the input Jacobian B0 + theta[n:]^T is exact and
independent of x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

Vector = np.ndarray
Matrix = np.ndarray


# ---------------------------------------------------------------------------
# plant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearPlant:
    """Plant xdot = nominal(x, u) + theta_true^T features(x, u).

    Shapes are checked once, here. theta_true is only read by the simulation
    loop, never by the estimators.
    """

    a0: Matrix
    b0: Matrix
    theta_true: Matrix

    def __post_init__(self):
        a0 = np.atleast_2d(np.asarray(self.a0, dtype=float))
        b0 = np.atleast_2d(np.asarray(self.b0, dtype=float))
        theta = np.asarray(self.theta_true, dtype=float)
        n, m = a0.shape[0], b0.shape[1]
        if a0.shape != (n, n) or b0.shape != (n, m):
            raise DimensionError(f"incompatible A0 {a0.shape} / B0 {b0.shape}")
        if theta.shape != (n + m, n):
            raise DimensionError(
                f"theta_true must be ({n + m}, {n}), got {theta.shape}")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "theta_true", theta)

    @property
    def state_dim(self) -> int:
        return self.a0.shape[0]

    @property
    def input_dim(self) -> int:
        return self.b0.shape[1]

    @property
    def param_dim(self) -> int:
        return self.theta_true.shape[0]

    def nominal(self, x: Vector, u: Vector) -> Vector:
        return self.a0 @ x + self.b0 @ u

    def features(self, x: Vector, u: Vector) -> Vector:
        return np.concatenate([x, u])

    def input_jacobian(self, theta: Matrix) -> Matrix:
        """d/du of the modeled dynamics, (n, m): B0 + theta[n:]^T."""
        return self.b0 + _check_theta(self, theta)[self.state_dim:].T

    def true_system(self) -> tuple[Matrix, Matrix]:
        """(A, B) of the true plant, nominal plus the theta contribution."""
        n = self.state_dim
        return self.a0 + self.theta_true[:n].T, self.b0 + self.theta_true[n:].T


def _check_xu(dyn: LinearPlant, x: Vector, u: Vector) -> tuple[Vector, Vector]:
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (dyn.state_dim,):
        raise DimensionError(f"state must be ({dyn.state_dim},), got {x.shape}")
    if u.shape != (dyn.input_dim,):
        raise DimensionError(f"input must be ({dyn.input_dim},), got {u.shape}")
    return x, u


def _check_theta(dyn: LinearPlant, theta: Matrix) -> Matrix:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != dyn.theta_true.shape:
        raise DimensionError(
            f"theta must be {dyn.theta_true.shape}, got {theta.shape}")
    return theta


def eval_dynamics(dyn: LinearPlant, x: Vector, u: Vector, theta: Matrix) -> Vector:
    """State derivative under parameter estimate theta (p x n)."""
    x, u = _check_xu(dyn, x, u)
    return dyn.nominal(x, u) + _check_theta(dyn, theta).T @ dyn.features(x, u)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def rk4_transition(a: Matrix, b: Matrix, dt: float) -> tuple[Matrix, Matrix]:
    """(Phi, G) with Phi x + G u one classical RK4 step of xdot = A x + B u,
    u held over the step: on a linear field the four stages reduce exactly to
    Phi = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 and
    G = (I + hA/2 + (hA)^2/6 + (hA)^3/24) hB.
    """
    ha = dt * np.asarray(a, dtype=float)
    eye = np.eye(ha.shape[0])
    g = eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0))
    return eye + ha @ g, g @ (dt * np.asarray(b, dtype=float))


# ---------------------------------------------------------------------------
# tracking scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrackingScenario:
    """Plant plus an autonomous reference xd_dot = A_d xd with feedforward u_d = F xd.

    The reference generator must not be exponentially unstable; real parts of
    eig(A_d) up to 1e-9 are accepted so marginally stable oscillators pass.
    """

    plant: LinearPlant
    reference_matrix: Matrix
    feedforward_gain: Matrix

    def __post_init__(self):
        n, m = self.plant.state_dim, self.plant.input_dim
        a_d = np.asarray(self.reference_matrix, dtype=float)
        f_gain = np.asarray(self.feedforward_gain, dtype=float)
        if a_d.shape != (n, n):
            raise DimensionError(f"reference_matrix must be ({n}, {n}), got {a_d.shape}")
        if f_gain.shape != (m, n):
            raise DimensionError(f"feedforward_gain must be ({m}, {n}), got {f_gain.shape}")
        if np.max(np.linalg.eigvals(a_d).real) > 1e-9:
            raise ValueError("reference generator is exponentially unstable")
        object.__setattr__(self, "reference_matrix", a_d)
        object.__setattr__(self, "feedforward_gain", f_gain)

    def desired_control(self, x_d: Vector) -> Vector:
        return self.feedforward_gain @ x_d
