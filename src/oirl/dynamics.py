"""The linear plant with an unknown additive part, and tracking scenarios.

The plant model is

    xdot = A0 x + B0 u + theta^T [x; u]

where A0 (n x n) and B0 (n x m) are the known nominal part and theta
((n + m) x n) collects the unknown parameters, so the feature vector stacks
the state then the input. The true system is (A0 + theta[:n]^T,
B0 + theta[n:]^T), and the input Jacobian B0 + theta[n:]^T is exact and
independent of x.

The modeled field and the input Jacobian take arrays of samples, (..., n)
states with their inputs and estimates, and compute each product as one
stacked matmul (`matvec`), which gives every sample the bits of its own
`A @ x`. Shapes are checked once, when a plant or scenario is built.
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

    def input_jacobian(self, theta: Matrix) -> Matrix:
        """d/du of the modeled dynamics under each estimate of theta
        (..., n + m, n): B0 + theta[n:]^T, shape (..., n, m)."""
        return self.b0 + np.swapaxes(theta[..., self.state_dim:, :], -1, -2)

    def true_system(self) -> tuple[Matrix, Matrix]:
        """(A, B) of the true plant, nominal plus the theta contribution."""
        n = self.state_dim
        return self.a0 + self.theta_true[:n].T, self.b0 + self.theta_true[n:].T


def matvec(a: Matrix, x: Matrix) -> Matrix:
    """a @ x for each vector of x (..., k), with one matrix a (j, k) or one
    per vector (..., j, k): shape (..., j). One stacked matmul, whose loop
    runs each product as the two-dimensional `a @ x` does, bit for bit."""
    return np.matmul(a, x[..., None])[..., 0]


def eval_dynamics(dyn: LinearPlant, x: Matrix, u: Matrix, theta: Matrix) -> Matrix:
    """The modeled field A0 x + B0 u + theta^T [x; u] at each sample: states
    x (..., n), inputs u (..., m) and estimates theta (..., n + m, n), or one
    theta for all; shape (..., n)."""
    nominal = matvec(dyn.a0, x) + matvec(dyn.b0, u)
    return nominal + matvec(np.swapaxes(theta, -1, -2),
                            np.concatenate([x, u], axis=-1))


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

    def step_radii(self, gain: Matrix, dt: float) -> tuple[float, float]:
        """Spectral radii of the RK4 steps at dt (`rk4_transition`) of the
        plant under u = -gain x, rho(Phi - G K), and of the reference,
        rho(Phi_d). A step grows the state it maps when its radius passes 1,
        even where the continuous-time system decays."""
        phi, g = rk4_transition(*self.plant.true_system(), dt)
        phi_d, _ = rk4_transition(self.reference_matrix,
                                  np.zeros((self.plant.state_dim, 0)), dt)
        return tuple(float(np.abs(np.linalg.eigvals(m)).max())
                     for m in (phi - g @ gain, phi_d))
