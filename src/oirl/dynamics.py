"""Control-affine dynamics with a structured uncertainty and tracking scenarios.

The plant model is

    xdot = f0(x, u) + theta^T sigma(x, u)

where f0 is the known nominal part, sigma is a known feature map, and theta
(p x n) collects the unknown parameters. Both f0 and sigma are affine in u,
which lets control Jacobians be recovered exactly by differencing instead of
requiring hand-coded derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DivergenceError

Vector = np.ndarray
Matrix = np.ndarray


# ---------------------------------------------------------------------------
# plant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineDynamics:
    """Plant xdot = nominal(x, u) + theta_true^T features(x, u).

    nominal maps (x, u) -> (n,) and features maps (x, u) -> (p,); both must be
    affine in u. theta_true is (p, n) and is only read by the simulation loop,
    never by the estimators.
    """

    state_dim: int
    input_dim: int
    nominal: Callable[[Vector, Vector], Vector]
    features: Callable[[Vector, Vector], Vector]
    theta_true: Matrix

    def __post_init__(self):
        theta = np.asarray(self.theta_true, dtype=float)
        if theta.ndim != 2 or theta.shape[1] != self.state_dim:
            raise DimensionError(
                f"theta_true must be (p, {self.state_dim}), got {theta.shape}")
        object.__setattr__(self, "theta_true", theta)

    @property
    def param_dim(self) -> int:
        return self.theta_true.shape[0]


def _check_xu(dyn: AffineDynamics, x: Vector, u: Vector) -> tuple[Vector, Vector]:
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (dyn.state_dim,):
        raise DimensionError(f"state must be ({dyn.state_dim},), got {x.shape}")
    if u.shape != (dyn.input_dim,):
        raise DimensionError(f"input must be ({dyn.input_dim},), got {u.shape}")
    return x, u


def eval_dynamics(dyn: AffineDynamics, x: Vector, u: Vector, theta: Matrix) -> Vector:
    """State derivative under parameter estimate theta (p x n)."""
    x, u = _check_xu(dyn, x, u)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dyn.param_dim, dyn.state_dim):
        raise DimensionError(
            f"theta must be ({dyn.param_dim}, {dyn.state_dim}), got {theta.shape}")
    return dyn.nominal(x, u) + theta.T @ dyn.features(x, u)


def nominal_input_jacobian(dyn: AffineDynamics, x: Vector) -> Matrix:
    """d nominal / du at x, (n, m). Exact because nominal is affine in u."""
    x = np.asarray(x, dtype=float)
    m = dyn.input_dim
    base = dyn.nominal(x, np.zeros(m))
    cols = [dyn.nominal(x, _unit(m, j)) - base for j in range(m)]
    return np.column_stack(cols)


def feature_input_jacobian(dyn: AffineDynamics, x: Vector) -> Matrix:
    """d features / du at x, (p, m). Exact because features are affine in u."""
    x = np.asarray(x, dtype=float)
    m = dyn.input_dim
    base = dyn.features(x, np.zeros(m))
    cols = [dyn.features(x, _unit(m, j)) - base for j in range(m)]
    return np.column_stack(cols)


def input_jacobian(dyn: AffineDynamics, x: Vector, theta: Matrix) -> Matrix:
    """d/du of the modeled dynamics at x, i.e. d nominal/du + theta^T d features/du."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dyn.param_dim, dyn.state_dim):
        raise DimensionError(
            f"theta must be ({dyn.param_dim}, {dyn.state_dim}), got {theta.shape}")
    return nominal_input_jacobian(dyn, x) + theta.T @ feature_input_jacobian(dyn, x)


def _unit(m: int, j: int) -> Vector:
    e = np.zeros(m)
    e[j] = 1.0
    return e


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def rk4(f: Callable[[Vector], Vector], x: Vector, dt: float) -> Vector:
    """One classical Runge-Kutta step of xdot = f(x)."""
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_rk4(dyn: AffineDynamics, x: Vector, u: Vector, dt: float,
             t: float = 0.0) -> Vector:
    """Advance the true plant one step with the control held constant (ZOH).

    x and u are checked once here and x_next on the way out, rather than at
    each of the four stages as `eval_dynamics` would; the stage arithmetic is
    the same as `eval_dynamics` with theta_true.
    """
    x, u = _check_xu(dyn, x, u)
    nominal, features, theta_t = dyn.nominal, dyn.features, dyn.theta_true.T
    x_next = rk4(lambda s: nominal(s, u) + theta_t @ features(s, u), x, dt)
    if x_next.shape != x.shape:
        raise DimensionError(
            f"plant model gave a state of shape {x_next.shape}, expected {x.shape}")
    if not np.isfinite(x_next).all():
        raise DivergenceError(f"non-finite state after step at t={t:.6g}",
                              t=t, state=x_next)
    return x_next


# ---------------------------------------------------------------------------
# tracking scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrackingScenario:
    """Plant plus an autonomous reference xd_dot = A_d xd with feedforward u_d = F xd.

    The reference generator must not be exponentially unstable; real parts of
    eig(A_d) up to 1e-9 are accepted so marginally stable oscillators pass.
    """

    plant: AffineDynamics
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

    def step_reference(self, x_d: Vector, dt: float) -> Vector:
        return rk4(lambda s: self.reference_matrix @ s, np.asarray(x_d, dtype=float), dt)


def tracking_error(scn: TrackingScenario, x: Vector, x_d: Vector,
                   u: Vector) -> tuple[Vector, Vector]:
    """Error coordinates (e, mu) = (x - xd, u - F xd)."""
    x, u = _check_xu(scn.plant, x, u)
    x_d = np.asarray(x_d, dtype=float)
    if x_d.shape != x.shape:
        raise DimensionError(f"x_d must be {x.shape}, got {x_d.shape}")
    return x - x_d, u - scn.desired_control(x_d)


# ---------------------------------------------------------------------------
# named plant families
# ---------------------------------------------------------------------------

def linear_uncertain_plant(nominal_a: Matrix, nominal_b: Matrix,
                           theta_true: Matrix) -> AffineDynamics:
    """Linear plant xdot = A0 x + B0 u + theta^T [x; u].

    The feature vector stacks the state then the input, so theta is
    ((n + m), n) and absorbs any unknown additive linear dynamics.
    """
    a0 = np.atleast_2d(np.asarray(nominal_a, dtype=float))
    b0 = np.atleast_2d(np.asarray(nominal_b, dtype=float))
    n = a0.shape[0]
    m = b0.shape[1]
    if a0.shape != (n, n) or b0.shape != (n, m):
        raise DimensionError(f"incompatible A0 {a0.shape} / B0 {b0.shape}")

    def nominal(x, u):
        return a0 @ x + b0 @ u

    def features(x, u):
        return np.concatenate([x, u])

    return AffineDynamics(state_dim=n, input_dim=m, nominal=nominal,
                          features=features, theta_true=theta_true)
