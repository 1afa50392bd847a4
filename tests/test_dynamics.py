"""Plant evaluation, the precomputed RK4 step, and the tracking reference."""

import numpy as np
import pytest

from oirl.dynamics import (LinearPlant, TrackingScenario, eval_dynamics,
                           rk4_transition)
from oirl.errors import DimensionError

A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
B0 = np.zeros((2, 1))
THETA = np.array([[0.0, -0.5], [0.0, -0.5], [0.0, 1.0]])
# the 2-input plant of perfbench/configs/two_input.json
THETA_2IN = np.array([[0.0, -0.5], [0.0, -0.5], [1.0, 0.0], [0.0, 1.0]])
NO_INPUT = np.zeros((1, 0))


def _plant():
    return LinearPlant(A0, B0, THETA)


def test_linear_uncertain_plant_matches_closed_form():
    """f(x, u) must equal (A0 + theta_a^T) x + (B0 + theta_b^T) u exactly,
    for one sample and for a batch, which gives each sample its own bits."""
    dyn = _plant()
    a = A0 + THETA[:2].T
    b = B0 + THETA[2:].T
    rng = np.random.default_rng(3)
    xs, us = rng.normal(size=(20, 2)), rng.normal(size=(20, 1))
    thetas = THETA + rng.normal(scale=0.1, size=(20, 3, 2))
    batch = eval_dynamics(dyn, xs, us, thetas)
    for x, u, theta, f_batch in zip(xs, us, thetas, batch):
        assert f_batch.tobytes() == eval_dynamics(dyn, x, u, theta).tobytes()
        f = eval_dynamics(dyn, x, u, dyn.theta_true)
        np.testing.assert_allclose(f, a @ x + b @ u, rtol=0, atol=1e-14)


def test_nominal_part_is_theta_free():
    dyn = _plant()
    x = np.array([0.3, -0.7])
    f0 = eval_dynamics(dyn, x, np.zeros(1), np.zeros((3, 2)))
    np.testing.assert_allclose(f0, A0 @ x, atol=1e-15)


def test_input_jacobian_exact_for_linear_plant():
    """B0 + theta_b^T, the same at every state, for a non-zero B0."""
    b0 = np.array([[0.5], [-1.0]])
    dyn = LinearPlant(A0, b0, THETA)
    theta = THETA + 0.25
    for x in (np.zeros(2), np.array([1.0, -2.0])):
        jac = dyn.input_jacobian(theta)
        np.testing.assert_array_equal(jac, b0 + theta[2:].T)
        # the columns are the exact change of the modeled xdot per unit input
        u = np.array([0.7])
        np.testing.assert_allclose(
            eval_dynamics(dyn, x, u + 1.0, theta) - eval_dynamics(dyn, x, u, theta),
            jac[:, 0], rtol=0, atol=1e-14)
    # one Jacobian per estimate of a batch
    thetas = np.stack([THETA, theta])
    np.testing.assert_array_equal(dyn.input_jacobian(thetas),
                                  [b0 + THETA[2:].T, b0 + theta[2:].T])


def test_theta_shape_is_validated():
    for theta in (np.zeros((3, 3)), np.zeros((2, 2)), np.zeros(6)):
        with pytest.raises(DimensionError):
            LinearPlant(A0, B0, theta)


def _rk4(a, b, x, u, h):
    """One four-stage classical RK4 step of xdot = A x + B u, u held."""
    f = lambda s: a @ s + b @ u
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_rk4_single_step_accuracy():
    """One step of xdot = -x at dt = 0.1: local error is O(dt^5)."""
    phi, _ = rk4_transition(np.array([[-1.0]]), NO_INPUT, 0.1)
    out = phi @ np.array([1.0])
    assert abs(out[0] - np.exp(-0.1)) < 1e-7


def test_rk4_accumulated_accuracy():
    phi, _ = rk4_transition(np.array([[-1.0]]), NO_INPUT, 0.005)
    x = np.array([1.0])
    for _ in range(200):
        x = phi @ x
    assert abs(x[0] - np.exp(-1.0)) < 1e-11


def test_rk4_oscillator_energy_drift_is_tiny():
    """The marginally stable reference oscillator must not decay numerically."""
    a_d = np.array([[0.0, 1.0], [-2.0, 0.0]])
    phi, _ = rk4_transition(a_d, np.zeros((2, 0)), 0.005)
    s = np.array([1.0, 0.0])
    energy0 = 2.0 * s[0] ** 2 + s[1] ** 2
    for _ in range(2000):  # 10 s at dt = 0.005
        s = phi @ s
    energy = 2.0 * s[0] ** 2 + s[1] ** 2
    assert abs(energy - energy0) < 1e-10


def test_rk4_transition_matches_four_stage_rk4():
    """Phi x + G u is one RK4 step with u held, on the shipped plant and the
    2-input plant."""
    rng = np.random.default_rng(5)
    for plant in (LinearPlant(A0, B0, THETA),
                  LinearPlant(A0, np.zeros((2, 2)), THETA_2IN)):
        a, b = plant.true_system()
        n, m = b.shape
        for dt in (0.005, 0.01, 0.1):
            phi, g = rk4_transition(a, b, dt)
            assert phi.shape == (n, n) and g.shape == (n, m)
            # column by column, then on random states and held inputs
            np.testing.assert_allclose(
                phi, np.column_stack([_rk4(a, b, e, np.zeros(m), dt)
                                      for e in np.eye(n)]), rtol=1e-13)
            np.testing.assert_allclose(
                g, np.column_stack([_rk4(a, b, np.zeros(n), e, dt)
                                    for e in np.eye(m)]), rtol=1e-13)
            for _ in range(20):
                x, u = rng.normal(size=n), rng.normal(size=m)
                np.testing.assert_allclose(phi @ x + g @ u,
                                           _rk4(a, b, x, u, dt), rtol=1e-13)


def test_mis_shaped_plant_is_rejected_at_construction():
    """A mis-shaped plant fails at construction, so it never reaches a step."""
    for a0, b0 in ((np.zeros((2, 3)), B0),          # A0 not square
                   (A0, np.zeros((3, 1))),          # B0 rows != state dimension
                   (np.zeros((2, 2, 2)), B0)):      # A0 not a matrix
        with pytest.raises(DimensionError):
            LinearPlant(a0, b0, THETA)


def test_reference_rotates_and_feedforward_tracks():
    dyn = _plant()
    scn = TrackingScenario(dyn, np.array([[0.0, 1.0], [-2.0, 0.0]]),
                           np.array([[-1.5, 0.5]]))
    xd = np.array([1.0, 0.0])
    np.testing.assert_allclose(scn.desired_control(xd), [-1.5])
    phi_d, _ = rk4_transition(scn.reference_matrix, np.zeros((2, 0)), 0.005)
    for _ in range(889):  # roughly one period, T = 2 pi / sqrt(2)
        xd = phi_d @ xd
    np.testing.assert_allclose(xd, [1.0, 0.0], atol=5e-3)


def test_unstable_reference_is_rejected():
    dyn = _plant()
    with pytest.raises(ValueError):
        TrackingScenario(dyn, np.array([[1.0, 0.0], [0.0, -1.0]]),
                         np.array([[0.0, 0.0]]))


def test_step_radii_of_the_rk4_steps():
    """rho(Phi - G K) and rho(Phi_d) of the RK4 steps: the closed loop's step
    contracts at a small dt and grows at a large one, an integrator
    reference has radius 1 exactly, and RK4 damps the oscillator slightly."""
    dyn = _plant()
    oscillator = TrackingScenario(dyn, np.array([[0.0, 1.0], [-2.0, 0.0]]),
                                  np.array([[-1.5, 0.5]]))
    gain = np.array([[30.0, 30.0]])     # continuous-time poles near -1 and -30
    small, rho_d = oscillator.step_radii(gain, 0.005)
    assert small < 1.0 and abs(rho_d - 1.0) < 1e-9
    large, rho_d = oscillator.step_radii(gain, 0.25)
    assert large > 1.0 and rho_d < 1.0 - 1e-5
    integrator = TrackingScenario(dyn, np.zeros((2, 2)), np.zeros((1, 2)))
    assert integrator.step_radii(gain, 0.25)[1] == 1.0
