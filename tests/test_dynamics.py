"""Plant evaluation, integrator accuracy, and the tracking reference."""

import numpy as np
import pytest

from oirl.dynamics import (LinearPlant, TrackingScenario, eval_dynamics, rk4,
                           step_rk4)
from oirl.errors import DimensionError, DivergenceError

A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
B0 = np.zeros((2, 1))
THETA = np.array([[0.0, -0.5], [0.0, -0.5], [0.0, 1.0]])


def _plant():
    return LinearPlant(A0, B0, THETA)


def test_linear_uncertain_plant_matches_closed_form():
    """f(x, u) must equal (A0 + theta_a^T) x + (B0 + theta_b^T) u exactly."""
    dyn = _plant()
    a = A0 + THETA[:2].T
    b = B0 + THETA[2:].T
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=2)
        u = rng.normal(size=1)
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
    with pytest.raises(DimensionError):
        dyn.input_jacobian(np.zeros((2, 2)))


def test_theta_shape_is_validated():
    for theta in (np.zeros((3, 3)), np.zeros((2, 2)), np.zeros(6)):
        with pytest.raises(DimensionError):
            LinearPlant(A0, B0, theta)
        with pytest.raises(DimensionError):
            eval_dynamics(_plant(), np.zeros(2), np.zeros(1), theta)


def test_state_and_input_shapes_are_validated():
    dyn = _plant()
    with pytest.raises(DimensionError):
        eval_dynamics(dyn, np.zeros(3), np.zeros(1), dyn.theta_true)
    with pytest.raises(DimensionError):
        eval_dynamics(dyn, np.zeros(2), np.zeros(2), dyn.theta_true)


def test_rk4_single_step_accuracy():
    """One step of xdot = -x at dt = 0.1: local error is O(dt^5)."""
    out = rk4(lambda x: -x, np.array([1.0]), 0.1)
    assert abs(out[0] - np.exp(-0.1)) < 1e-7


def test_rk4_accumulated_accuracy():
    x = np.array([1.0])
    for _ in range(200):
        x = rk4(lambda s: -s, x, 0.005)
    assert abs(x[0] - np.exp(-1.0)) < 1e-11


def test_rk4_oscillator_energy_drift_is_tiny():
    """The marginally stable reference oscillator must not decay numerically."""
    a_d = np.array([[0.0, 1.0], [-2.0, 0.0]])
    s = np.array([1.0, 0.0])
    energy0 = 2.0 * s[0] ** 2 + s[1] ** 2
    for _ in range(2000):  # 10 s at dt = 0.005
        s = rk4(lambda z: a_d @ z, s, 0.005)
    energy = 2.0 * s[0] ** 2 + s[1] ** 2
    assert abs(energy - energy0) < 1e-10


def test_step_rk4_matches_generic_rk4_with_held_input():
    dyn = _plant()
    x = np.array([0.5, -0.2])
    u = np.array([0.3])
    expected = rk4(lambda s: eval_dynamics(dyn, s, u, dyn.theta_true), x, 0.01)
    np.testing.assert_array_equal(step_rk4(dyn, x, u, 0.01), expected)


def test_step_rk4_rejects_a_model_of_the_wrong_shape():
    """A mis-shaped plant fails at construction, so it never reaches step_rk4."""
    for a0, b0 in ((np.zeros((2, 3)), B0),          # A0 not square
                   (A0, np.zeros((3, 1))),          # B0 rows != state dimension
                   (np.zeros((2, 2, 2)), B0)):      # A0 not a matrix
        with pytest.raises(DimensionError):
            LinearPlant(a0, b0, THETA)


def test_step_rk4_raises_on_blowup():
    dyn = LinearPlant(np.array([[1.0]]), np.array([[0.0]]), np.zeros((2, 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            step_rk4(dyn, np.array([1e300]), np.zeros(1), 1e3, t=0.0)


def test_reference_rotates_and_feedforward_tracks():
    dyn = _plant()
    scn = TrackingScenario(dyn, np.array([[0.0, 1.0], [-2.0, 0.0]]),
                           np.array([[-1.5, 0.5]]))
    xd = np.array([1.0, 0.0])
    np.testing.assert_allclose(scn.desired_control(xd), [-1.5])
    for _ in range(889):  # roughly one period, T = 2 pi / sqrt(2)
        xd = scn.step_reference(xd, 0.005)
    np.testing.assert_allclose(xd, [1.0, 0.0], atol=5e-3)


def test_unstable_reference_is_rejected():
    dyn = _plant()
    with pytest.raises(ValueError):
        TrackingScenario(dyn, np.array([[1.0, 0.0], [0.0, -1.0]]),
                         np.array([[0.0, 0.0]]))
