"""Windowed-integral regression and the drift-parameter estimator."""

import numpy as np
import pytest

from oirl.dynamics import LinearPlant, eval_dynamics, rk4_transition
from oirl.errors import DivergenceError
from oirl.oracle import solve_are
from oirl.param_estimator import (ThetaEstimator, ThetaEstimatorConfig,
                                  window_pairs)

from conftest import step
from per_step import ThetaWindows, one_span

A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
B0 = np.zeros((2, 1))
THETA = np.array([[0.0, -0.5], [0.0, -0.5], [0.0, 1.0]])


def _plant():
    return LinearPlant(A0, B0, THETA)


def _scalar_pair(times, states):
    """The window pair over all samples of xdot = theta x + 0 u, no nominal."""
    dyn = LinearPlant(np.zeros((1, 1)), np.zeros((1, 1)), [[-0.5], [0.0]])
    (y,), (b,) = window_pairs(dyn, times, np.reshape(states, (-1, 1)),
                              np.zeros((len(times), 1)), [len(times) - 1],
                              len(times) - 1)
    return y, b


@pytest.mark.parametrize("box", [(1.0, 1.0), (2.0, -2.0)])
def test_an_empty_projection_box_is_refused(box):
    with pytest.raises(ValueError, match="lo < hi"):
        ThetaEstimator(_plant(), ThetaEstimatorConfig(box=box))


def test_window_regression_on_scalar_exponential():
    """xdot = theta * x with zero nominal: b / integral(x) recovers theta."""
    theta = -0.5
    dt = 0.005
    times = [k * dt for k in range(51)]
    y, b = _scalar_pair(times, [np.exp(theta * t) for t in times])
    assert abs(b[0] / y[0] - theta) < 1e-4


def test_window_regression_at_equilibrium_is_degenerate():
    y, b = _scalar_pair([0.0, 0.005, 0.01], np.zeros(3))
    assert np.linalg.norm(y) == 0.0
    assert np.linalg.norm(b) == 0.0


def test_window_regression_needs_two_samples():
    with pytest.raises(ValueError):
        _scalar_pair([0.0], np.zeros(1))


def _closed_loop_rollout(duration, dt=0.005):
    """Simulate the tracking plant under its stabilizing LQR feedback."""
    dyn = _plant()
    a = A0 + THETA[:2].T
    b = B0 + THETA[2:].T
    k_gain = solve_are(a, b, np.eye(2), np.array([[10.0]])).gain
    phi, g = rk4_transition(a, b, dt)
    a_d = np.array([[0.0, 1.0], [-2.0, 0.0]])
    f_gain = np.array([[-1.5, 0.5]])
    x = np.zeros(2)
    xd = np.array([1.0, 0.0])
    out = []
    steps = int(round(duration / dt))
    for k in range(steps + 1):
        t = k * dt
        u = f_gain @ xd - k_gain @ (x - xd)
        out.append((t, x.copy(), u.copy()))
        x = phi @ x + g @ u
        xd = np.asarray([xd[0] * np.cos(np.sqrt(2) * dt)
                         + xd[1] * np.sin(np.sqrt(2) * dt) / np.sqrt(2),
                         -np.sqrt(2) * xd[0] * np.sin(np.sqrt(2) * dt)
                         + xd[1] * np.cos(np.sqrt(2) * dt)])
    return dyn, out


def test_stacked_windows_are_consistent_with_the_true_parameters():
    """Every stored (Y, b) pair must satisfy b ~= theta_true^T Y closely."""
    dyn, rollout = _closed_loop_rollout(6.0)
    est = ThetaEstimator(dyn, ThetaEstimatorConfig())
    windows = ThetaWindows(est)
    for t, x, u in rollout:
        windows.observe(t, x, u)
    assert len(est.stack) > 20
    residual = est.stack.targets() - est.stack.regressor() @ THETA
    assert np.max(np.abs(residual)) < 1e-6


def test_estimate_converges_on_frozen_stack():
    dyn, rollout = _closed_loop_rollout(6.0)
    est = ThetaEstimator(dyn, ThetaEstimatorConfig())
    windows = ThetaWindows(est)
    for t, x, u in rollout:
        windows.observe(t, x, u)
    for _ in est.advance(0.005, one_span(est, 40000)):     # in chunks
        pass
    s = est.stack.normal_matrix()
    c = est.stack.cross_matrix()
    batch = np.linalg.solve(s, c)
    assert np.max(np.abs(est.theta_hat - batch)) < 1e-8
    # and the batch solution itself sits next to the truth
    assert np.max(np.abs(batch - THETA)) < 1e-5


def test_empty_stack_grows_gain_geometrically():
    """H shrinks by a = exp(-beta dt), so Gamma = H^-1 grows by 1 / a."""
    est = ThetaEstimator(_plant(), ThetaEstimatorConfig(beta=2.0, gamma0=1.0))
    for k in range(1, 4):
        step(est, 0.005)
        np.testing.assert_allclose(est.information, np.exp(-0.01 * k) * np.eye(3),
                                   rtol=1e-15, atol=0)
    assert est.gamma_eig_range[0] == pytest.approx(np.exp(0.03), rel=1e-15)


def test_estimate_respects_projection_box():
    dyn = _plant()
    est = ThetaEstimator(dyn, ThetaEstimatorConfig(box=(-2.0, 2.0)))
    # rows demanding theta far outside the box
    for i in range(3):
        row = np.zeros(3)
        row[i] = 1.0
        est.stack.try_insert(row[None], 10.0 * np.ones((1, 2)), t=float(i))
    for _ in range(5000):
        step(est, 0.005)
    assert np.max(est.theta_hat) <= 2.0 + 1e-12
    assert np.min(est.theta_hat) >= -2.0 - 1e-12


def test_non_finite_update_raises():
    """Rows whose least-squares theta overflows (1e310 in its first row):
    the box clip bounds every finite step, so the weight solve itself
    overflows once forgetting has shrunk H."""
    est = ThetaEstimator(_plant(), ThetaEstimatorConfig(beta=100.0,
                                                         gamma_ceiling=1e300))
    est.stack.try_insert(np.array([[1e-10, 0.0, 0.0]]), np.full((1, 2), 1e300), t=0.0)
    est.stack.try_insert(np.array([[0.0, 1.0, 0.0]]), np.zeros((1, 2)), t=0.0)
    est.stack.try_insert(np.array([[0.0, 0.0, 1.0]]), np.zeros((1, 2)), t=0.0)
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError):
            for _ in range(200):
                step(est, 0.005)
    assert np.abs(est.theta_hat).max() <= 2.0


def test_zero_windows_are_not_banked():
    dyn = _plant()
    est = ThetaEstimator(dyn, ThetaEstimatorConfig())
    windows = ThetaWindows(est)
    accepted = [windows.observe(k * 0.005, np.zeros(2), np.zeros(1))
                for k in range(200)]
    assert not any(accepted)
    assert len(est.stack) == 0


def test_generation_counts_significant_revisions():
    dyn, rollout = _closed_loop_rollout(3.0)
    est = ThetaEstimator(dyn, ThetaEstimatorConfig())
    generations = []
    windows = ThetaWindows(est)
    for t, x, u in rollout:
        windows.observe(t, x, u)
        step(est, 0.005)
        generations.append(est.generation)
    assert generations[-1] >= 1
    assert all(g2 >= g1 for g1, g2 in zip(generations, generations[1:]))


def test_revise_over_any_split_equals_one_call():
    """`revise` takes its estimates in order, so calls over the pieces of one
    array give the generations, and the final generation, of one call over
    all of it, whether a piece starts or ends on a revision, is empty, or
    holds a stretch without revisions longer than one pass (CHUNK rows)."""
    rng = np.random.default_rng(3)
    steps = np.concatenate([rng.normal(0.0, 0.02, (60, 3, 2)), np.zeros((300, 3, 2)),
                            rng.normal(0.0, 0.02, (60, 3, 2))])
    w = np.cumsum(steps, axis=0)
    whole = ThetaEstimator(_plant(), ThetaEstimatorConfig())
    want = whole.revise(w)
    revisions = np.flatnonzero(np.diff(want, prepend=0))
    assert len(revisions) >= 3
    r = int(revisions[1])
    splits = ([[k] for k in range(len(w) + 1)]          # one cut anywhere
              + [[r, r + 1], [r - 1, r], [0, r, r, len(w)], list(range(1, len(w)))])
    for cuts in splits:
        est = ThetaEstimator(_plant(), ThetaEstimatorConfig())
        got = np.concatenate([est.revise(part) for part in np.split(w, cuts)])
        np.testing.assert_array_equal(got, want, err_msg=str(cuts))
        assert est.generation == whole.generation == want[-1]


def _loop_window(nominal, features, times, states, controls):
    """The window integral as one plain left-to-right loop."""
    y = f_int = None
    for i in range(len(times) - 1):
        h = times[i + 1] - times[i]
        u = controls[i]
        sig = 0.5 * h * (features(states[i], u) + features(states[i + 1], u))
        nom = 0.5 * h * (nominal(states[i], u) + nominal(states[i + 1], u))
        y = sig if y is None else y + sig
        f_int = nom if f_int is None else f_int + nom
    return y, states[-1] - states[0] - f_int


def test_observe_banks_exactly_the_reference_window_integral():
    """The pairs `window_pairs` sums for each offer are the plain loop's bit
    for bit, with irregular sample spacing, two inputs, and a buffer that
    keeps evicting."""
    rng = np.random.default_rng(5)
    a0 = np.array([[0.0, 1.0], [-1.0, -0.3]])
    b0 = np.array([[0.0, 0.5], [1.0, 0.0]])
    theta = rng.uniform(-0.5, 0.5, size=(4, 2))
    dyn = LinearPlant(a0, b0, theta)
    est = ThetaEstimator(dyn, ThetaEstimatorConfig(window=0.25, offer_period=0.05))
    windows = ThetaWindows(est)
    offered = []

    def spy(y, b, t, tag=0):
        window = [[s[k] for s in windows.buffer] for k in range(3)]
        ref_y, ref_b = _loop_window(lambda x, u: a0 @ x + b0 @ u,
                                    lambda x, u: np.concatenate([x, u]), *window)
        equal = np.array_equal(y, [ref_y]) and np.array_equal(b, [ref_b])
        offered.append((equal, len(window[0])))
        return False

    est.stack.try_insert = spy
    # uneven spacing that repeats every offer period, so a sample lands
    # exactly one window back whenever an offer is due
    offsets = [0.0, 0.002, 0.011, 0.015, 0.03]
    times = [0.05 * k + dt for k in range(60) for dt in offsets]
    x = np.array([1.0, -0.5])
    for t in times:
        windows.observe(t, x, np.array([np.sin(3.0 * t), np.cos(1.7 * t)]))
        x = x + rng.normal(scale=0.05, size=2)
    assert len(offered) > 20
    assert all(equal for equal, _ in offered)
    # the window was evicting: no offer saw anywhere near every sample
    assert max(n for _, n in offered) < len(times) // 4
