"""Feedback-policy weight estimation from (state, action) pairs."""

import numpy as np
import pytest

from oirl.dynamics import LinearPlant
from oirl.errors import DivergenceError
from oirl.features import FeatureBasis
from oirl.irl_engine import IrlConfig, RewardEstimator, build_row_block
from oirl.param_estimator import ThetaSnapshot
from oirl.policy_estimator import PolicyEstimator, PolicyEstimatorConfig

K_TRUE = np.array([[0.0916079783099616, 0.2302163765760962]])
THETA = np.array([[0.0, -0.5], [0.0, -0.5], [0.0, 1.0]])


def _basis():
    return FeatureBasis.from_names(2, 1, "quadratic", "squares", "linear")


def _filled_estimator(n_samples=30, seed=2):
    """Estimator whose stack holds optimal pairs u = -K_TRUE x."""
    rng = np.random.default_rng(seed)
    est = PolicyEstimator(_basis(), PolicyEstimatorConfig())
    for i in range(n_samples):
        x = rng.uniform(-1.0, 1.0, 2)
        est.record_sample(x, -(K_TRUE @ x), t=0.05 * i)
    return est


def test_zero_state_samples_are_rejected():
    est = PolicyEstimator(_basis(), PolicyEstimatorConfig())
    assert not est.record_sample(np.zeros(2), np.zeros(1), t=0.0)
    assert len(est.stack) == 0
    assert est.record_sample(np.array([0.1, 0.0]), np.array([0.5]), t=0.0)


def test_banked_targets_follow_the_true_weights():
    """The stack holds -u, so rows @ W_true ~= target."""
    est = _filled_estimator()
    residual = est.stack.targets() - est.stack.regressor() @ K_TRUE.T
    assert np.max(np.abs(residual)) < 1e-15


def test_batch_solution_is_a_fixed_point():
    est = _filled_estimator()
    est.weights = K_TRUE.T.copy()
    before = est.weights.copy()
    est.update(0.005)
    assert np.max(np.abs(est.weights - before)) < 1e-14


def test_weights_converge_to_the_batch_solution():
    est = _filled_estimator()
    for _ in range(40000):
        est.update(0.005)
    assert np.max(np.abs(est.weights - K_TRUE.T)) < 1e-8


def test_gain_converges_to_forgetting_scaled_inverse_normal():
    est = _filled_estimator()
    for _ in range(40000):
        est.update(0.005)
    target = (est.cfg.beta / est.cfg.alpha) * np.linalg.inv(est.stack.normal_matrix())
    assert np.max(np.abs(est.gamma - target)) < 1e-6
    assert est.gain_resets == 0


def test_empty_stack_gain_grows_until_reset():
    est = PolicyEstimator(_basis(), PolicyEstimatorConfig(beta=2.0, gamma0=1.0))
    est.update(0.005)
    np.testing.assert_allclose(est.gamma, 1.01 * np.eye(2), atol=1e-15)
    resets = 0
    for _ in range(2000):  # 1.01^k passes 1e7 near k = 1620
        est.update(0.005)
        resets += est.last_gain_reset
    assert resets >= 1
    assert est.gain_resets == resets
    assert np.max(est.gamma) < 1e7


def test_query_is_linear_in_the_state():
    """A query banks the rows of u_hat = -W_u^T sigma_pi(x) = -K x."""
    est = PolicyEstimator(_basis(), PolicyEstimatorConfig())
    est.weights = K_TRUE.T.copy()
    dyn = LinearPlant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 1)),
                      THETA)
    eng = RewardEstimator(_basis(), dyn, IrlConfig(), 3)
    twin = RewardEstimator(_basis(), dyn, IrlConfig(), 3)
    for i in range(5):
        x = twin.draw_query_state()
        assert eng.generate_query(est.snapshot(), ThetaSnapshot(THETA, 1), 0.05 * i)
        rows, offsets = build_row_block(_basis(), dyn, x, -(K_TRUE @ x), THETA,
                                        eng.cfg.r1)
        np.testing.assert_allclose(eng.stack.regressor()[-2:], rows,
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(eng.stack.targets()[-2:, 0], -offsets,
                                   rtol=1e-14, atol=0)


def test_snapshot_is_a_copy():
    est = _filled_estimator()
    snap = est.snapshot()
    snap.weights[0, 0] = 77.0
    assert est.weights[0, 0] != 77.0


def test_non_finite_update_raises():
    est = _filled_estimator()
    est.weights = np.full((2, 1), 1e308)
    est.gamma = 1e308 * np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            est.update(0.005)
