"""Feedback-policy weight estimation from (state, action) pairs."""

import numpy as np
import pytest

from oirl.dynamics import LinearPlant
from oirl.errors import DivergenceError
from oirl.features import FeatureBasis
from oirl.harness import _walk
from oirl.irl_engine import IrlConfig, RewardEstimator, build_row_block
from oirl.policy_estimator import PolicyEstimator, PolicyEstimatorConfig

from conftest import step

K_TRUE = np.array([[0.0916079783099616, 0.2302163765760962]])
THETA = np.array([[0.0, -0.5], [0.0, -0.5], [0.0, 1.0]])


def _basis():
    return FeatureBasis(2, 1)


def _filled_estimator(n_samples=30, seed=2):
    """Estimator whose stack holds optimal pairs u = -K_TRUE x."""
    rng = np.random.default_rng(seed)
    est = PolicyEstimator(_basis(), PolicyEstimatorConfig())
    for i in range(n_samples):
        x = rng.uniform(-1.0, 1.0, 2)
        est.stack.try_insert(x, K_TRUE @ x, t=0.05 * i)     # rows x, targets -u
    return est


def test_zero_state_samples_are_rejected():
    est = PolicyEstimator(_basis(), PolicyEstimatorConfig())
    states, inputs = np.array([[0.0, 0.0], [0.1, 0.0]]), np.array([[0.0], [0.5]])
    walk = _walk(est.stack, [0, 1], states, -inputs, [0.0, 0.05], [0, 0], 2)
    assert list(walk) == [1]        # the offer of step 0 is not made
    assert len(est.stack) == 1


def test_banked_targets_follow_the_true_weights():
    """The stack holds -u, so rows @ W_true ~= target."""
    est = _filled_estimator()
    residual = est.stack.targets() - est.stack.regressor() @ K_TRUE.T
    assert np.max(np.abs(residual)) < 1e-15


def test_batch_solution_is_a_fixed_point():
    est = _filled_estimator()
    est.weights = K_TRUE.T.copy()
    before = est.weights.copy()
    step(est, 0.005)
    assert np.max(np.abs(est.weights - before)) < 1e-14


def test_weights_converge_to_the_batch_solution():
    est = _filled_estimator()
    for _ in est.advance(0.005, 40000):  # 40,000 exact steps, in spans
        pass
    assert np.max(np.abs(est.weights - K_TRUE.T)) < 1e-8


def test_gain_converges_to_forgetting_scaled_inverse_normal():
    """H = Gamma^-1 flows to (alpha / beta) S, so Gamma to (beta / alpha) S^-1."""
    est = _filled_estimator()
    for _ in est.advance(0.005, 40000):  # 40,000 exact steps, in spans
        pass
    s = est.stack.normal_matrix()
    assert np.max(np.abs(est.information - (est.cfg.alpha / est.cfg.beta) * s)) < 1e-12
    target = (est.cfg.beta / est.cfg.alpha) * np.linalg.inv(s)
    assert np.max(np.abs(np.linalg.inv(est.information) - target)) < 1e-6
    assert est.gain_resets == 0


def test_empty_stack_gain_grows_until_reset():
    est = PolicyEstimator(_basis(), PolicyEstimatorConfig(beta=2.0, gamma0=1.0))
    step(est, 0.005)
    # H shrinks by a = exp(-beta dt), so Gamma = H^-1 grows by 1 / a per step
    np.testing.assert_allclose(est.information, np.exp(-0.01) * np.eye(2),
                               rtol=1e-15, atol=0)
    resets = 0
    for _ in range(2000):  # exp(0.01 k) passes 1e7 near k = 1612
        step(est, 0.005)
        resets += est.last_gain_reset
    assert resets >= 1
    assert est.gain_resets == resets
    assert est.gamma_eig_range[1] < 1e7
    assert np.min(np.linalg.eigvalsh(est.information)) > 1e-7


def test_query_is_linear_in_the_state():
    """A query banks the rows of u_hat = -W_u^T sigma_pi(x) = -K x."""
    est = PolicyEstimator(_basis(), PolicyEstimatorConfig())
    est.weights = K_TRUE.T.copy()
    dyn = LinearPlant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 1)),
                      THETA)
    eng = RewardEstimator(_basis(), dyn, IrlConfig(), 3)
    x, u_hat = eng.queries(np.repeat(est.weights[None], 5, axis=0))
    np.testing.assert_allclose(u_hat, -(x @ K_TRUE.T), rtol=1e-14, atol=0)
    for i, (block, target) in enumerate(zip(*eng.row_blocks(x, u_hat, THETA))):
        assert eng.stack.try_insert(block, target, 0.05 * i, tag=1)
        rows, offsets = build_row_block(_basis(), dyn, x[i:i + 1],
                                        -(x[i:i + 1] @ K_TRUE.T), THETA, eng.cfg.r1)
        np.testing.assert_allclose(eng.stack.regressor()[-2:], rows[0],
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(eng.stack.targets()[-2:, 0], -offsets[0],
                                   rtol=1e-14, atol=0)


def test_non_finite_update_raises():
    """Pairs whose least-squares weights overflow (1e310 on the first
    feature) make the weight solve overflow once forgetting has shrunk H."""
    cfg = PolicyEstimatorConfig(beta=100.0, gamma_ceiling=1e300)
    est = PolicyEstimator(_basis(), cfg)
    assert est.stack.try_insert(np.array([1e-10, 0.0]), np.array([1e300]), t=0.0)
    assert est.stack.try_insert(np.array([0.0, 1.0]), np.array([0.0]), t=0.05)
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError):
            for _ in range(200):
                step(est, 0.005)
    assert np.isfinite(est.weights).all()
