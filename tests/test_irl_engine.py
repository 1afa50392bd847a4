"""Inverse-Bellman row blocks and the reward/value weight estimator."""

import numpy as np
import pytest

from oirl.dynamics import LinearPlant, eval_dynamics
from oirl.features import FeatureBasis
from oirl.irl_engine import IrlConfig, RewardEstimator, build_row_block
from oirl.oracle import solve_are

from bellman import inverse_bellman_error
from conftest import step

A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
B0 = np.zeros((2, 1))
THETA = np.array([[0.0, -0.5], [0.0, -0.5], [0.0, 1.0]])

W_V_EXACT = np.array([1.820018342750099, 2.3021637657609624,
                      1.8321595661992322])
K_EXACT = np.array([[0.0916079783099616, 0.2302163765760962]])


def _plant():
    return LinearPlant(A0, B0, THETA)


def _basis(m=1):
    return FeatureBasis(2, m)


def _anchored_truth():
    """[W_V; W_Q] for the scenario; m = 1 leaves no extra control weights."""
    return np.concatenate([W_V_EXACT, [1.0, 1.0]])


def test_row_block_shapes_single_input():
    rows, offsets = build_row_block(_basis(), _plant(), np.array([0.3, -0.2]),
                                    np.array([0.1]), THETA, r1=10.0)
    assert rows.shape == (2, 5)
    assert offsets.shape == (2,)


def test_bellman_row_contents():
    basis = _basis()
    dyn = _plant()
    x = np.array([0.5, -1.0])
    u = np.array([0.25])
    rows, offsets = build_row_block(basis, dyn, x, u, THETA, r1=10.0)
    xdot = eval_dynamics(dyn, x, u, THETA)
    np.testing.assert_allclose(rows[0, :3], basis.value_gradient(x) @ xdot)
    np.testing.assert_allclose(rows[0, 3:5], [0.25, 1.0])  # squares of x
    np.testing.assert_allclose(offsets[0], 10.0 * 0.25 ** 2)


def test_stationarity_row_contents():
    basis = _basis()
    dyn = _plant()
    x = np.array([0.5, -1.0])
    u = np.array([0.25])
    rows, offsets = build_row_block(basis, dyn, x, u, THETA, r1=10.0)
    b = B0 + THETA[2:].T
    np.testing.assert_allclose(rows[1, :3],
                               (basis.value_gradient(x) @ b)[:, 0])
    np.testing.assert_allclose(rows[1, 3:], 0.0)
    np.testing.assert_allclose(offsets[1], 2.0 * 10.0 * 0.25)


def test_second_input_channel_gets_its_own_unknown():
    """With m = 2 the extra diagonal control weight appears in row 2 only."""
    rng = np.random.default_rng(8)
    a = np.array([[0.0, 1.0], [-1.0, -1.0]])
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    theta = np.vstack([a.T, b.T])
    dyn = LinearPlant(np.zeros((2, 2)), np.zeros((2, 2)), theta)
    basis = _basis(m=2)
    x = rng.uniform(-1, 1, 2)
    u = rng.uniform(-1, 1, 2)
    rows, offsets = build_row_block(basis, dyn, x, u, theta, r1=10.0)
    assert rows.shape == (3, 6)
    np.testing.assert_allclose(rows[0, 5], u[1] ** 2)
    np.testing.assert_allclose(rows[1, 5], 0.0)
    np.testing.assert_allclose(rows[2, 5], 2.0 * u[1])
    np.testing.assert_allclose(offsets, [10.0 * u[0] ** 2, 20.0 * u[0], 0.0])


def test_true_weights_zero_the_row_blocks():
    dyn = _plant()
    basis = _basis()
    w_true = _anchored_truth()
    rng = np.random.default_rng(21)
    for _ in range(100):
        e = rng.uniform(-1.0, 1.0, 2)
        u = -(K_EXACT @ e)
        rows, offsets = build_row_block(basis, dyn, e, u, THETA, r1=10.0)
        assert np.max(np.abs(rows @ w_true + offsets)) < 1e-12


def test_true_weights_zero_the_bellman_error():
    dyn = _plant()
    basis = _basis()
    full = np.concatenate([_anchored_truth(), [10.0]])
    rng = np.random.default_rng(22)
    for _ in range(100):
        e = rng.uniform(-1.0, 1.0, 2)
        u = -(K_EXACT @ e)
        assert abs(inverse_bellman_error(basis, dyn, e, u, full, THETA)) < 1e-12


def test_rounded_weights_leave_small_bellman_error():
    """Four-digit roundings of the ideal weights stay within 5e-4."""
    dyn = _plant()
    basis = _basis()
    rounded = np.array([1.8200, 2.3022, 1.8322, 1.0, 1.0, 10.0])
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(200):
        e = rng.uniform(-1.0, 1.0, 2)
        u = -(K_EXACT @ e)
        worst = max(worst, abs(inverse_bellman_error(basis, dyn, e, u,
                                                     rounded, THETA)))
    assert worst < 5e-4


def test_bellman_error_checks_weight_length():
    with pytest.raises(ValueError):
        inverse_bellman_error(_basis(), _plant(), np.zeros(2), np.zeros(1),
                              np.zeros(4), THETA)


def test_anchor_must_be_positive():
    with pytest.raises(ValueError):
        RewardEstimator(_basis(), _plant(), IrlConfig(r1=0.0), 0)


def test_purge_rejects_nonpositive_dwell():
    with pytest.raises(ValueError):
        RewardEstimator(_basis(), _plant(), IrlConfig(dwell=0.0), 0)


def test_degenerate_origin_sample_is_rejected():
    eng = RewardEstimator(_basis(), _plant(), IrlConfig(), 0)
    assert not eng.collect_trajectory_sample(np.zeros(2), np.zeros(1), THETA, 1, 0.0)
    assert len(eng.stack) == 0


def test_query_states_stay_inside_the_box():
    eng = RewardEstimator(_basis(), _plant(),
                          IrlConfig(query_box=((-0.5, 0.5), (0.0, 1.0))), 3)
    for _ in range(100):
        x = eng.draw_query_state()
        assert -0.5 <= x[0] <= 0.5
        assert 0.0 <= x[1] <= 1.0


def test_query_sequence_is_seed_deterministic():
    eng_a = RewardEstimator(_basis(), _plant(), IrlConfig(), 7)
    eng_b = RewardEstimator(_basis(), _plant(), IrlConfig(), 7)
    eng_c = RewardEstimator(_basis(), _plant(), IrlConfig(), 8)
    seq_a = np.array([eng_a.draw_query_state() for _ in range(20)])
    seq_b = np.array([eng_b.draw_query_state() for _ in range(20)])
    seq_c = np.array([eng_c.draw_query_state() for _ in range(20)])
    np.testing.assert_array_equal(seq_a, seq_b)
    assert np.max(np.abs(seq_a - seq_c)) > 1e-3


def _engine_with_optimal_queries(r1=10.0, n_queries=40):
    eng = RewardEstimator(_basis(), _plant(), IrlConfig(r1=r1), 5)
    for i in range(n_queries):
        eng.generate_query(K_EXACT.T, THETA, 1, t=0.05 * i)
    return eng


def test_banked_targets_follow_the_true_weights():
    """The stack holds -offsets, so rows @ W_true ~= target."""
    eng = _engine_with_optimal_queries()
    residual = eng.stack.targets()[:, 0] - eng.stack.regressor() @ _anchored_truth()
    assert np.max(np.abs(residual)) < 1e-12


def test_anchored_truth_is_a_fixed_point():
    eng = _engine_with_optimal_queries()
    eng.weights = _anchored_truth()
    before = eng.weights.copy()
    step(eng, 0.005)
    assert np.max(np.abs(eng.weights - before)) < 1e-10


def test_weights_converge_to_anchored_truth_on_frozen_stack():
    eng = _engine_with_optimal_queries()
    for _ in eng.advance(0.005, 60000):  # 60,000 exact steps, in spans
        pass
    w_true = _anchored_truth()
    assert np.max(np.abs(eng.weights - w_true)) < 1e-8
    np.testing.assert_allclose(eng.value_weights, W_V_EXACT, atol=1e-8)
    np.testing.assert_allclose(eng.reward_weights, [1.0, 1.0], atol=1e-8)
    assert eng.control_weights_rest.shape == (0,)


def test_doubling_the_anchor_doubles_the_weights():
    eng1 = _engine_with_optimal_queries(r1=10.0)
    eng2 = _engine_with_optimal_queries(r1=20.0)
    for _ in eng1.advance(0.005, 5000):
        pass
    for _ in eng2.advance(0.005, 5000):
        pass
    # rows are anchor-free and offsets are linear in r1, so the trajectories
    # match to the bit, not merely to rounding
    np.testing.assert_array_equal(eng2.weights, 2.0 * eng1.weights)


def test_purge_requires_staleness_and_dwell():
    eng = RewardEstimator(_basis(), _plant(), IrlConfig(dwell=2.0), 0)
    rng = np.random.default_rng(4)
    for i in range(10):
        e = rng.uniform(-1, 1, 2)
        eng.collect_trajectory_sample(e, -(K_EXACT @ e), THETA, 0, t=0.05 * i)
    # same generation: never purge, regardless of elapsed time
    assert not eng.schedule_purge(5.0, theta_generation=0)
    # newer generation but dwell not yet satisfied (last_purge = 0)
    assert not eng.schedule_purge(1.0, theta_generation=1)
    assert len(eng.stack) == 10
    # stale and dwell satisfied
    assert eng.schedule_purge(2.5, theta_generation=1)
    assert len(eng.stack) == 0
    assert eng.purge_times == [2.5]
    # empty stack has nothing stale in it
    assert not eng.schedule_purge(9.0, theta_generation=2)
