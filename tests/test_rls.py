"""Euler gain-law step: growth, contraction, and reset guard."""

import numpy as np
import pytest

from types import SimpleNamespace

from oirl.errors import DivergenceError
from oirl.history import HistoryStack
from oirl.rls import ConcurrentLearner, _norm, gain_step, row_norms


@pytest.mark.parametrize("a", [
    np.array([3.0, -4.0, 1e-3]),
    np.linspace(-2.0, 7.0, 17)[::3],               # strided view
    np.arange(12.0).reshape(3, 4) / 7.0,
    (np.arange(12.0).reshape(3, 4) / 7.0).T,      # non-contiguous view
    np.zeros(0),
])
def test_norm_helper_is_bit_identical_to_numpy(a):
    assert _norm(a) == np.linalg.norm(a)


def test_row_norms_equal_per_row_norm_bit_for_bit():
    """One pass over a table gives each row's `_norm`, for every row length
    the metrics take, contiguous or sliced out of a wider table."""
    rng = np.random.default_rng(3)
    for width in range(40):         # 16 and up take BLAS's unrolled dot
        table = rng.normal(size=(100, width)) * 10.0 ** rng.integers(-8, 8, (100, 1))
        norms = row_norms(table)
        assert norms.shape == (100,)
        assert norms.tolist() == [_norm(row) for row in table]
        cut = table[:, 1:width - 1]
        assert row_norms(cut).tolist() == [_norm(row) for row in cut]
    blocks = rng.normal(size=(50, 5, 3))
    assert row_norms(blocks).tolist() == [_norm(block) for block in blocks]
    assert row_norms(np.zeros((4, 0))).tolist() == [0.0] * 4


def test_learner_weights_that_overflow_raise_divergence():
    cfg = SimpleNamespace(alpha=1e300, beta=1.0, gamma0=1.0, gamma_floor=1e-9,
                          gamma_ceiling=1e7)
    stack = HistoryStack(capacity=2, row_dim=2)
    stack.try_insert(np.array([1.0, 0.0]), 1e20, t=0.0)
    learner = ConcurrentLearner(cfg, stack, np.zeros((2, 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="non-finite"):
            learner.update(0.005)
    np.testing.assert_array_equal(learner.weights, np.zeros((2, 1)))


def test_finite_gain_beyond_its_squared_norm_is_not_reset():
    """A finite gain whose sum of squares overflows takes the finite path."""
    gamma0 = np.eye(2)
    g = 1e200 * np.eye(2)
    with np.errstate(over="ignore"):
        out, reset, lo, hi = gain_step(g, np.zeros((2, 2)), alpha=1.0, beta=2.0,
                                       dt=0.005, floor=1e-9, ceiling=np.inf,
                                       gamma0=gamma0)
    assert not reset
    np.testing.assert_allclose(out, 1.01e200 * np.eye(2), rtol=1e-15)
    assert lo == hi == out[0, 0]


def test_pure_forgetting_grows_geometrically():
    gamma0 = np.eye(2)
    g, reset, lo, hi = gain_step(gamma0, np.zeros((2, 2)), alpha=1.0, beta=2.0,
                                 dt=0.005, floor=1e-9, ceiling=1e7,
                                 gamma0=gamma0)
    assert not reset
    np.testing.assert_allclose(g, 1.01 * np.eye(2), rtol=0, atol=0)
    assert lo == hi == pytest.approx(1.01)


def test_excitation_contracts_the_gain():
    gamma0 = np.eye(2)
    normal = 100.0 * np.eye(2)
    g, reset, lo, _ = gain_step(gamma0, normal, alpha=1.0, beta=2.0, dt=0.005,
                                floor=1e-9, ceiling=1e7, gamma0=gamma0)
    assert not reset
    # 1 + dt*(beta - alpha*normal) = 1 + 0.005*(2 - 100)
    np.testing.assert_allclose(g, 0.51 * np.eye(2))
    assert lo < 1.0


def test_ceiling_violation_resets_to_initial_gain():
    gamma0 = np.eye(2)
    g = 0.995e7 * np.eye(2)  # one growth step lands above the 1e7 ceiling
    out, reset, lo, hi = gain_step(g, np.zeros((2, 2)), alpha=1.0, beta=2.0,
                                   dt=0.005, floor=1e-9, ceiling=1e7,
                                   gamma0=gamma0)
    assert reset
    np.testing.assert_array_equal(out, gamma0)
    assert lo == hi == 1.0


def test_floor_violation_resets_to_initial_gain():
    gamma0 = np.eye(2)
    g = 2e-9 * np.eye(2)
    normal = 1e12 * np.eye(2)  # overshoots straight through zero
    out, reset, _, _ = gain_step(g, normal, alpha=1.0, beta=2.0, dt=0.005,
                                 floor=1e-9, ceiling=1e7, gamma0=gamma0)
    assert reset
    np.testing.assert_array_equal(out, gamma0)


def test_reset_survives_non_finite_step():
    gamma0 = np.eye(2)
    g = 1e300 * np.eye(2)
    normal = 1e300 * np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        out, reset, _, _ = gain_step(g, normal, alpha=1.0, beta=2.0, dt=0.005,
                                     floor=1e-9, ceiling=1e7, gamma0=gamma0)
    assert reset
    np.testing.assert_array_equal(out, gamma0)


def test_asymmetric_gain_is_a_hard_error():
    gamma0 = np.eye(2)
    g = np.array([[1.0, 0.5], [-0.5, 1.0]])
    with pytest.raises(RuntimeError):
        gain_step(g, np.zeros((2, 2)), alpha=1.0, beta=2.0, dt=0.005,
                  floor=1e-9, ceiling=1e7, gamma0=gamma0)
