"""Euler gain-law step: growth, contraction, and reset guard."""

import numpy as np
import pytest

from oirl.rls import _norm, gain_step


@pytest.mark.parametrize("a", [
    np.array([3.0, -4.0, 1e-3]),
    np.linspace(-2.0, 7.0, 17)[::3],               # strided view
    np.arange(12.0).reshape(3, 4) / 7.0,
    (np.arange(12.0).reshape(3, 4) / 7.0).T,      # non-contiguous view
    np.zeros(0),
])
def test_norm_helper_is_bit_identical_to_numpy(a):
    assert _norm(a) == np.linalg.norm(a)


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
