"""Feature bases: dimensions, ordering, exact gradients, batches."""

import numpy as np
import pytest

from oirl.features import FeatureBasis


def _fd_gradient(evaluate, z, h=1e-6):
    dim = evaluate(z).shape[0]
    grad = np.zeros((dim, z.shape[0]))
    for j in range(z.shape[0]):
        zp = z.copy()
        zm = z.copy()
        zp[j] += h
        zm[j] -= h
        grad[:, j] = (evaluate(zp) - evaluate(zm)) / (2.0 * h)
    return grad


def test_family_dimensions():
    for n, quadratic in ((1, 1), (2, 3), (3, 6), (4, 10)):
        squares = FeatureBasis(n, 1)
        assert (squares.value_dim, squares.reward_dim, squares.policy_dim) \
            == (quadratic, n, n)
        assert FeatureBasis(n, 1, reward="quadratic").reward_dim == quadratic


def test_quadratic_ordering_squares_then_cross_terms():
    basis = FeatureBasis(3, 1, reward="quadratic")
    z = np.array([2.0, 3.0, 5.0])
    np.testing.assert_allclose(basis.reward_features(z),
                               [4.0, 9.0, 25.0, 6.0, 10.0, 15.0])
    np.testing.assert_allclose(FeatureBasis(3, 1).reward_features(z), z * z)


def test_gradients_match_finite_differences():
    """The value gradient is that of the quadratic monomials, which a
    quadratic reward evaluates."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        basis = FeatureBasis(n, 1, reward="quadratic")
        for _ in range(5):
            z = rng.uniform(-2.0, 2.0, n)
            exact = basis.value_gradient(z)
            approx = _fd_gradient(basis.reward_features, z)
            assert np.max(np.abs(exact - approx)) < 1e-6, \
                f"value gradient mismatch at n={n}"


def test_unknown_family_raises():
    with pytest.raises(ValueError, match="fourier"):
        FeatureBasis(2, 1, reward="fourier")


def test_basis_bundle_dimensions():
    basis = FeatureBasis(2, 1)
    assert basis.value_dim == 3
    assert basis.reward_dim == 2
    assert basis.policy_dim == 2


def test_value_gradient_shape_and_content():
    basis = FeatureBasis(2, 1)
    x = np.array([1.0, 2.0])
    grad = basis.value_gradient(x)
    assert grad.shape == (3, 2)
    # d/dx of (x1^2, x2^2, x1 x2)
    np.testing.assert_allclose(grad, [[2.0, 0.0], [0.0, 4.0], [2.0, 1.0]])
    # a batch of states maps each state as a call with it alone does
    batch = np.array([[1.0, 2.0], [-0.5, 3.0], [-0.0, -1.0]])
    grads = basis.value_gradient(batch)
    assert grads.shape == (3, 3, 2)
    for g, z in zip(grads, batch):
        assert g.tobytes() == basis.value_gradient(z).tobytes()


def test_control_squares():
    basis = FeatureBasis(2, 3)
    np.testing.assert_allclose(basis.control_squares(np.array([1.0, -2.0, 3.0])),
                               [1.0, 4.0, 9.0])
