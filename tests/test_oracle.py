"""Riccati solver checks: hand-derived closed forms, invariances, residuals."""

import numpy as np
import pytest

from oirl.errors import RiccatiConvergenceError, UnstabilizableError
from oirl.oracle import (ideal_policy_weights, quadratic_value_weights,
                         riccati_residual, solve_are)

# tracking-scenario error system: edot = A e + B mu
A_SCN = np.array([[0.0, 1.0], [-0.5, -0.5]])
B_SCN = np.array([[0.0], [1.0]])
Q_SCN = np.eye(2)
R_SCN = np.array([[10.0]])

# closed forms for the scenario ARE, worked out by eliminating variables:
# with c = P12, b = P22, a = P11 one gets c = sqrt(35) - 5,
# b = -5 + sqrt(35 + 20 c), a = c/2 + b/2 + c b / 10.
P12_EXACT = np.sqrt(35.0) - 5.0
P22_EXACT = -5.0 + np.sqrt(35.0 + 20.0 * P12_EXACT)
P11_EXACT = P12_EXACT / 2.0 + P22_EXACT / 2.0 + P12_EXACT * P22_EXACT / 10.0


def test_scenario_cost_matrix_closed_form():
    sol = solve_are(A_SCN, B_SCN, Q_SCN, R_SCN)
    p = sol.cost_matrix
    assert abs(p[0, 0] - P11_EXACT) < 1e-12
    assert abs(p[0, 1] - P12_EXACT) < 1e-12
    assert abs(p[1, 1] - P22_EXACT) < 1e-12
    # frozen decimals, so a regression is visible without re-deriving
    assert abs(p[0, 0] - 1.820018342750099) < 1e-12
    assert abs(p[0, 1] - 0.9160797830996161) < 1e-12
    assert abs(p[1, 1] - 2.3021637657609624) < 1e-12


def test_scenario_gain_closed_form():
    sol = solve_are(A_SCN, B_SCN, Q_SCN, R_SCN)
    np.testing.assert_allclose(sol.gain,
                               [[P12_EXACT / 10.0, P22_EXACT / 10.0]],
                               rtol=0, atol=1e-12)


def test_value_weight_vector_ordering():
    sol = solve_are(A_SCN, B_SCN, Q_SCN, R_SCN)
    np.testing.assert_allclose(
        sol.value_weights,
        [P11_EXACT, P22_EXACT, 2.0 * P12_EXACT], atol=1e-12)
    np.testing.assert_allclose(
        quadratic_value_weights(np.array([[2.0, 3.0], [3.0, 5.0]])),
        [2.0, 5.0, 6.0])


def test_isotropic_system_has_analytic_solution():
    """A = -I, B = I, Q = I, R = I gives P = (sqrt(2) - 1) I."""
    n = 3
    sol = solve_are(-np.eye(n), np.eye(n), np.eye(n), np.eye(n))
    np.testing.assert_allclose(sol.cost_matrix, (np.sqrt(2.0) - 1.0) * np.eye(n),
                               rtol=0, atol=1e-12)


def test_gain_invariant_under_reward_scaling():
    sol = solve_are(A_SCN, B_SCN, Q_SCN, R_SCN)
    for c in (0.5, 2.0, 10.0):
        scaled = solve_are(A_SCN, B_SCN, c * Q_SCN, c * R_SCN)
        assert np.max(np.abs(scaled.gain - sol.gain)) < 1e-10
        np.testing.assert_allclose(scaled.cost_matrix, c * sol.cost_matrix,
                                   rtol=1e-10)
    # power-of-two factors reach the solver's normalized core unchanged,
    # so the invariance is bitwise for them
    for c in (0.5, 2.0):
        scaled = solve_are(A_SCN, B_SCN, c * Q_SCN, c * R_SCN)
        np.testing.assert_array_equal(scaled.gain, sol.gain)


def test_random_systems_have_small_residuals():
    rng = np.random.default_rng(42)
    solved = 0
    while solved < 50:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, m))
        q = np.diag(rng.uniform(0.5, 3.0, n))
        r = np.diag(rng.uniform(0.5, 3.0, m))
        try:
            sol = solve_are(a, b, q, r)
        except (UnstabilizableError, RiccatiConvergenceError):
            continue
        p = sol.cost_matrix
        scale = max(1.0, np.linalg.norm(p))
        assert riccati_residual(a, b, q, r, p) < 1e-9 * scale
        closed = np.linalg.eigvals(a - b @ sol.gain)
        assert np.max(closed.real) < 0.0
        solved += 1


def test_unstabilizable_pair_is_rejected():
    # second state is unstable and unreachable from the single input
    a = np.array([[0.0, 0.0], [0.0, 1.0]])
    b = np.array([[1.0], [0.0]])
    with pytest.raises(UnstabilizableError):
        solve_are(a, b, np.eye(2), np.eye(1))


def test_a_pair_with_no_stable_hamiltonian_eigenvalue_is_rejected():
    """A = B = Q = 0: the Hamiltonian's eigenvalues are all 0, none stable."""
    with pytest.raises(UnstabilizableError,
                       match="Hamiltonian has 0 stable eigenvalues, need 1"):
        solve_are([[0.0]], [[0.0]], [[0.0]], [[1.0]])


def test_a_residual_above_the_tolerance_is_refused():
    """a = 1e7, b = 1e-2: P = 2e11, and the ARE's terms 2aP and P^2 b^2, each
    4e18, cancel to a residual of about 1e3, above ARE_TOL * |P| = 200."""
    with pytest.raises(RiccatiConvergenceError, match="Riccati residual"):
        solve_are([[1e7]], [[1e-2]], [[1.0]], [[1.0]])


def test_a_singular_lyapunov_operator_is_refused():
    """A near 1e-9 and B near 1e7, from a random scan: the Kleinman step's
    Kronecker solve meets an operator singular to working precision, which
    is a RiccatiConvergenceError, not numpy's bare LinAlgError."""
    a = [[1.4898238185947477e-09, -1.98756733768467e-09, 7.038656893211204e-10],
         [2.1422234782803067e-09, -1.1230300160880713e-09, -6.275691305502507e-10],
         [-6.973518213645308e-10, 3.5556814453610494e-09, 2.108313405614176e-09]]
    b = [[-84165972.10541688, -95478447.3847844],
         [40816373.07345408, -13379406.330626596],
         [33436884.726298165, 16681349.340286793]]
    with pytest.raises(RiccatiConvergenceError,
                       match="singular Lyapunov operator of the closed loop A - B K"):
        solve_are(a, b, np.eye(3), np.eye(2))


def test_argument_validation():
    with pytest.raises(ValueError):
        solve_are(A_SCN, B_SCN, np.array([[1.0, 0.5], [0.0, 1.0]]), R_SCN)
    with pytest.raises(ValueError):
        solve_are(A_SCN, B_SCN, Q_SCN, np.array([[-1.0]]))
    with pytest.raises(ValueError):
        solve_are(A_SCN, np.zeros((3, 1)), Q_SCN, R_SCN)


def test_ideal_policy_weights_transpose_the_gain():
    sol = solve_are(A_SCN, B_SCN, Q_SCN, R_SCN)
    np.testing.assert_allclose(ideal_policy_weights(sol), sol.gain.T)


@pytest.mark.parametrize("a, b, q, r", [
    (A_SCN, B_SCN, Q_SCN, R_SCN),
    (np.array([[0.0, 1.0], [-1.0, -1.0]]), np.array([[1.0, 0.0], [0.5, 1.0]]),
     np.diag([1.0, 2.0]), np.diag([10.0, 5.0])),
], ids=["shipped", "two_input"])
def test_cost_matrix_matches_scipy(a, b, q, r):
    linalg = pytest.importorskip("scipy.linalg")
    np.testing.assert_allclose(solve_are(a, b, q, r).cost_matrix,
                               linalg.solve_continuous_are(a, b, q, r),
                               rtol=1e-9, atol=0)
