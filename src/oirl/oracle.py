"""Ground-truth LQR solutions for linear-quadratic scenarios.

Solves the continuous-time algebraic Riccati equation

    A^T P + P A - P B R^-1 B^T P + Q = 0

by the Hamiltonian invariant-subspace method, then polishes P with Kleinman
iterations (each step solves a Lyapunov equation exactly via a Kronecker
system) until the residual is at machine level. The LQR value x^T P x and
policy u = -K x are linear in the fixed value features (the quadratic
monomials) and policy features (the state) of `features.FeatureBasis`, so
the weights the estimators should reach are read off P and K. Estimator
modules never call into this file; it exists for demonstrators,
diagnostics, and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RiccatiConvergenceError, UnstabilizableError
from .features import monomial_pairs

Matrix = np.ndarray


@dataclass(frozen=True)
class LqrSolution:
    """Stabilizing Riccati solution with its gain and quadratic-basis weights.

    gain is the state-feedback matrix K (m, n) with optimal input u = -K x.
    value_weights expresses x^T P x over the quadratic monomial basis
    (`features.monomial_pairs`), so the cross-term weights are 2 P_ij.
    """

    cost_matrix: Matrix
    gain: Matrix
    value_weights: np.ndarray


def riccati_residual(a: Matrix, b: Matrix, q: Matrix, r: Matrix, p: Matrix) -> float:
    """Frobenius norm of the ARE residual at p."""
    br = b @ np.linalg.solve(r, b.T)
    return float(np.linalg.norm(a.T @ p + p @ a - p @ br @ p + q))


def _lyapunov(a_c: Matrix, m: Matrix) -> Matrix:
    """Solve a_c^T P + P a_c = -m via the Kronecker system."""
    n = a_c.shape[0]
    eye = np.eye(n)
    lhs = np.kron(eye, a_c.T) + np.kron(a_c.T, eye)
    p = np.linalg.solve(lhs, -m.reshape(-1))
    p = p.reshape(n, n)
    return 0.5 * (p + p.T)


def _lyapunov_separation(a_c: Matrix) -> float:
    """Smallest singular value of X -> a_c^T X + X a_c.

    This is the quantity that conditions the ARE near its stabilizing
    solution: a residual of size rho certifies a solution error of roughly
    rho / sep.
    """
    n = a_c.shape[0]
    eye = np.eye(n)
    lhs = np.kron(eye, a_c.T) + np.kron(a_c.T, eye)
    return float(np.linalg.svd(lhs, compute_uv=False)[-1])


def quadratic_value_weights(p: Matrix) -> np.ndarray:
    """Weights of x^T P x over the quadratic monomials, in the order of
    `features.monomial_pairs`: P_ii for x_i^2 and 2 P_ij for x_i x_j."""
    i, j = monomial_pairs(p.shape[0])
    return np.where(i == j, 1.0, 2.0) * p[i, j]


ARE_TOL = 1e-9          # Riccati residual bound, relative to max(1, ||P||_F)
ARE_MAX_REFINE = 30     # at most this many Newton (Kleinman) steps


def solve_are(a: Matrix, b: Matrix, q: Matrix, r: Matrix) -> LqrSolution:
    """Stabilizing ARE solution for the pair (a, b) with costs (q, r).

    `ARE_TOL` is relative, since an absolute bound would be unattainable for
    badly scaled problems whose solution norm is large. Raises
    UnstabilizableError when no stabilizing solution exists and
    RiccatiConvergenceError when refinement cannot reach the tolerance.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    n = a.shape[0]
    m = b.shape[1]
    if a.shape != (n, n) or b.shape != (n, m) or q.shape != (n, n) or r.shape != (m, m):
        raise DimensionError(
            f"incompatible shapes A{a.shape} B{b.shape} Q{q.shape} R{r.shape}")
    if np.linalg.norm(q - q.T) > 1e-12 * max(1.0, np.linalg.norm(q)):
        raise ValueError("Q must be symmetric")
    if np.min(np.linalg.eigvalsh(0.5 * (r + r.T))) <= 0.0:
        raise ValueError("R must be positive definite")

    # Normalize the cost scale: (q, r) -> (q/s, r/s) leaves the gain unchanged
    # and divides P by s, so the core solve sees the scale-free problem. This
    # makes gain invariance under cost scaling structural (bitwise for
    # power-of-two factors) and keeps the Hamiltonian blocks comparably sized.
    s = float(np.trace(r)) / m
    q_n = q / s
    r_n = r / s

    br = b @ np.linalg.solve(r_n, b.T)
    ham = np.block([[a, -br], [-q_n, -a.T]])
    eigvals, eigvecs = np.linalg.eig(ham)
    stable = eigvals.real < 0.0
    if int(np.sum(stable)) != n:
        raise UnstabilizableError(
            f"Hamiltonian has {int(np.sum(stable))} stable eigenvalues, need {n}; "
            "the pair is not stabilizable/detectable")
    basis = eigvecs[:, stable]
    x1 = basis[:n, :]
    x2 = basis[n:, :]
    if np.linalg.cond(x1) > 1e12:
        raise UnstabilizableError("stable invariant subspace is degenerate")
    # P = Re(X2 X1^-1); imaginary parts cancel for a genuine stabilizing subspace
    p = np.real(np.linalg.solve(x1.T, x2.T).T)
    p = 0.5 * (p + p.T)

    # Kleinman polish: Newton steps on the ARE, each one a Lyapunov solve.
    r_inv_bt = np.linalg.solve(r_n, b.T)
    for _ in range(ARE_MAX_REFINE):
        k = r_inv_bt @ p
        a_c = a - b @ k
        if np.max(np.linalg.eigvals(a_c).real) >= 0.0:
            raise UnstabilizableError("refinement left the stabilizing branch")
        p_next = _lyapunov(a_c, q_n + k.T @ r_n @ k)
        step = np.linalg.norm(p_next - p)
        p = p_next
        if step < 1e-13 * max(1.0, np.linalg.norm(p)):
            break
    k = r_inv_bt @ p
    p = s * p
    scale = max(1.0, float(np.linalg.norm(p)))
    resid = riccati_residual(a, b, q, r, p)
    if resid > ARE_TOL * scale:
        raise RiccatiConvergenceError(
            f"Riccati residual {resid:.3e} above {ARE_TOL:.3e} * {scale:.3e}")
    # first-order forward-error certificate: |P - P_exact| <~ resid / sep.
    # Refuse problems whose conditioning eats the advertised accuracy instead
    # of returning a silently degraded solution.
    sep = _lyapunov_separation(a - b @ k)
    if resid > 1e-11 * scale * sep:
        raise RiccatiConvergenceError(
            f"cannot certify the solution error below 1e-11 * |P|: residual "
            f"{resid:.3e}, Lyapunov separation {sep:.3e}")

    if np.max(np.linalg.eigvals(a - b @ k).real) >= 0.0:
        raise UnstabilizableError("solution is not stabilizing")
    return LqrSolution(cost_matrix=p, gain=k,
                       value_weights=quadratic_value_weights(p))


def ideal_policy_weights(sol: LqrSolution) -> Matrix:
    """Weights W_u with u = -W_u^T x reproducing the LQR feedback."""
    return sol.gain.T.copy()
