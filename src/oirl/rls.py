"""Least-squares gain dynamics with forgetting, shared by all estimators.

Each estimator evolves a gain matrix Gamma by

    Gamma_dot = beta * Gamma - alpha * Gamma @ Normal @ Gamma

where Normal is the history stack's normal matrix. Forward Euler at the
simulation step, with symmetrization and an eigenvalue floor/ceiling reset
guard, since the forgetting term grows Gamma exponentially whenever the
stack carries no excitation.

`_norm` is the Frobenius/2-norm every estimator and the metrics record use on
the step path. It computes exactly what `np.linalg.norm(a)` computes for a
real array with ord=None, sqrt(v . v) on v = a.ravel(order="K"), so results
are bit-identical; it only skips that function's argument dispatch, which
dominates the cost on arrays of a few entries.
"""

from __future__ import annotations

import math

import numpy as np

Matrix = np.ndarray


def _norm(a: np.ndarray) -> float:
    """np.linalg.norm(a) for a real float array, without its dispatch."""
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


def gain_step(gamma: Matrix, normal: Matrix, alpha: float, beta: float,
              dt: float, floor: float, ceiling: float,
              gamma0: Matrix) -> tuple[Matrix, bool, float, float]:
    """One Euler step of the gain law.

    Returns (gamma_next, reset, lambda_min, lambda_max). `reset` is True when
    the step left [floor, ceiling] or went non-finite and gamma was restored
    to gamma0 (a recoverable gain-reset event, to be surfaced by the caller).
    """
    g = gamma + dt * (beta * gamma - alpha * (gamma @ normal @ gamma))
    if np.isfinite(g).all():
        asym = _norm(g - g.T)
        if asym > 1e-10 * max(1.0, _norm(g)):
            raise RuntimeError(f"gain matrix lost symmetry (drift {asym:.3e})")
        g = 0.5 * (g + g.T)
        eigs = np.linalg.eigvalsh(g)
        lam_min, lam_max = float(eigs[0]), float(eigs[-1])
        if lam_min > floor and lam_max < ceiling:
            return g, False, lam_min, lam_max
    g = gamma0.copy()
    eigs = np.linalg.eigvalsh(g)
    return g, True, float(eigs[0]), float(eigs[-1])
