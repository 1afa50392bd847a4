"""Concurrent learning: the least-squares core shared by all estimators.

Each estimator banks rows in a history stack so that rows @ W ~= target, and
steps its weights W and gain Gamma by forward Euler on the stack's normal
matrix S and cross matrix C:

    W_dot     = alpha * Gamma @ (C - S @ W)
    Gamma_dot = beta * Gamma - alpha * Gamma @ S @ Gamma

The gain step symmetrizes Gamma and resets it to Gamma0 when an eigenvalue
leaves [floor, ceiling], since forgetting grows Gamma exponentially whenever
the stack carries no excitation. The policy (u = -W^T sigma) banks -u and the
reward rows (rows @ W + offsets = 0) bank -offsets to fit the convention;
negation is exact, so their cross matrices are bit for bit the negated ones.

`_norm` is the Frobenius/2-norm every estimator uses on the step path. It
computes exactly what `np.linalg.norm(a)` computes for a real array with
ord=None, sqrt(v . v) on v = a.ravel(order="K"), so results are
bit-identical; it only skips that function's argument dispatch, which
dominates the cost on arrays of a few entries. `row_norms` takes it of every
row of a table in one pass, bit for bit: `np.vecdot` and `ndarray.dot` run
the same BLAS dot on each row.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError
from .history import HistoryStack, all_finite, eigvalsh

Matrix = np.ndarray


def _norm(a: np.ndarray) -> float:
    """np.linalg.norm(a) for a real float array, without its dispatch."""
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


def row_norms(rows: np.ndarray) -> np.ndarray:
    """`_norm` of each rows[i], shape (len(rows),), as one array pass."""
    d = rows.reshape(len(rows), -1)
    return np.sqrt(np.vecdot(d, d))


def gain_step(gamma: Matrix, normal: Matrix, alpha: float, beta: float,
              dt: float, floor: float, ceiling: float,
              gamma0: Matrix) -> tuple[Matrix, bool, float, float]:
    """One Euler step of the gain law.

    Returns (gamma_next, reset, lambda_min, lambda_max). `reset` is True when
    the step left [floor, ceiling] or went non-finite and gamma was restored
    to gamma0 (a recoverable gain-reset event, to be surfaced by the caller).
    """
    g = gamma + dt * (beta * gamma - alpha * (gamma @ normal @ gamma))
    v = g.ravel(order="K")
    square_sum = v.dot(v)       # _norm(g) squared; finite only if g is
    if math.isfinite(square_sum) or np.isfinite(v).all():
        asym = _norm(g - g.T)
        if asym > 1e-10 * max(1.0, math.sqrt(square_sum)):
            raise RuntimeError(f"gain matrix lost symmetry (drift {asym:.3e})")
        g = 0.5 * (g + g.T)
        eigs = eigvalsh(g)
        lam_min, lam_max = float(eigs[0]), float(eigs[-1])
        if lam_min > floor and lam_max < ceiling:
            return g, False, lam_min, lam_max
    g = gamma0.copy()
    eigs = eigvalsh(g)
    return g, True, float(eigs[0]), float(eigs[-1])


class ConcurrentLearner:
    """Weights W and gain Gamma driven by a history stack of rows @ W ~= target.

    `cfg` is the owner's config group; the learner reads its `alpha`, `beta`,
    `gamma0`, `gamma_floor` and `gamma_ceiling`. `gain_resets` counts gain
    resets, `last_gain_reset` flags one on the latest step and
    `gamma_eig_range` is Gamma's (lambda_min, lambda_max) after it.
    """

    def __init__(self, cfg, stack: HistoryStack, weights: Matrix):
        self.cfg = cfg
        self.stack = stack
        self.weights = weights
        self._gamma0 = cfg.gamma0 * np.eye(stack.row_dim)
        self.gamma = self._gamma0.copy()
        self.gain_resets = 0
        self.last_gain_reset = False
        self.gamma_eig_range = (cfg.gamma0, cfg.gamma0)

    def update(self, dt: float) -> None:
        """One Euler step of the weight law, then one of the gain law."""
        cfg = self.cfg
        s = self.stack.normal_matrix()
        c = self.stack.cross_matrix().reshape(self.weights.shape)
        w = self.weights + dt * cfg.alpha * (self.gamma @ (c - s @ self.weights))
        if not all_finite(w):
            raise DivergenceError(
                f"{type(self).__name__} weight update went non-finite")
        self.weights = w
        self.gamma, reset, lam_lo, lam_hi = gain_step(
            self.gamma, s, cfg.alpha, cfg.beta, dt,
            cfg.gamma_floor, cfg.gamma_ceiling, self._gamma0)
        self.last_gain_reset = reset
        if reset:
            self.gain_resets += 1
        self.gamma_eig_range = (lam_lo, lam_hi)
