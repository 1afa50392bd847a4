"""Concurrent learning: the least-squares core shared by all estimators.

Each estimator banks rows in a history stack so that rows @ W ~= target. Its
weights W and gain Gamma follow the concurrent-learning laws on the stack's
normal matrix S and cross matrix C, W_dot = alpha Gamma (C - S W) and
Gamma_dot = beta Gamma - alpha Gamma S Gamma. In information form,
H = Gamma^-1, they are least squares with exponential forgetting, and
H_dot = -beta H + alpha S is linear. So with S and C held over a step of dt
the learner takes the exact flow, H+ = a H + b S and
W+ = solve(H+, a H W + b C) with a = exp(-beta dt), b = (1 - a) alpha / beta.
It keeps (W, H), and resets H to I / gamma0, keeping W, when H goes
non-finite or an eigenvalue leaves (1 / gamma_ceiling, 1 / gamma_floor):
forgetting shrinks H along every direction the stack does not excite. The
policy (u = -W^T sigma) banks -u and the reward rows (rows @ W + offsets = 0)
bank -offsets to fit the convention; negation is exact, so their cross
matrices are bit for bit the negated ones.

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
from numpy.linalg import _umath_linalg

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


class ConcurrentLearner:
    """Weights W and information matrix H = Gamma^-1 driven by a history
    stack of rows @ W ~= target.

    `cfg` is the owner's config group; the learner reads its `alpha`, `beta`,
    `gamma0`, `gamma_floor` and `gamma_ceiling`. `gain_resets` counts resets
    of H, `last_gain_reset` flags one on the latest step and
    `gamma_eig_range` is Gamma's (lambda_min, lambda_max) after it, that is
    (1 / lambda_max(H), 1 / lambda_min(H)).
    """

    def __init__(self, cfg, stack: HistoryStack, weights: Matrix):
        self.cfg = cfg
        self.stack = stack
        self.weights = weights
        self.information = np.eye(stack.row_dim) / cfg.gamma0
        self.gain_resets = 0
        self.last_gain_reset = False
        self.gamma_eig_range = (cfg.gamma0, cfg.gamma0)

    def update(self, dt: float) -> None:
        """One exact step of the laws, with the stack's S and C held."""
        cfg = self.cfg
        a = math.exp(-cfg.beta * dt)
        b = (1.0 - a) * cfg.alpha / cfg.beta
        h = self.information
        h_next = a * h + b * self.stack.normal_matrix()
        if all_finite(h_next):
            eigs = eigvalsh(h_next)
            lam_lo, lam_hi = float(eigs[0]), float(eigs[-1])
            reset = not (lam_lo * cfg.gamma_ceiling > 1.0
                         and lam_hi * cfg.gamma_floor < 1.0)
        else:
            reset = True
        self.last_gain_reset = reset
        if reset:
            self.gain_resets += 1
            self.information = np.eye(self.stack.row_dim) / cfg.gamma0
            self.gamma_eig_range = (cfg.gamma0, cfg.gamma0)
            return
        w = self.weights
        rhs = a * (h @ w) + b * self.stack.cross_matrix().reshape(w.shape)
        solve = _umath_linalg.solve1 if w.ndim == 1 else _umath_linalg.solve
        w = solve(h_next, rhs, signature="dd->d")
        if not all_finite(w):
            raise DivergenceError(
                f"{type(self).__name__} weight update went non-finite")
        self.weights = w
        self.information = h_next
        self.gamma_eig_range = (1.0 / lam_hi, 1.0 / lam_lo)
