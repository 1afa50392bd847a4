"""Concurrent learning: the least-squares core shared by all estimators.

Each estimator banks rows in a history stack so that rows @ W ~= target. Its
weights W and gain Gamma follow the concurrent-learning laws on the stack's
normal matrix S and cross matrix C, W_dot = alpha Gamma (C - S W) and
Gamma_dot = beta Gamma - alpha Gamma S Gamma. In information form,
H = Gamma^-1, they are least squares with exponential forgetting, and
H_dot = -beta H + alpha S is linear. So with S and C held the flow is exact
over any number of steps j of dt, H_j = a^j H_0 + (1 - a^j) (alpha / beta) S
and the same for Z = H W, with a = exp(-beta dt); W_j = solve(H_j, Z_j).
The learner keeps (W, H), and resets H to I / gamma0, keeping W, when H goes
non-finite or an eigenvalue leaves (1 / gamma_ceiling, 1 / gamma_floor):
forgetting shrinks H along every direction the stack does not excite. The
policy (u = -W^T sigma) banks -u and the reward rows (rows @ W + offsets = 0)
bank -offsets to fit the convention; negation is exact, so their cross
matrices are bit for bit the negated ones.

`_norm` is the Frobenius/2-norm of one array, the per-sample reference
for `row_norms`. It computes exactly what `np.linalg.norm(a)` computes for a
real array with ord=None, sqrt(v . v) on v = a.ravel(order="K"), so results
are bit-identical; it only skips that function's argument dispatch, which
dominates the cost on arrays of a few entries. `row_norms` takes it of every
row of a table in one pass, bit for bit: `np.vecdot` and `ndarray.dot` run
the same BLAS dot on each row. The run takes its error norms with it, and
`harness._walk` its sums for the zero-signal test of every stack's offers.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DivergenceError
from .history import HistoryStack, eigvalsh

Matrix = np.ndarray

CHUNK = 256     # span steps computed in one batch


def _norm(a: np.ndarray) -> float:
    """np.linalg.norm(a) for a real float array, without its dispatch."""
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


def row_norms(rows: np.ndarray) -> np.ndarray:
    """`_norm` of each rows[i], shape (len(rows),), as one array pass."""
    d = rows.reshape(len(rows), math.prod(rows.shape[1:]))
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

    def advance(self, dt: float, steps: int, normal=None, cross=None):
        """Up to `steps` exact steps with S and C held (the stack's unless
        given), yielding (W, gamma) per chunk of at most CHUNK steps: the
        weights after each step, and Gamma's (lambda_min, lambda_max).

        Every row is the closed form from the state the call began in, so
        the chunking changes no bit. The call ends early after a step that
        resets H or whose weights `_amend` changes. A non-finite weight row
        raises DivergenceError, the rows before it yielded and kept.
        """
        cfg = self.cfg
        s = self.stack.normal_matrix() if normal is None else normal
        c = self.stack.cross_matrix() if cross is None else cross
        a = math.exp(-cfg.beta * dt)
        h0, w0 = self.information, self.weights
        z0, c = h0 @ w0, c.reshape(w0.shape)
        solve = _umath_linalg.solve1 if w0.ndim == 1 else _umath_linalg.solve
        for start in range(0, steps, CHUNK):
            aj = a ** np.arange(start + 1, min(start + CHUNK, steps) + 1)
            bj = (1.0 - aj) * cfg.alpha / cfg.beta
            h = np.multiply.outer(aj, h0) + np.multiply.outer(bj, s)
            finite = np.isfinite(h).all(axis=(1, 2))
            rows = len(aj) if finite.all() else int(finite.argmin())
            eigs = eigvalsh(h[:rows])
            inside = ((eigs[:, 0] * cfg.gamma_ceiling > 1.0)
                      & (eigs[:, -1] * cfg.gamma_floor < 1.0))
            rows = rows if inside.all() else int(inside.argmin())
            z = np.multiply.outer(aj[:rows], z0) + np.multiply.outer(bj[:rows], c)
            w = solve(h[:rows], z, signature="dd->d")
            finite = np.isfinite(w).all(axis=tuple(range(1, w.ndim)))
            good = rows if finite.all() else int(finite.argmin())
            take = self._amend(w[:good])
            gamma = 1.0 / eigs[:take, [-1, 0]]
            self.last_gain_reset = reset = take == rows < len(aj)
            if take:
                self.weights, self.information = w[take - 1], h[take - 1]
                self.gamma_eig_range = tuple(gamma[-1].tolist())
            if reset:       # row `take` resets H and keeps W
                self.gain_resets += 1
                self.information = np.eye(self.stack.row_dim) / cfg.gamma0
                self.gamma_eig_range = (cfg.gamma0, cfg.gamma0)
                w = np.concatenate([w[:take], self.weights[None]])
                gamma = np.concatenate([gamma, [self.gamma_eig_range]])
                take += 1
            if take:
                yield w[:take], gamma
            if reset or take < good:
                return      # the caller starts a new span after the last row
            if good < rows:
                raise DivergenceError(
                    f"{type(self).__name__} weight update went non-finite")

    def _amend(self, w: Matrix) -> int:
        """How many of the consecutive weight rows w to keep: an owner that
        projects its weights amends, in place, the first row that needs it,
        and keeps the rows up to it."""
        return len(w)
