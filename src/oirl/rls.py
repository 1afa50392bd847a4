"""Concurrent learning: the least-squares core shared by all estimators.

Each estimator banks rows in a history stack so that rows @ W ~= target. Its
weights W and gain Gamma follow the concurrent-learning laws on the stack's
normal matrix S and cross matrix C, W_dot = alpha Gamma (C - S W) and
Gamma_dot = beta Gamma - alpha Gamma S Gamma. In information form,
H = Gamma^-1, they are least squares with exponential forgetting, and
H_dot = -beta H + alpha S is linear. So with S and C held the flow is exact
over any number of steps j of dt, H_j = a^j H_0 + (1 - a^j) (alpha / beta) S
and the same for Z = H W, with a = exp(-beta dt); W_j = solve(H_j, Z_j).
Once forgetting converges, H_j and Z_j repeat bit for bit from one row to
the next, so `advance` hands LAPACK (`eigvalsh_lo`, `solve`, the gufuncs
`history` binds) only the rows that differ from the row before in some bit,
and each other row takes the result of the row before it: equal input bits
give equal output bits.
It takes a stage's spans, each with its own S and C, in chunks of rows
that run across span ends: a span starts from H on the row before it and
Z = H W, W solved on that row.
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

import bisect
import itertools
import math

import numpy as np

from .errors import DivergenceError
from .history import HistoryStack, eigvalsh_lo, solve

Matrix = np.ndarray

CHUNK = 256     # learner steps computed in one batch


def _norm(a: np.ndarray) -> float:
    """np.linalg.norm(a) for a real float array, without its dispatch."""
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


def row_norms(rows: np.ndarray) -> np.ndarray:
    """`_norm` of each rows[i], shape (len(rows),), as one array pass."""
    d = rows.reshape(len(rows), math.prod(rows.shape[1:]))
    return np.sqrt(np.vecdot(d, d))


def _fresh(a: np.ndarray) -> np.ndarray:
    """Whether each a[i] differs from a[i - 1] in any bit (a[0] always
    does): compared as int64, so 0.0 and -0.0 differ and equal NaNs match."""
    bits = a.reshape(len(a), math.prod(a.shape[1:])).view(np.int64)
    fresh = np.ones(len(a), dtype=bool)
    np.any(bits[1:] != bits[:-1], axis=1, out=fresh[1:])
    return fresh


def _per_fresh_row(f, fresh: np.ndarray, *arrays: np.ndarray) -> np.ndarray:
    """f of the arrays, a row-wise LAPACK gufunc, called on the `fresh` rows
    only; every other row repeats the one before it bit for bit, and so
    takes that row's result."""
    if fresh.all():
        return f(*arrays)
    return f(*(a[fresh] for a in arrays))[fresh.cumsum() - 1]


# the chain also runs on past rows that a reset or a clip drops, whose H may
# be singular and whose Z may overflow, so it is quiet
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _rows(a, cfg, r, n, begins, h0, z0, spans):
    """H and Z of rows r to r + n - 1, and the last piece's start: spans[p]
    holds from row begins[p], piece p's segment start, on. Piece 0 starts
    from (h0, z0), each later one from H on the row before and Z = H W.
    Z has the shape of the cross matrices, (k, n), as `solve` takes it."""
    cuts = [b - r for b in begins[1:]] + [n]       # where each piece ends
    # one array power: its bits do not depend on a power's place in it
    aj = a ** (np.arange(r + 1, r + n + 1) - np.repeat(begins, np.diff([0] + cuts)))
    bj = (1.0 - aj) * cfg.alpha / cfg.beta
    hs, zs = [], []
    for lo, hi, (_, s, c) in zip([0] + cuts, cuts, spans):
        if hs:
            h0 = hs[-1][-1]
            z0 = h0 @ solve(h0, zs[-1][-1])
        hs.append(np.multiply.outer(aj[lo:hi], h0) + np.multiply.outer(bj[lo:hi], s))
        zs.append(np.multiply.outer(aj[lo:hi], z0) + np.multiply.outer(bj[lo:hi], c))
    return np.concatenate(hs), np.concatenate(zs), h0, z0


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

    def advance(self, dt: float, spans):
        """Exact steps over `spans`, (steps, S, C) each in order; yields
        per chunk of at most CHUNK rows the weights and Gamma's (lambda_min,
        lambda_max) after each step. A row is the closed form from its
        span's first row, or from the row after a reset or one that
        `_amend` changes, which ends its chunk: the chunking changes no
        bit. Non-finite weights or eigenvalues raise DivergenceError at the
        first row that would be kept, after the rows before it."""
        cfg = self.cfg
        spans = [span for span in spans if span[0]]
        ends = list(itertools.accumulate((n for n, _, _ in spans), initial=0))
        a = math.exp(-cfg.beta * dt)
        r, restart, size = 0, 0, CHUNK  # next row, latest restart, chunk rows
        while r < ends[-1]:     # spans[i] holds rows ends[i] to ends[i + 1] - 1
            i = bisect.bisect_right(ends, r) - 1
            begin = max(restart, ends[i])       # row r's segment starts there
            if begin == r:
                h0 = self.information
                z0 = h0 @ self.weights.reshape(len(h0), -1)
            n = min(size, ends[-1] - r)
            q = bisect.bisect_left(ends, r + n) - 1     # the last row's span
            h, z, h0, z0 = _rows(a, cfg, r, n, [begin] + ends[i + 1:q + 1], h0,
                                 z0, spans[i:q + 1])
            finite = np.isfinite(h).all(axis=(1, 2))
            rows = n if finite.all() else int(finite.argmin())
            fresh = _fresh(h[:rows])
            eigs = _per_fresh_row(eigvalsh_lo, fresh, h[:rows])
            sound = np.isfinite(eigs).all(axis=1)
            # a product that overflows to inf compares as the exact one
            with np.errstate(over="ignore"):
                inside = (sound & (eigs[:, 0] * cfg.gamma_ceiling > 1.0)
                          & (eigs[:, -1] * cfg.gamma_floor < 1.0))
            stop = rows if inside.all() else int(inside.argmin())
            fresh = fresh[:stop]
            if not fresh.all():     # a row repeats if its H and its Z both do
                fresh = fresh | _fresh(z[:stop])
            w = _per_fresh_row(solve, fresh, h[:stop], z[:stop]).reshape(
                (stop,) + self.weights.shape)
            finite = np.isfinite(w).all(axis=tuple(range(1, w.ndim)))
            good = stop if finite.all() else int(finite.argmin())
            amended = self._amend(w[:good])
            take = min(amended + 1, good)
            gamma = 1.0 / eigs[:take, [-1, 0]]
            # row `stop` resets H and keeps W, unless its eigenvalues diverged
            self.last_gain_reset = reset = bool(
                take == stop < n and (stop == rows or sound[stop]))
            if take:
                self.weights, self.information = w[take - 1], h[take - 1]
                self.gamma_eig_range = tuple(gamma[-1].tolist())
            if reset:
                self.gain_resets += 1
                self.information = np.eye(self.stack.row_dim) / cfg.gamma0
                self.gamma_eig_range = (cfg.gamma0, cfg.gamma0)
                w = np.concatenate([w[:take], self.weights[None]])
                gamma = np.concatenate([gamma, [self.gamma_eig_range]])
                take += 1
            if take:
                yield w[:take], gamma
            r += take
            if reset or amended < good:
                restart = r
            elif take < n:
                raise DivergenceError(
                    f"{type(self).__name__} weight update went non-finite"
                    if good < stop else "symmetric eigenvalues went non-finite")
            size = min(CHUNK, 2 * take)     # a cut drops rows LAPACK took

    def _amend(self, w: Matrix) -> int:
        """The index of the first of the consecutive weight rows w that an
        owner projecting its weights amends, in place, or len(w) if none
        needs it; the rows after it are dropped."""
        return len(w)
