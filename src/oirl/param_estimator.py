"""Drift-parameter estimation via integral concurrent learning.

The unknown theta (p x n) enters the plant as xdot = f0(x,u) + theta^T
sigma(x,u). Integrating over a sliding window [t - window, t] gives

    x(t) - x(t - window) - int f0 dt  =  theta^T int sigma dt

so each window yields a linear regressor/target pair without differentiating
state measurements. Pairs are banked in a history stack and theta_hat follows
the `rls.ConcurrentLearner` law with forgetting, projected onto a known box.

Each window integral is the trapezoid rule over the window's samples, the
control held over each subinterval (zero-order hold). `window_pairs` takes
the terms of every subinterval at once and sums each window's terms left to
right with `np.add.accumulate`, so a pair is bit for bit the sum of a plain
loop over the samples; `np.sum` (pairwise) or a running add/subtract sum
would round differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import LinearPlant, matvec
from .history import HistoryStack, clip
from .rls import CHUNK, ConcurrentLearner, row_norms

Matrix = np.ndarray
Vector = np.ndarray

WINDOWS_PER_PASS = 64


def window_pairs(dyn: LinearPlant, times, states, controls, ends,
                 length: int) -> tuple[Matrix, Matrix]:
    """(Y, b) of each window of `length` subintervals that ends at a sample
    index in `ends`, stacked: Y = int sigma dt (p,) and
    b = x(end) - x(start) - int f0 dt (n,), with f0 = A0 x + B0 u evaluated
    as `eval_dynamics` does. WINDOWS_PER_PASS windows at a time are summed,
    from the terms of their own samples."""
    if length < 1:
        raise ValueError("integration window needs at least 2 samples")
    if not len(ends):
        return np.zeros((0, dyn.param_dim)), np.zeros((0, dyn.state_dim))
    if len(ends) > WINDOWS_PER_PASS:
        return tuple(map(np.concatenate, zip(*(
            window_pairs(dyn, times, states, controls, ends[i:i + WINDOWS_PER_PASS],
                         length) for i in range(0, len(ends), WINDOWS_PER_PASS)))))
    ends = np.asarray(ends, dtype=int)
    lo = int(ends.min()) - length
    t, x, u = (np.asarray(a, dtype=float)[lo:ends.max() + 1]
               for a in (times, states, controls))
    half = (0.5 * (t[1:] - t[:-1]))[:, None]
    # A0 x and B0 u as one matrix-vector product per sample
    a0x, b0u = matvec(dyn.a0, x), matvec(dyn.b0, u[:-1])
    # (int sigma, int f0) per subinterval, with u held at its left sample
    sigma = np.concatenate([x[:-1] + x[1:], u[:-1] + u[:-1]], axis=1)
    terms = np.concatenate([half * sigma, half * ((a0x[:-1] + b0u) + (a0x[1:] + b0u))],
                           axis=1)
    windows = sliding_window_view(terms, length, axis=0)[ends - length - lo]
    sums = np.add.accumulate(windows, axis=-1)[:, :, -1]
    p = dyn.param_dim
    return sums[:, :p], (x[ends - lo] - x[ends - length - lo]) - sums[:, p:]


@dataclass(frozen=True)
class ThetaEstimatorConfig:
    """The `theta_estimator` config group."""
    alpha: float = 1.0
    beta: float = 2.0
    stack_size: int = 50
    window: float = 0.25
    offer_period: float = 0.05
    gamma0: float = 1.0
    box: tuple = (-2.0, 2.0)
    revision_threshold: float = 0.05
    gamma_floor: float = 1e-9
    gamma_ceiling: float = 1e7


class ThetaEstimator(ConcurrentLearner):
    """Windowed-integral concurrent-learning estimator for theta.

    `generation` counts significant estimate revisions: it increments whenever
    theta_hat has drifted more than `revision_threshold` (Frobenius) from the
    estimate at the previous increment. Downstream consumers use it to decide
    when rows built from older estimates have gone stale.
    """

    def __init__(self, dyn: LinearPlant, cfg: ThetaEstimatorConfig):
        p, n = dyn.param_dim, dyn.state_dim
        self.dyn = dyn
        lo, hi = cfg.box
        if not lo < hi:
            raise ValueError("projection box must have lo < hi")
        center = np.full((p, n), 0.5 * (lo + hi))
        super().__init__(
            cfg, HistoryStack(cfg.stack_size, row_dim=p, block_rows=1, target_dim=n),
            center)
        self.generation = 0
        self._anchor = self.weights.copy()

    @property
    def theta_hat(self) -> Matrix:
        """The current estimate; the learner's weights, read-only by name."""
        return self.weights

    def _amend(self, w: Matrix) -> int:
        """Clip the first row that leaves the box, and return its index."""
        lo, hi = self.cfg.box
        out = ((w < lo) | (w > hi)).any(axis=(1, 2))
        if not out.any():
            return len(w)
        i = int(out.argmax())
        clip(w[i], lo, hi, out=w[i])
        return i

    def revise(self, w: np.ndarray) -> np.ndarray:
        """The generation after each of the consecutive estimates w: one
        more at each that has drifted over `revision_threshold` from the
        one at the previous revision. Each pass tests at most CHUNK rows, so
        a long w costs no more than the same rows in CHUNK-row calls."""
        gens, i = np.empty(len(w), dtype=int), 0
        while i < len(w):
            moved = (row_norms(w[i:i + CHUNK] - self._anchor)
                     > self.cfg.revision_threshold)
            j = i + (int(moved.argmax()) if moved.any() else len(moved))
            gens[i:j] = self.generation
            if j < i + len(moved):      # row j is a revision
                self.generation += 1
                self._anchor = w[j].copy()
                gens[j] = self.generation
                j += 1
            i = j
        return gens
