"""Drift-parameter estimation via integral concurrent learning.

The unknown theta (p x n) enters the plant as xdot = f0(x,u) + theta^T
sigma(x,u). Integrating over a sliding window [t - window, t] gives

    x(t) - x(t - window) - int f0 dt  =  theta^T int sigma dt

so each window yields a linear regressor/target pair without differentiating
state measurements. Pairs are banked in a history stack and theta_hat follows
the `rls.ConcurrentLearner` law with forgetting, projected onto a known box.

The window integral is a left-to-right sum of per-subinterval trapezoid
terms. The estimator computes each subinterval's terms once, when its right
sample arrives, and keeps them alongside the buffered samples; an offer sums
the cached terms in the same order `accumulate_window` does, so the banked
pair is bit-identical to re-integrating the window. A running add/subtract
sum would be O(1) per offer too, but it rounds differently and drifts. Each
buffered sample also keeps its A0 x and B0 u, so the nominal model
f0 = A0 x + B0 u on the two subintervals it bounds sums cached products,
the same floating-point operations as `LinearPlant.nominal`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy._core.umath import clip   # the ufunc np.clip ends in, undispatched

from .dynamics import LinearPlant
from .history import HistoryStack
from .rls import ConcurrentLearner, _norm

Matrix = np.ndarray
Vector = np.ndarray


def _trapezoid(h, sigma_a, sigma_b, f0_a, f0_b) -> tuple[Vector, Vector]:
    """Trapezoid terms (int sigma, int f0) over a subinterval of length h."""
    return 0.5 * h * (sigma_a + sigma_b), 0.5 * h * (f0_a + f0_b)


def _window_pair(terms, x_start, x_end) -> tuple[Vector, Vector]:
    """(Y, b) from a window's interval terms, summed left to right."""
    if not terms:
        raise ValueError("integration window needs at least 2 samples")
    pairs = iter(terms)
    y, f_int = next(pairs)
    for sig, nom in pairs:
        y = y + sig
        f_int = f_int + nom
    b = np.asarray(x_end, dtype=float) - np.asarray(x_start, dtype=float) - f_int
    return y, b


def accumulate_window(nominal, features, times, states, controls) -> tuple[Vector, Vector]:
    """Trapezoidal window integrals for one regressor/target pair.

    times/states/controls are aligned samples spanning the window; the
    control is treated as held over each subinterval (zero-order hold).
    Returns (Y, b) with Y = int sigma dt (p,) and
    b = x(end) - x(start) - int f0 dt (n,).
    """
    times = np.asarray(times, dtype=float)
    terms = [_trapezoid(times[i + 1] - times[i],
                        features(states[i], controls[i]),
                        features(states[i + 1], controls[i]),
                        nominal(states[i], controls[i]),
                        nominal(states[i + 1], controls[i]))
             for i in range(times.shape[0] - 1)]
    return _window_pair(terms, states[0], states[-1])


@dataclass(frozen=True)
class ThetaSnapshot:
    """Immutable (theta_hat, generation) handoff for the other estimators."""
    theta_hat: Matrix
    generation: int


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
        self._buffer: deque = deque()
        self._terms: deque = deque()
        self._last_offer = -np.inf

    @property
    def theta_hat(self) -> Matrix:
        """The current estimate; the learner's weights, read-only by name."""
        return self.weights

    def snapshot(self) -> ThetaSnapshot:
        return ThetaSnapshot(self.weights.copy(), self.generation)

    def observe(self, t: float, x: Vector, u: Vector) -> bool:
        """Buffer one sample; offer a window pair to the stack when due.

        Returns whether the stack changed. Zero-signal windows are never
        offered since they cannot raise the stack's rank metric.
        """
        dyn = self.dyn
        x = np.array(x, dtype=float)
        u = np.array(u, dtype=float)
        # (t, x, u, A0 x, B0 u); f0(x_b, u_a) = A0 x_b + B0 u_a as in nominal()
        sample = (float(t), x, u, dyn.a0 @ x, dyn.b0 @ u)
        if self._buffer:
            t_a, x_a, u_a, a0x_a, b0u_a = self._buffer[-1]
            # _terms[i] covers [_buffer[i], _buffer[i + 1]], u held at u_a
            self._terms.append(_trapezoid(
                sample[0] - t_a, dyn.features(x_a, u_a), dyn.features(x, u_a),
                a0x_a + b0u_a, sample[3] + b0u_a))
        self._buffer.append(sample)
        while self._buffer[0][0] < t - self.cfg.window - 1e-9:
            self._buffer.popleft()
            self._terms.popleft()
        spans = self._buffer[0][0] <= t - self.cfg.window + 1e-9
        if not spans or t - self._last_offer < self.cfg.offer_period - 1e-9:
            return False
        y, b = _window_pair(self._terms, self._buffer[0][1], x)
        self._last_offer = t
        if _norm(y) < 1e-12:
            return False
        return self.stack.try_insert(y, b, t, tag=self.generation)

    def update(self, dt: float) -> None:
        """One learner step, then the box projection and generation logic."""
        super().update(dt)
        clip(self.weights, *self.cfg.box, out=self.weights)
        if _norm(self.weights - self._anchor) > self.cfg.revision_threshold:
            self.generation += 1
            self._anchor = self.weights.copy()
