"""Shared exception types."""

from __future__ import annotations

import numpy as np


class ConfigError(ValueError):
    """Scenario configuration failed validation."""


class DimensionError(ValueError):
    """An array argument has the wrong shape for the object it was passed to."""


class DivergenceError(RuntimeError):
    """The closed loop went non-finite: the plant state after a step (the
    precomputed exact zero-order-hold RK4 step; `t` and `state` are set), an
    estimator's weights, or a step-path eigenvalue computation."""

    def __init__(self, message: str, t: float | None = None, state=None):
        super().__init__(message)
        self.t = t
        self.state = None if state is None else np.asarray(state)


class UnstabilizableError(ValueError):
    """The (A, B) pair admits no stabilizing solution."""


class RiccatiConvergenceError(RuntimeError):
    """Riccati refinement stalled above the residual tolerance."""
