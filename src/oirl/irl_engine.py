"""Reward and value recovery from an estimated policy, via inverse Bellman
residuals over queried state-action pairs.

For a reward r(x, u) = W_Q^T sigma_Q(x) + u^T R u with R diagonal and a value
function V(x) = W_V^T sigma_V(x), where sigma_V are the quadratic monomials of
the state and sigma_Q its squares or the same monomials (`FeatureBasis`),
optimal behavior makes two residuals vanish:

  Bellman:       W_V^T grad(sigma_V)(x) xdot + W_Q^T sigma_Q(x) + W_R^T (u*u) = 0
  stationarity:  grad(sigma_V)(x)^T W_V paired against each input channel,
                 2 r_j u_j + (dV/dx) (d xdot / d u_j) = 0

Each sampled pair (x_i, u_i) therefore contributes 1 + m linear rows in the
unknown weights. The reward is only identifiable up to scale, so the first
control penalty r_1 is fixed by convention and moves to the row offsets.
Rows are built from a drift-parameter estimate theta_hat, banked in a history
stack tagged with that estimate's generation, and purged when fresher
estimates make old rows stale. The stack holds -offsets as targets, so that
rows @ W ~= target as `rls.ConcurrentLearner` expects.

Neither a query nor a row block reads the stack, so a run builds all of a
lane's queries and row blocks as arrays before it offers them: `queries`
draws every query state at once, the same doubles and generator state as
one draw per query, and `build_row_block` builds the rows of N samples,
each bit for bit its rows from a one-sample call. Only the purges and the
stack's admission read the stack, and a run visits only the steps at which
either changes it (`harness._walk`): the purge rule, once true, stays true
until the stack changes, so `next_purge` finds the next purge by bisection,
and `purge` makes it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .dynamics import LinearPlant, eval_dynamics, matvec
from .features import FeatureBasis
from .history import HistoryStack
from .rls import ConcurrentLearner

Matrix = np.ndarray
Vector = np.ndarray


def build_row_block(basis: FeatureBasis, dyn: LinearPlant, x: Matrix,
                    u: Matrix, theta: Matrix, r1: float) -> tuple[Matrix, Matrix]:
    """Regressor rows and offsets of N samples (x_i, u_i): states x (N, n),
    inputs u (N, m) and the drift estimate each sample's rows are built from,
    theta (N, n + m, n), or one (n + m, n) for all.

    Returns rows of shape (N, 1 + m, P + L + m - 1) over the unknowns
    [W_V; W_Q; W_R minus its first entry] and offsets (N, 1 + m) carrying the
    anchored r1 terms, so that rows[i] @ W_true + offsets[i] = 0 at exact
    data. Each product is a stacked matmul, so sample i gets the bits that a
    call with it alone gives.
    """
    p, l, m = basis.value_dim, basis.reward_dim, basis.input_dim
    grad_v = basis.value_gradient(x)                       # (N, P, n)
    u_sq = basis.control_squares(u)
    rows = np.zeros((len(x), 1 + m, p + l + m - 1))
    offsets = np.zeros((len(x), 1 + m))
    rows[:, 0, :p] = matvec(grad_v, eval_dynamics(dyn, x, u, theta))
    rows[:, 0, p:p + l] = basis.reward_features(x)
    rows[:, 0, p + l:] = u_sq[:, 1:]
    offsets[:, 0] = r1 * u_sq[:, 0]
    # stationarity rows: dV/dx * d(xdot)/du_j + 2 r_j u_j = 0 per channel
    rows[:, 1:, :p] = np.swapaxes(grad_v @ dyn.input_jacobian(theta), 1, 2)
    offsets[:, 1] = 2.0 * r1 * u[:, 0]
    j = np.arange(1, m)
    rows[:, 1 + j, p + l + j - 1] = 2.0 * u[:, 1:]
    return rows, offsets


@dataclass(frozen=True)
class IrlConfig:
    """The `irl` config group. The default `query_box` is the unit box of a
    2-state plant; any other state count must give its own."""
    alpha: float = 0.01 / 50
    beta: float = 0.5
    stack_size: int = 50
    r1: float = 10.0
    dwell: float = 2.0
    query_box: tuple = ((-1.0, 1.0), (-1.0, 1.0))
    query_period: float = 0.05
    gamma0: float = 1.0
    gamma_floor: float = 1e-9
    gamma_ceiling: float = 1e7


class RewardEstimator(ConcurrentLearner):
    """Concurrent-learning estimator over the queried-sample stack.

    The weight vector has length P + L + m - 1, partitioned as value weights,
    state-reward weights, and the diagonal control penalties beyond the
    anchored r1.
    """

    def __init__(self, basis: FeatureBasis, dyn: LinearPlant, cfg: IrlConfig,
                 query_seed: int):
        if cfg.r1 <= 0.0:
            raise ValueError("the scale anchor r1 must be positive")
        if cfg.dwell <= 0.0:
            raise ValueError("the purge dwell must be positive")
        self.basis = basis
        self.dyn = dyn
        n, m = dyn.state_dim, basis.input_dim
        self.query_box = np.asarray(cfg.query_box, dtype=float).reshape(n, 2)
        self.rng = np.random.default_rng(query_seed)
        self.dim = basis.value_dim + basis.reward_dim + m - 1
        super().__init__(
            cfg, HistoryStack(cfg.stack_size, row_dim=self.dim, block_rows=1 + m,
                              target_dim=1),
            np.zeros(self.dim))
        self.last_purge = 0.0
        self.purge_times: list[float] = []

    # -- weight partitions ----------------------------------------------------

    @property
    def value_weights(self) -> Vector:
        return self.weights[:self.basis.value_dim].copy()

    @property
    def reward_weights(self) -> Vector:
        p = self.basis.value_dim
        return self.weights[p:p + self.basis.reward_dim].copy()

    @property
    def control_weights_rest(self) -> Vector:
        return self.weights[self.basis.value_dim + self.basis.reward_dim:].copy()

    # -- samples -------------------------------------------------------------

    def queries(self, policy_weights: Matrix) -> tuple[Matrix, Matrix]:
        """One query per policy estimate W_u in policy_weights (N, K, m):
        (x, u_hat) with x (N, n) drawn uniformly from the query box in one
        draw, the same doubles and generator state as N draws of one state,
        and u_hat = -W_u^T x (N, m), the estimated policy at each."""
        x = self.rng.uniform(self.query_box[:, 0], self.query_box[:, 1],
                             size=(len(policy_weights), len(self.query_box)))
        return x, -matvec(np.swapaxes(policy_weights, 1, 2), x)

    def row_blocks(self, x: Matrix, u: Matrix,
                   theta: Matrix) -> tuple[Matrix, Matrix]:
        """The row blocks of N samples and the stack's targets for them,
        (rows, -offsets), from `build_row_block`."""
        rows, offsets = build_row_block(self.basis, self.dyn, x, u, theta,
                                        self.cfg.r1)
        return rows, -offsets

    # -- purging ---------------------------------------------------------------

    def purge(self, t: float) -> None:
        """Empty the stack at time t, and record the purge."""
        self.stack.clear()
        self.last_purge = t
        self.purge_times.append(t)

    def next_purge(self, clock: list, generations: np.ndarray, start: int) -> int:
        """The first step k >= start at which the purge rule holds for the
        stack as it stands, or len(generations) if none: a stored row is
        stale (generations[k] > its tag) and not clock[k] - last_purge <
        dwell. Neither the clock nor the generations fall, so each half of
        the rule holds from its first step on."""
        oldest = self.stack.oldest_tag()
        if oldest is None:
            return len(generations)
        stale = int(np.searchsorted(generations, oldest, side="right"))
        dwelt = bisect.bisect_left(
            clock, True, start, len(generations),
            key=lambda t: not (t - self.last_purge < self.cfg.dwell))
        return max(start, stale, dwelt)
