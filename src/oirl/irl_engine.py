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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import LinearPlant, eval_dynamics
from .features import FeatureBasis
from .history import HistoryStack
from .rls import ConcurrentLearner, _norm

Matrix = np.ndarray
Vector = np.ndarray


def build_row_block(basis: FeatureBasis, dyn: LinearPlant, x: Vector,
                    u_hat: Vector, theta_hat: Matrix,
                    r1: float) -> tuple[Matrix, Vector]:
    """Regressor rows and offsets contributed by one (x, u_hat) sample.

    Returns (rows, offsets) with rows of shape (1 + m, P + L + m - 1) over the
    unknowns [W_V; W_Q; W_R minus its first entry] and offsets carrying the
    anchored r1 terms, so that rows @ W_true + offsets = 0 at exact data.
    """
    p, l, m = basis.value_dim, basis.reward_dim, basis.input_dim
    u_hat = np.asarray(u_hat, dtype=float)
    grad_v = basis.value_gradient(x)                       # (P, n)
    xdot = eval_dynamics(dyn, x, u_hat, theta_hat)
    u_sq = basis.control_squares(u_hat)
    rows = np.zeros((1 + m, p + l + m - 1))
    offsets = np.zeros(1 + m)
    rows[0, :p] = grad_v @ xdot
    rows[0, p:p + l] = basis.reward_features(x)
    rows[0, p + l:] = u_sq[1:]
    offsets[0] = r1 * u_sq[0]
    # stationarity rows: dV/dx * d(xdot)/du_j + 2 r_j u_j = 0 per channel
    g = grad_v @ dyn.input_jacobian(theta_hat)             # (P, m)
    for j in range(m):
        rows[1 + j, :p] = g[:, j]
        if j == 0:
            offsets[1] = 2.0 * r1 * u_hat[0]
        else:
            rows[1 + j, p + l + j - 1] = 2.0 * u_hat[j]
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

    # -- sample collection -----------------------------------------------------

    def draw_query_state(self) -> Vector:
        return self.rng.uniform(self.query_box[:, 0], self.query_box[:, 1])

    def _offer(self, x: Vector, u_hat: Vector, theta_hat: Matrix,
               generation: int, t: float) -> bool:
        rows, offsets = build_row_block(self.basis, self.dyn, x, u_hat,
                                        theta_hat, self.cfg.r1)
        if _norm(rows) < 1e-12:
            return False        # degenerate sample, cannot raise lambda_min
        return self.stack.try_insert(rows, -offsets, t, tag=generation)

    def generate_query(self, policy_weights: Matrix, theta_hat: Matrix,
                       generation: int, t: float) -> bool:
        """Draw x_i from the query box, evaluate the estimated policy, and
        bank its rows, built from theta_hat and tagged with its generation."""
        x_i = self.draw_query_state()
        u_hat = -(policy_weights.T @ self.basis.policy_features(x_i))
        return self._offer(x_i, u_hat, theta_hat, generation, t)

    def collect_trajectory_sample(self, x: Vector, u: Vector, theta_hat: Matrix,
                                  generation: int, t: float) -> bool:
        """No-querying variant: bank rows built from an observed (x, u) pair."""
        return self._offer(np.asarray(x, dtype=float),
                           np.asarray(u, dtype=float), theta_hat, generation, t)

    # -- purging ---------------------------------------------------------------

    def schedule_purge(self, t: float, theta_generation: int) -> bool:
        """Purge the stack when stale rows exist AND at least the dwell time
        has passed since the last purge."""
        oldest = self.stack.oldest_tag()
        if (oldest is None or theta_generation <= oldest
                or t - self.last_purge < self.cfg.dwell):
            return False
        self.stack.clear()
        self.last_purge = t
        self.purge_times.append(t)
        return True
