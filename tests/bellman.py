"""The inverse Bellman residual of a full weight vector, shared by the IRL
engine tests and the acceptance gate as an independent check on the rows
`irl_engine.build_row_block` builds."""

import numpy as np

from oirl.dynamics import eval_dynamics


def inverse_bellman_error(basis, dyn, x, u, weights, theta_hat) -> float:
    """Bellman residual for a full weight vector [W_V; W_Q; W_R] (r_1 included)."""
    p, l, m = basis.value_dim, basis.reward_dim, basis.input_dim
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (p + l + m,):
        raise ValueError(f"weights must have length {p + l + m}, got {weights.shape}")
    w_v, w_q, w_r = weights[:p], weights[p:p + l], weights[p + l:]
    xdot = eval_dynamics(dyn, x, u, theta_hat)
    return float(w_v @ (basis.value_gradient(x) @ xdot)
                 + w_q @ basis.reward_features(x)
                 + w_r @ basis.control_squares(u))
