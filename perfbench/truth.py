"""Ground truth for a scenario, computed with scipy and none of the program's code.

Reads the scenario JSON directly, forms the true plant (A, B) = nominal +
theta*, and solves the continuous-time Riccati equation with
`scipy.linalg.solve_continuous_are`. The weight targets follow the bases the
shipped scenarios use: value weights over the quadratic monomials (squares,
then 2 P_ij for i < j in row order), reward weights diag(Q), control weights
R_22.., all times r1 / R_11 because the first control penalty is anchored at
r1; policy weights K^T; drift parameters theta*.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.linalg import solve_continuous_are

QUANTITIES = ("value_weights", "reward_weights", "control_weights",
              "policy_weights", "theta")
BASES = {"value": "quadratic", "reward": "squares", "policy": "linear"}


def targets(config: dict) -> dict:
    """Targets, P and K for one scenario config given as its JSON dict."""
    features = config.get("features", {})
    for role, family in BASES.items():
        if features.get(role, family) != family:
            raise ValueError(f"no independent ground truth for a "
                             f"{features[role]!r} {role} basis")
    plant, reward = config["plant"], config["reward"]
    a0 = np.array(plant["nominal_a"], dtype=float)
    b0 = np.array(plant["nominal_b"], dtype=float)
    theta = np.array(plant["theta_true"], dtype=float)
    n = a0.shape[0]
    a, b = a0 + theta[:n].T, b0 + theta[n:].T
    q = np.array(reward["q"], dtype=float)
    r = np.array(reward["r"], dtype=float)
    p = solve_continuous_are(a, b, q, r)
    k = np.linalg.solve(r, b.T @ p)
    scale = float(config["irl"]["r1"]) / r[0, 0]
    upper = np.triu_indices(n, 1)
    value_unscaled = np.concatenate([np.diag(p), 2.0 * p[upper]])
    tolerances = config["tolerances"]
    return {
        "P": p, "K": k, "value_unscaled": value_unscaled,
        "value": scale * value_unscaled,
        "reward": scale * np.diag(q),
        "control": scale * np.diag(r)[1:],
        "policy": k.T,
        "theta": theta,
        "tolerances": {name: float(tolerances[name]) for name in QUANTITIES},
    }


def load(path) -> dict:
    return targets(json.loads(Path(path).read_text()))

