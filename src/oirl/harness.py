"""Scenario configuration, the closed-loop simulation loop, and metrics output.

The loop drives the plant with the demonstrator's true optimal policy (LQR
feedback around the reference feedforward), steps it and the reference with
the precomputed exact zero-order-hold RK4 step of `rk4_transition`, feeds
the three estimators on a shared clock, and records per-step diagnostics
against the oracle. Nothing the reward estimator does feeds back into the
loop, so it steps several lanes, each a reward estimator with its records,
over one shared demonstration: `run_scenario` is one lane, `ablate` two.

Each step writes raw values into preallocated arrays: the tracking error e,
theta_hat, W_u and each lane's W as rows, the stack and gain eigenvalues and
the flags as they are. The error norms are taken after the loop, one pass
per column (`rls.row_norms`, bit for bit the per-step norm), and each lane's
records become one `RecordTable`, a (steps + 1, 16) array in CSV column
order. Everything is deterministic given (config, seed): reruns produce
byte-identical CSV output.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dynamics import LinearPlant, TrackingScenario, rk4_transition
from .errors import ConfigError, DivergenceError, RiccatiConvergenceError
from .features import FeatureBasis
from .history import all_finite
from .irl_engine import IrlConfig, RewardEstimator
from .oracle import (LqrSolution, ideal_policy_weights, quadratic_value_weights,
                     solve_are)
from .param_estimator import ThetaEstimator, ThetaEstimatorConfig
from .policy_estimator import PolicyEstimator, PolicyEstimatorConfig
from .rls import row_norms

Matrix = np.ndarray

DEFAULT_TOLERANCES = {
    "value_weights": 0.05,
    "reward_weights": 0.05,
    "control_weights": 0.05,
    "policy_weights": 0.01,
    "theta": 0.01,
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one closed-loop estimation scenario."""

    nominal_a: tuple
    nominal_b: tuple
    theta_true: tuple
    reference_matrix: tuple
    feedforward: tuple
    x0: tuple
    xd0: tuple
    q_true: tuple
    r_true: tuple
    plant_family: str = "linear_uncertain"
    value_basis: str = "quadratic"
    reward_basis: str = "squares"
    policy_basis: str = "linear"
    policy_estimator: PolicyEstimatorConfig = PolicyEstimatorConfig()
    theta_estimator: ThetaEstimatorConfig = ThetaEstimatorConfig()
    irl: IrlConfig = IrlConfig()
    dt: float = 0.005
    duration: float = 100.0
    seed: int = 7
    querying: bool = True
    dump_stacks: bool = False
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))


# -- building a scenario from its config -------------------------------------

@dataclass(frozen=True)
class WeightTargets:
    """Oracle weight values in the estimator's anchored scale."""
    value: np.ndarray
    reward: np.ndarray
    control: np.ndarray
    policy: np.ndarray
    scale: float


class ValidScenario(NamedTuple):
    """The objects `validate_config` builds from a config."""
    scenario: TrackingScenario        # holds the plant
    basis: FeatureBasis
    oracle: LqrSolution
    targets: WeightTargets


def _matrix(value) -> Matrix:
    return np.atleast_2d(np.asarray(value, dtype=float))


def _step_count(span: float, dt: float) -> int | None:
    """span in dt steps if that is a whole number to 1e-9 of a step, else None."""
    steps = span / dt
    return round(steps) if abs(steps - round(steps)) <= 1e-9 else None


def validate_config(cfg: ScenarioConfig) -> ValidScenario:
    """Build what a run of cfg and its scoring use, or raise ConfigError.

    This is the only code that turns a ScenarioConfig into objects. A config
    passes only if its plant, reference, basis, stabilizing Riccati solution
    and weight targets can all be built, so every config that loads can also
    run and be scored.
    """
    if cfg.plant_family != "linear_uncertain":
        raise ConfigError(f"unknown plant family {cfg.plant_family!r}")
    if cfg.dt <= 0:
        raise ConfigError("dt must be positive")
    if cfg.duration < 0:
        raise ConfigError("duration must be non-negative")
    if cfg.duration > 0 and cfg.duration < cfg.irl.dwell:
        raise ConfigError("duration must be at least the purge dwell time")
    if _step_count(cfg.duration, cfg.dt) is None:
        raise ConfigError("dt must divide the duration a whole number of times")
    for group_name, group in (("policy_estimator", cfg.policy_estimator),
                              ("theta_estimator", cfg.theta_estimator),
                              ("irl", cfg.irl)):
        if group.alpha <= 0 or group.beta <= 0 or group.gamma0 <= 0:
            raise ConfigError(f"{group_name} gains must be positive")
        if not group.gamma_floor < group.gamma0 < group.gamma_ceiling:
            raise ConfigError(f"{group_name} needs gamma_floor < gamma0 "
                              f"< gamma_ceiling")
    for group_name, group in (("policy_estimator", cfg.policy_estimator),
                              ("irl", cfg.irl)):
        if group.rank_threshold <= 0:
            raise ConfigError(f"{group_name}.rank_threshold must be positive")
    if cfg.irl.r1 <= 0:
        raise ConfigError("r1 must be positive")
    if cfg.irl.dwell <= 0:
        raise ConfigError("dwell must be positive")
    if cfg.theta_estimator.revision_threshold <= 0:
        raise ConfigError("theta_estimator.revision_threshold must be positive")
    if cfg.theta_estimator.window <= 0 or cfg.theta_estimator.offer_period <= 0:
        raise ConfigError("theta estimator window and offer period must be positive")
    # theta windows are offered only when a sample lies exactly one window back
    if not _step_count(cfg.theta_estimator.window, cfg.dt):
        raise ConfigError("dt must divide the theta window a whole number of times")
    if cfg.policy_estimator.offer_period <= 0 or cfg.irl.query_period <= 0:
        raise ConfigError("offer/query periods must be positive")
    tb = cfg.theta_estimator.box
    if np.shape(tb) != (2,) or not tb[0] < tb[1]:
        raise ConfigError("theta box must be (lo, hi) with lo < hi")

    try:
        plant = LinearPlant(cfg.nominal_a, cfg.nominal_b, cfg.theta_true)
        scenario = TrackingScenario(plant, _matrix(cfg.reference_matrix),
                                    _matrix(cfg.feedforward))
        basis = FeatureBasis.from_names(
            plant.state_dim, plant.input_dim, value=cfg.value_basis,
            reward=cfg.reward_basis, policy=cfg.policy_basis)
    except (KeyError, TypeError, ValueError) as exc:  # DimensionError is a ValueError
        raise ConfigError(f"cannot build the scenario: {exc}") from exc
    n, m = plant.state_dim, plant.input_dim
    if np.shape(cfg.x0) != (n,) or np.shape(cfg.xd0) != (n,):
        raise ConfigError("initial states have wrong shapes")
    r = _matrix(cfg.r_true)
    if (r.shape != (m, m) or np.any(np.abs(r - np.diag(np.diag(r))) > 1e-12)
            or np.any(np.diag(r) <= 0)):
        raise ConfigError("r_true must be diagonal (m, m) with a positive diagonal")
    box = np.asarray(cfg.irl.query_box, dtype=float)
    if box.shape != (n, 2) or np.any(box[:, 0] >= box[:, 1]):
        raise ConfigError(f"query_box must be ({n}, 2) with lo < hi")
    if cfg.policy_estimator.stack_size < basis.policy_dim:
        raise ConfigError("policy stack smaller than its regressor dimension")
    if cfg.theta_estimator.stack_size < n + m:
        raise ConfigError("theta stack smaller than its regressor dimension")
    irl_dim = basis.value_dim + basis.reward_dim + m - 1
    if cfg.irl.stack_size < irl_dim:
        raise ConfigError("IRL stack smaller than its regressor dimension")
    # the demonstrator is LQR in error coordinates, which is only optimal if
    # the reference is consistent with the true plant: A_d = A + B F
    a_true, b_true = plant.true_system()
    mismatch = np.linalg.norm(scenario.reference_matrix
                              - (a_true + b_true @ scenario.feedforward_gain))
    if mismatch > 1e-9:
        raise ConfigError(
            f"reference generator inconsistent with plant: |A_d - (A + B F)| = "
            f"{mismatch:.3e}")

    try:
        oracle = solve_are(a_true, b_true, _matrix(cfg.q_true), r)
        targets = weight_targets(cfg, oracle)
    except (ValueError, RiccatiConvergenceError) as exc:
        raise ConfigError(f"no ground truth for this scenario: {exc}") from exc
    return ValidScenario(scenario, basis, oracle, targets)


def weight_targets(cfg: ScenarioConfig, oracle: LqrSolution) -> WeightTargets:
    """The oracle's weights in the estimators' anchored scale; ValueError
    for a basis without closed-form weights.

    The reward is identifiable only up to a positive scale; anchoring the
    first control penalty at r1 means every recovered weight is the true one
    times r1 / r_true[0, 0].
    """
    m, n = oracle.gain.shape
    basis = FeatureBasis.from_names(n, m, value=cfg.value_basis,
                                    reward=cfg.reward_basis,
                                    policy=cfg.policy_basis)
    q, r = _matrix(cfg.q_true), _matrix(cfg.r_true)
    scale = cfg.irl.r1 / float(r[0, 0])
    if basis.reward.name == "squares":
        if np.any(np.abs(q - np.diag(np.diag(q))) > 1e-12):
            raise ValueError("squares reward basis cannot represent "
                             "off-diagonal q_true")
        w_q = np.diag(q).copy()
    elif basis.reward.name == "quadratic":
        w_q = quadratic_value_weights(q)
    else:
        raise ValueError(
            f"no ground-truth reward weights for basis {basis.reward.name!r}")
    if basis.value.name != "quadratic":
        raise ValueError(
            f"no ground-truth value weights for basis {basis.value.name!r}")
    return WeightTargets(value=scale * oracle.value_weights,
                         reward=scale * w_q,
                         control=scale * np.diag(r)[1:].copy(),
                         policy=ideal_policy_weights(oracle, basis), scale=scale)


# -- JSON round trip ---------------------------------------------------------

# (section, key) -> (ScenarioConfig field, kind). A dotted field names an
# attribute of an estimator group or a key of the tolerances. Defaults come
# from the dataclasses above; a field without one is a required key.
CONFIG_TABLE = {
    ("plant", "family"): ("plant_family", "str"),
    ("plant", "nominal_a"): ("nominal_a", "matrix"),
    ("plant", "nominal_b"): ("nominal_b", "matrix"),
    ("plant", "theta_true"): ("theta_true", "matrix"),
    ("reference", "matrix"): ("reference_matrix", "matrix"),
    ("reference", "feedforward"): ("feedforward", "matrix"),
    ("reference", "x0"): ("x0", "matrix"),
    ("reference", "xd0"): ("xd0", "matrix"),
    ("reward", "q"): ("q_true", "matrix"),
    ("reward", "r"): ("r_true", "matrix"),
    ("features", "value"): ("value_basis", "str"),
    ("features", "reward"): ("reward_basis", "str"),
    ("features", "policy"): ("policy_basis", "str"),
    **{(group, f.name): (f"{group}.{f.name}",
                         "matrix" if f.type == "tuple" else f.type)
       for group, cls in (("policy_estimator", PolicyEstimatorConfig),
                          ("theta_estimator", ThetaEstimatorConfig),
                          ("irl", IrlConfig))
       for f in dataclasses.fields(cls)},
    ("simulation", "dt"): ("dt", "float"),
    ("simulation", "duration"): ("duration", "float"),
    ("simulation", "seed"): ("seed", "int"),
    ("flags", "querying"): ("querying", "bool"),
    ("flags", "dump_stacks"): ("dump_stacks", "bool"),
    **{("tolerances", name): (f"tolerances.{name}", "float")
       for name in DEFAULT_TOLERANCES},
}
_SECTIONS = {section for section, _ in CONFIG_TABLE}
_REQUIRED = {f.name for f in dataclasses.fields(ScenarioConfig)
             if f.default is dataclasses.MISSING
             and f.default_factory is dataclasses.MISSING}

_KINDS = {"float": ((int, float), "a finite number"), "int": (int, "an integer"),
          "bool": (bool, "true or false"), "str": (str, "a string")}


def _read(kind: str, value, where: str):
    """A JSON value checked against its kind; a matrix becomes nested tuples."""
    if kind == "matrix":
        if not isinstance(value, (list, tuple)):
            return _read("float", value, where)
        rows = tuple(_read(kind, v, where) for v in value)
        if len({np.shape(row) for row in rows}) > 1:
            raise ConfigError(f"{where} must be a rectangular matrix")
        return rows
    types, expected = _KINDS[kind]
    # bool subclasses int, but true and false are never numbers
    if (not isinstance(value, types) or isinstance(value, bool) != (kind == "bool")
            or kind == "float" and not math.isfinite(value)):
        raise ConfigError(f"{where} must be {expected}, got {value!r}")
    return float(value) if kind == "float" else value


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    for section, body in data.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object, "
                              f"got {type(body).__name__}")
        unknown = [key for key in body if (section, key) not in CONFIG_TABLE]
        if unknown:
            raise ConfigError(f"unknown keys in {section!r}: {unknown}")
    values, groups, missing = {}, {}, []
    for (section, key), (name, kind) in CONFIG_TABLE.items():
        body = data.get(section, {})
        head, _, leaf = name.partition(".")
        if key in body:
            value = _read(kind, body[key], f"{section}.{key}")
            if leaf:
                groups.setdefault(head, {})[leaf] = value
            else:
                values[head] = value
        elif head in _REQUIRED:
            missing.append(f"{section}.{key}")
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    cfg = ScenarioConfig(**values)
    return dataclasses.replace(cfg, **{
        head: ({**getattr(cfg, head), **given} if head == "tolerances"
               else dataclasses.replace(getattr(cfg, head), **given))
        for head, given in groups.items()})


def config_to_dict(cfg: ScenarioConfig) -> dict:
    data = {}
    for (section, key), (name, kind) in CONFIG_TABLE.items():
        head, _, leaf = name.partition(".")
        value = getattr(cfg, head)
        if leaf:
            value = value[leaf] if isinstance(value, dict) else getattr(value, leaf)
        if kind == "matrix":
            value = np.asarray(value, dtype=float).tolist()
        data.setdefault(section, {})[key] = value
    return data


def load_config(path) -> ScenarioConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    cfg = config_from_dict(data)
    validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsRecord:
    """Per-step diagnostics; field order is the CSV column order."""

    t: float
    tracking_error: float
    theta_error: float
    policy_error: float
    value_error: float
    reward_error: float
    control_error: float
    lambda_theta_stack: float
    lambda_policy_stack: float
    lambda_irl_stack: float
    lambda_gamma_policy: float
    lambda_gamma_irl: float
    purge: int
    theta_gain_reset: int
    policy_gain_reset: int
    irl_gain_reset: int


CSV_COLUMNS = [f.name for f in dataclasses.fields(MetricsRecord)]
_FIRST_FLAG = CSV_COLUMNS.index("purge")     # the flag columns come last
# the columns the loop records as they are; the error norms come before them
_RAW_COLUMNS = slice(CSV_COLUMNS.index("lambda_theta_stack"), None)


class RecordTable:
    """A run's metrics as one float64 array, `table`, of shape (steps + 1, 16):
    a row per step, columns in CSV_COLUMNS order, flags stored as 0.0/1.0.

    It reads like the list of MetricsRecord it stands for: `len`, indexing
    (negative indices too) and iteration build each record from its row only
    when read. `emit_csv`, `record_array` and `combined_weight_error` read
    the columns.
    """

    def __init__(self, table: np.ndarray):
        self.table = table

    def __len__(self) -> int:
        return self.table.shape[0]

    def __getitem__(self, index: int) -> MetricsRecord:
        row = self.table[operator.index(index)].tolist()
        return MetricsRecord(*row[:_FIRST_FLAG], *map(int, row[_FIRST_FLAG:]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def emit_csv(records: RecordTable, path) -> None:
    """Write records deterministically: 17 significant digits, ',' separator.

    Rows are formatted one at a time, so no text copy of the whole table is
    held; "%.17g" and "%d" give the same text as format(v, ".17g") and
    str(int(v)).
    """
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, records.table, delimiter=",", comments="",
                   header=",".join(CSV_COLUMNS),
                   fmt=["%.17g"] * _FIRST_FLAG
                   + ["%d"] * (len(CSV_COLUMNS) - _FIRST_FLAG))


def record_array(records: RecordTable, name: str) -> np.ndarray:
    return records.table[:, CSV_COLUMNS.index(name)].copy()


def combined_weight_error(records: RecordTable) -> np.ndarray:
    """|W_tilde| over the whole recovered weight vector, per record."""
    v = record_array(records, "value_error")
    q = record_array(records, "reward_error")
    c = record_array(records, "control_error")
    return np.sqrt(v * v + q * q + c * c)


# ---------------------------------------------------------------------------
# the simulation loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinalEstimates:
    theta_hat: np.ndarray
    policy_weights: np.ndarray
    value_weights: np.ndarray
    reward_weights: np.ndarray
    control_weights: np.ndarray


@dataclass
class RunResult:
    config: ScenarioConfig
    querying: bool
    records: RecordTable
    oracle: LqrSolution
    targets: WeightTargets
    estimates: FinalEstimates
    purge_times: list
    first_policy_rank_time: float | None
    gamma_stats: dict
    gain_resets: dict
    stacks: dict


def run_scenario(cfg: ScenarioConfig, querying: bool | None = None) -> RunResult:
    """Run the closed-loop scenario; `querying` overrides the config flag."""
    use_query = cfg.querying if querying is None else bool(querying)
    return _run_lanes(cfg, (use_query,))[0]


def _run_lanes(cfg: ScenarioConfig, modes: tuple) -> list[RunResult]:
    """One run per querying flag in `modes`, over one shared demonstration.

    The true LQR policy drives the plant, so the state, the control and the
    theta and policy estimators (stacks included) never depend on the reward
    learner: they step once and every lane shares them. Each lane keeps its
    own RewardEstimator, gate, collection clock and records, so lane i is
    exactly a stand-alone run with querying=modes[i].
    """
    scn, basis, sol, targets = validate_config(cfg)
    dyn = scn.plant
    k_lqr = sol.gain
    w_u_star = targets.policy
    theta_star = dyn.theta_true

    pc, ic = cfg.policy_estimator, cfg.irl
    theta_est = ThetaEstimator(dyn, cfg.theta_estimator)
    policy_est = PolicyEstimator(basis, pc)
    engines = [RewardEstimator(basis, dyn, ic, cfg.seed) for _ in modes]

    def final_results(tables, gamma_stats):
        # every lane shares the policy stack, so the first lane's column does
        ready = tables[0][:, CSV_COLUMNS.index("lambda_policy_stack")] > pc.rank_threshold
        first_rank = float(tables[0][ready.argmax(), 0]) if ready.any() else None
        return [RunResult(
            config=cfg, querying=query, records=RecordTable(table), oracle=sol,
            targets=targets,
            estimates=FinalEstimates(
                theta_hat=theta_est.theta_hat.copy(),
                policy_weights=policy_est.weights.copy(),
                value_weights=engine.value_weights,
                reward_weights=engine.reward_weights,
                control_weights=engine.control_weights_rest),
            purge_times=list(engine.purge_times),
            first_policy_rank_time=first_rank,
            gamma_stats=stats,
            gain_resets={"theta": theta_est.gain_resets,
                         "policy": policy_est.gain_resets,
                         "irl": engine.gain_resets},
            stacks={"theta": theta_est.stack, "policy": policy_est.stack,
                    "irl": engine.stack})
            for query, engine, table, stats
            in zip(modes, engines, tables, gamma_stats)]

    if cfg.duration == 0.0:
        return final_results([np.zeros((0, len(CSV_COLUMNS))) for _ in modes],
                             [{"policy": None, "irl": None} for _ in modes])

    dt = cfg.dt
    steps = _step_count(cfg.duration, dt)
    phi, g_in = rk4_transition(*dyn.true_system(), dt)
    phi_d, _ = rk4_transition(scn.reference_matrix,
                              np.zeros((dyn.state_dim, 0)), dt)
    x = np.asarray(cfg.x0, dtype=float)
    xd = np.asarray(cfg.xd0, dtype=float)
    last_policy_offer = -np.inf
    pol_lo, pol_hi = np.inf, -np.inf
    lanes = list(zip(range(len(modes)), engines, modes))
    last_collect = [-np.inf for _ in lanes]
    irl_lo, irl_hi = [np.inf for _ in lanes], [-np.inf for _ in lanes]
    gates, purged = [False for _ in lanes], [False for _ in lanes]

    # raw values per step; the error columns are taken from them after the loop
    rows = steps + 1
    tables = [np.empty((rows, len(CSV_COLUMNS))) for _ in lanes]
    e_rows = np.empty((rows, dyn.state_dim))
    theta_rows = np.empty((rows,) + theta_est.weights.shape)
    policy_rows = np.empty((rows,) + policy_est.weights.shape)
    w_rows = [np.empty((rows, engine.dim)) for engine in engines]
    recorded = 0

    try:
        for k in range(rows):
            t = k * dt
            e = x - xd
            mu = -(k_lqr @ e)
            u = scn.desired_control(xd) + mu

            theta_est.observe(t, x, u)
            if t - last_policy_offer >= pc.offer_period - 1e-9:
                policy_est.record_sample(e, mu, t)
                last_policy_offer = t

            policy_ready = policy_est.stack.is_full_rank(pc.rank_threshold)
            generation = theta_est.generation
            for i, engine, query in lanes:
                gates[i] = gate = generation >= 1 and (policy_ready or not query)
                purged[i] = engine.schedule_purge(t, generation)
                if gate and t - last_collect[i] >= ic.query_period - 1e-9:
                    snap = theta_est.snapshot()
                    if query:
                        engine.generate_query(policy_est.snapshot(), snap, t)
                    else:
                        engine.collect_trajectory_sample(e, mu, snap, t)
                    last_collect[i] = t

            theta_est.update(dt)
            policy_est.update(dt)
            for i, engine, _ in lanes:
                if gates[i]:
                    engine.update(dt)

            if policy_ready:
                pol_lo = min(pol_lo, policy_est.gamma_eig_range[0])
                pol_hi = max(pol_hi, policy_est.gamma_eig_range[1])
            e_rows[k] = e
            theta_rows[k] = theta_est.weights
            policy_rows[k] = policy_est.weights
            for i, engine, _ in lanes:
                if engine.stack.is_full_rank(ic.rank_threshold):
                    irl_lo[i] = min(irl_lo[i], engine.gamma_eig_range[0])
                    irl_hi[i] = max(irl_hi[i], engine.gamma_eig_range[1])
                w_rows[i][k] = engine.weights
                tables[i][k, _RAW_COLUMNS] = (
                    theta_est.stack.rank_metric, policy_est.stack.rank_metric,
                    engine.stack.rank_metric, policy_est.gamma_eig_range[0],
                    engine.gamma_eig_range[0], purged[i],
                    theta_est.last_gain_reset, policy_est.last_gain_reset,
                    engine.last_gain_reset)
            recorded = k + 1

            if k < steps:
                x = phi @ x + g_in @ u
                xd = phi_d @ xd
                if not all_finite(x):
                    raise DivergenceError(
                        f"non-finite state after step at t={t:.6g}", t=t, state=x)
    except DivergenceError as err:
        err.last_record_index = recorded - 1
        raise

    shared = [np.arange(rows) * dt, row_norms(e_rows),
              row_norms(theta_star - theta_rows), row_norms(w_u_star - policy_rows)]
    w_star = np.concatenate([targets.value, targets.reward, targets.control])
    bounds = [basis.value_dim, basis.value_dim + basis.reward_dim]
    for table, w in zip(tables, w_rows):
        # t, tracking, theta, policy, then value, reward and control errors
        table[:, :_RAW_COLUMNS.start] = np.column_stack(
            shared + [row_norms(d) for d in np.split(w_star - w, bounds, axis=1)])
    pol = (float(pol_lo), float(pol_hi)) if np.isfinite(pol_lo) else None
    return final_results(tables, [
        {"policy": pol, "irl": (float(lo), float(hi)) if np.isfinite(lo) else None}
        for lo, hi in zip(irl_lo, irl_hi)])


# ---------------------------------------------------------------------------
# scoring and ablation
# ---------------------------------------------------------------------------

def compare_to_oracle(estimates: FinalEstimates, sol: LqrSolution,
                      cfg: ScenarioConfig) -> dict:
    """Terminal error norms against the oracle `sol` (the run's
    `RunResult.oracle`), with per-quantity pass flags."""
    targets = weight_targets(cfg, sol)
    tol = {**DEFAULT_TOLERANCES, **cfg.tolerances}
    checks = [
        ("value_weights", estimates.value_weights, targets.value),
        ("reward_weights", estimates.reward_weights, targets.reward),
        ("control_weights", estimates.control_weights, targets.control),
        ("policy_weights", estimates.policy_weights, targets.policy),
        ("theta", estimates.theta_hat, cfg.theta_true),
    ]
    report = {"ground_truth": True, "quantities": {}, "pass": True}
    for name, got, want in checks:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            entry = {"error": None, "tolerance": tol[name], "pass": False,
                     "note": f"dimension mismatch: got {got.shape}, "
                             f"expected {want.shape}"}
        else:
            err = float(np.linalg.norm(got - want))
            entry = {"error": err, "tolerance": tol[name],
                     "pass": bool(err < tol[name])}
        report["quantities"][name] = entry
        report["pass"] = bool(report["pass"] and entry["pass"])
    return report


ABLATION_MIN_RATIO = 10.0       # no-query / query terminal weight error
ABLATION_PLATEAU_LIMIT = 0.05   # no-query relative change over the final half


def ablate(cfg: ScenarioConfig) -> dict:
    """Run the querying and no-querying variants and contrast them.

    Both lanes step in lockstep over one demonstration (`_run_lanes`), each
    byte-identical to `run_scenario` with its flag; their RunResults share
    the theta and policy stack objects. The DivergenceError raised is the
    first of either lane in simulated time.

    The no-querying run is expected to plateau far from the truth: its
    terminal weight error should be at least `ABLATION_MIN_RATIO` times the
    querying run's, while changing less than `ABLATION_PLATEAU_LIMIT`
    (relative) over the final half of the run.
    """
    with_query, without_query = _run_lanes(cfg, (True, False))
    err_q = combined_weight_error(with_query.records)
    err_n = combined_weight_error(without_query.records)
    terminal_q = float(err_q[-1])
    terminal_n = float(err_n[-1])
    ratio = terminal_n / terminal_q if terminal_q > 0 else np.inf
    half = len(err_n) // 2
    tail = err_n[half:]
    plateau = float((tail.max() - tail.min()) / terminal_n) if terminal_n > 0 \
        else 0.0
    report = {
        "terminal_error_with_querying": terminal_q,
        "terminal_error_without_querying": terminal_n,
        "ratio": float(ratio),
        "min_ratio": ABLATION_MIN_RATIO,
        "plateau_change": plateau,
        "plateau_limit": ABLATION_PLATEAU_LIMIT,
        "pass": bool(ratio >= ABLATION_MIN_RATIO
                     and plateau < ABLATION_PLATEAU_LIMIT),
    }
    return {"report": report, "with_query": with_query,
            "without_query": without_query}


def dump_stacks(result: RunResult, out_dir) -> None:
    """Write each stack's final contents to <out_dir>/<name>_stack.csv."""
    out_dir = Path(out_dir)
    for name, stack in result.stacks.items():
        lines = ["t,tag," + ",".join(
            [f"r{i}" for i in range(stack.row_dim)]
            + [f"target{i}" for i in range(stack.target_dim)])]
        for t, tag, row, target in stack.dump_rows():
            vals = [format(t, ".17g"), str(tag)]
            vals += [format(v, ".17g") for v in row]
            vals += [format(v, ".17g") for v in target]
            lines.append(",".join(vals))
        with open(out_dir / f"{name}_stack.csv", "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
