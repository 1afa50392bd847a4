"""Scenario configuration, the closed-loop simulation, and metrics output.

The demonstrator acts under its true optimal policy (LQR feedback around the
reference feedforward) and nothing an estimator does feeds back into the
plant, so a run is a pipeline of stages in the loop's dependency order:
(1) the demonstration, x, xd, e, mu and u of every step, by the exact
zero-order-hold RK4 step of `rk4_transition`, with only the x recurrence
and the autonomous xd recurrence stepped; (2) the theta, then the policy
estimator, each offering its stack everything due on its clock in order,
then stepping its learner in closed form (`ConcurrentLearner.advance`) over
each span between the stack's changes; (3) one lane per querying flag, a
reward estimator with its own gate, clock, purges and records, reading each
step's estimates from (2): `run_scenario` is one lane, `ablate` two. Every
offer is built as arrays before its stage walks them (the theta windows by
`window_pairs`, a lane's queries and row blocks by its estimator), each bit
for bit a one-sample build. The walk (`_walk`) makes every stack change,
and stops only where one may happen: between two changes the admission
certificate is taken of a window of offers in one pass
(`HistoryStack.first_unrejected`) and a lane bisects for its next purge, so
only purges and offers the certificate cannot reject are visited, every
decision that of a per-step loop.
A span ends at a stack change (an accepted offer, a purge), at the gate's
opening, at a gain reset (W kept, the step flagged) and at a box clip of
theta_hat (Z = H W recomputed); a rejected offer ends none. Each lane's
records are a `RecordTable`, a (steps + 1, 16) array in CSV column order
written a span at a time, with the error norms taken after all stages
(`rls.row_norms`). A DivergenceError is the one a per-step loop would raise
first: the earliest step, and within it the offers, the updates, then the
plant step, each in the order theta, policy, lanes. Reruns with the same
(config, seed) are byte-identical.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dynamics import LinearPlant, TrackingScenario, matvec, rk4_transition
from .errors import ConfigError, DivergenceError, RiccatiConvergenceError
from .features import REWARDS, FeatureBasis
from .irl_engine import IrlConfig, RewardEstimator
from .oracle import (LqrSolution, ideal_policy_weights, quadratic_value_weights,
                     solve_are)
from .param_estimator import ThetaEstimator, ThetaEstimatorConfig, window_pairs
from .policy_estimator import PolicyEstimator, PolicyEstimatorConfig
from .rls import row_norms

Matrix = np.ndarray


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tolerances:
    """The `tolerances` config group: terminal error bounds per quantity."""
    value_weights: float = 0.05
    reward_weights: float = 0.05
    control_weights: float = 0.05
    policy_weights: float = 0.01
    theta: float = 0.01


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
    reward_basis: str = "squares"
    policy_estimator: PolicyEstimatorConfig = PolicyEstimatorConfig()
    theta_estimator: ThetaEstimatorConfig = ThetaEstimatorConfig()
    irl: IrlConfig = IrlConfig()
    dt: float = 0.005
    duration: float = 100.0
    seed: int = 7
    querying: bool = True
    dump_stacks: bool = False
    tolerances: Tolerances = Tolerances()


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
    and weight targets can all be built, and the demonstrator's RK4 step at
    dt is stable, so every config that loads can also run and be scored.
    """
    if cfg.dt <= 0:
        raise ConfigError("dt must be positive")
    if cfg.seed < 0:
        raise ConfigError(f"simulation.seed must be non-negative, got {cfg.seed}")
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
    if cfg.policy_estimator.rank_threshold <= 0:
        raise ConfigError("policy_estimator.rank_threshold must be positive")
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
    if cfg.reward_basis not in REWARDS:
        raise ConfigError(f"features.reward must be one of {list(REWARDS)}, "
                          f"got {cfg.reward_basis!r}")

    try:
        plant = LinearPlant(cfg.nominal_a, cfg.nominal_b, cfg.theta_true)
        scenario = TrackingScenario(plant, _matrix(cfg.reference_matrix),
                                    _matrix(cfg.feedforward))
    except (TypeError, ValueError) as exc:  # DimensionError is a ValueError
        raise ConfigError(f"cannot build the scenario: {exc}") from exc
    n, m = plant.state_dim, plant.input_dim
    basis = FeatureBasis(n, m, cfg.reward_basis)
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
    # the demonstration takes RK4 steps of dt, which can grow a state that
    # decays in continuous time; the reference gets the slack of its
    # continuous-time rule, so an integrator (rho = 1) passes
    rho, rho_d = scenario.step_radii(oracle.gain, cfg.dt)
    if rho >= 1.0 or rho_d > 1.0 + 1e-9:
        raise ConfigError(
            f"simulation.dt = {cfg.dt:g} makes the RK4 step unstable: spectral "
            f"radius {rho:.3g} under the optimal feedback (needs < 1), "
            f"{rho_d:.3g} of the reference (needs <= 1)")
    return ValidScenario(scenario, basis, oracle, targets)


def weight_targets(cfg: ScenarioConfig, oracle: LqrSolution) -> WeightTargets:
    """The oracle's weights in the estimators' anchored scale; ValueError
    for an off-diagonal q_true with the squares reward.

    The reward is identifiable only up to a positive scale; anchoring the
    first control penalty at r1 means every recovered weight is the true one
    times r1 / r_true[0, 0].
    """
    q, r = _matrix(cfg.q_true), _matrix(cfg.r_true)
    scale = cfg.irl.r1 / float(r[0, 0])
    if cfg.reward_basis == "quadratic":
        w_q = quadratic_value_weights(q)
    elif np.any(np.abs(q - np.diag(np.diag(q))) > 1e-12):
        raise ValueError("squares reward basis cannot represent off-diagonal q_true")
    else:
        w_q = np.diag(q).copy()
    return WeightTargets(value=scale * oracle.value_weights,
                         reward=scale * w_q,
                         control=scale * np.diag(r)[1:].copy(),
                         policy=ideal_policy_weights(oracle), scale=scale)


# -- reading JSON --------------------------------------------------------------

# (section, key) -> (ScenarioConfig field, kind). A dotted field names an
# attribute of a config group. Defaults come from the dataclasses above; a
# field without one is a required key. A key without a field is checked and
# stored nowhere: its kind lists the one value implemented, or is "positive"
# for irl.rank_threshold, which gates nothing. Configs may still spell them out.
CONFIG_TABLE = {
    ("plant", "family"): (None, ("linear_uncertain",)),
    ("plant", "nominal_a"): ("nominal_a", "matrix"),
    ("plant", "nominal_b"): ("nominal_b", "matrix"),
    ("plant", "theta_true"): ("theta_true", "matrix"),
    ("reference", "matrix"): ("reference_matrix", "matrix"),
    ("reference", "feedforward"): ("feedforward", "matrix"),
    ("reference", "x0"): ("x0", "matrix"),
    ("reference", "xd0"): ("xd0", "matrix"),
    ("reward", "q"): ("q_true", "matrix"),
    ("reward", "r"): ("r_true", "matrix"),
    ("features", "value"): (None, ("quadratic",)),
    ("features", "reward"): ("reward_basis", "str"),
    ("features", "policy"): (None, ("linear",)),
    ("irl", "rank_threshold"): (None, "positive"),
    ("simulation", "dt"): ("dt", "float"),
    ("simulation", "duration"): ("duration", "float"),
    ("simulation", "seed"): ("seed", "int"),
    ("flags", "querying"): ("querying", "bool"),
    ("flags", "dump_stacks"): ("dump_stacks", "bool"),
    **{(f.name, g.name): (f"{f.name}.{g.name}",
                          "matrix" if g.type == "tuple" else g.type)
       for f in dataclasses.fields(ScenarioConfig)
       if dataclasses.is_dataclass(f.default)
       for g in dataclasses.fields(f.default)},
}
_SECTIONS = {section for section, _ in CONFIG_TABLE}
_REQUIRED = {f.name for f in dataclasses.fields(ScenarioConfig)
             if f.default is dataclasses.MISSING}

_KINDS = {"float": ((int, float), "a finite number"), "int": (int, "an integer"),
          "bool": (bool, "true or false"), "str": (str, "a string")}


def _read(kind: str | tuple, value, where: str):
    """A JSON value checked against its kind; a matrix becomes nested tuples."""
    if kind == "matrix":
        if not isinstance(value, (list, tuple)):
            return _read("float", value, where)
        rows = tuple(_read(kind, v, where) for v in value)
        if len({np.shape(row) for row in rows}) > 1:
            raise ConfigError(f"{where} must be a rectangular matrix")
        return rows
    if kind == "positive":
        if _read("float", value, where) <= 0:
            raise ConfigError(f"{where} must be positive")
        return value
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{where} must be one of {list(kind)}, got {value!r}")
        return value
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
        if key in body:
            value = _read(kind, body[key], f"{section}.{key}")
            if name:
                head, _, leaf = name.partition(".")
                if leaf:
                    groups.setdefault(head, {})[leaf] = value
                else:
                    values[head] = value
        elif name in _REQUIRED:
            missing.append(f"{section}.{key}")
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    cfg = ScenarioConfig(**values)
    return dataclasses.replace(cfg, **{
        head: dataclasses.replace(getattr(cfg, head), **given)
        for head, given in groups.items()})


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


CSV_BLOCK = 1024    # rows formatted by one %-format string


def emit_csv(records: RecordTable, path) -> None:
    """Write records deterministically: 17 significant digits, ',' separator.

    Rows are formatted CSV_BLOCK at a time, each block by one %-format
    string over its values as Python floats, so no text copy of the whole
    table is held; "%.17g" and "%d" give the same text as format(v, ".17g")
    and str(int(v)).
    """
    line = ",".join(["%.17g"] * _FIRST_FLAG
                    + ["%d"] * (len(CSV_COLUMNS) - _FIRST_FLAG)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for start in range(0, len(records), CSV_BLOCK):
            block = records.table[start:start + CSV_BLOCK]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


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
    gain_resets: dict
    stacks: dict


def run_scenario(cfg: ScenarioConfig, querying: bool | None = None) -> RunResult:
    """Run the closed-loop scenario; `querying` overrides the config flag."""
    use_query = cfg.querying if querying is None else bool(querying)
    return _run_lanes(cfg, (use_query,))[0]


def _run_lanes(cfg: ScenarioConfig, modes: tuple) -> list[RunResult]:
    """One run per querying flag in `modes`, over one shared demonstration:
    lane i is exactly a stand-alone run with querying=modes[i]."""
    valid = validate_config(cfg)
    theta_est = ThetaEstimator(valid.scenario.plant, cfg.theta_estimator)
    policy_est = PolicyEstimator(valid.basis, cfg.policy_estimator)
    engines = [RewardEstimator(valid.basis, valid.scenario.plant, cfg.irl, cfg.seed)
               for _ in modes]
    rows = _step_count(cfg.duration, cfg.dt) + 1 if cfg.duration else 0
    tables = [np.zeros((rows, len(CSV_COLUMNS))) for _ in modes]
    if rows:
        _simulate(cfg, valid, theta_est, policy_est, engines, modes, tables)
    # every lane shares the policy stack, so the first lane's column does
    ready = (tables[0][:, CSV_COLUMNS.index("lambda_policy_stack")]
             > cfg.policy_estimator.rank_threshold)
    first_rank = float(tables[0][ready.argmax(), 0]) if ready.any() else None
    return [RunResult(
        config=cfg, querying=query, records=RecordTable(table), oracle=valid.oracle,
        targets=valid.targets,
        estimates=FinalEstimates(
            theta_hat=theta_est.theta_hat.copy(),
            policy_weights=policy_est.weights.copy(),
            value_weights=engine.value_weights,
            reward_weights=engine.reward_weights,
            control_weights=engine.control_weights_rest),
        purge_times=list(engine.purge_times),
        first_policy_rank_time=first_rank,
        gain_resets={"theta": theta_est.gain_resets,
                     "policy": policy_est.gain_resets,
                     "irl": engine.gain_resets},
        stacks={"theta": theta_est.stack, "policy": policy_est.stack,
                "irl": engine.stack})
        for query, engine, table in zip(modes, engines, tables)]


def _simulate(cfg, valid, theta_est, policy_est, engines, modes, tables) -> None:
    """Fill each lane's table stage by stage."""
    scn, basis, sol, targets = valid
    pc, ic, dt, rows = cfg.policy_estimator, cfg.irl, cfg.dt, len(tables[0])
    times = np.arange(rows) * dt
    clock = times.tolist()
    xs, es, mus, us, n = _demonstration(scn, sol.gain, cfg, rows - 1)
    errors = []     # (step, phase, order, error): phases offer, update, plant
    if n < rows:
        errors.append((n - 1, 2, 0, DivergenceError(
            f"non-finite state after step at t={clock[n - 1]:.6g}",
            t=clock[n - 1], state=xs[n])))
    cols = [dict(zip(CSV_COLUMNS, table.T)) for table in tables]
    theta_rows = np.zeros((rows,) + theta_est.weights.shape)
    policy_rows = np.zeros((rows,) + policy_est.weights.shape)

    length = _step_count(cfg.theta_estimator.window, dt)
    ends = _clock(clock, cfg.theta_estimator.offer_period, range(length, n))
    # tagged by step until the generations are known
    walk = _walk(theta_est.stack, ends,
                 *window_pairs(scn.plant, times, xs, us, ends, length), clock,
                 range(rows), n)
    col = cols[0]
    n = _stage(theta_est, dt, walk, 0, n, errors, 0, theta_rows, np.empty(rows),
               col["theta_gain_reset"], col["lambda_theta_stack"])
    # revise takes its rows in order, so one call equals one per span
    generations = theta_est.revise(theta_rows[:n])
    gens = np.concatenate([[0], generations[:-1]])  # as each step's offers read it
    theta_est.stack.retag(gens)
    due = _clock(clock, pc.offer_period, range(n))
    # the policy features are the state: rows e, targets -mu
    walk = _walk(policy_est.stack, due, es[due], -mus[due], clock, [0] * rows, n)
    n = _stage(policy_est, dt, walk, 0, n, errors, 1, policy_rows,
               col["lambda_gamma_policy"], col["policy_gain_reset"],
               col["lambda_policy_stack"])
    for table in tables[1:]:
        table[:] = tables[0]

    ready = col["lambda_policy_stack"] > pc.rank_threshold
    # a gate opens once: neither the generation nor the policy rank falls
    gates = [(gens[:n] >= 1) & (ready[:n] | (not query)) for query in modes]
    w_rows = [np.zeros((rows, engine.dim)) for engine in engines]
    for order, (engine, query, lane, w, gate) in enumerate(
            zip(engines, modes, cols, w_rows, gates), start=2):
        due = _clock(clock, ic.query_period, np.flatnonzero(gate).tolist())
        # each due step reads the estimates of the step before it; step 0,
        # whose generation is 0, is never due
        prev = np.asarray(due, dtype=int) - 1
        # built ahead of the walk, past a divergence too, so quietly
        with np.errstate(over="ignore", invalid="ignore"):
            x, u = (engine.queries(policy_rows[prev]) if query
                    else (es[due], mus[due]))
            walk = _walk(engine.stack, due, *engine.row_blocks(x, u, theta_rows[prev]),
                         clock, gens, n, engine)
        lane["lambda_gamma_irl"][:] = ic.gamma0     # until the gate opens
        _stage(engine, dt, walk, int(gate.argmax()) if gate.any() else n, n, errors,
               order, w, lane["lambda_gamma_irl"], lane["irl_gain_reset"],
               lane["lambda_irl_stack"])
        # a purge time is its step's clock value, so the search is exact
        lane["purge"][np.searchsorted(times, engine.purge_times)] = 1.0
    if errors:
        step, phase, _, err = min(errors, key=lambda e: e[:3])
        err.last_record_index = step if phase == 2 else step - 1
        raise err

    shared = np.column_stack([times, row_norms(es),
                              row_norms(scn.plant.theta_true - theta_rows),
                              row_norms(targets.policy - policy_rows)])
    w_star = np.concatenate([targets.value, targets.reward, targets.control])
    bounds = [basis.value_dim, basis.value_dim + basis.reward_dim]
    for table, w in zip(tables, w_rows):
        # t, tracking, theta, policy, then value, reward and control errors
        table[:, :_RAW_COLUMNS.start] = np.column_stack(
            [shared] + [row_norms(d) for d in np.split(w_star - w, bounds, axis=1)])


def _demonstration(scn: TrackingScenario, gain: Matrix, cfg: ScenarioConfig,
                   steps: int):
    """The plant and reference under the true LQR policy, feedback around
    the reference feedforward, stepped by the exact zero-order-hold RK4 step:
    (x, e, mu, u) per step, and the count n of steps with a finite state."""
    dyn = scn.plant
    phi, g_in = rk4_transition(*dyn.true_system(), cfg.dt)
    phi_d, _ = rk4_transition(scn.reference_matrix,
                              np.zeros((dyn.state_dim, 0)), cfg.dt)
    xs, xds = np.empty((2, steps + 1, dyn.state_dim))
    xd = xds[0] = np.asarray(cfg.xd0, dtype=float)
    x = np.asarray(cfg.x0, dtype=float)
    # an overflow ends the run with a DivergenceError, not a warning; each
    # stacked product is bit for bit the product of one step
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):      # the reference is autonomous
            xd = xds[k + 1] = phi_d @ xd
        feedforward = matvec(scn.feedforward_gain, xds)
        for k in range(steps):
            xs[k] = x
            x = phi @ x + g_in @ (feedforward[k] - gain @ (x - xds[k]))
        xs[steps] = x
        es = xs - xds
        mus = -matvec(gain, es)
        us = feedforward + mus
    finite = np.isfinite(xs).all(axis=1)
    return xs, es, mus, us, steps + 1 if finite.all() else int(finite.argmin())


def _clock(clock: list, period: float, steps) -> list:
    """The steps among `steps` at which a clock of `period` fires: the first,
    then each at least period - 1e-9 after the last firing."""
    fired, last = [], -math.inf
    for k in steps:
        if clock[k] - last >= period - 1e-9:
            fired.append(k)
            last = clock[k]
    return fired


def _walk(stack, due, rows, targets, clock, tags, n, engine=None):
    """The steps below n at which `stack` changes, in order. At the i-th
    step k of `due` it is offered rows[i] and targets[i] tagged tags[k]; on a
    lane's stack (`engine` given) a purge on generations `tags` comes first,
    so the step's offer goes to the emptied stack. An offer whose rows have
    no signal (norm below 1e-12) cannot raise lambda_min, so it is not made.

    The stack is fixed between changes, so the walk visits only the next
    purge (`next_purge`) and the next offer that `first_unrejected` cannot
    reject, each as a per-step loop would. A DivergenceError leaves with
    its step k, as last_record_index = k - 1.
    """
    flat = rows.reshape(len(rows), stack.block_rows * stack.row_dim)
    flat_targets = targets.reshape(len(rows), stack.block_rows * stack.target_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        frob = np.vecdot(flat, flat)        # the squares row_norms sums
        made = ~(np.sqrt(frob) < 1e-12)
    # a non-finite offer is made, and fails in try_insert
    finite = np.isfinite(flat).all(axis=1) & np.isfinite(flat_targets).all(axis=1)
    frob = np.where(finite, frob, np.nan)[made]
    rows = flat[made].reshape(len(frob), stack.block_rows, stack.row_dim)
    targets, due = targets[made], np.asarray(due, dtype=int)[made].tolist() + [n]

    def next_offer(i):
        # offers from i on, in windows that double while all are rejected
        span = 16
        while i < len(frob):
            j = stack.first_unrejected(rows[i:i + span], frob[i:i + span])
            if i + j < min(i + span, len(frob)):
                return i + j
            i, span = i + span, 2 * span
        return len(frob)

    i = k = 0
    while True:
        purge = n if engine is None else engine.next_purge(clock, tags, k)
        k = min(due[next_offer(i)], purge)
        if k >= n:
            return
        changed = k == purge
        if changed:
            engine.purge(clock[k])
        i = bisect.bisect_left(due, k, i)       # the first offer due from k on
        if due[i] == k:
            try:
                changed |= stack.try_insert(rows[i], targets[i], clock[k], tag=tags[k])
            except DivergenceError as err:
                err.last_record_index = k - 1
                raise
            i += 1
        if changed:
            yield k
        k += 1


def _stage(learner, dt, walk, start, n, errors, order, weights, gamma, reset,
           rank) -> int:
    """One estimator over the first n steps: its stack's changes from
    `walk`, then the learner from `start` in spans between the changes,
    writing each step's columns (`gamma` is Gamma's lambda_min). Appends
    errors keyed (step, phase, order); returns how many steps the later
    stages run."""
    stack = learner.stack
    changes = [(0, stack.normal_matrix(), stack.cross_matrix(), 0.0)]
    stop = n
    try:
        for k in walk:
            changes.append((k, stack.normal_matrix(), stack.cross_matrix(),
                            stack.rank_metric))
    except DivergenceError as err:
        stop = err.last_record_index + 1
        errors.append((stop, 0, order, err))
    for (at, *_, value), (end, *_) in zip(changes, changes[1:] + [(len(rank),)]):
        rank[at:end] = value
    k = start
    try:
        for (_, normal, cross, _), (end, *_) in zip(changes, changes[1:] + [(stop,)]):
            while k < min(end, stop):
                for w, g in learner.advance(dt, min(end, stop) - k, normal, cross):
                    span = slice(k, k + len(w))
                    weights[span] = w
                    gamma[span] = g[:, 0]
                    k += len(w)
                reset[k - 1] = learner.last_gain_reset
    except DivergenceError as err:
        errors.append((k, 1, order, err))
    return min([n] + [step + 1 for step, *_ in errors])


# ---------------------------------------------------------------------------
# scoring and ablation
# ---------------------------------------------------------------------------

def compare_to_oracle(estimates: FinalEstimates, sol: LqrSolution,
                      cfg: ScenarioConfig) -> dict:
    """Terminal error norms against the oracle `sol` (the run's
    `RunResult.oracle`), with per-quantity pass flags."""
    targets = weight_targets(cfg, sol)
    checks = [
        ("value_weights", estimates.value_weights, targets.value),
        ("reward_weights", estimates.reward_weights, targets.reward),
        ("control_weights", estimates.control_weights, targets.control),
        ("policy_weights", estimates.policy_weights, targets.policy),
        ("theta", estimates.theta_hat, cfg.theta_true),
    ]
    report = {"ground_truth": True, "quantities": {}, "pass": True}
    for name, got, want in checks:
        tol = getattr(cfg.tolerances, name)
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            entry = {"error": None, "tolerance": tol, "pass": False,
                     "note": f"dimension mismatch: got {got.shape}, "
                             f"expected {want.shape}"}
        else:
            err = float(np.linalg.norm(got - want))
            entry = {"error": err, "tolerance": tol, "pass": bool(err < tol)}
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
    (relative) over the final half of the run. A run without a step has
    nothing to contrast: ConfigError.
    """
    with_query, without_query = _run_lanes(cfg, (True, False))
    if not len(with_query.records):
        raise ConfigError("ablate needs at least one step; simulation.duration is 0")
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
