"""The per-step closed loop that the staged pipeline replaced, kept as a
reference for it, the way `_getattr_csv` is kept for `emit_csv`.

`run_lanes(cfg, modes)` steps the plant, the reference, the three estimators
and every lane one step at a time, in the loop's order: the theta window
offer, the policy sample, each lane's purge and query, then the theta,
policy and lane updates (each its learner's one-step `advance`, and
`revise` for theta), the records, and the plant step. Each query is drawn
on its own step, and its rows are built as a one-sample batch. It returns
what `harness._run_lanes` returns, or raises the first DivergenceError with
its `t` and `last_record_index`. `ThetaWindows.observe` is the theta
estimator's per-sample window offer, and `purge_due` the purge rule as a
lane checks it on every step.
"""

from collections import deque

import numpy as np

from oirl.dynamics import rk4_transition
from oirl.errors import DivergenceError
from oirl.harness import (_RAW_COLUMNS, CSV_COLUMNS, FinalEstimates,
                          RecordTable, RunResult, _step_count, validate_config)
from oirl.irl_engine import RewardEstimator
from oirl.param_estimator import ThetaEstimator, window_pairs
from oirl.policy_estimator import PolicyEstimator
from oirl.rls import _norm, row_norms


class ThetaWindows:
    """Buffers a theta estimator's samples and offers its stack the window
    pair when one is due, tagged with the estimator's generation."""

    def __init__(self, est: ThetaEstimator):
        self.est = est
        self.buffer = deque()       # (t, x, u) per sample
        self.last_offer = -np.inf

    def observe(self, t, x, u) -> bool:
        """Buffer one sample; returns whether an offer changed the stack."""
        cfg = self.est.cfg
        self.buffer.append((float(t), np.array(x, dtype=float),
                            np.array(u, dtype=float)))
        while self.buffer[0][0] < t - cfg.window - 1e-9:
            self.buffer.popleft()
        spans = self.buffer[0][0] <= t - cfg.window + 1e-9
        if not spans or t - self.last_offer < cfg.offer_period - 1e-9:
            return False
        times, states, controls = map(np.array, zip(*self.buffer))
        (y,), (b,) = window_pairs(self.est.dyn, times, states, controls,
                                  [len(times) - 1], len(times) - 1)
        self.last_offer = t
        if _norm(y) < 1e-12:
            return False
        return self.est.stack.try_insert(y, b, t, tag=self.est.generation)


def purge_due(engine: RewardEstimator, t, generation) -> bool:
    """Whether a lane purges its stack at time t: stale rows exist (older
    than the generation) AND at least the dwell time has passed since the
    last purge."""
    oldest = engine.stack.oldest_tag()
    return not (oldest is None or generation <= oldest
                or t - engine.last_purge < engine.cfg.dwell)


def run_lanes(cfg, modes):
    scn, basis, sol, targets = validate_config(cfg)
    dyn = scn.plant
    pc, ic = cfg.policy_estimator, cfg.irl
    theta_est = ThetaEstimator(dyn, cfg.theta_estimator)
    windows = ThetaWindows(theta_est)
    policy_est = PolicyEstimator(basis, pc)
    engines = [RewardEstimator(basis, dyn, ic, cfg.seed) for _ in modes]

    dt = cfg.dt
    steps = _step_count(cfg.duration, dt)
    phi, g_in = rk4_transition(*dyn.true_system(), dt)
    phi_d, _ = rk4_transition(scn.reference_matrix,
                              np.zeros((dyn.state_dim, 0)), dt)
    x = np.asarray(cfg.x0, dtype=float)
    xd = np.asarray(cfg.xd0, dtype=float)
    last_policy_offer = -np.inf
    lanes = list(zip(range(len(modes)), engines, modes))
    last_collect = [-np.inf for _ in lanes]
    gates, purged = [False for _ in lanes], [False for _ in lanes]

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
            mu = -(sol.gain @ e)
            u = scn.desired_control(xd) + mu

            windows.observe(t, x, u)
            if t - last_policy_offer >= pc.offer_period - 1e-9:
                if not _norm(e) < 1e-12:
                    policy_est.stack.try_insert(e, -mu, t)
                last_policy_offer = t

            policy_ready = policy_est.stack.rank_metric > pc.rank_threshold
            generation = theta_est.generation
            for i, engine, query in lanes:
                gates[i] = gate = generation >= 1 and (policy_ready or not query)
                purged[i] = purge_due(engine, t, generation)
                if purged[i]:
                    engine.purge(t)
                if gate and t - last_collect[i] >= ic.query_period - 1e-9:
                    x_i, u_i = (engine.queries(policy_est.weights[None]) if query
                                else (e[None], mu[None]))
                    (block,), (target,) = engine.row_blocks(
                        x_i, u_i, theta_est.weights[None])
                    if not _norm(block) < 1e-12:
                        engine.stack.try_insert(block, target, t, tag=generation)
                    last_collect[i] = t

            for w, _ in theta_est.advance(dt, 1):
                theta_est.revise(w)
            for _ in policy_est.advance(dt, 1):
                pass
            for i, engine, _ in lanes:
                if gates[i]:
                    for _ in engine.advance(dt, 1):
                        pass

            e_rows[k] = e
            theta_rows[k] = theta_est.weights
            policy_rows[k] = policy_est.weights
            for i, engine, _ in lanes:
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
                if not np.isfinite(x).all():
                    raise DivergenceError(
                        f"non-finite state after step at t={t:.6g}", t=t, state=x)
    except DivergenceError as err:
        err.last_record_index = recorded - 1
        raise

    shared = [np.arange(rows) * dt, row_norms(e_rows),
              row_norms(dyn.theta_true - theta_rows),
              row_norms(targets.policy - policy_rows)]
    w_star = np.concatenate([targets.value, targets.reward, targets.control])
    bounds = [basis.value_dim, basis.value_dim + basis.reward_dim]
    for table, w in zip(tables, w_rows):
        table[:, :_RAW_COLUMNS.start] = np.column_stack(
            shared + [row_norms(d) for d in np.split(w_star - w, bounds, axis=1)])
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
        gain_resets={"theta": theta_est.gain_resets,
                     "policy": policy_est.gain_resets,
                     "irl": engine.gain_resets},
        stacks={"theta": theta_est.stack, "policy": policy_est.stack,
                "irl": engine.stack})
        for query, engine, table in zip(modes, engines, tables)]
