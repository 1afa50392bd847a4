"""Shared fixtures. A full-length reference run still takes most of a
second: its learners step in chunks of rows, but the stacks' 6,000 offers
(each a certificate, and a few a batched trial eigendecomposition) and the
20,001-step demonstration loop are interpreter-bound, and `ablate` adds a
lane's offers on top. So each is computed once per session and reused by
the harness and acceptance tests."""

import bisect
import time
from pathlib import Path

import pytest

import per_step
from oirl import harness
from oirl.dynamics import rk4_transition
from oirl.errors import DivergenceError
from oirl.harness import ablate, load_config, run_scenario
from oirl.param_estimator import ThetaEstimator

SHIPPED = Path(__file__).resolve().parent.parent / "configs" / "tracking.json"


def step(learner, dt):
    """One exact step of a learner's laws with its stack held, and for a
    theta estimator the generation of the new estimate."""
    for w, _ in learner.advance(dt, per_step.one_span(learner, 1)):
        if isinstance(learner, ThetaEstimator):
            learner.revise(w)


def fail_offers_from(stack, since, prefix):
    """Make every offer to `stack` at a time from `since` on raise
    DivergenceError(f"{prefix} at t=..."). An offer reaches a stack through
    `try_insert` or, on a stack with room, through `append`: try_insert
    raises on it, and append takes only the offers before it, so the walk
    hands it to try_insert alone."""
    insert, append = stack.try_insert, stack.append

    def insert_or_raise(rows, targets, t, tag=0):
        if t >= since:
            raise DivergenceError(f"{prefix} at t={t:.6g}")
        return insert(rows, targets, t, tag)

    def append_before(rows, targets, times, tags):
        m = bisect.bisect_left(times, since)
        return append(rows[:m], targets[:m], times[:m], tags[:m])

    stack.try_insert, stack.append = insert_or_raise, append_before


def per_value_stack_csv(stack) -> bytes:
    """The per-value stack writer `harness.dump_stacks` replaced, kept as its
    reference: each stored row's time, tag, row and target, formatted one
    value at a time."""
    lines = ["t,tag," + ",".join([f"r{i}" for i in range(stack.row_dim)]
                                 + [f"target{i}" for i in range(stack.target_dim)])]
    for i in range(len(stack)):
        for j in range(stack.block_rows):
            vals = [format(float(stack._times[i]), ".17g"), str(int(stack._tags[i]))]
            vals += [format(v, ".17g") for v in stack._rows[i, j]]
            vals += [format(v, ".17g") for v in stack._targets[i, j]]
            lines.append(",".join(vals))
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="session")
def tracking_cfg():
    return load_config(SHIPPED)


@pytest.fixture(scope="session")
def query_run(tracking_cfg):
    """(RunResult, wall seconds) for the querying reference run."""
    t0 = time.perf_counter()
    result = run_scenario(tracking_cfg, querying=True)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ablation(tracking_cfg):
    """Querying vs no-querying contrast on the reference scenario."""
    return ablate(tracking_cfg)


def _scaled_plant_step(monkeypatch, scale):
    def scaled(a, b, dt):
        phi, g = rk4_transition(a, b, dt)
        return scale * phi, g

    monkeypatch.setattr(harness, "rk4_transition", scaled)
    monkeypatch.setattr(per_step, "rk4_transition", scaled)


@pytest.fixture
def overflowing_plant_step(monkeypatch):
    """Scale the plant's transition matrix so that its first step overflows."""
    _scaled_plant_step(monkeypatch, 1e300)


@pytest.fixture
def slowly_overflowing_plant_step(monkeypatch):
    """Scale the plant's transition matrix by 1e100, so that the state
    overflows a few steps in, not on the first."""
    _scaled_plant_step(monkeypatch, 1e100)
