"""Shared fixtures. A full-length reference run takes seconds (its 20,001
steps are interpreter-bound), and `ablate` steps both of its lanes in one
pass of about the same length, so each is computed once per session and
reused by the harness and acceptance tests."""

import time
from pathlib import Path

import pytest

from oirl import harness
from oirl.dynamics import rk4_transition
from oirl.harness import ablate, load_config, run_scenario

SHIPPED = Path(__file__).resolve().parent.parent / "configs" / "tracking.json"


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


@pytest.fixture
def overflowing_plant_step(monkeypatch):
    """Scale the plant's transition matrix so that its first step overflows."""
    def overflowing(a, b, dt):
        phi, g = rk4_transition(a, b, dt)
        return 1e300 * phi, g

    monkeypatch.setattr(harness, "rk4_transition", overflowing)
