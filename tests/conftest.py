"""Shared fixtures: the reference tracking scenario is expensive enough
(~5 s per run) that the full-length runs are computed once per session and
reused by the harness and acceptance tests."""

import time
from pathlib import Path

import pytest

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
