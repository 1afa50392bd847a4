"""The benchmark's workloads: which configs they load and which lanes they run.

A lane is one closed-loop run: a validated ScenarioConfig plus the querying
flag. This module imports neither numpy nor oirl at module level, so the
set-up probe can start its clock before the program's first import.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIG = ROOT / "configs" / "tracking.json"
TWO_INPUT_CONFIG = Path(__file__).resolve().parent / "configs" / "two_input.json"

SWEEP_SEEDS = (0, 1, 2, 3)
SWEEP_DT = 0.01

# Initial states are moved by up to JITTER_ULPS units of 2**-52 (one ulp at
# unit scale) per component, drawn from the benchmark seed. Every seed thus
# feeds the program different bytes, while the scored errors move by less
# than 1e-9 relative; the policy error is at its rounding floor and moves by
# 10-20%, which is why it is checked but not reported as a metric.
JITTER_ULPS = 8
EPS = 2.0 ** -52


@dataclasses.dataclass(frozen=True)
class Lane:
    name: str
    cfg: object
    querying: bool


@dataclasses.dataclass(frozen=True)
class Workload:
    config_path: Path
    jittered: bool


WORKLOADS = {
    "reference": Workload(SHIPPED_CONFIG, jittered=True),
    # The ablate verdict fails on this scenario every time; a counted failure
    # must come from inputs that do not depend on the seed, so this workload
    # runs the config file exactly as written.
    "two_input_ablation": Workload(TWO_INPUT_CONFIG, jittered=False),
    "seed_sweep": Workload(SHIPPED_CONFIG, jittered=True),
}


def jitter(values, rng: random.Random) -> tuple:
    return tuple(float(v) + rng.randint(-JITTER_ULPS, JITTER_ULPS) * EPS
                 for v in values)


def lanes(harness, workload: str, seed: int) -> list[Lane]:
    """Load the workload's config through the program and derive its lanes."""
    spec = WORKLOADS[workload]
    cfg = harness.load_config(spec.config_path)
    if spec.jittered:
        rng = random.Random(seed)
        cfg = dataclasses.replace(cfg, x0=jitter(cfg.x0, rng),
                                  xd0=jitter(cfg.xd0, rng))
    if workload == "reference":
        return [Lane("query", cfg, True)]
    if workload == "two_input_ablation":
        return [Lane("query", cfg, True), Lane("no_query", cfg, False)]
    return [Lane(f"seed{s}", dataclasses.replace(cfg, dt=SWEEP_DT, seed=s), True)
            for s in SWEEP_SEEDS]
