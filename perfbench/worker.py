"""The process that runs the program for one benchmark run.

    python3 perfbench/worker.py setup --workload NAME --seed N
    python3 perfbench/worker.py run --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR

`setup` times, in this fresh interpreter, `import oirl`, `load_config` of the
workload's config and a zero-duration `run_scenario` per lane, and prints the
seconds. `run` repeats whole rounds of the workload for about S seconds and
prints one JSON object with each round's timings and each lane's outputs;
with --trace 1 every round runs twice, untraced then traced. Only the calls
`oirl run` and `oirl ablate` make are used. This process never imports scipy,
so its peak resident set is the program's own.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (stdlib only; see its docstring)

CONVERGED = 0.05    # combined weight error that counts as converged


def setup_main(args) -> None:
    start = time.perf_counter()
    import oirl  # noqa: F401
    from oirl import harness
    for lane in workloads.lanes(harness, args.workload, args.seed):
        harness.run_scenario(dataclasses.replace(lane.cfg, duration=0.0),
                             querying=lane.querying)
    print(repr(time.perf_counter() - start))


def _floats(value):
    import numpy as np
    return np.asarray(value, dtype=float).tolist()


def lane_summary(lane, result, report) -> dict:
    """Everything the checks need from one lane, as plain JSON values."""
    import numpy as np
    records = result.records
    t = np.array([rec.t for rec in records])
    err = np.sqrt(np.array([rec.value_error ** 2 + rec.reward_error ** 2
                            + rec.control_error ** 2 for rec in records]))
    above = np.nonzero(err >= CONVERGED)[0]
    if len(above) == 0:
        converge = float(t[0])
    elif above[-1] + 1 < len(t):
        converge = float(t[above[-1] + 1])
    else:
        converge = None
    est, sol, tgt = result.estimates, result.oracle, result.targets
    return {
        "name": lane.name,
        "querying": result.querying,
        "steps": len(records),
        "dt": lane.cfg.dt,
        "estimates": {"theta": _floats(est.theta_hat),
                      "policy": _floats(est.policy_weights),
                      "value": _floats(est.value_weights),
                      "reward": _floats(est.reward_weights),
                      "control": _floats(est.control_weights)},
        "oracle": {"P": _floats(sol.cost_matrix), "K": _floats(sol.gain),
                   "value_unscaled": _floats(sol.value_weights),
                   "value": _floats(tgt.value), "reward": _floats(tgt.reward),
                   "control": _floats(tgt.control)},
        "report": report,
        "terminal": dataclasses.asdict(records[-1]),
        "combined_error_terminal": float(err[-1]),
        "converge_sim_s": converge,
        "gain_resets": dict(result.gain_resets),
        "purges": len(result.purge_times),
    }


def reference_round(harness, lanes, out_dir: Path) -> dict:
    """`oirl run` on the shipped config: simulate, write metrics.csv, score."""
    (lane,) = lanes
    start = time.perf_counter()
    result = harness.run_scenario(lane.cfg)
    program = time.perf_counter() - start
    harness.emit_csv(result.records, out_dir / "metrics.csv")
    report = harness.compare_to_oracle(result.estimates, result.oracle, lane.cfg)
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    wall = time.perf_counter() - start
    csv = (out_dir / "metrics.csv").read_bytes()
    return {"run_s": wall, "program_s": program, "steps": len(result.records),
            "lanes": [lane_summary(lane, result, report)],
            "csv_sha256": hashlib.sha256(csv).hexdigest(),
            "csv_bytes": len(csv)}


def ablation_round(harness, lanes, out_dir: Path) -> dict:
    """`ablate()` on the two-input scenario, both lanes scored in memory."""
    query, no_query = lanes
    start = time.perf_counter()
    outcome = harness.ablate(query.cfg)
    program = time.perf_counter() - start
    reports = [harness.compare_to_oracle(outcome[key].estimates,
                                         outcome[key].oracle, query.cfg)
               for key in ("with_query", "without_query")]
    wall = time.perf_counter() - start
    results = (outcome["with_query"], outcome["without_query"])
    return {"run_s": wall, "program_s": program,
            "steps": sum(len(r.records) for r in results),
            "lanes": [lane_summary(lane, result, report)
                      for lane, result, report in zip(lanes, results, reports)],
            "ablate": outcome["report"]}


def sweep_round(harness, lanes, out_dir: Path) -> dict:
    """One querying run per seed, one after another, scored in memory."""
    wall = program = 0.0
    steps = 0
    summaries = []
    for lane in lanes:
        t0 = time.perf_counter()
        result = harness.run_scenario(lane.cfg, querying=lane.querying)
        t1 = time.perf_counter()
        report = harness.compare_to_oracle(result.estimates, result.oracle,
                                           lane.cfg)
        wall += time.perf_counter() - t0
        program += t1 - t0
        steps += len(result.records)
        # summarised outside the timed region, before the next lane frees it
        summaries.append(lane_summary(lane, result, report))
    return {"run_s": wall, "program_s": program, "steps": steps,
            "lanes": summaries}


ROUNDS = {"reference": reference_round,
          "two_input_ablation": ablation_round,
          "seed_sweep": sweep_round}
# reference needs two writes of metrics.csv to show that a rerun is identical
MIN_ROUNDS = {"reference": 2, "two_input_ablation": 1, "seed_sweep": 1}


def run_main(args) -> None:
    import numpy
    import oirl
    from oirl import (dynamics, harness, history, irl_engine, param_estimator,
                      policy_estimator)
    import spans

    modules = {"harness": harness, "dynamics": dynamics, "history": history,
               "irl_engine": irl_engine, "param_estimator": param_estimator,
               "policy_estimator": policy_estimator}
    lanes = workloads.lanes(harness, args.workload, args.seed)
    out_dir = Path(args.out)
    one_round = ROUNDS[args.workload]
    tracer = spans.Tracer() if args.trace else None

    rounds = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(dict(one_round(harness, lanes, out_dir), traced=False))
        if tracer is not None:
            with tracer.installed(modules, numpy):
                rounds.append(dict(one_round(harness, lanes, out_dir),
                                   traced=True))
        last = time.perf_counter() - t0
        # whole rounds only: start another one only if it should still end
        # inside the measured interval
        if (len(rounds) >= MIN_ROUNDS[args.workload]
                and time.perf_counter() - begin + last > args.seconds):
            break

    out = {"workload": args.workload, "seed": args.seed,
           "oirl_file": oirl.__file__,
           "scipy_imported": any(m == "scipy" or m.startswith("scipy.")
                                 for m in sys.modules),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "rounds": rounds}
    if tracer is not None:
        traced = [r for r in rounds if r["traced"]]
        out["layers"] = spans.layer_metrics(
            tracer, steps=sum(r["steps"] for r in traced), rounds=len(traced),
            csv_bytes=traced[-1].get("csv_bytes", 0))
        out["not_traced"] = sorted(tracer.missing)
    print(json.dumps(out))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    if args.mode == "setup":
        setup_main(args)
    else:
        run_main(args)


if __name__ == "__main__":
    main()
