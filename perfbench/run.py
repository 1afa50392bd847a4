"""Benchmark of the oirl closed loop, end to end and layer by layer.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30        # all workloads, one after another

Run from the repository root; the program is imported from `src/`. With
--trace 0 the last line of output is one JSON object with the end-to-end
metrics, with --trace 1 the per-layer metrics; the metric names and units
are those of BENCHMARK.json. The program runs in child processes
(`worker.py`); this process computes the scipy ground truth and checks the
outputs against it. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import truth  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def metric_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def call_worker(args: list[str], timeout: float) -> str:
    """Run worker.py in a fresh interpreter on the checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:3]} exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:3]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return proc.stdout.strip().splitlines()[-1]


def verify(name: str, res: dict, gt: dict, config: dict,
           out_dir: Path) -> list[str]:
    """All checks for one workload run; returns the failures."""
    failures = []
    if res["scipy_imported"]:
        failures.append("the process that runs the program imported scipy")
    if not Path(res["oirl_file"]).resolve().is_relative_to(ROOT / "src"):
        failures.append(f"oirl was imported from {res['oirl_file']}, not src/")
    rounds = res["rounds"]
    failures += checks.check_identical(
        "lane outputs across rounds", [r["lanes"] for r in rounds])
    lanes = rounds[0]["lanes"]
    tol = gt["tolerances"]
    duration = float(config["simulation"]["duration"])
    for lane in lanes:
        label = f"{name}/{lane['name']}"
        errors = checks.lane_errors(lane, gt)
        want_steps = round(duration / lane["dt"]) + 1
        if lane["steps"] != want_steps:
            failures.append(f"{label}: {lane['steps']} steps, expected {want_steps}")
        failures += checks.check_oracle(label, lane, gt)
        failures += checks.check_reported_errors(label, lane, errors)
        if lane["querying"]:
            failures += checks.check_tolerances(label, errors, tol)
            if lane["converge_sim_s"] is None:
                failures.append(f"{label}: combined weight error never "
                                f"settled below 0.05")
    if name == "reference":
        (lane,) = lanes
        failures += checks.check_identical(
            "metrics.csv bytes across reruns", [r["csv_sha256"] for r in rounds])
        failures += checks.check_csv((out_dir / "metrics.csv").read_bytes(),
                                     lane["steps"], lane["dt"],
                                     checks.lane_errors(lane, gt))
        written = json.loads((out_dir / "report.json").read_text())
        if written != lane["report"]:
            failures.append("report.json differs from compare_to_oracle's report")
    elif name == "two_input_ablation":
        query, no_query = lanes
        failures += checks.check_identical(
            "ablate report across rounds", [r["ablate"] for r in rounds])
        failures += checks.check_ablation(checks.lane_errors(query, gt),
                                          checks.lane_errors(no_query, gt),
                                          rounds[0]["ablate"], tol)
    else:
        failures += checks.check_lanes_differ(lanes)
    return failures


def count_operations(res: dict) -> tuple[int, int]:
    """(attempted, failed): each lane is one operation and so is the ablate
    verdict; an operation fails when the program's own verdict is a failure."""
    attempted = failed = 0
    for r in res["rounds"]:
        for lane in r["lanes"]:
            attempted += 1
            failed += int(lane["querying"] and not lane["report"]["pass"])
        if "ablate" in r:
            attempted += 1
            failed += int(not r["ablate"]["pass"])
    return attempted, failed


def end_to_end(res: dict, gt: dict, setup: list[float]) -> dict:
    untraced = [r for r in res["rounds"] if not r["traced"]]
    lanes = res["rounds"][0]["lanes"]
    errors = [(lane, checks.lane_errors(lane, gt)) for lane in lanes]
    querying = [(lane, e) for lane, e in errors if lane["querying"]]
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(r["run_s"] for r in untraced),
        "steps_per_s": statistics.median(r["steps"] / r["program_s"]
                                         for r in untraced),
        "peak_rss_mb": res["peak_rss_mb"],
        "weight_err": max(checks.weight_error(e) for _, e in querying),
        "theta_err": max(e["theta"] for _, e in errors),
        "converge_sim_s": max(lane["converge_sim_s"] or float("inf")
                              for lane, _ in querying),
    }


def per_layer(res: dict) -> dict:
    def run_s(traced):
        return statistics.median(r["run_s"] for r in res["rounds"]
                                 if r["traced"] == traced)
    return dict(res["layers"], **{"trace.overhead_s": run_s(True) - run_s(False)})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = workloads.WORKLOADS[name]
    config = json.loads(spec.config_path.read_text())
    gt = truth.targets(config)
    common = ["--workload", name, "--seed", str(seed)]

    def measure_setup(repeats: int) -> list[float]:
        return [float(call_worker(["setup", *common], SETUP_TIMEOUT_S))
                for _ in range(0 if trace else repeats)]

    out_dir = BENCH_DIR / "out" / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    # set-up is sampled before and after the timed rounds, so that its median
    # spans the same stretch of machine load as they do
    setup = measure_setup(SETUP_REPEATS // 2)
    res = json.loads(call_worker(
        ["run", *common, "--seconds", str(seconds), "--trace", str(int(trace)),
         "--out", str(out_dir)], RUN_TIMEOUT_S))
    setup += measure_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
    failures = verify(name, res, gt, config, out_dir)
    attempted, failed = count_operations(res)
    e2e_units, layer_units = metric_units()
    values = per_layer(res) if trace else end_to_end(res, gt, setup)
    units = layer_units if trace else e2e_units
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not "
                         f"match BENCHMARK.json")
    for path in res.get("not_traced", []):
        print(f"{name}: not traced, the program has no {path}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            "failures": failures}


def print_summary(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for failure in result["failures"]:
        print(f"  CHECK FAILED: {failure}")
    for key, metric in result["metrics"].items():
        print(f"  {key:48s} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oirl" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'oirl'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
            print_summary(name, results[name])
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    for result in results.values():
        del result["failures"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
