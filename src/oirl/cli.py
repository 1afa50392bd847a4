"""Command-line interface: run, ablate, oracle.

Exit codes: 0 pass, 1 tolerance failure, 2 config error (a run too large
for memory among them), 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergenceError
from .harness import (ablate, compare_to_oracle, dump_stacks, emit_csv,
                      load_config, run_scenario, validate_config)


def _load(args) -> "ScenarioConfig":
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "no_query", False):
        cfg = dataclasses.replace(cfg, querying=False)
    if getattr(args, "dump_stacks", False):
        cfg = dataclasses.replace(cfg, dump_stacks=True)
    return cfg


def _print_report(report: dict) -> None:
    for name, entry in report["quantities"].items():
        if entry["error"] is None:
            print(f"{name}: {entry['note']} [FAIL]")
        else:
            verdict = "PASS" if entry["pass"] else "FAIL"
            print(f"{name}: error {entry['error']:.6g} "
                  f"(tolerance {entry['tolerance']:g}) [{verdict}]")


def _cmd_run(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_scenario(cfg)
    emit_csv(result.records, out / "metrics.csv")
    report = compare_to_oracle(result.estimates, result.oracle, cfg)
    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    if cfg.dump_stacks:
        dump_stacks(result, out)
    _print_report(report)
    if result.purge_times:
        times = ", ".join(f"{t:.3f}" for t in result.purge_times)
        print(f"purges at t = {times}")
    return 0 if report["pass"] else 1


def _cmd_ablate(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outcome = ablate(cfg)
    emit_csv(outcome["with_query"].records, out / "metrics_query.csv")
    emit_csv(outcome["without_query"].records, out / "metrics_noquery.csv")
    report = outcome["report"]
    (out / "ablation.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"terminal weight error with querying:    "
          f"{report['terminal_error_with_querying']:.6g}")
    print(f"terminal weight error without querying: "
          f"{report['terminal_error_without_querying']:.6g}")
    print(f"ratio: {report['ratio']:.3g} (required >= {report['min_ratio']:g})")
    print(f"no-query plateau change over final half: "
          f"{report['plateau_change']:.3%} (limit {report['plateau_limit']:.0%})")
    print("ablation " + ("PASS" if report["pass"] else "FAIL"))
    return 0 if report["pass"] else 1


def _cmd_oracle(args) -> int:
    sol = validate_config(_load(args)).oracle
    with np.printoptions(precision=6, suppress=True):
        print("P =")
        print(sol.cost_matrix)
        print("K =")
        print(sol.gain)
        print("value weights =")
        print(sol.value_weights)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oirl",
        description="Online inverse reinforcement learning with data querying")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and score it")
    run_p.add_argument("--config", required=True, help="scenario JSON file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--no-query", action="store_true",
                       help="disable query generation (trajectory data only)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--dump-stacks", action="store_true",
                       help="also write final history-stack contents")
    run_p.set_defaults(func=_cmd_run)

    abl_p = sub.add_parser("ablate",
                           help="run with and without querying and compare")
    abl_p.add_argument("--config", required=True)
    abl_p.add_argument("--out", required=True)
    abl_p.set_defaults(func=_cmd_ablate)

    orc_p = sub.add_parser("oracle",
                           help="print the LQR ground truth for a config")
    orc_p.add_argument("--config", required=True)
    orc_p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, MemoryError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        index = getattr(err, "last_record_index", None)
        where = f" (last valid record index {index})" if index is not None else ""
        print(f"numerical divergence: {err}{where}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
