"""Checks of the program's outputs against the independent ground truth.

Every check returns a list of failure messages, empty when the output is
right. Nothing here compares against a stored copy of earlier output: each
check is a tolerance on the scipy targets from `truth.py`, an agreement
between two figures the program reports about the same thing, or a
property the method must have.
"""

from __future__ import annotations

import math

import numpy as np

from truth import QUANTITIES

ESTIMATE = {"value_weights": "value", "reward_weights": "reward",
            "control_weights": "control", "policy_weights": "policy",
            "theta": "theta"}
WEIGHTS = ("value_weights", "reward_weights", "control_weights")
CSV_COLUMNS = 16
CSV_ERROR_COLUMNS = {"theta": "theta_error", "policy_weights": "policy_error",
                     "value_weights": "value_error",
                     "reward_weights": "reward_error",
                     "control_weights": "control_error"}
MIN_RATIO = 10.0

# Two Riccati solvers agree to about 1e-15 relative on these 2x2 problems;
# 1e-9 leaves room for a different but sound solver.
ORACLE_RTOL = 1e-9
# A terminal error is a norm of a difference with the target; a target that
# differs by ORACLE_RTOL moves it by at most ORACLE_RTOL * |target|.
ERROR_ATOL = 1e-8
ERROR_RTOL = 1e-6


def close(got: float, want: float, atol: float = ERROR_ATOL,
          rtol: float = ERROR_RTOL) -> bool:
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


def lane_errors(lane: dict, truth: dict) -> dict[str, float]:
    """Terminal error norm of each estimate against the scipy target."""
    errors = {}
    for name in QUANTITIES:
        got = np.asarray(lane["estimates"][ESTIMATE[name]], dtype=float)
        want = np.asarray(truth[ESTIMATE[name]], dtype=float)
        errors[name] = (float(np.linalg.norm(got - want))
                        if got.shape == want.shape else math.inf)
    return errors


def weight_error(errors: dict) -> float:
    """Combined error of the [value; reward; control] weight vector."""
    return math.sqrt(sum(errors[name] ** 2 for name in WEIGHTS))


def check_tolerances(label: str, errors: dict, tolerances: dict,
                     quantities=QUANTITIES) -> list[str]:
    return [f"{label}: {name} error {errors[name]:.3e} not below tolerance "
            f"{tolerances[name]:g}"
            for name in quantities if not errors[name] < tolerances[name]]


def check_oracle(label: str, lane: dict, truth: dict) -> list[str]:
    """The program's Riccati solution and weight targets match scipy's."""
    failures = []
    for key in ("P", "K", "value_unscaled", "value", "reward", "control"):
        got = np.asarray(lane["oracle"][key], dtype=float)
        want = np.asarray(truth[key], dtype=float)
        if got.shape != want.shape or not np.allclose(
                got, want, rtol=ORACLE_RTOL, atol=ORACLE_RTOL):
            failures.append(f"{label}: program oracle {key} {got.tolist()} "
                            f"differs from scipy {want.tolist()}")
    return failures


def check_reported_errors(label: str, lane: dict, errors: dict) -> list[str]:
    """compare_to_oracle and the last metrics record agree with `errors`."""
    failures = []
    report = lane["report"]["quantities"]
    for name in QUANTITIES:
        got = report[name]["error"]
        if got is None or not close(got, errors[name]):
            failures.append(f"{label}: compare_to_oracle {name} error {got} "
                            f"!= independent {errors[name]:.17g}")
        got = lane["terminal"][CSV_ERROR_COLUMNS[name]]
        if not close(got, errors[name]):
            failures.append(f"{label}: last record {name} error {got} "
                            f"!= independent {errors[name]:.17g}")
    return failures


def check_csv(data: bytes, steps: int, dt: float, errors: dict) -> list[str]:
    """metrics.csv: `steps` rows of 16 finite columns, t = k dt, and a last
    row carrying the independent terminal errors."""
    text = data.decode("ascii", errors="replace")
    if not text.endswith("\n"):
        return ["metrics.csv does not end with a newline"]
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    if len(header) != CSV_COLUMNS:
        return [f"metrics.csv header has {len(header)} columns, "
                f"expected {CSV_COLUMNS}"]
    missing = sorted(set(CSV_ERROR_COLUMNS.values()) - set(header))
    if header[0] != "t" or missing:
        return [f"metrics.csv header lacks t first or {missing}"]
    rows = lines[1:]
    if len(rows) != steps:
        return [f"metrics.csv has {len(rows)} rows, expected {steps}"]
    last = None
    for k, line in enumerate(rows):
        try:
            last = [float(v) for v in line.split(",")]
        except ValueError:
            return [f"metrics.csv row {k} is not numeric: {line[:80]!r}"]
        if len(last) != CSV_COLUMNS or not all(map(math.isfinite, last)):
            return [f"metrics.csv row {k} has {len(last)} columns or a "
                    f"non-finite value"]
        if abs(last[0] - k * dt) > 1e-9:
            return [f"metrics.csv row {k} has t = {last[0]!r}, expected {k * dt!r}"]
    row = dict(zip(header, last))
    return [f"metrics.csv last row {column} = {row[column]!r} != independent "
            f"{errors[name]:.17g}"
            for name, column in CSV_ERROR_COLUMNS.items()
            if not close(row[column], errors[name])]


def check_identical(label: str, values: list) -> list[str]:
    distinct = {repr(v) for v in values}
    return [] if len(distinct) == 1 else \
        [f"{label}: {len(distinct)} different values over {len(values)} repeats"]


def check_ablation(query_errors: dict, no_query_errors: dict, report: dict,
                   tolerances: dict) -> list[str]:
    """Querying lowers the weight error at least MIN_RATIO times, `ablate`
    reports the same ratio, and the estimators that never see queries are
    unaffected by their absence."""
    failures = check_tolerances("no-query lane", no_query_errors, tolerances,
                                ("theta", "policy_weights"))
    err_q, err_n = weight_error(query_errors), weight_error(no_query_errors)
    ratio = err_n / err_q if err_q > 0 else math.inf
    if not ratio >= MIN_RATIO:
        failures.append(f"no-query/query weight error ratio {ratio:.4g} "
                        f"below {MIN_RATIO:g}")
    for key, want in (("terminal_error_with_querying", err_q),
                      ("terminal_error_without_querying", err_n),
                      ("ratio", ratio)):
        if not close(report[key], want, atol=ERROR_ATOL if key != "ratio" else 0):
            failures.append(f"ablate reports {key} {report[key]!r}, "
                            f"independent {want!r}")
    return failures


def check_lanes_differ(lanes: list[dict]) -> list[str]:
    """Different query seeds must leave different terminal weights."""
    failures = []
    weights = [tuple(x for key in ("value", "reward", "control")
                     for x in lane["estimates"][key]) for lane in lanes]
    for i in range(len(lanes)):
        for j in range(i + 1, len(lanes)):
            if weights[i] == weights[j]:
                failures.append(f"lanes {lanes[i]['name']} and "
                                f"{lanes[j]['name']} ended with identical weights")
    return failures
