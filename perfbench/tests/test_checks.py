"""Fast tests of the benchmark's own checks: each must reject a bad input.

    python3 -m pytest perfbench/tests -q

No test here runs a simulation; the inputs are built from the scipy ground
truth and then damaged.
"""

import copy
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import spans  # noqa: E402
import truth  # noqa: E402
import workloads  # noqa: E402

DT = 0.005
STEPS = 11
HEADER = ["t", "tracking_error", "theta_error", "policy_error", "value_error",
          "reward_error", "control_error", "lambda_theta_stack",
          "lambda_policy_stack", "lambda_irl_stack", "lambda_gamma_policy",
          "lambda_gamma_irl", "purge", "theta_gain_reset", "policy_gain_reset",
          "irl_gain_reset"]


@pytest.fixture(scope="module")
def gt():
    return truth.load(workloads.TWO_INPUT_CONFIG)


def make_lane(gt, offset=1e-6, querying=True, name="query"):
    """A lane whose estimates sit `offset` off every target component."""
    estimates = {key: (np.asarray(gt[key]) + offset).tolist()
                 for key in ("theta", "policy", "value", "reward", "control")}
    lane = {"name": name, "querying": querying, "steps": STEPS, "dt": DT,
            "estimates": estimates,
            "oracle": {key: np.asarray(gt[key]).tolist()
                       for key in ("P", "K", "value_unscaled", "value", "reward",
                                   "control")}}
    errors = checks.lane_errors(lane, gt)
    lane["report"] = {"quantities": {name: {"error": err}
                                     for name, err in errors.items()}}
    lane["terminal"] = {column: errors[name]
                        for name, column in checks.CSV_ERROR_COLUMNS.items()}
    return lane


def make_csv(errors, steps=STEPS, dt=DT) -> bytes:
    lines = [",".join(HEADER)]
    for k in range(steps):
        row = dict.fromkeys(HEADER, "0")
        row["t"] = format(k * dt, ".17g")
        if k == steps - 1:
            for name, column in checks.CSV_ERROR_COLUMNS.items():
                row[column] = format(errors[name], ".17g")
        lines.append(",".join(row[c] for c in HEADER))
    return ("\n".join(lines) + "\n").encode()


# -- ground truth ---------------------------------------------------------------

def test_value_weights_follow_the_quadratic_monomial_order(gt):
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=2)
        monomials = np.array([x[0] ** 2, x[1] ** 2, x[0] * x[1]])
        assert math.isclose(gt["value_unscaled"] @ monomials, x @ gt["P"] @ x,
                            rel_tol=1e-12)


def test_targets_are_anchored_at_r1(gt):
    # two_input.json: r1 = 10 = R_11, so the scale is 1 and R_22 = 5 survives
    assert gt["control"].tolist() == [5.0]
    assert np.allclose(gt["policy"], gt["K"].T)


def test_unsupported_basis_has_no_ground_truth():
    config = {"features": {"value": "cubic"}}
    with pytest.raises(ValueError, match="no independent ground truth"):
        truth.targets(config)


# -- tolerances and agreement ---------------------------------------------------

def test_a_lane_on_target_passes(gt):
    lane = make_lane(gt)
    errors = checks.lane_errors(lane, gt)
    assert checks.check_tolerances("lane", errors, gt["tolerances"]) == []
    assert checks.check_oracle("lane", lane, gt) == []
    assert checks.check_reported_errors("lane", lane, errors) == []


@pytest.mark.parametrize("key,index,delta", [
    ("value", 0, 0.06), ("reward", 1, -0.06), ("control", 0, 0.06),
    ("policy", 0, 0.011), ("theta", 2, 0.011)])
def test_a_weight_perturbed_beyond_tolerance_is_rejected(gt, key, index, delta):
    lane = make_lane(gt)
    flat = np.asarray(lane["estimates"][key])
    flat.reshape(-1)[index] += delta
    lane["estimates"][key] = flat.tolist()
    errors = checks.lane_errors(lane, gt)
    failures = checks.check_tolerances("lane", errors, gt["tolerances"])
    assert len(failures) == 1


def test_an_estimate_of_the_wrong_shape_is_rejected(gt):
    lane = make_lane(gt)
    lane["estimates"]["control"] = []
    errors = checks.lane_errors(lane, gt)
    assert checks.check_tolerances("lane", errors, gt["tolerances"])


def test_a_program_oracle_off_scipy_is_rejected(gt):
    lane = make_lane(gt)
    lane["oracle"]["P"][0][1] += 1e-6
    assert len(checks.check_oracle("lane", lane, gt)) == 1


def test_a_reported_error_off_the_independent_one_is_rejected(gt):
    lane = make_lane(gt)
    errors = checks.lane_errors(lane, gt)
    lane["report"]["quantities"]["theta"]["error"] *= 1.01
    lane["terminal"]["value_error"] = 0.5
    assert len(checks.check_reported_errors("lane", lane, errors)) == 2


# -- ablation -------------------------------------------------------------------

def ablate_report(err_q, err_n):
    return {"terminal_error_with_querying": err_q,
            "terminal_error_without_querying": err_n, "ratio": err_n / err_q}


def test_an_ablation_ratio_of_ten_or_more_passes(gt):
    query = checks.lane_errors(make_lane(gt, 1e-6), gt)
    no_query = checks.lane_errors(make_lane(gt, 1e-6), gt)
    for name in checks.WEIGHTS:
        no_query[name] *= 11.0
    report = ablate_report(checks.weight_error(query), checks.weight_error(no_query))
    assert checks.check_ablation(query, no_query, report, gt["tolerances"]) == []


def test_an_ablation_ratio_below_ten_is_rejected(gt):
    query = checks.lane_errors(make_lane(gt, 1e-6), gt)
    no_query = {name: err * 9.0 for name, err in query.items()}
    report = ablate_report(checks.weight_error(query), checks.weight_error(no_query))
    failures = checks.check_ablation(query, no_query, report, gt["tolerances"])
    assert len(failures) == 1 and "below 10" in failures[0]


def test_a_reported_ratio_off_the_independent_one_is_rejected(gt):
    query = checks.lane_errors(make_lane(gt, 1e-6), gt)
    no_query = {name: err * 100.0 for name, err in query.items()}
    report = ablate_report(checks.weight_error(query), checks.weight_error(no_query))
    report["ratio"] *= 1.001
    failures = checks.check_ablation(query, no_query, report, gt["tolerances"])
    assert len(failures) == 1 and "ratio" in failures[0]


def test_querying_must_not_disturb_theta_or_policy(gt):
    query = checks.lane_errors(make_lane(gt, 1e-6), gt)
    no_query = {name: err * 100.0 for name, err in query.items()}
    no_query["theta"] = 0.02
    report = ablate_report(checks.weight_error(query), checks.weight_error(no_query))
    failures = checks.check_ablation(query, no_query, report, gt["tolerances"])
    assert len(failures) == 1 and "theta" in failures[0]


# -- metrics.csv ----------------------------------------------------------------

@pytest.fixture
def csv_case(gt):
    errors = checks.lane_errors(make_lane(gt), gt)
    return make_csv(errors), errors


def test_a_well_formed_csv_passes(csv_case):
    data, errors = csv_case
    assert checks.check_csv(data, STEPS, DT, errors) == []


@pytest.mark.parametrize("damage", [
    lambda d: d[:-1],                                   # last newline cut
    lambda d: d[:len(d) // 2],                          # cut mid-row
    lambda d: d[:d.rstrip(b"\n").rfind(b"\n") + 1],     # last row dropped
    lambda d: d.replace(b"\n0.01,", b"\n0.011,", 1),    # one t moved
    lambda d: d.replace(b"\n0.01,0", b"\n0.01,nan", 1),  # non-finite value
    lambda d: d.replace(b"\n0.01,0", b"\n0.01,0,0", 1),  # extra column
    lambda d: d.replace(b",", b";"),                    # wrong separator
])
def test_a_truncated_or_altered_csv_is_rejected(csv_case, damage):
    data, errors = csv_case
    bad = damage(data)
    assert bad != data
    assert checks.check_csv(bad, STEPS, DT, errors)


def test_a_csv_whose_last_row_disagrees_is_rejected(csv_case):
    data, errors = csv_case
    moved = dict(errors, reward_weights=errors["reward_weights"] + 1e-3)
    assert len(checks.check_csv(data, STEPS, DT, moved)) == 1


# -- determinism and lane diversity --------------------------------------------

def test_differing_repeats_are_rejected():
    assert checks.check_identical("x", ["a", "a"]) == []
    assert checks.check_identical("x", ["a", "b"])


def test_identical_sweep_lanes_are_rejected(gt):
    lanes = [make_lane(gt, 1e-6, name="seed0"), make_lane(gt, 2e-6, name="seed1")]
    assert checks.check_lanes_differ(lanes) == []
    lanes.append(copy.deepcopy(lanes[0]))
    assert len(checks.check_lanes_differ(lanes)) == 1


# -- workload inputs and tracing ------------------------------------------------

def test_jitter_is_seeded_and_tiny():
    def draw(seed):
        return workloads.jitter((0.0, 1.0), workloads.random.Random(seed))
    assert draw(3) == draw(3)
    assert len({draw(seed) for seed in range(10)}) > 1
    assert all(abs(a - b) <= workloads.JITTER_ULPS * workloads.EPS
               for a, b in zip(draw(5), (0.0, 1.0)))


def test_self_time_excludes_children_and_offers_find_their_stack():
    tracer = spans.Tracer()

    def insert():
        time.sleep(0.02)
        return True

    traced_insert = tracer.wrap(insert, "history.try_insert")

    def observe():
        time.sleep(0.01)
        return traced_insert()

    tracer.wrap(observe, "param_estimator.observe")()
    traced_insert()
    self_s, calls = tracer.aggregate()
    assert calls == {"history.try_insert": 2, "param_estimator.observe": 1}
    assert 0.009 < self_s["param_estimator.observe"] < 0.019
    assert self_s["history.try_insert"] >= 0.04
    assert tracer.counts["offers.theta"] == 1
    assert tracer.counts["offers.other"] == 1
    assert tracer.counts["admitted.theta"] == 1
