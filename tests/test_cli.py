"""Exit codes of the command-line interface: 0 success, 1 tolerance, 2 config,
3 divergence."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import per_step
from conftest import per_value_stack_csv
from oirl import harness
from oirl.cli import main
from oirl.errors import DivergenceError
from oirl.harness import config_from_dict, run_scenario
from oirl.irl_engine import RewardEstimator
from oirl.policy_estimator import PolicyEstimator

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "configs" / "tracking.json"
TWO_INPUT = ROOT / "perfbench" / "configs" / "two_input.json"


def _write(tmp_path, data) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_non_object_section_exits_2(tmp_path):
    data = json.loads(SHIPPED.read_text())
    data["plant"] = "x"
    assert main(["run", "--config", _write(tmp_path, data),
                 "--out", str(tmp_path / "out")]) == 2


def test_non_object_config_exits_2(tmp_path):
    assert main(["run", "--config", _write(tmp_path, ["plant"]),
                 "--out", str(tmp_path / "out")]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "out")]) == 2


def test_dt_not_dividing_the_theta_window_exits_2(tmp_path):
    data = json.loads(SHIPPED.read_text())
    data["simulation"]["dt"] = 0.004        # 62.5 steps per 0.25 s window
    assert main(["run", "--config", _write(tmp_path, data),
                 "--out", str(tmp_path / "out")]) == 2


def test_duration_not_a_whole_number_of_steps_exits_2(tmp_path, capsys):
    data = json.loads(SHIPPED.read_text())
    data["simulation"]["duration"] = 2.003  # 400.6 steps of 0.005 s
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, data),
                 "--out", str(out)]) == 2
    assert "divide the duration" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


MISTYPED = [
    # a key that is not in the section
    ("plant", "famliy", "linear_uncertain"),
    ("reference", "x_0", [0.0, 0.0]),
    ("reward", "qq", [[1.0, 0.0], [0.0, 1.0]]),
    ("features", "values", "quadratic"),
    ("simulation", "dtt", 0.01),
    ("flags", "query", False),
    ("tolerances", "thetta", 0.5),
    # a known key holding a value of the wrong kind
    ("flags", "querying", "false"),
    ("irl", "stack_size", 50.7),
    ("irl", "alpha", "0.1"),
    ("simulation", "duration", float("nan")),
    ("theta_estimator", "box", [[-2.0, 2.0], [-2.0, 2.0]]),
]


@pytest.mark.parametrize("section, key, value", MISTYPED,
                         ids=[f"{s}.{k}" for s, k, _ in MISTYPED])
def test_mistyped_config_exits_2(tmp_path, capsys, section, key, value):
    data = json.loads(SHIPPED.read_text())
    data[section][key] = value
    assert main(["run", "--config", _write(tmp_path, data),
                 "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


# Configs that read cleanly but yield no scenario to run and score: no
# stabilizing reference, no closed-form policy or value weights, no
# stabilizing Riccati solution, a rank test that can never pass, a gain that
# starts outside its own reset limits, a revision test that fires on every
# step, a seed that starts no random stream, or a tolerance no error is below.
UNBUILDABLE = {
    "unstable_reference": {("reference", "matrix"): [[0.0, 1.0], [-2.0, 1.0]],
                           ("reference", "feedforward"): [[-1.5, 1.5]]},
    "quadratic_policy": {("features", "policy"): "quadratic"},
    "negative_q": {("reward", "q"): [[-1.0, 0.0], [0.0, -1.0]]},
    "policy_rank_threshold": {("policy_estimator", "rank_threshold"): 0.0},
    "irl_rank_threshold": {("irl", "rank_threshold"): 0.0},
    "squares_value": {("features", "value"): "squares"},
    "linear_value": {("features", "value"): "linear"},
    "linear_reward": {("features", "reward"): "linear"},
    "fourier_reward": {("features", "reward"): "fourier"},
    "theta_floor_above_ceiling": {("theta_estimator", "gamma_floor"): 10.0,
                                  ("theta_estimator", "gamma_ceiling"): 5.0},
    "policy_gamma0_above_ceiling": {("policy_estimator", "gamma0"): 1e8},
    "negative_revision_threshold": {
        ("theta_estimator", "revision_threshold"): -1.0},
    "pendulum_plant": {("plant", "family"): "pendulum"},
    "negative_seed": {("simulation", "seed"): -1},
    "zero_theta_tolerance": {("tolerances", "theta"): 0.0},
}
UNBUILDABLE_CASES = [(command, case) for case in UNBUILDABLE
                     for command in ("run", "oracle")]


@pytest.mark.parametrize("command, case", UNBUILDABLE_CASES,
                         ids=[f"{c}-{k}" for c, k in UNBUILDABLE_CASES])
def test_unbuildable_config_exits_2(tmp_path, capsys, command, case):
    data = json.loads(SHIPPED.read_text())
    for (section, key), value in UNBUILDABLE[case].items():
        data[section][key] = value
    argv = [command, "--config", _write(tmp_path, data)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    # a rejected feature basis names its key
    for section, key in UNBUILDABLE[case]:
        assert section != "features" or f"features.{key}" in err


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_a_run_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch, command):
    """A dt of 2**-30 s passes validation, but the shipped run's
    107,374,182,401 records cannot be allocated: one config error line, no
    traceback. The failure is injected, since a host that overcommits memory
    may grant the allocation and start a run that does not end."""
    def unallocatable(cfg, modes):
        raise MemoryError("Unable to allocate 12.5 TiB for an array with shape "
                          "(107374182401, 16) and data type float64")

    monkeypatch.setattr(harness, "_run_lanes", unallocatable)
    out = tmp_path / "out"
    assert main([command, "--config", str(SHIPPED), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: Unable to allocate 12.5 TiB")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(out.iterdir())


# Numbers that read as numbers but lie out of range: an int past the float
# range, and sizes numpy refuses before it allocates anything, a run of
# 2**-50 s steps (1.1e17 records) and an IRL stack of 2**62 entries
OUT_OF_RANGE = {
    "dt_past_the_float_range": (("simulation", "dt"), 10 ** 400,
                                "simulation.dt must be a finite number"),
    "dt_of_2**-50": (("simulation", "dt"), 2.0 ** -50, "run too large for memory"),
    "irl_stack_of_2**62": (("irl", "stack_size"), 2 ** 62, "run too large for memory"),
}
OUT_OF_RANGE_CASES = [("oracle", "dt_past_the_float_range"),
                      ("run", "dt_past_the_float_range")]
OUT_OF_RANGE_CASES += [(command, case) for case in ("dt_of_2**-50", "irl_stack_of_2**62")
                       for command in ("run", "ablate")]


@pytest.mark.parametrize("command, case", OUT_OF_RANGE_CASES,
                         ids=[f"{c}-{k}" for c, k in OUT_OF_RANGE_CASES])
def test_an_out_of_range_number_exits_2_with_one_line(tmp_path, capsys, command, case):
    """One config error line, no traceback, and nothing written."""
    (section, key), value, message = OUT_OF_RANGE[case]
    data = json.loads(SHIPPED.read_text())
    data[section][key] = value
    argv = [command, "--config", _write(tmp_path, data)]
    out = tmp_path / "out"
    if command != "oracle":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists() or not list(out.iterdir())


def test_negative_seed_override_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(SHIPPED), "--seed", "-3",
                 "--out", str(out)]) == 2
    assert "simulation.seed must be non-negative" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_dt_that_makes_the_demonstrators_step_unstable_exits_2(tmp_path, capsys):
    """With Q = 1e4 I the closed loop's eigenvalues are -1.00 and -31.6, and
    at dt = 0.25 its RK4 step has spectral radius 7.36: `oracle`, the run
    and the no-query run are refused, not simulated into a tolerance failure
    or an overflow. At the shipped dt the same costs pass."""
    data = json.loads(SHIPPED.read_text())
    data["reward"]["q"] = [[1e4, 0.0], [0.0, 1e4]]
    data["simulation"].update(dt=0.25, duration=30.0)
    out = ["--out", str(tmp_path / "out")]
    for argv in (["oracle"], ["run", *out], ["run", "--no-query", *out]):
        assert main([*argv, "--config", _write(tmp_path, data)]) == 2
        assert "spectral radius 7.36 under the optimal feedback" in \
            capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.csv").exists()
    data["simulation"].update(dt=0.005, duration=2.0)
    assert main(["oracle", "--config", _write(tmp_path, data)]) == 0


def test_ablate_of_zero_duration_exits_2(tmp_path, capsys):
    """Duration 0 is a valid run, but ablate has no step to compare."""
    data = json.loads(SHIPPED.read_text())
    data["simulation"]["duration"] = 0.0
    assert main(["ablate", "--config", _write(tmp_path, data),
                 "--out", str(tmp_path / "out")]) == 2
    assert "duration" in capsys.readouterr().err


def test_quadratic_reward_is_recovered_with_two_inputs(tmp_path):
    """A full-Q reward over the quadratic monomials runs and passes on the
    two-input scenario. One input leaves it unidentifiable: the shipped
    scenario has more unknowns than equations and misses its tolerances."""
    data = json.loads(TWO_INPUT.read_text())
    data["features"]["reward"] = "quadratic"
    data["simulation"]["duration"] = 30.0
    assert main(["run", "--config", _write(tmp_path, data),
                 "--out", str(tmp_path / "out")]) == 0


def test_short_run_missing_its_tolerances_exits_1(tmp_path):
    data = json.loads(SHIPPED.read_text())
    data["simulation"]["duration"] = 2.0    # the shortest the purge dwell allows
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, data),
                 "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    assert (out / "metrics.csv").exists()


def _shipped_for(tmp_path, duration=4.0) -> str:
    data = json.loads(SHIPPED.read_text())
    data["simulation"]["duration"] = duration
    return _write(tmp_path, data)


@pytest.mark.parametrize("min_ratio, plateau_limit", [
    (0.0, math.inf), (math.inf, harness.ABLATION_PLATEAU_LIMIT)])
def test_ablate_writes_the_lanes_of_run_and_its_report(
        tmp_path, monkeypatch, capsys, min_ratio, plateau_limit):
    """`oirl ablate` on the shipped config cut to 4 s, with its verdict
    made to pass and to fail: it exits 0 on a passing report and 1 on a
    failing one, writes `ablate`'s report as ablation.json, and its lane
    CSVs are the bytes of `oirl run` and `oirl run --no-query`."""
    monkeypatch.setattr(harness, "ABLATION_MIN_RATIO", min_ratio)
    monkeypatch.setattr(harness, "ABLATION_PLATEAU_LIMIT", plateau_limit)
    config = _shipped_for(tmp_path)
    report = harness.ablate(harness.load_config(config))["report"]
    assert report["pass"] is (min_ratio == 0.0)
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", config, "--out", str(out)]) == (
        0 if report["pass"] else 1)
    assert ("ablation PASS" if report["pass"] else "ablation FAIL") in capsys.readouterr().out
    assert json.loads((out / "ablation.json").read_text()) == report
    for flags, lane in (([], "metrics_query.csv"), (["--no-query"], "metrics_noquery.csv")):
        run_out = tmp_path / lane
        main(["run", *flags, "--config", config, "--out", str(run_out)])
        assert (out / lane).read_bytes() == (run_out / "metrics.csv").read_bytes()


@pytest.mark.parametrize("flags, querying", [([], True), (["--no-query"], False)])
def test_run_dump_stacks_writes_each_stack_as_the_per_value_writer(
        tmp_path, flags, querying):
    """`oirl run --dump-stacks` writes the final theta, policy and IRL stacks
    of the run its flags ask for, each the bytes of the per-value writer
    (the no-query IRL stack, purged on the last step, as a header alone);
    without the flag it writes none."""
    config = _shipped_for(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--dump-stacks", *flags, "--config", config,
                 "--out", str(out)]) in (0, 1)
    result = run_scenario(harness.load_config(config), querying=querying)
    assert sorted(p.name for p in out.glob("*_stack.csv")) == [
        "irl_stack.csv", "policy_stack.csv", "theta_stack.csv"]
    for name, stack in result.stacks.items():
        assert (out / f"{name}_stack.csv").read_bytes() == per_value_stack_csv(stack)
    main(["run", *flags, "--config", config, "--out", str(tmp_path / "plain")])
    assert not list((tmp_path / "plain").glob("*_stack.csv"))


def test_oracle_exits_0(capsys):
    assert main(["oracle", "--config", str(SHIPPED)]) == 0
    assert "K =" in capsys.readouterr().out


# The reward basis is the one feature choice left, and the plant family, the
# value and policy features and irl.rank_threshold are checked but set
# nothing, so a config may leave those four keys out
ORACLE_VARIANTS = {
    "quadratic_reward": {("features", "reward"): "quadratic"},
    "no_unstored_keys": {("plant", "family"): None, ("features", "value"): None,
                         ("features", "policy"): None, ("irl", "rank_threshold"): None},
}


@pytest.mark.parametrize("case", ORACLE_VARIANTS)
def test_oracle_on_a_variant_of_the_shipped_config_exits_0(tmp_path, capsys, case):
    data = json.loads(SHIPPED.read_text())
    for (section, key), value in ORACLE_VARIANTS[case].items():
        if value is None:
            del data[section][key]
        else:
            data[section][key] = value
    assert main(["oracle", "--config", _write(tmp_path, data)]) == 0
    assert "K =" in capsys.readouterr().out


@pytest.fixture
def overflowing_policy_samples(monkeypatch):
    """Bank each policy sample with its row scaled by 1e-10 and its target by
    1e300: finite rows and targets whose least-squares weights overflow."""
    init = PolicyEstimator.__init__

    def rescaling(self, *args):
        init(self, *args)
        insert = self.stack.try_insert
        self.stack.try_insert = lambda row, target, t, tag=0: insert(
            1e-10 * row, 1e300 * target, t, tag)

    monkeypatch.setattr(PolicyEstimator, "__init__", rescaling)


def _diverging_policy_config() -> dict:
    data = json.loads(SHIPPED.read_text())
    data["policy_estimator"]["beta"] = 100.0
    data["policy_estimator"]["gamma_ceiling"] = 1e300
    data["simulation"]["duration"] = 2.0
    return data


def test_diverging_policy_update_exits_3(tmp_path, capsys,
                                         overflowing_policy_samples):
    """Forgetting shrinks H along the weakly excited rows until the policy
    weight solve overflows; the run exits 3 and names its last record."""
    with np.errstate(over="ignore"):
        code = main(["run", "--config", _write(tmp_path, _diverging_policy_config()),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "PolicyEstimator weight update went non-finite" in err
    assert "last valid record index" in err


def test_diverging_policy_update_is_the_per_step_loops_error(
        overflowing_policy_samples):
    """The staged run raises the divergence above at the step, with the
    message and last record, that the per-step loop does."""
    cfg = config_from_dict(_diverging_policy_config())
    errors = []
    for run in (run_scenario, lambda c: per_step.run_lanes(c, (True,))):
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
            run(cfg)
        errors.append(info.value)
    got, want = errors
    assert str(got) == str(want) == "PolicyEstimator weight update went non-finite"
    assert got.t is want.t is None
    assert got.last_record_index == want.last_record_index > 0


def test_an_offer_error_precedes_an_update_error_of_the_same_step(
        monkeypatch, overflowing_policy_samples):
    """Within a step the offers come before the updates: a lane's offer that
    fails on the step whose policy update diverges wins, in the staged run
    as in the per-step loop. The trajectory lane's gate opens at 0.37 s,
    and its offers, due every 0.05 s, fall on that step at 0.47 s while
    its stack still fills, so both runs reach try_insert there."""
    data = _diverging_policy_config()
    data["flags"]["querying"] = False
    cfg = config_from_dict(data)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
        run_scenario(cfg)
    step = info.value.last_record_index + 1
    init = RewardEstimator.__init__

    def failing(self, *args):
        init(self, *args)
        insert = self.stack.try_insert

        def insert_or_raise(rows, targets, t, tag=0):
            if t >= step * cfg.dt:
                raise DivergenceError(f"lane offer at t={t:.6g}")
            return insert(rows, targets, t, tag)
        self.stack.try_insert = insert_or_raise

    monkeypatch.setattr(RewardEstimator, "__init__", failing)
    for run in (run_scenario, lambda c: per_step.run_lanes(c, (False,))):
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
            run(cfg)
        assert str(info.value) == f"lane offer at t={step * cfg.dt:.6g}"
        assert info.value.last_record_index == step - 1


def _diverging_stack_config() -> dict:
    """A reference state of 1e160: finite, but the policy stack's gram of
    its first sample overflows."""
    data = json.loads(SHIPPED.read_text())
    data["reference"]["x0"] = [1e160, 0.0]
    data["simulation"]["duration"] = 5.0
    return data


def test_a_stack_divergence_exits_3_without_warnings(tmp_path):
    """The overflow ends the run with its DivergenceError alone: exit 3, and
    no numpy RuntimeWarning on stderr before the message."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "oirl.cli", "run", "--config",
         _write(tmp_path, _diverging_stack_config()), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert done.returncode == 3
    assert "symmetric eigenvalues went non-finite" in done.stderr
    assert "RuntimeWarning" not in done.stderr


def test_a_stack_divergence_raises_the_per_step_loops_error():
    """In-process, where a RuntimeWarning is an error, the run raises the
    DivergenceError of the per-step loop, at its step."""
    cfg = config_from_dict(_diverging_stack_config())
    with pytest.raises(DivergenceError) as info:
        run_scenario(cfg)
    got = info.value
    # the per-step loop's zero-signal test overflows, quietly here only
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
        per_step.run_lanes(cfg, (True,))
    want = info.value
    assert str(got) == str(want) == "symmetric eigenvalues went non-finite"
    assert got.last_record_index == want.last_record_index == -1


def _diverging_state_config() -> dict:
    """A plant state of 1e308: finite, but the theta windows' sums of
    neighbouring states overflow, as does the policy stack's gram of its
    first sample."""
    data = json.loads(SHIPPED.read_text())
    data["reference"]["x0"] = [1e308, 0.0]
    data["simulation"]["duration"] = 5.0
    return data


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_a_state_near_overflow_exits_3_without_warnings(tmp_path, command):
    """Every offer is built quietly, the theta windows too: with every
    warning an error, the run still ends in its DivergenceError, exit 3."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", _write(tmp_path, _diverging_state_config()),
                     "--out", str(tmp_path / "out")])
    assert code == 3


@pytest.mark.parametrize("modes", [(True,), (True, False)])
def test_a_state_near_overflow_raises_the_per_step_loops_error(modes):
    """The staged run and ablate, with every warning an error, raise the
    DivergenceError of the per-step loop, message and last record."""
    cfg = config_from_dict(_diverging_state_config())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            harness._run_lanes(cfg, modes)
    got = info.value
    # the per-step loop's windows and zero-signal test overflow, quietly here
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError) as info:
        per_step.run_lanes(cfg, modes)
    want = info.value
    assert str(got) == str(want) == "symmetric eigenvalues went non-finite"
    assert got.last_record_index == want.last_record_index == -1


def _non_finite_query_config() -> dict:
    """A query box of +-1e160: finite query states, but the inverse Bellman
    rows built at them overflow to inf."""
    data = json.loads(SHIPPED.read_text())
    data["irl"]["query_box"] = [[-1e160, 1e160], [-1e160, 1e160]]
    data["simulation"]["duration"] = 5.0
    return data


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_a_non_finite_offer_exits_3_without_a_traceback(tmp_path, command):
    """A non-finite row offered to a stack is a divergence: exit 3 with its
    message alone, no traceback and no numpy RuntimeWarning."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "oirl.cli", command, "--config",
         _write(tmp_path, _non_finite_query_config()), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert done.returncode == 3
    assert "non-finite row or target offered to history stack" in done.stderr
    assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr


def test_a_non_finite_offer_raises_the_per_step_loops_error():
    """The staged run raises the DivergenceError of the per-step loop, with
    its message and last record."""
    cfg = config_from_dict(_non_finite_query_config())
    with pytest.raises(DivergenceError) as info:
        run_scenario(cfg)
    got = info.value
    # the per-step loop builds each query's rows unguarded, so quietly here
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            per_step.run_lanes(cfg, (True,))
    want = info.value
    assert str(got) == str(want) == "non-finite row or target offered to history stack"
    assert got.last_record_index == want.last_record_index > 0


def test_policy_gain_that_overflows_resets_instead_of_diverging(tmp_path):
    """alpha = 1e300 overflows b S, so the policy information matrix resets
    on every step, its weights stay at 0, and the run ends in a tolerance
    failure, not a divergence."""
    data = json.loads(SHIPPED.read_text())
    data["policy_estimator"]["alpha"] = 1e300
    data["simulation"]["duration"] = 2.0
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", _write(tmp_path, data), "--out", str(out)])
    assert code == 1
    metrics = np.genfromtxt(out / "metrics.csv", delimiter=",", names=True)
    assert metrics["policy_gain_reset"].all()
    report = json.loads((out / "report.json").read_text())
    assert report["quantities"]["policy_weights"]["pass"] is False


def test_diverging_plant_step_in_ablate_exits_3(tmp_path, capsys,
                                                overflowing_plant_step):
    data = json.loads(SHIPPED.read_text())
    data["reference"]["x0"] = [1e10, 0.0]
    data["simulation"]["duration"] = 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["ablate", "--config", _write(tmp_path, data),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert "last valid record index 0" in capsys.readouterr().err
