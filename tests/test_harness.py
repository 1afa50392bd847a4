"""Scenario configuration, metrics plumbing, and the closed-loop runner."""

import dataclasses
import hashlib
import itertools
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import per_step
from conftest import fail_offers_from, per_value_stack_csv
from oirl.errors import ConfigError, DivergenceError
from oirl.history import HistoryStack
from oirl.irl_engine import RewardEstimator
from oirl.param_estimator import ThetaEstimator
from oirl.policy_estimator import PolicyEstimator
from oirl.harness import (CONFIG_TABLE, CSV_BLOCK, CSV_COLUMNS, POSITIVE,
                          FinalEstimates, MetricsRecord, RecordTable,
                          ScenarioConfig, Tolerances, ablate,
                          combined_weight_error, compare_to_oracle,
                          config_from_dict, dump_stacks, emit_csv, load_config,
                          record_array, run_scenario, validate_config)

W_V_EXACT = np.array([1.820018342750099, 2.3021637657609624,
                      1.8321595661992322])

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "configs" / "tracking.json"
TWO_INPUT = ROOT / "perfbench" / "configs" / "two_input.json"
CFG = load_config(SHIPPED)


def _short_cfg(**overrides):
    return dataclasses.replace(CFG, duration=2.0, **overrides)


# -- configuration ------------------------------------------------------------

def _shipped_data() -> dict:
    return json.loads(SHIPPED.read_text())


def test_the_shipped_config_spells_out_every_key():
    """The shipped file holds every key the reader knows, and the reader
    fills every field of the config and of its groups from a key."""
    data = _shipped_data()
    assert {(s, k) for s, body in data.items() for k in body} == set(CONFIG_TABLE)
    fields = set()
    for f in dataclasses.fields(ScenarioConfig):
        if dataclasses.is_dataclass(f.default):
            fields |= {f"{f.name}.{g.name}" for g in dataclasses.fields(f.default)}
        else:
            fields.add(f.name)
    assert {name for name, _ in CONFIG_TABLE.values() if name} == fields
    assert config_from_dict(data) == CFG


def test_unknown_section_is_rejected():
    data = _shipped_data()
    data["extras"] = {}
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_unknown_key_is_rejected():
    data = _shipped_data()
    data["irl"]["momentum"] = 0.9
    with pytest.raises(ConfigError):
        config_from_dict(data)


@pytest.mark.parametrize("section, key, value", [
    ("plant", "nominal_a", None),                         # a required key
    ("simulation", "seed", 7.0),                          # int, not float
    ("simulation", "duration", True),                     # bool is not a number
    ("irl", "gamma_ceiling", float("inf")),               # not finite
    ("reference", "x0", [0.0, [0.0]]),                    # not rectangular
    ("reward", "q", [[1.0, "0"], [0.0, 1.0]]),            # a string entry
    ("features", "value", 3),
    # keys stored nowhere: one implemented value, or a positive number
    ("plant", "family", "pendulum"),
    ("features", "value", "fourier"),
    ("features", "policy", "quadratic"),
    ("irl", "rank_threshold", 0.0),
    ("irl", "rank_threshold", "0.1"),
])
def test_values_are_checked_against_their_kind(section, key, value):
    data = _shipped_data()
    if value is None:
        del data[section][key]
    else:
        data[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        config_from_dict(data)


def test_omitted_keys_take_the_dataclass_defaults():
    data = _shipped_data()
    for section in ("features", "policy_estimator", "theta_estimator",
                    "simulation", "flags"):
        del data[section]
    del data["plant"]["family"]
    data["irl"] = {"r1": 20.0}
    data["tolerances"] = {"theta": 0.5}
    cfg = config_from_dict(data)
    assert cfg.irl == dataclasses.replace(CFG.irl, r1=20.0)
    assert cfg.tolerances == Tolerances(theta=0.5)
    assert dataclasses.replace(cfg, irl=CFG.irl, tolerances=CFG.tolerances) == CFG


def test_malformed_json_is_a_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{broken")
    with pytest.raises(ConfigError):
        load_config(path)


def test_true_linear_system_assembles_the_plant():
    a, b = validate_config(CFG).scenario.plant.true_system()
    np.testing.assert_allclose(a, [[0.0, 1.0], [-0.5, -0.5]])
    np.testing.assert_allclose(b, [[0.0], [1.0]])


@pytest.mark.parametrize("overrides", [
    {"dt": -0.005},
    {"duration": 1.0},                                    # below the dwell
    {"reference_matrix": ((0.0, 1.0), (-3.0, 0.0))},      # A_d != A + B F
    {"theta_true": ((0.0, -0.5), (0.0, -0.5))},
    {"q_true": ((1.0, 0.5), (0.0, 1.0))},
    {"r_true": ((-10.0,),)},
    {"seed": -1},                                         # no random stream
    {"irl": dataclasses.replace(CFG.irl, dwell=0.0)},
    {"dt": 0.004},                                        # 62.5 steps per window
    {"duration": 2.003},                                  # 400.6 steps
    {"duration": 2.0024},                                 # 400.48 steps
    {"duration": -2.0},
    {"x0": (0.0, 0.0, 0.0)},
    {"irl": dataclasses.replace(CFG.irl, query_box=((-1.0, 1.0),))},
    {"policy_estimator": dataclasses.replace(CFG.policy_estimator, stack_size=1)},
    {"theta_estimator": dataclasses.replace(CFG.theta_estimator, stack_size=2)},
    {"q_true": ((1.0, 0.5), (0.5, 1.0))},                 # squares, off-diagonal
    {"reference_matrix": ((0.0, 1.0, 0.0),)},             # not (n, n)
    {"feedforward": ((0.5,),)},                           # not (m, n)
])
def test_invalid_configs_are_rejected(overrides):
    cfg = dataclasses.replace(CFG, **overrides)
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def _with_value(cfg, name, value):
    """cfg with its dotted attribute `name` set to value."""
    head, _, leaf = name.partition(".")
    if leaf:
        value = dataclasses.replace(getattr(cfg, head), **{leaf: value})
    return dataclasses.replace(cfg, **{head: value})


@pytest.mark.parametrize("name", POSITIVE)
def test_a_value_that_must_be_positive_rejects_zero_by_name(name):
    """A tolerance of 0 can never pass, since an error passes below it, and
    a zero step, period, window, gain or threshold leaves nothing to run:
    each is a config error that names its key."""
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be positive$"):
        validate_config(_with_value(CFG, name, 0.0))


@pytest.mark.parametrize("dt", [0.0025, 0.005, 0.01])
def test_dt_dividing_the_theta_window_is_accepted(dt):
    validate_config(dataclasses.replace(CFG, dt=dt))


def test_undersized_stacks_are_rejected():
    irl = dataclasses.replace(CFG.irl, stack_size=3)
    with pytest.raises(ConfigError):
        run_scenario(dataclasses.replace(CFG, irl=irl))


def test_weight_targets_follow_the_anchor():
    t10 = validate_config(CFG).targets
    assert t10.scale == pytest.approx(1.0)
    np.testing.assert_allclose(t10.value, W_V_EXACT, atol=1e-12)
    np.testing.assert_allclose(t10.reward, [1.0, 1.0])
    assert t10.control.shape == (0,)
    doubled = dataclasses.replace(CFG, irl=dataclasses.replace(CFG.irl, r1=20.0))
    t20 = validate_config(doubled).targets
    assert t20.scale == pytest.approx(2.0)
    np.testing.assert_allclose(t20.value, 2.0 * t10.value)
    np.testing.assert_allclose(t20.reward, 2.0 * t10.reward)


# -- metrics ------------------------------------------------------------------

def _dummy_records(t, err=1.0, purge=0):
    """A one-row RecordTable built from a MetricsRecord."""
    rec = MetricsRecord(t=t, tracking_error=0.0, theta_error=0.0,
                        policy_error=0.0, value_error=err, reward_error=err,
                        control_error=err, lambda_theta_stack=0.0,
                        lambda_policy_stack=0.0, lambda_irl_stack=0.0,
                        lambda_gamma_policy=1.0, lambda_gamma_irl=1.0,
                        purge=purge, theta_gain_reset=0, policy_gain_reset=0,
                        irl_gain_reset=0)
    return RecordTable(np.array([dataclasses.astuple(rec)], dtype=float))


def _getattr_csv(records) -> bytes:
    """The per-record CSV writer the table-reading `emit_csv` replaced."""
    flags = {"purge", "theta_gain_reset", "policy_gain_reset", "irl_gain_reset"}
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(
            str(int(getattr(rec, name))) if name in flags
            else format(float(getattr(rec, name)), ".17g")
            for name in CSV_COLUMNS))
    return ("\n".join(lines) + "\n").encode()


def test_csv_columns_match_record_fields():
    assert CSV_COLUMNS[0] == "t"
    assert len(CSV_COLUMNS) == 16


def test_emit_csv_formats_flags_as_integers(tmp_path):
    path = tmp_path / "m.csv"
    emit_csv(_dummy_records(0.0), path)
    header, row = path.read_text().strip().split("\n")
    assert header == ",".join(CSV_COLUMNS)
    assert row.endswith(",0,0,0,0")
    emit_csv(_dummy_records(0.0, purge=1), path)
    assert path.read_text().strip().split("\n")[1].endswith(",1,0,0,0")


def test_combined_weight_error():
    recs = _dummy_records(0.0, err=2.0)
    np.testing.assert_allclose(combined_weight_error(recs),
                               [np.sqrt(12.0)])
    np.testing.assert_allclose(record_array(recs, "value_error"), [2.0])


def test_records_read_as_metrics_records():
    table = np.arange(3 * 16, dtype=float).reshape(3, 16)
    table[:, 12:] = [[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 1, 1]]
    records = RecordTable(table)
    assert len(records) == 3
    last = records[-1]
    assert isinstance(last, MetricsRecord)
    assert last == records[2]
    assert dataclasses.astuple(records[-3]) == (
        *map(float, range(12)), 0, 1, 0, 1)
    terminal = dataclasses.asdict(last)
    assert list(terminal) == CSV_COLUMNS
    assert terminal["t"] == 32.0 and type(terminal["t"]) is float
    assert terminal["purge"] == 0 and type(terminal["irl_gain_reset"]) is int
    assert [rec.t for rec in records] == [0.0, 16.0, 32.0]
    assert [rec.purge for rec in records] == [0, 1, 0]
    with pytest.raises(IndexError):
        records[3]


# -- runner -------------------------------------------------------------------

def test_zero_duration_yields_an_empty_run(tmp_path):
    cfg = dataclasses.replace(CFG, duration=0.0)
    result = run_scenario(cfg)
    assert len(result.records) == 0 and list(result.records) == []
    assert result.records.table.shape == (0, len(CSV_COLUMNS))
    assert result.purge_times == []
    np.testing.assert_array_equal(result.estimates.theta_hat, np.zeros((3, 2)))
    np.testing.assert_array_equal(result.estimates.policy_weights,
                                  np.zeros((2, 1)))
    path = tmp_path / "empty.csv"
    emit_csv(result.records, path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_ablate_needs_a_step_to_compare():
    """A run of duration 0 is valid, but ablate has no terminal errors to
    contrast."""
    with pytest.raises(ConfigError, match="duration"):
        ablate(dataclasses.replace(CFG, duration=0.0))


def test_short_run_record_count_and_time_grid():
    result = run_scenario(_short_cfg())
    assert len(result.records) == 401  # duration / dt + 1
    times = record_array(result.records, "t")
    np.testing.assert_allclose(times, 0.005 * np.arange(401), atol=1e-12)


def test_short_runs_are_byte_identical(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    emit_csv(run_scenario(_short_cfg()).records, p1)
    emit_csv(run_scenario(_short_cfg()).records, p2)
    h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
    h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
    assert h1 == h2


def test_the_seed_reaches_only_the_query_draws():
    """Two shipped-config runs at dt 0.01 that differ only in the seed share
    the demonstration, the theta and the policy stages bit for bit; only the
    lane's queries, and so its reward estimates, differ."""
    a, b = (run_scenario(dataclasses.replace(CFG, dt=0.01, duration=10.0, seed=s))
            for s in (0, 1))
    for name in ("t", "tracking_error", "theta_error", "policy_error",
                 "lambda_theta_stack", "lambda_policy_stack"):
        assert (record_array(a.records, name).tobytes()
                == record_array(b.records, name).tobytes()), name
    assert not np.array_equal(record_array(a.records, "value_error"),
                              record_array(b.records, "value_error"))


def _assert_diverges_after_the_first_step(run):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            run(_short_cfg(x0=(1e10, 0.0)))
    err = info.value
    assert err.t == 0.0
    assert err.state.shape == (2,) and not np.isfinite(err.state).all()
    assert err.last_record_index == 0


def test_non_finite_state_raises_divergence_with_t_and_state(
        overflowing_plant_step):
    """A plant step that overflows ends the run with a DivergenceError that
    carries the step's time and the offending state."""
    _assert_diverges_after_the_first_step(run_scenario)


def test_non_finite_state_ends_both_ablate_lanes(overflowing_plant_step):
    """The lanes share one plant step, so its overflow ends the ablation with
    the same error."""
    _assert_diverges_after_the_first_step(ablate)


def _raised(run, cfg) -> DivergenceError:
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            run(cfg)
    return info.value


def _assert_same_error(got, want):
    assert type(got) is type(want) and str(got) == str(want)
    assert got.t == want.t and got.last_record_index == want.last_record_index


def test_plant_overflow_after_a_later_step_is_the_per_step_loops_error(
        slowly_overflowing_plant_step):
    """The state overflows after step 4: the run and both ablate lanes end
    with the error the per-step loop raises, at that step's t and record."""
    cfg = _short_cfg()
    want = _raised(lambda c: per_step.run_lanes(c, (True,)), cfg)
    assert want.t == 4 * cfg.dt and want.last_record_index == 4
    assert not np.isfinite(want.state).all()
    for run in (run_scenario, ablate):
        got = _raised(run, cfg)
        _assert_same_error(got, want)
        np.testing.assert_array_equal(got.state, want.state)


@pytest.mark.parametrize("query_t, no_query_t", [(1.5, 1.0), (1.0, 1.5)])
def test_ablate_raises_the_earlier_lanes_error(monkeypatch, query_t, no_query_t):
    """Each lane's offers diverge from a time on; ablate raises the lane
    whose offer comes first, as the per-step loop does."""
    init = RewardEstimator.__init__
    # ablate builds the query lane first
    lanes = itertools.cycle([("query offer", query_t),
                             ("trajectory offer", no_query_t)])

    def diverging(self, *args):
        init(self, *args)
        name, since = next(lanes)
        fail_offers_from(self.stack, since, name)

    monkeypatch.setattr(RewardEstimator, "__init__", diverging)
    cfg = _short_cfg()
    got = _raised(ablate, cfg)
    want = _raised(lambda c: per_step.run_lanes(c, (True, False)), cfg)
    _assert_same_error(got, want)
    lane = "query offer" if query_t <= no_query_t else "trajectory offer"
    name, t = str(got).split(" at t=")
    assert name == lane and min(query_t, no_query_t) <= float(t) < 1.1
    assert got.last_record_index == round(float(t) / cfg.dt) - 1


def test_dump_stacks_writes_one_file_per_stack(tmp_path):
    result = run_scenario(_short_cfg())
    dump_stacks(result, tmp_path)
    for name in ("theta", "policy", "irl"):
        lines = (tmp_path / f"{name}_stack.csv").read_text().strip().split("\n")
        assert lines[0].startswith("t,tag,r0")
        assert 1 <= len(lines) - 1 <= 50


def test_dump_stacks_equals_a_per_value_writer(tmp_path):
    """Written by `emit_csv`'s block writer, a stack's CSV has the bytes of
    the per-value writer, over more rows than one block: runs of equal
    values across a block boundary, signed zeros, subnormals, large values,
    block rows sharing a time and tag, and an empty stack."""
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e150, -1e150, 0.1, 1.0 / 3.0]
    stack = HistoryStack(capacity=CSV_BLOCK + 100, row_dim=3, block_rows=2,
                         target_dim=2)
    for i in range(stack.capacity):
        rows = rng.choice(special, size=(2, 3)) if i % 3 else np.full((2, 3), 0.1)
        rows[0, 0] = 1.0 + i        # the stack is never full: each is appended
        assert stack.try_insert(rows, rng.choice(special, size=(2, 2)),
                                t=0.005 * (i // 7), tag=i // 50)
    empty = HistoryStack(capacity=2, row_dim=1)
    result = SimpleNamespace(stacks={"full": stack, "empty": empty})
    dump_stacks(result, tmp_path)
    assert (tmp_path / "full_stack.csv").read_bytes() == per_value_stack_csv(stack)
    assert (tmp_path / "empty_stack.csv").read_bytes() == per_value_stack_csv(empty)
    assert per_value_stack_csv(empty) == b"t,tag,r0,target0\n"


# -- scoring ------------------------------------------------------------------

ORACLE = validate_config(CFG).oracle


def _exact_estimates():
    return FinalEstimates(theta_hat=np.asarray(CFG.theta_true),
                          policy_weights=ORACLE.gain.T.copy(),
                          value_weights=ORACLE.value_weights.copy(),
                          reward_weights=np.array([1.0, 1.0]),
                          control_weights=np.zeros(0))


def test_compare_to_oracle_accepts_exact_estimates():
    report = compare_to_oracle(_exact_estimates(), ORACLE, CFG)
    assert report["pass"] is True
    assert report["ground_truth"] is True
    for entry in report["quantities"].values():
        assert entry["error"] == pytest.approx(0.0, abs=1e-12)


def test_compare_to_oracle_flags_a_bad_quantity():
    est = _exact_estimates()
    est = dataclasses.replace(est, value_weights=est.value_weights + 0.1)
    report = compare_to_oracle(est, ORACLE, CFG)
    assert report["pass"] is False
    assert report["quantities"]["value_weights"]["pass"] is False
    assert report["quantities"]["reward_weights"]["pass"] is True


def test_compare_to_oracle_scores_against_the_oracle_it_is_given():
    """The policy and value targets come from `sol`, not from re-solving cfg."""
    other = dataclasses.replace(ORACLE, gain=2.0 * ORACLE.gain,
                                value_weights=ORACLE.value_weights + 0.5)
    report = compare_to_oracle(_exact_estimates(), other, CFG)["quantities"]
    assert report["policy_weights"]["error"] == pytest.approx(
        np.linalg.norm(ORACLE.gain), rel=1e-15)
    assert report["value_weights"]["error"] == pytest.approx(
        0.5 * validate_config(CFG).targets.scale * np.sqrt(3.0), rel=1e-12)
    assert report["theta"]["error"] == report["reward_weights"]["error"] == 0.0


def test_compare_to_oracle_reports_dimension_mismatch():
    est = dataclasses.replace(_exact_estimates(), theta_hat=np.zeros((2, 2)))
    report = compare_to_oracle(est, ORACLE, CFG)
    entry = report["quantities"]["theta"]
    assert entry["pass"] is False
    assert "mismatch" in entry["note"]


# -- reference-run regressions (shared session fixture) ------------------------

def test_reference_run_bookkeeping(query_run):
    result, _ = query_run
    assert len(result.records) == 20001
    assert result.purge_times == [2.0, 4.0]
    spacing = np.diff([0.0] + result.purge_times)
    assert np.all(spacing >= 2.0 - 1e-12)
    assert result.gain_resets == {"theta": 0, "policy": 0, "irl": 0}
    # the policy stack reaches full rank well before the 5 s mark
    assert result.first_policy_rank_time is not None
    assert result.first_policy_rank_time <= 5.0


def test_first_policy_rank_time_is_read_from_the_records():
    """It is the first t whose lambda_policy_stack clears the policy rank
    threshold, and None when no record does."""
    result = run_scenario(_short_cfg())
    ready = (record_array(result.records, "lambda_policy_stack")
             > CFG.policy_estimator.rank_threshold)
    assert result.first_policy_rank_time == 0.6
    assert record_array(result.records, "t")[ready.argmax()] == 0.6
    never = dataclasses.replace(CFG.policy_estimator, rank_threshold=1e6)
    assert run_scenario(_short_cfg(policy_estimator=never)).first_policy_rank_time is None


def test_reference_run_tracks_the_oscillator(query_run):
    result, _ = query_run
    err = record_array(result.records, "tracking_error")
    assert err[0] == pytest.approx(1.0)  # e(0) = (-1, 0)
    # the control is held over each step while the reference keeps moving,
    # so tracking settles at a small sampled-data floor rather than zero
    assert np.max(err[-2000:]) < 1e-2    # last 10 s


# -- ablate's lanes ------------------------------------------------------------

def _csv_bytes(result, path):
    emit_csv(result.records, path)
    return path.read_bytes()


def _stack_rows(stack):
    return stack.contents().tolist()


@pytest.fixture(scope="module")
def two_input_cut():
    """(config, ablate outcome) of the 2-input scenario cut to 35 s. The
    window covers the purges at 2, 4 and 6 s and the no-query IRL gain reset
    at t = 32.655 s."""
    cfg = dataclasses.replace(load_config(TWO_INPUT), duration=35.0)
    return cfg, ablate(cfg)


def test_emit_csv_equals_a_per_record_writer(two_input_cut, tmp_path):
    """Read from the table's columns, the CSV has the bytes a writer of the
    records one field at a time gives, purge and reset flags included."""
    _, outcome = two_input_cut
    for key in ("with_query", "without_query"):
        records = outcome[key].records
        assert records.table.shape == (7001, len(CSV_COLUMNS))
        assert _csv_bytes(outcome[key], tmp_path / "m.csv") == _getattr_csv(records)
    flags = outcome["without_query"].records.table[:, -4:]
    assert flags[:, 0].sum() == 3 and flags[:, 3].sum() == 1
    # the values "%.17g" spells apart, in a table that ends in a part block
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.797e308,
               -1.797e308, 2.0 ** -1022, 0.1, 1.0 / 3.0, 1e16, 123456789.0]
    rows = 3 * CSV_BLOCK + 5
    table = np.resize(np.array(special), (rows, len(CSV_COLUMNS)))
    table[:, -4:] = np.arange(4 * rows).reshape(rows, 4) % 2
    records = RecordTable(table)
    emit_csv(records, tmp_path / "special.csv")
    assert (tmp_path / "special.csv").read_bytes() == _getattr_csv(records)
    # columns of runs, each value formatted once per run: runs of random
    # length over the same values, 0.0 next to -0.0 and NaN next to NaN, a
    # run across a block boundary, and the one-row table
    rng = np.random.default_rng(5)
    picks = rng.integers(0, len(special), size=(len(CSV_COLUMNS), rows))
    lengths = rng.integers(1, 40, size=(len(CSV_COLUMNS), rows))
    table = np.array([np.repeat(np.array(special)[p], n)[:rows]
                      for p, n in zip(picks, lengths)]).T
    table[:6, 1] = table[6:12, 2] = [0.0, 0.0, -0.0, -0.0, 0.0, np.nan]
    table[CSV_BLOCK - 9:CSV_BLOCK + 9, 3] = 1.0 / 3.0
    table[:, -4:] = np.repeat(rng.integers(0, 2, size=(rows // 8 + 1, 4)), 8,
                              axis=0)[:rows]
    table[:3, -1] = [0.0, -0.0, 1.0]
    for records in (RecordTable(table), RecordTable(table[:1])):
        emit_csv(records, tmp_path / "runs.csv")
        assert (tmp_path / "runs.csv").read_bytes() == _getattr_csv(records)


def test_record_columns_hold_the_run_state(two_input_cut):
    """Each column is the quantity it names: the terminal record against the
    run's final estimates and stacks, the flags against the event counts."""
    cfg, outcome = two_input_cut
    targets = validate_config(cfg).targets
    for key in ("with_query", "without_query"):
        result = outcome[key]
        est, last = result.estimates, result.records[-1]
        assert last.t == pytest.approx(35.0)
        assert last.theta_error == np.linalg.norm(est.theta_hat - cfg.theta_true)
        assert last.policy_error == np.linalg.norm(est.policy_weights - targets.policy)
        assert last.value_error == np.linalg.norm(est.value_weights - targets.value)
        assert last.reward_error == np.linalg.norm(est.reward_weights - targets.reward)
        assert last.control_error == np.linalg.norm(est.control_weights
                                                    - targets.control)
        for name in ("theta", "policy", "irl"):
            assert (getattr(last, f"lambda_{name}_stack")
                    == result.stacks[name].rank_metric)
        # the reward learner is gated off at t = 0, so its gain is still gamma0
        first = result.records[0]
        assert first.lambda_gamma_irl == 1.0 != first.lambda_gamma_policy
        flags = {name: record_array(result.records, name).sum()
                 for name in CSV_COLUMNS[-4:]}
        assert flags == {"purge": len(result.purge_times),
                         "theta_gain_reset": result.gain_resets["theta"],
                         "policy_gain_reset": result.gain_resets["policy"],
                         "irl_gain_reset": result.gain_resets["irl"]}
    assert outcome["without_query"].gain_resets["irl"] == 1


def test_ablate_lanes_equal_stand_alone_runs(two_input_cut, tmp_path):
    """Each lane of the lockstep ablation is exactly a run of its own."""
    cfg, outcome = two_input_cut
    for key, querying in (("with_query", True), ("without_query", False)):
        lane, alone = outcome[key], run_scenario(cfg, querying=querying)
        assert lane.querying is alone.querying is querying
        assert (_csv_bytes(lane, tmp_path / f"{key}_lane.csv")
                == _csv_bytes(alone, tmp_path / f"{key}_alone.csv"))
        for name in ("theta_hat", "policy_weights", "value_weights",
                     "reward_weights", "control_weights"):
            np.testing.assert_array_equal(getattr(lane.estimates, name),
                                          getattr(alone.estimates, name))
        assert lane.gain_resets == alone.gain_resets
        assert lane.purge_times == alone.purge_times == [2.0, 4.0, 6.0]
        assert lane.first_policy_rank_time == alone.first_policy_rank_time
        for name in ("theta", "policy", "irl"):
            assert _stack_rows(lane.stacks[name]) == _stack_rows(alone.stacks[name])
    with_query, without_query = outcome["with_query"], outcome["without_query"]
    assert without_query.gain_resets["irl"] == 1
    reset_times = [rec.t for rec in without_query.records if rec.irl_gain_reset]
    assert reset_times == [pytest.approx(32.655)]
    for name in ("theta", "policy"):
        assert with_query.stacks[name] is without_query.stacks[name]
    assert with_query.stacks["irl"] is not without_query.stacks["irl"]


def test_ablate_raises_the_querying_lanes_error_on_a_tie(monkeypatch):
    """Both lanes' first offers fail on the same step: the querying lane,
    first in lane order, raises, as in the per-step loop. With a policy
    rank threshold this small the policy is ready before the first theta
    generation at 0.37 s, so both gates open then, on one query clock."""
    init, lanes = RewardEstimator.__init__, itertools.count()

    def failing(self, *args):
        init(self, *args)
        lane = next(lanes) % 2              # ablate builds the query lane first
        fail_offers_from(self.stack, -math.inf, f"lane {lane}")

    monkeypatch.setattr(RewardEstimator, "__init__", failing)
    policy = dataclasses.replace(CFG.policy_estimator, rank_threshold=1e-12)
    cfg = _short_cfg(policy_estimator=policy)
    got = _raised(ablate, cfg)
    want = _raised(lambda c: per_step.run_lanes(c, (True, False)), cfg)
    _assert_same_error(got, want)
    assert str(got) == "lane 0 at t=0.37" and got.last_record_index == 73


def _fail_offers_from(monkeypatch, estimator, name, since):
    """Make every offer to `estimator`'s stack from time `since` on raise."""
    init = estimator.__init__

    def failing(self, *args):
        init(self, *args)
        fail_offers_from(self.stack, since, f"{name} offer")

    monkeypatch.setattr(estimator, "__init__", failing)


def test_the_theta_offer_wins_a_tie_with_the_policy_offer(monkeypatch):
    """The theta and policy stacks both fail their offers at step 50,
    t = 0.25 s: the theta window's first offer, and a policy offer while
    its stack still fills. The stages append errors in their order, and the
    first of a tie is raised: theta's, as in the per-step loop."""
    _fail_offers_from(monkeypatch, ThetaEstimator, "theta", 0.25 - 1e-9)
    _fail_offers_from(monkeypatch, PolicyEstimator, "policy", 0.25 - 1e-9)
    cfg = _short_cfg()
    got = _raised(run_scenario, cfg)
    want = _raised(lambda c: per_step.run_lanes(c, (True,)), cfg)
    _assert_same_error(got, want)
    assert str(got) == "theta offer at t=0.25" and got.last_record_index == 49


# the columns the pipeline must reproduce bit for bit, and the bound, relative
# to each column's largest entry, on how far the others may move from the
# per-step loop's; the measured move on the two-input cut is 4.9e-13
EXACT_COLUMNS = ["t", "tracking_error", "lambda_theta_stack",
                 "lambda_policy_stack", *CSV_COLUMNS[-4:]]
ESTIMATE_MOVE = 1e-12


@pytest.fixture(scope="module")
def two_input_per_step(two_input_cut):
    """The per-step loop's lanes on the same cut."""
    cfg, _ = two_input_cut
    return per_step.run_lanes(cfg, (True, False))


def _assert_matches_per_step(lanes, per_step_lanes):
    """The demonstration, the theta and policy stacks and every flag agree
    bit for bit, the estimates to rounding."""
    for got, want in zip(lanes, per_step_lanes):
        for name in CSV_COLUMNS:
            a, b = record_array(got.records, name), record_array(want.records, name)
            if name in EXACT_COLUMNS:
                np.testing.assert_array_equal(a, b, err_msg=name)
            else:
                assert np.abs(a - b).max() <= ESTIMATE_MOVE * np.abs(b).max(), name
        assert got.purge_times == want.purge_times
        assert got.gain_resets == want.gain_resets
        assert got.first_policy_rank_time == want.first_policy_rank_time
        for name in ("theta", "policy"):
            assert _stack_rows(got.stacks[name]) == _stack_rows(want.stacks[name])


def test_pipeline_equals_the_per_step_loop(two_input_cut, two_input_per_step):
    """The staged pipeline against the per-step loop it replaced, on a cut
    with three purges and a no-query IRL gain reset."""
    _, outcome = two_input_cut
    _assert_matches_per_step((outcome["with_query"], outcome["without_query"]),
                             two_input_per_step)
    assert sum(want.gain_resets["irl"] for want in two_input_per_step) == 1


def test_pipeline_equals_the_per_step_loop_through_clips_and_resets():
    """A tight theta box clips theta_hat on hundreds of steps and low gain
    ceilings reset the theta gain 38 times and the policy gain once in 6 s:
    every clip and reset ends a span where the per-step loop has it."""
    theta = dataclasses.replace(CFG.theta_estimator, box=(-0.6, 0.6),
                                gamma_ceiling=2.0, beta=5.0)
    policy = dataclasses.replace(CFG.policy_estimator, gamma_ceiling=3.0)
    cfg = dataclasses.replace(CFG, duration=6.0, theta_estimator=theta,
                              policy_estimator=policy)
    outcome = ablate(cfg)
    lanes = (outcome["with_query"], outcome["without_query"])
    _assert_matches_per_step(lanes, per_step.run_lanes(cfg, (True, False)))
    assert lanes[0].gain_resets == {"theta": 38, "policy": 1, "irl": 0}
    assert np.abs(lanes[0].estimates.theta_hat).max() == 0.6


def test_shipped_query_lane_equals_the_reference_run(query_run, ablation,
                                                      tmp_path):
    result, _ = query_run
    assert (_csv_bytes(ablation["with_query"], tmp_path / "lane.csv")
            == _csv_bytes(result, tmp_path / "run.csv"))
