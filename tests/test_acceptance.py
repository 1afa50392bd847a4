"""Release gate for the reference scenario and the estimator stack.

Seven criteria, one test and one printed verdict line each:

  1. reference run with querying recovers the value and reward weights
  2. disabling querying degrades the terminal weight error by >= 10x
  3. policy weights converge with an exponential-decay envelope
  4. drift parameters converge
  5. Riccati oracle property suite over random systems
  6. recursive estimators match their batch least-squares solutions
  7. numerical hygiene: gradients, reproducibility, purge spacing

The full-length runs come from session fixtures in conftest.py, so the
whole gate costs three 100 s simulations (~15 s wall) regardless of how
many criteria consume them.
"""

import hashlib

import numpy as np

from oirl.dynamics import LinearPlant
from oirl.features import FeatureBasis
from oirl.harness import emit_csv, record_array
from oirl.irl_engine import IrlConfig, RewardEstimator, build_row_block
from oirl.oracle import riccati_residual, solve_are
from oirl.policy_estimator import PolicyEstimator, PolicyEstimatorConfig
from oirl.errors import RiccatiConvergenceError, UnstabilizableError

from bellman import inverse_bellman_error

POLICY_FLOOR = 1e-12     # below this, policy error is rounding noise


def _verdict(capsys, number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    return line


def test_criterion_1_reference_weight_recovery(query_run, capsys):
    result, seconds = query_run
    terminal = result.records[-1]
    ok = (terminal.value_error < 0.05 and terminal.reward_error < 0.05
          and seconds < 60.0)
    line = _verdict(capsys, 1, ok,
                    f"value err {terminal.value_error:.3g} < 0.05, "
                    f"reward err {terminal.reward_error:.3g} < 0.05, "
                    f"runtime {seconds:.1f} s < 60 s")
    assert ok, line


def test_criterion_2_querying_ablation(ablation, capsys):
    report = ablation["report"]
    ok = report["ratio"] >= 10.0 and report["plateau_change"] < 0.05
    line = _verdict(capsys, 2, ok,
                    f"no-query/query error ratio {report['ratio']:.1f} >= 10, "
                    f"no-query plateau drift "
                    f"{100.0 * report['plateau_change']:.2f}% < 5%")
    assert ok, line


def test_criterion_3_policy_convergence(query_run, capsys):
    result, _ = query_run
    terminal = result.records[-1].policy_error
    times = record_array(result.records, "t")
    err = record_array(result.records, "policy_error")

    # restrict to the span after the policy stack first reaches full rank
    start = times >= result.first_policy_rank_time
    times, err = times[start], err[start]

    # least-squares slope of log-error above the rounding floor
    live = err > POLICY_FLOOR
    slope = np.polyfit(times[live], np.log(err[live]), 1)[0]

    # upper envelope: per-5 s maxima decrease strictly until they hit the floor
    bucket = int(round(5.0 / result.config.dt))
    maxima = [err[i:i + bucket].max() for i in range(0, len(err), bucket)]
    above = [m for m in maxima if m > POLICY_FLOOR]
    decreasing = all(b < a for a, b in zip(above, above[1:]))

    ok = terminal < 1e-2 and slope < 0.0 and decreasing
    line = _verdict(capsys, 3, ok,
                    f"terminal gain err {terminal:.3g} < 1e-2, "
                    f"log-error slope {slope:.2f} < 0, "
                    f"envelope decreasing over {len(above)} buckets")
    assert ok, line


def test_criterion_4_parameter_convergence(query_run, capsys):
    result, _ = query_run
    terminal = result.records[-1].theta_error
    ok = terminal < 1e-2
    line = _verdict(capsys, 4, ok, f"terminal theta err {terminal:.3g} < 1e-2")
    assert ok, line


def test_criterion_5_oracle_property_suite(capsys):
    rng = np.random.default_rng(2024)
    worst_resid = worst_row = worst_bell = worst_gain = 0.0
    solved = 0
    while solved < 200:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, m))
        q = np.diag(rng.uniform(0.5, 3.0, n))
        r = np.diag(rng.uniform(0.5, 3.0, m))
        try:
            sol = solve_are(a, b, q, r)
        except (UnstabilizableError, RiccatiConvergenceError):
            # not stabilizable, or too ill conditioned for the solver to
            # certify its accuracy; either way it refused rather than lied
            continue
        solved += 1

        scale = max(1.0, np.linalg.norm(sol.cost_matrix))
        worst_resid = max(worst_resid,
                          riccati_residual(a, b, q, r, sol.cost_matrix) / scale)

        gain_scale = max(1.0, np.linalg.norm(sol.gain))
        for c in (0.5, 2.0, 10.0):
            scaled = solve_are(a, b, c * q, c * r)
            worst_gain = max(worst_gain,
                             np.max(np.abs(scaled.gain - sol.gain)) / gain_scale)

        # exact data: anchored true weights must zero every row block
        theta = np.vstack([a.T, b.T])
        dyn = LinearPlant(np.zeros((n, n)), np.zeros((n, m)), theta)
        basis = FeatureBasis(n, m)
        r1 = float(r[0, 0])
        w_true = np.concatenate([sol.value_weights, np.diag(q),
                                 np.diag(r)[1:]])
        full = np.concatenate([sol.value_weights, np.diag(q), np.diag(r)])
        xs = rng.uniform(-1.0, 1.0, (3, n))
        us = -(xs @ sol.gain.T)
        rows, offsets = build_row_block(basis, dyn, xs, us, theta, r1)
        worst_row = max(worst_row, np.max(np.abs(rows @ w_true + offsets)))
        for x, u in zip(xs, us):
            worst_bell = max(worst_bell,
                             abs(inverse_bellman_error(basis, dyn, x, u,
                                                       full, theta)))

    ok = (worst_resid < 1e-9 and worst_row < 1e-8 and worst_bell < 1e-8
          and worst_gain < 1e-10)
    line = _verdict(capsys, 5, ok,
                    f"200 systems: residual {worst_resid:.2g} < 1e-9, "
                    f"row identity {worst_row:.2g} < 1e-8, "
                    f"inverse Bellman {worst_bell:.2g} < 1e-8, "
                    f"gain scale drift {worst_gain:.2g} < 1e-10")
    assert ok, line


def test_criterion_6_recursive_matches_batch(capsys):
    rng = np.random.default_rng(31)
    dt = 0.005

    # policy estimator on a frozen stack of noisy pairs
    basis = FeatureBasis(2, 1)
    pol = PolicyEstimator(basis, PolicyEstimatorConfig())
    k_true = np.array([[0.0916079783099616, 0.2302163765760962]])
    for i in range(40):
        x = rng.uniform(-1.0, 1.0, 2)
        u = -(k_true @ x) + 0.01 * rng.normal(size=1)
        pol.stack.try_insert(x, -u, t=0.05 * i)
    for _ in pol.advance(dt, 40000):    # 40,000 exact steps, in spans
        pass
    s = pol.stack.normal_matrix()
    batch_w = np.linalg.solve(s, pol.stack.cross_matrix())
    pol_w_err = np.max(np.abs(pol.weights - batch_w))
    pol_h_err = np.max(np.abs(pol.information - (pol.cfg.alpha / pol.cfg.beta) * s))

    # reward estimator on a frozen stack of queried row blocks built from a
    # perturbed policy, so the batch solution is a genuine least-squares fit
    theta = np.array([[0.0, -0.5], [0.0, -0.5], [0.0, 1.0]])
    dyn = LinearPlant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 1)),
                      theta)
    eng = RewardEstimator(basis, dyn, IrlConfig(), 31)
    policy = k_true.T + 0.02 * rng.normal(size=(2, 1))
    rows, targets = eng.row_blocks(*eng.queries(np.repeat(policy[None], 40, axis=0)),
                                   theta)
    for i, (block, target) in enumerate(zip(rows, targets)):
        eng.stack.try_insert(block, target, t=0.05 * i, tag=1)
    for _ in eng.advance(dt, 80000):
        pass
    s_irl = eng.stack.normal_matrix()
    batch_irl = np.linalg.solve(s_irl, eng.stack.cross_matrix()[:, 0])
    irl_w_err = np.max(np.abs(eng.weights - batch_irl))

    ok = pol_w_err < 1e-8 and irl_w_err < 1e-8 and pol_h_err < 1e-6
    line = _verdict(capsys, 6, ok,
                    f"policy weights {pol_w_err:.2g} < 1e-8, "
                    f"reward weights {irl_w_err:.2g} < 1e-8, "
                    f"policy information {pol_h_err:.2g} < 1e-6")
    assert ok, line


def test_criterion_7_numerical_hygiene(query_run, ablation, capsys, tmp_path):
    # the value gradient against central differences of the quadratic
    # monomials, which a quadratic reward evaluates
    worst_grad = 0.0
    rng = np.random.default_rng(77)
    for n in (1, 2, 3, 4):
        basis = FeatureBasis(n, 1, reward="quadratic")
        for _ in range(5):
            z = rng.uniform(-2.0, 2.0, n)
            fd = np.zeros((basis.value_dim, n))
            for j in range(n):
                zp, zm = z.copy(), z.copy()
                zp[j] += 1e-6
                zm[j] -= 1e-6
                fd[:, j] = (basis.reward_features(zp)
                            - basis.reward_features(zm)) / 2e-6
            worst_grad = max(worst_grad,
                             np.max(np.abs(basis.value_gradient(z) - fd)))

    # two independent same-seed runs serialize to identical bytes
    run_a, _ = query_run
    run_b = ablation["with_query"]
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_a.records, path_a)
    emit_csv(run_b.records, path_b)
    digest_a = hashlib.sha256(path_a.read_bytes()).hexdigest()
    digest_b = hashlib.sha256(path_b.read_bytes()).hexdigest()

    # purge spacing respects the dwell time in every run
    spacing_ok = True
    for res in (run_a, ablation["with_query"], ablation["without_query"]):
        dwell = res.config.irl.dwell
        gaps = np.diff([0.0] + list(res.purge_times))
        if len(res.purge_times) > 0 and np.min(gaps) < dwell - 1e-12:
            spacing_ok = False

    ok = worst_grad < 1e-6 and digest_a == digest_b and spacing_ok
    line = _verdict(capsys, 7, ok,
                    f"gradient err {worst_grad:.2g} < 1e-6, "
                    f"CSV digests {'match' if digest_a == digest_b else 'differ'}, "
                    f"purge spacing >= dwell in all runs: {spacing_ok}")
    assert ok, line
