"""Inverse-Bellman row blocks and the reward/value weight estimator."""

import numpy as np
import pytest

from oirl.dynamics import LinearPlant, eval_dynamics
from oirl.errors import DivergenceError
from oirl.features import REWARDS, FeatureBasis
from oirl.harness import _walk
from oirl.irl_engine import IrlConfig, RewardEstimator, build_row_block
from oirl.oracle import solve_are
from oirl.rls import _norm

from bellman import inverse_bellman_error
from conftest import step
from per_step import one_span, purge_due

A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
B0 = np.zeros((2, 1))
THETA = np.array([[0.0, -0.5], [0.0, -0.5], [0.0, 1.0]])

W_V_EXACT = np.array([1.820018342750099, 2.3021637657609624,
                      1.8321595661992322])
K_EXACT = np.array([[0.0916079783099616, 0.2302163765760962]])


def _plant():
    return LinearPlant(A0, B0, THETA)


def _basis(m=1):
    return FeatureBasis(2, m)


def _anchored_truth():
    """[W_V; W_Q] for the scenario; m = 1 leaves no extra control weights."""
    return np.concatenate([W_V_EXACT, [1.0, 1.0]])


def _one_row_block(basis, dyn, x, u, theta, r1=10.0):
    """build_row_block of the single sample (x, u, theta)."""
    (rows,), (offsets,) = build_row_block(basis, dyn, x[None], u[None],
                                          theta[None], r1)
    return rows, offsets


def _assert_batch_is_one_row_calls(dyn, m, rng):
    """N samples, each with its own theta, build in one call the rows and
    offsets of N one-sample calls, bit for bit, for both reward bases."""
    n, p = dyn.state_dim, dyn.param_dim
    x, u = rng.uniform(-1.0, 1.0, (50, n)), rng.uniform(-1.0, 1.0, (50, m))
    theta = dyn.theta_true + rng.normal(scale=0.1, size=(50, p, n))
    x[0] = -0.0                     # signed zeros keep their sign too
    for reward in REWARDS:
        basis = FeatureBasis(n, m, reward)
        rows, offsets = build_row_block(basis, dyn, x, u, theta, 10.0)
        assert rows.shape == (50, 1 + m, basis.value_dim + basis.reward_dim + m - 1)
        for i in range(50):
            one_rows, one_offsets = _one_row_block(basis, dyn, x[i], u[i], theta[i])
            assert rows[i].tobytes() == one_rows.tobytes()
            assert offsets[i].tobytes() == one_offsets.tobytes()


def test_row_block_shapes_single_input():
    rows, offsets = _one_row_block(_basis(), _plant(), np.array([0.3, -0.2]),
                                   np.array([0.1]), THETA)
    assert rows.shape == (2, 5)
    assert offsets.shape == (2,)
    _assert_batch_is_one_row_calls(_plant(), 1, np.random.default_rng(7))


def test_bellman_row_contents():
    basis = _basis()
    dyn = _plant()
    x = np.array([0.5, -1.0])
    u = np.array([0.25])
    rows, offsets = _one_row_block(basis, dyn, x, u, THETA)
    xdot = eval_dynamics(dyn, x, u, THETA)
    np.testing.assert_allclose(rows[0, :3], basis.value_gradient(x) @ xdot)
    np.testing.assert_allclose(rows[0, 3:5], [0.25, 1.0])  # squares of x
    np.testing.assert_allclose(offsets[0], 10.0 * 0.25 ** 2)


def test_stationarity_row_contents():
    basis = _basis()
    dyn = _plant()
    x = np.array([0.5, -1.0])
    u = np.array([0.25])
    rows, offsets = _one_row_block(basis, dyn, x, u, THETA)
    b = B0 + THETA[2:].T
    np.testing.assert_allclose(rows[1, :3],
                               (basis.value_gradient(x) @ b)[:, 0])
    np.testing.assert_allclose(rows[1, 3:], 0.0)
    np.testing.assert_allclose(offsets[1], 2.0 * 10.0 * 0.25)


def test_second_input_channel_gets_its_own_unknown():
    """With m = 2 the extra diagonal control weight appears in row 2 only."""
    rng = np.random.default_rng(8)
    a = np.array([[0.0, 1.0], [-1.0, -1.0]])
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    theta = np.vstack([a.T, b.T])
    dyn = LinearPlant(np.zeros((2, 2)), np.zeros((2, 2)), theta)
    basis = _basis(m=2)
    x = rng.uniform(-1, 1, 2)
    u = rng.uniform(-1, 1, 2)
    rows, offsets = _one_row_block(basis, dyn, x, u, theta)
    assert rows.shape == (3, 6)
    np.testing.assert_allclose(rows[0, 5], u[1] ** 2)
    np.testing.assert_allclose(rows[1, 5], 0.0)
    np.testing.assert_allclose(rows[2, 5], 2.0 * u[1])
    np.testing.assert_allclose(offsets, [10.0 * u[0] ** 2, 20.0 * u[0], 0.0])
    _assert_batch_is_one_row_calls(dyn, 2, rng)


def test_true_weights_zero_the_row_blocks():
    dyn = _plant()
    basis = _basis()
    w_true = _anchored_truth()
    rng = np.random.default_rng(21)
    e = rng.uniform(-1.0, 1.0, (100, 2))
    rows, offsets = build_row_block(basis, dyn, e, -(e @ K_EXACT.T), THETA, 10.0)
    assert np.max(np.abs(rows @ w_true + offsets)) < 1e-12


def test_true_weights_zero_the_bellman_error():
    dyn = _plant()
    basis = _basis()
    full = np.concatenate([_anchored_truth(), [10.0]])
    rng = np.random.default_rng(22)
    for _ in range(100):
        e = rng.uniform(-1.0, 1.0, 2)
        u = -(K_EXACT @ e)
        assert abs(inverse_bellman_error(basis, dyn, e, u, full, THETA)) < 1e-12


def test_rounded_weights_leave_small_bellman_error():
    """Four-digit roundings of the ideal weights stay within 5e-4."""
    dyn = _plant()
    basis = _basis()
    rounded = np.array([1.8200, 2.3022, 1.8322, 1.0, 1.0, 10.0])
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(200):
        e = rng.uniform(-1.0, 1.0, 2)
        u = -(K_EXACT @ e)
        worst = max(worst, abs(inverse_bellman_error(basis, dyn, e, u,
                                                     rounded, THETA)))
    assert worst < 5e-4


def test_bellman_error_checks_weight_length():
    with pytest.raises(ValueError):
        inverse_bellman_error(_basis(), _plant(), np.zeros(2), np.zeros(1),
                              np.zeros(4), THETA)


def test_anchor_must_be_positive():
    with pytest.raises(ValueError):
        RewardEstimator(_basis(), _plant(), IrlConfig(r1=0.0), 0)


def test_purge_rejects_nonpositive_dwell():
    with pytest.raises(ValueError):
        RewardEstimator(_basis(), _plant(), IrlConfig(dwell=0.0), 0)


def _bank(eng, x, u, generation):
    """Offer eng's stack the row blocks of samples (x, u), built from THETA,
    0.05 s apart, as a run offers its due samples."""
    steps = range(len(x))
    changed = {k for k, *_ in _walk(eng.stack, steps, *eng.row_blocks(x, u, THETA),
                                    [0.05 * k for k in steps], [generation] * len(x),
                                    len(x))}
    return [k in changed for k in steps]


def test_degenerate_origin_sample_is_rejected():
    eng = RewardEstimator(_basis(), _plant(), IrlConfig(), 0)
    assert _bank(eng, np.zeros((1, 2)), np.zeros((1, 1)), 1) == [False]
    assert len(eng.stack) == 0


def test_query_states_stay_inside_the_box():
    eng = RewardEstimator(_basis(), _plant(),
                          IrlConfig(query_box=((-0.5, 0.5), (0.0, 1.0))), 3)
    x, _ = eng.queries(np.zeros((100, 2, 1)))
    assert ((-0.5 <= x[:, 0]) & (x[:, 0] <= 0.5)).all()
    assert ((0.0 <= x[:, 1]) & (x[:, 1] <= 1.0)).all()


def test_query_sequence_is_seed_deterministic():
    """One draw of 20 queries gives the doubles of 20 sequential draws of
    one state, and leaves the generator where they leave it; a one-query
    batch is one such draw."""
    eng_a = RewardEstimator(_basis(), _plant(), IrlConfig(), 7)
    eng_b = RewardEstimator(_basis(), _plant(), IrlConfig(), 7)
    eng_c = RewardEstimator(_basis(), _plant(), IrlConfig(), 8)
    policy = np.zeros((20, 2, 1))
    seq_a, _ = eng_a.queries(policy)
    lo, hi = eng_b.query_box.T
    seq_b = np.array([eng_b.rng.uniform(lo, hi) for _ in range(19)])
    seq_b = np.concatenate([seq_b, eng_b.queries(policy[:1])[0]])
    seq_c, _ = eng_c.queries(policy)
    assert seq_a.tobytes() == seq_b.tobytes()
    assert eng_a.rng.bit_generator.state == eng_b.rng.bit_generator.state
    assert np.max(np.abs(seq_a - seq_c)) > 1e-3


def _engine_with_optimal_queries(r1=10.0, n_queries=40):
    eng = RewardEstimator(_basis(), _plant(), IrlConfig(r1=r1), 5)
    _bank(eng, *eng.queries(np.repeat(K_EXACT.T[None], n_queries, axis=0)), 1)
    return eng


def test_banked_targets_follow_the_true_weights():
    """The stack holds -offsets, so rows @ W_true ~= target."""
    eng = _engine_with_optimal_queries()
    residual = eng.stack.targets()[:, 0] - eng.stack.regressor() @ _anchored_truth()
    assert np.max(np.abs(residual)) < 1e-12


def test_anchored_truth_is_a_fixed_point():
    eng = _engine_with_optimal_queries()
    eng.weights = _anchored_truth()
    before = eng.weights.copy()
    step(eng, 0.005)
    assert np.max(np.abs(eng.weights - before)) < 1e-10


def test_weights_converge_to_anchored_truth_on_frozen_stack():
    eng = _engine_with_optimal_queries()
    for _ in eng.advance(0.005, one_span(eng, 60000)):     # in chunks
        pass
    w_true = _anchored_truth()
    assert np.max(np.abs(eng.weights - w_true)) < 1e-8
    np.testing.assert_allclose(eng.value_weights, W_V_EXACT, atol=1e-8)
    np.testing.assert_allclose(eng.reward_weights, [1.0, 1.0], atol=1e-8)
    assert eng.control_weights_rest.shape == (0,)


def test_doubling_the_anchor_doubles_the_weights():
    eng1 = _engine_with_optimal_queries(r1=10.0)
    eng2 = _engine_with_optimal_queries(r1=20.0)
    for _ in eng1.advance(0.005, one_span(eng1, 5000)):
        pass
    for _ in eng2.advance(0.005, one_span(eng2, 5000)):
        pass
    # rows are anchor-free and offsets are linear in r1, so the trajectories
    # match to the bit, not merely to rounding
    np.testing.assert_array_equal(eng2.weights, 2.0 * eng1.weights)


def test_purge_requires_staleness_and_dwell():
    """`next_purge` finds the first step with stale rows in the stack and at
    least the dwell time passed since the last purge; `purge` empties the
    stack there and records it."""
    eng = RewardEstimator(_basis(), _plant(), IrlConfig(dwell=2.0), 0)
    e = np.random.default_rng(4).uniform(-1, 1, (10, 2))
    _bank(eng, e, -(e @ K_EXACT.T), 0)
    assert len(eng.stack) == 10
    clock = [0.5 * k for k in range(12)]
    # same generation: never purge, regardless of elapsed time
    assert eng.next_purge(clock, np.zeros(12, dtype=int), 0) == 12
    # newer generation from t = 0.5 on, but the dwell is met only at t = 2.0
    gens = np.repeat([0, 1], [1, 11])
    assert eng.next_purge(clock, gens, 0) == 4
    # stale and dwell satisfied
    assert eng.next_purge(clock, gens, 5) == 5
    eng.purge(clock[5])
    assert len(eng.stack) == 0
    assert eng.purge_times == [2.5] and eng.last_purge == 2.5
    # empty stack has nothing stale in it
    assert eng.next_purge(clock, gens + 1, 0) == 12
    # rows of generation 1 go stale at generation 2; the dwell now runs
    # from the purge at 2.5
    _bank(eng, e, -(e @ K_EXACT.T), 1)
    assert eng.next_purge(clock, gens + 1, 6) == 9


def _sums(stack):
    """What a learner reads of a stack after a change, bit for bit."""
    return (stack.normal_matrix().tobytes(), stack.cross_matrix().tobytes(),
            float(stack.rank_metric).hex())


def _per_step_lane(eng, due, rows, targets, clock, gens):
    """The changes a loop over steps makes to eng's stack, each as (step,
    sums after it): at each step, the purge rule, then the step's offer if
    one is due and has signal; and the step of the offer that raised, or
    None."""
    offers = dict(zip(due, zip(rows, targets)))
    changed = []
    for k in range(len(gens)):
        took = purge_due(eng, clock[k], gens[k])
        if took:
            eng.purge(clock[k])
        if k in offers and not _norm(offers[k][0]) < 1e-12:
            block, target = offers[k]
            try:
                took |= eng.stack.try_insert(block, target[:, None], clock[k],
                                             tag=gens[k])
            except DivergenceError:
                return changed, k
        if took:
            changed.append((k, _sums(eng.stack)))
    return changed, None


# (dwell, first offer step, steps at which the generation advances, purge
# times, stack size, the index of a non-finite offer or None), with an offer
# every third step over 40 steps: a purge on a step with an offer, which
# then lands in the emptied stack; t - last_purge exactly equal to the dwell
# on steps without an offer, which purges; a generation that advances while
# the stack is empty, which purges nothing; a purge on the last step, whose
# offer the certificate rejects on the full stack, so only the purge brings
# the walk there; a purge due while the stack fills, which ends a fill; a
# non-finite offer while the stack fills, which raises at its own step after
# the appends before it; and a fill that reaches the stack's capacity and
# goes on to swaps
PURGE_CASES = {
    "purge and offer on a step": (1.4, 0, [2, 12], [1.5, 3.0], 5, None),
    "dwell met exactly": (1.0, 0, [1, 7], [1.0, 2.0], 5, None),
    "stale while empty": (1.0, 10, [2, 30], [7.5], 5, None),
    "purge on the last step": (9.75, 0, [2, 38], [9.75], 5, None),
    "purge inside a fill": (1.0, 0, [2, 25], [1.0, 6.25], 20, None),
    "non-finite offer inside a fill": (1.0, 0, [2, 25], [1.0], 20, 6),
    "fill, then swaps": (20.0, 0, [], [], 5, None),
}


@pytest.mark.parametrize("case", PURGE_CASES)
def test_walk_purges_as_the_per_step_rule(case):
    """The walk visits only the steps where a lane's stack may change, and
    fills a stack with room in one append, yet purges and admits as the
    per-step rule does on every step: each change at its step with the
    sums after it, bit for bit."""
    dwell, first, advances, purge_times, size, bad = PURGE_CASES[case]
    n = 40
    clock = [0.25 * k for k in range(n)]
    gens = np.searchsorted(advances, np.arange(n), side="right")
    cfg = IrlConfig(dwell=dwell, stack_size=size)
    due = list(range(first, n, 3))
    query = RewardEstimator(_basis(), _plant(), cfg, 3)
    rows, targets = query.row_blocks(
        *query.queries(np.repeat(K_EXACT.T[None], len(due), axis=0)), THETA)
    if bad is not None:     # its rows are finite, so it would append
        targets[bad, 0] = np.nan
    walked, stepped = (RewardEstimator(_basis(), _plant(), cfg, 3) for _ in range(2))
    changed, raised = [], None
    try:
        for k, normal, cross, rank in _walk(walked.stack, due, rows, targets, clock,
                                            gens, n, walked):
            changed.append((k, (normal.tobytes(), cross.tobytes(), float(rank).hex())))
            if clock[k] in purge_times:     # and then the step's offer, if any
                assert len(walked.stack) == (k in due)
    except DivergenceError as err:
        raised = err.step
    assert (changed, raised) == _per_step_lane(stepped, due, rows, targets, clock, gens)
    assert raised == (None if bad is None else due[bad])
    assert walked.purge_times == stepped.purge_times == purge_times
    assert walked.last_purge == stepped.last_purge
    assert walked.stack.contents().tobytes() == stepped.stack.contents().tobytes()
    if case == "fill, then swaps":
        assert len(changed) > size
