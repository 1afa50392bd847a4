"""History stack admission, replacement, and purge behavior."""

import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oirl import history
from oirl.errors import DimensionError, DivergenceError
from oirl.harness import _walk, load_config, run_scenario
from oirl.history import ADMISSION_MARGIN, HistoryStack, all_finite, eigvalsh
from oirl.rls import _norm

SHIPPED = Path(__file__).resolve().parent.parent / "configs" / "tracking.json"


def test_empty_stack_accepts_any_finite_row():
    stack = HistoryStack(capacity=3, row_dim=2)
    assert stack.try_insert(np.array([1e-30, 0.0]), 0.0, t=0.0)
    assert len(stack) == 1


def test_fills_to_capacity_then_becomes_selective():
    stack = HistoryStack(capacity=2, row_dim=2)
    assert stack.try_insert(np.array([1.0, 0.0]), 1.0, t=0.0)
    assert stack.try_insert(np.array([1.0, 1e-6]), 2.0, t=1.0)
    assert len(stack) == 2
    # nearly collinear contents leave lambda_min tiny
    assert stack.rank_metric < 1e-10
    # an orthogonal direction is a strict improvement and must be taken
    assert stack.try_insert(np.array([0.0, 1.0]), 3.0, t=2.0)
    assert len(stack) == 2
    assert stack.rank_metric > 0.99


def test_duplicate_of_existing_row_is_rejected_when_full():
    stack = HistoryStack(capacity=2, row_dim=2)
    stack.try_insert(np.array([1.0, 0.0]), 0.0, t=0.0)
    stack.try_insert(np.array([0.0, 1.0]), 0.0, t=1.0)
    before = stack.rank_metric
    assert not stack.try_insert(np.array([1.0, 0.0]), 0.0, t=2.0)
    assert stack.rank_metric == before


def test_rank_metric_never_decreases_once_full():
    rng = np.random.default_rng(5)
    stack = HistoryStack(capacity=4, row_dim=3)
    for i in range(4):
        stack.try_insert(rng.normal(size=3), 0.0, t=float(i))
    metric = stack.rank_metric
    for i in range(200):
        stack.try_insert(rng.normal(size=3), 0.0, t=float(4 + i))
        assert stack.rank_metric >= metric * (1.0 - 1e-12)
        metric = stack.rank_metric


def test_normal_and_cross_match_contents():
    stack = HistoryStack(capacity=3, row_dim=2, target_dim=2)
    rows = [np.array([1.0, 2.0]), np.array([0.5, -1.0])]
    targets = [np.array([1.0, 0.0]), np.array([0.0, 3.0])]
    for i, (row, tgt) in enumerate(zip(rows, targets)):
        stack.try_insert(row, tgt, t=float(i))
    reg = np.vstack(rows)
    np.testing.assert_allclose(stack.normal_matrix(), reg.T @ reg)
    np.testing.assert_allclose(stack.cross_matrix(), reg.T @ np.vstack(targets))


def test_block_rows_are_inserted_and_counted_together():
    stack = HistoryStack(capacity=2, row_dim=3, block_rows=2, target_dim=1)
    block = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert stack.try_insert(block, np.array([1.0, 2.0]), t=0.0)
    assert len(stack) == 1
    np.testing.assert_allclose(stack.normal_matrix(), block.T @ block)


def test_insert_replays_deterministically():
    rng = np.random.default_rng(17)
    offers = [rng.normal(size=3) for _ in range(60)]

    def run():
        stack = HistoryStack(capacity=5, row_dim=3)
        for i, row in enumerate(offers):
            stack.try_insert(row, float(i), t=0.05 * i)
        return stack.regressor().copy(), stack.rank_metric

    reg1, m1 = run()
    reg2, m2 = run()
    np.testing.assert_array_equal(reg1, reg2)
    assert m1 == m2


def test_tags_and_oldest_tag():
    stack = HistoryStack(capacity=2, row_dim=2)
    assert stack.oldest_tag() is None
    stack.try_insert(np.array([1.0, 0.0]), 0.0, t=0.0, tag=3)
    stack.try_insert(np.array([1.0, 1e-6]), 0.0, t=1.0, tag=1)
    assert stack.oldest_tag() == 1
    # the orthogonal row evicts the nearly collinear one, and its tag with it
    assert stack.try_insert(np.array([0.0, 1.0]), 0.0, t=2.0, tag=5)
    assert sorted(tag for _, tag, _, _ in stack.dump_rows()) == [3, 5]
    assert stack.oldest_tag() == 3
    stack.clear()
    assert stack.oldest_tag() is None


def test_cached_sums_are_read_only_and_replaced_on_change():
    stack = HistoryStack(capacity=3, row_dim=2)
    stack.try_insert(np.array([1.0, 2.0]), 3.0, t=0.0)
    normal, cross = stack.normal_matrix(), stack.cross_matrix()
    for cached in (normal, cross):
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0
    stack.try_insert(np.array([0.0, 1.0]), 1.0, t=1.0)
    np.testing.assert_array_equal(normal, [[1.0, 2.0], [2.0, 4.0]])
    np.testing.assert_array_equal(cross, [[3.0], [6.0]])
    np.testing.assert_array_equal(stack.normal_matrix(), [[1.0, 2.0], [2.0, 5.0]])


def test_clear_empties_the_stack():
    stack = HistoryStack(capacity=2, row_dim=2)
    stack.try_insert(np.array([1.0, 0.0]), 0.0, t=0.0)
    stack.try_insert(np.array([0.0, 1.0]), 0.0, t=0.1)
    stack.clear()
    assert len(stack) == 0
    assert stack.rank_metric == 0.0
    np.testing.assert_array_equal(stack.normal_matrix(), np.zeros((2, 2)))


def test_non_finite_rows_are_rejected():
    """A non-finite row or target is a divergence of the run that built it."""
    stack = HistoryStack(capacity=2, row_dim=2)
    with pytest.raises(DivergenceError):
        stack.try_insert(np.array([np.inf, 0.0]), 0.0, t=0.0)
    with pytest.raises(DivergenceError):
        stack.try_insert(np.array([1.0, 0.0]), np.nan, t=0.0)
    assert len(stack) == 0


def test_wrong_row_dimension_is_rejected():
    stack = HistoryStack(capacity=2, row_dim=2)
    with pytest.raises(DimensionError):
        stack.try_insert(np.array([1.0, 0.0, 0.0]), 0.0, t=0.0)


def test_dump_rows_roundtrip():
    stack = HistoryStack(capacity=3, row_dim=2, target_dim=1)
    stack.try_insert(np.array([1.0, 2.0]), 5.0, t=0.3, tag=2)
    dumped = list(stack.dump_rows())
    assert len(dumped) == 1
    t, tag, row, target = dumped[0]
    assert (t, tag) == (0.3, 2)
    np.testing.assert_allclose(row, [1.0, 2.0])
    np.testing.assert_allclose(target, [5.0])


def _symmetric(rng, *shape):
    a = rng.normal(size=shape)
    return a + np.swapaxes(a, -1, -2)


def test_eigvalsh_matches_numpy_bit_for_bit():
    """The direct gufunc call returns exactly what np.linalg.eigvalsh does,
    on single matrices and on the stacked swap trials of try_insert."""
    rng = np.random.default_rng(17)
    for k in (2, 3, 5):
        for _ in range(200):
            a = _symmetric(rng, k, k)
            np.testing.assert_array_equal(eigvalsh(a), np.linalg.eigvalsh(a))
    for k in (3, 5):
        stack = _symmetric(rng, 50, k, k)
        np.testing.assert_array_equal(eigvalsh(stack), np.linalg.eigvalsh(stack))


def test_eigvalsh_raises_divergence_on_non_finite_input():
    """The gufunc returns NaN where numpy raises; the helper raises instead
    of passing the NaN on."""
    bad = np.eye(3)
    bad[1, 1] = np.nan
    stack = np.tile(np.eye(3), (50, 1, 1))
    stack[7, 0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        for a in (bad, stack):
            with pytest.raises(DivergenceError):
                eigvalsh(a)


@pytest.mark.parametrize("a", [
    np.zeros(0),
    np.zeros((0, 3)),
    np.array([1.0, -2.0, 3.0]),
    np.array([1e308, -1e308, 1e308]),             # squares overflow, all finite
    np.full((2, 2), 1e200),
    np.array([1e308, np.inf]),
    np.array([0.0, -np.inf, 1.0]),
    np.array([np.nan, 1.0]),
    np.array([[1e308, 0.0], [0.0, np.nan]]),
    (np.arange(12.0).reshape(3, 4) / 7.0).T,      # non-contiguous view
    np.where(np.eye(4) > 0, np.inf, 1.0)[:, ::2],  # strided, holding inf
])
def test_all_finite_equals_numpy(a):
    with np.errstate(over="ignore"):    # the squares of 1e200 overflow
        assert all_finite(a) is bool(np.isfinite(a).all())


def _random_offers(stack, rng, scale):
    r, d = stack.block_rows, stack.row_dim
    for _ in range(stack.capacity + 40):
        yield scale * np.exp(rng.normal()) * rng.normal(size=(r, d))


def _rank_deficient_offers(stack, rng, scale):
    """Rows in a random subspace of dimension d - 1 (with one coordinate
    exactly 0 half the time, so lambda_min can be exactly 0 or below), and
    now and then a row out of it."""
    r, d = stack.block_rows, stack.row_dim
    basis = rng.normal(size=(d - 1, d))
    if rng.random() < 0.5:
        basis[:, rng.integers(d)] = 0.0
    for _ in range(stack.capacity + 40):
        rows = rng.normal(size=(r, d - 1)) @ basis
        if rng.random() < 0.1:
            rows = rng.normal(size=(r, d))
        yield scale * rows


def _tied_offers(stack, rng, scale):
    """Fill the stack with rows along a random orthonormal basis q, one
    light row along q_0 and two heavy rows along each other q_j; then offer
    rows along the current lambda_min eigenvector, sized to lift lambda_min
    by ADMISSION_MARGIN to a relative 1e-8. The best swap drops a heavy row
    and lands on the acceptance threshold, to rounding."""
    r, d = stack.block_rows, stack.row_dim
    q = np.linalg.qr(rng.normal(size=(d, d)))[0].T
    pad = np.zeros((r - 1, d))
    yield scale * np.vstack([q[:1], pad])
    for j in range(1, 2 * d - 1):
        yield scale * 3.0 * (1 + rng.random()) * np.vstack([q[(j + 1) // 2], pad])
    for _ in range(3):
        lam, vecs = np.linalg.eigh(stack.normal_matrix())
        size = np.sqrt(abs(lam[0]) * ADMISSION_MARGIN * (1 + 1e-8 * rng.uniform(-1, 1)))
        yield np.vstack([size * vecs[:, 0], pad])


def _state(stack):
    """What a caller can read of a stack, bit for bit."""
    return (stack.regressor().tobytes(), stack.targets().tobytes(),
            [(t, tag) for t, tag, _, _ in stack.dump_rows()],
            stack.normal_matrix().tobytes(), stack.cross_matrix().tobytes(),
            stack.rank_metric.hex())


def test_the_batched_walk_decides_as_the_full_search():
    """Random, rank-deficient and tied offers of every block shape, over 16
    orders of magnitude of scale, each sequence made in one batch by
    `harness._walk`: it yields the steps at which `try_insert`, offered
    every offer, changes a second stack, each with that stack bit for bit,
    while batched certificate passes keep many offers from reaching
    try_insert. The counts show that each case the certificate must get
    right was reached on both sides of the rule."""
    rng = np.random.default_rng(2024)
    seen, calls = Counter(), Counter()
    offered = accepted = 0
    for r in (1, 2, 3):
        for d in range(2, 7):
            for scale in (1e-8, 1.0, 1e8):
                cases = [("random", d + 3, _random_offers),
                         ("rank-deficient", d + 1, _rank_deficient_offers)]
                cases += [("tie", 2 * d - 1, _tied_offers)] * 8
                for kind, capacity, offers in cases:
                    ref = HistoryStack(capacity, d, block_rows=r, target_dim=2)
                    rows, targets, states = [], [], {}
                    # offers are drawn as the search admits, so the tied
                    # ones are sized on its stack
                    for i, block in enumerate(offers(ref, rng, scale)):
                        rows.append(block)
                        targets.append(rng.normal(size=(r, 2)))
                        if _norm(block) < 1e-12:
                            continue
                        case = kind if len(ref) == capacity else "filling"
                        if case != "filling" and ref.rank_metric <= 0.0:
                            case = "rank_metric <= 0"
                        took = ref.try_insert(block, targets[i], t=0.1 * i, tag=i)
                        if took:
                            states[i] = _state(ref)
                        seen[case, took] += 1
                    fast = HistoryStack(capacity, d, block_rows=r, target_dim=2)

                    def counted(*args, insert=fast.try_insert, **kwargs):
                        calls["try_insert"] += 1
                        return insert(*args, **kwargs)
                    fast.try_insert = counted
                    steps = range(len(rows))
                    walk = _walk(fast, steps, np.array(rows), np.array(targets),
                                 [0.1 * i for i in steps], steps, len(rows))
                    assert {k: _state(fast) for k in walk} == states
                    offered += len(rows)
                    accepted += len(states)
    # counted on this seed, at least 38 each; every case is reached on both
    # sides of the rule
    for case in ("random", "rank-deficient", "tie", "rank_metric <= 0"):
        assert seen[case, True] >= 20 and seen[case, False] >= 20, seen
    # counted on this seed: 7,740 offers, 4,810 accepted, 1,465 rejected by
    # the batched certificate alone
    tried = calls["try_insert"]
    assert offered - tried >= (offered - accepted) / 3, (offered, tried, accepted)


@pytest.mark.parametrize("row", [[0.0, 1e200], [1e200, 0.0], [1e200, -1e200]])
def test_an_overflowing_candidate_still_diverges(row):
    """A finite candidate whose gram overflows, also along a direction
    orthogonal to the lambda_min eigenvector e_1 (where its Rayleigh
    quotient reads 0), is not rejected by the certificate, and the search
    raises on it."""
    stack = HistoryStack(capacity=2, row_dim=2)
    stack.try_insert(np.array([1.0, 0.0]), 0.0, t=0.0)
    stack.try_insert(np.array([0.0, 2.0]), 0.0, t=1.0)
    rows = np.array([[row]])
    with np.errstate(over="ignore"):
        frob = np.vecdot(rows[0], rows[0])
    assert stack.first_unrejected(rows, frob) == 0
    with pytest.raises(DivergenceError):
        stack.try_insert(np.array(row), 0.0, t=2.0)


# Full searches (batched eigvalsh calls) per stack on the first 20 s of the
# shipped scenario, keyed by the stack's row_dim there: 40, 24 and 92 with
# the certificate, against 346, 351 and 271 (every offer to a full stack)
# without it.
FULL_SEARCHES = {"theta": (3, 40), "policy": (2, 24), "irl": (5, 92)}


def test_certificate_spares_most_full_searches(monkeypatch):
    searches = Counter()

    def spy(a):
        if a.ndim == 3:
            searches[a.shape[-1]] += 1
        return eigvalsh(a)

    monkeypatch.setattr(history, "eigvalsh", spy)
    run_scenario(dataclasses.replace(load_config(SHIPPED), duration=20.0))
    for owner, (row_dim, bound) in FULL_SEARCHES.items():
        assert 0 < searches[row_dim] <= bound, (owner, searches)
