"""History stack admission, replacement, and purge behavior."""

import numpy as np
import pytest

from oirl.errors import DimensionError, DivergenceError
from oirl.history import HistoryStack, all_finite, eigvalsh


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
    stack = HistoryStack(capacity=2, row_dim=2)
    with pytest.raises(ValueError):
        stack.try_insert(np.array([np.inf, 0.0]), 0.0, t=0.0)
    with pytest.raises(ValueError):
        stack.try_insert(np.array([1.0, 0.0]), np.nan, t=0.0)


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
