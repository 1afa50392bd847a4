"""The learner's exact step in information form: growth, contraction, the
closed form on a frozen stack, the certificate, and the reset guard."""

import math

import numpy as np
import pytest

from types import SimpleNamespace

from oirl.errors import DivergenceError
from oirl.history import HistoryStack
from oirl.rls import ConcurrentLearner, _norm, row_norms

DT = 0.005


def _cfg(**overrides):
    return SimpleNamespace(**{"alpha": 1.0, "beta": 2.0, "gamma0": 1.0,
                              "gamma_floor": 1e-9, "gamma_ceiling": 1e7,
                              **overrides})


def _learner(rows=np.zeros((0, 2)), targets=np.zeros((0, 1)), weights=None,
             **overrides):
    """A learner on a stack holding `rows` (one per entry) with `targets`."""
    rows = np.array(rows, dtype=float, ndmin=2)
    targets = np.array(targets, dtype=float).reshape(len(rows), -1 if len(rows) else 1)
    stack = HistoryStack(capacity=max(1, len(rows)), row_dim=rows.shape[1],
                         target_dim=targets.shape[1])
    for i in range(len(rows)):
        assert stack.try_insert(rows[i], targets[i], t=float(i))
    if weights is None:
        weights = np.zeros((rows.shape[1], stack.target_dim))
    return ConcurrentLearner(_cfg(**overrides), stack, weights)


def _flow(cfg, dt=DT):
    """(a, b) of the exact step."""
    a = math.exp(-cfg.beta * dt)
    return a, (1.0 - a) * cfg.alpha / cfg.beta


@pytest.mark.parametrize("a", [
    np.array([3.0, -4.0, 1e-3]),
    np.linspace(-2.0, 7.0, 17)[::3],               # strided view
    np.arange(12.0).reshape(3, 4) / 7.0,
    (np.arange(12.0).reshape(3, 4) / 7.0).T,      # non-contiguous view
    np.zeros(0),
])
def test_norm_helper_is_bit_identical_to_numpy(a):
    assert _norm(a) == np.linalg.norm(a)


def test_row_norms_equal_per_row_norm_bit_for_bit():
    """One pass over a table gives each row's `_norm`, for every row length
    the metrics take, contiguous or sliced out of a wider table."""
    rng = np.random.default_rng(3)
    for width in range(40):         # 16 and up take BLAS's unrolled dot
        table = rng.normal(size=(100, width)) * 10.0 ** rng.integers(-8, 8, (100, 1))
        norms = row_norms(table)
        assert norms.shape == (100,)
        assert norms.tolist() == [_norm(row) for row in table]
        cut = table[:, 1:width - 1]
        assert row_norms(cut).tolist() == [_norm(row) for row in cut]
    blocks = rng.normal(size=(50, 5, 3))
    assert row_norms(blocks).tolist() == [_norm(block) for block in blocks]
    assert row_norms(np.zeros((4, 0))).tolist() == [0.0] * 4


def test_learner_weights_that_overflow_raise_divergence():
    """Finite rows and targets whose least-squares weights overflow: W* has
    1e310 in its first entry. Forgetting shrinks H along the weakly excited
    row until the solve for W overflows, and the learner raises with its last
    finite weights in place."""
    learner = _learner([[1e-10, 0.0], [0.0, 1.0]], [1e300, 1.0],
                       beta=100.0, gamma_ceiling=1e300)
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError, match="non-finite"):
            for _ in range(200):
                last = learner.weights
                learner.update(DT)
    assert learner.weights is last and np.isfinite(last).all()
    assert last[0, 0] > 1e307
    assert learner.gain_resets == 0


def test_finite_gain_beyond_its_squared_norm_is_not_reset():
    """A finite H whose sum of squares overflows takes the finite path."""
    learner = _learner(gamma_floor=1e-250)
    learner.information = 1e200 * np.eye(2)
    a, _ = _flow(learner.cfg)
    with np.errstate(over="ignore"):
        learner.update(DT)
    assert not learner.last_gain_reset
    np.testing.assert_array_equal(learner.information, a * 1e200 * np.eye(2))
    assert learner.gamma_eig_range == (1.0 / (a * 1e200),) * 2


def test_pure_forgetting_grows_geometrically():
    """On an empty stack H shrinks by a, so Gamma grows by 1 / a per step."""
    learner = _learner(weights=np.array([[0.5], [-2.0]]))
    a, _ = _flow(learner.cfg)
    for k in range(1, 4):
        learner.update(DT)
        assert not learner.last_gain_reset
        np.testing.assert_allclose(learner.information, a ** k * np.eye(2),
                                   rtol=1e-15, atol=0)
        lo, hi = learner.gamma_eig_range
        assert lo == hi == pytest.approx(a ** -k, rel=1e-15)
        np.testing.assert_array_equal(learner.weights, [[0.5], [-2.0]])


def test_excitation_contracts_the_gain():
    """On a frozen stack H follows its closed form
    H_k = a^k H_0 + (1 - a^k) (alpha / beta) S, so Gamma contracts to
    (beta / alpha) S^-1 when S outweighs the forgetting."""
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(6, 3))
    learner = _learner(rows, rng.normal(size=(6, 2)), alpha=10.0)
    cfg, s = learner.cfg, learner.stack.normal_matrix()
    a, _ = _flow(cfg)
    h0 = learner.information.copy()
    for k in range(1, 2001):
        learner.update(DT)
        if k in (1, 10, 100, 2000):
            closed = a ** k * h0 + (1.0 - a ** k) * (cfg.alpha / cfg.beta) * s
            np.testing.assert_allclose(learner.information, closed,
                                       rtol=1e-12, atol=1e-12 * np.abs(s).max())
    assert learner.gain_resets == 0
    gamma = np.linalg.inv(learner.information)
    np.testing.assert_allclose(gamma, (cfg.beta / cfg.alpha) * np.linalg.inv(s),
                               rtol=1e-7)
    assert learner.gamma_eig_range[1] < 1.0


def test_information_step_stays_symmetric_bit_for_bit():
    """a H + b S of symmetric matrices is symmetric in every bit, so no step
    needs a symmetrization or a symmetry check."""
    rng = np.random.default_rng(8)
    stack = HistoryStack(capacity=12, row_dim=5, block_rows=3)
    for i in range(12):
        stack.try_insert(rng.normal(size=(3, 5)), rng.normal(size=3), t=float(i))
    assert (stack.normal_matrix() == stack.normal_matrix().T).all()
    learner = ConcurrentLearner(_cfg(alpha=3.0), stack, np.zeros(5))
    for _ in range(500):
        learner.update(DT)
        assert (learner.information == learner.information.T).all()
    assert learner.weights.shape == (5,)


def test_certificate_holds_on_every_step_without_a_reset():
    """The paper's Lyapunov argument, exactly. With rows consistent with W*
    (C = S W*) and E = H (W* - W), the step gives E+ = a E and
    H+ = a H + b S to rounding, on every step without a reset. The stack is
    rank-deficient, so forgetting resets H twice over the run. A learner
    stepping with a wrong a or a wrong b fails the same check."""
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(2, 3))
    w_star = rng.normal(size=(3, 2))

    def worst_miss(**overrides):
        learner = _learner(rows, rows @ w_star, **overrides)
        a, b = _flow(_cfg())                  # the step the certificate expects
        s = learner.stack.normal_matrix()
        assert np.allclose(learner.stack.cross_matrix(), s @ w_star, atol=1e-14)
        worst, checked = 0.0, 0
        for _ in range(4000):
            h, w = learner.information, learner.weights
            learner.update(DT)
            if learner.last_gain_reset:
                continue
            h_next, w_next = learner.information, learner.weights
            scale = np.abs(h).max() * (np.abs(w_star).max() + np.abs(w).max())
            miss_e = np.abs(h_next @ (w_star - w_next) - a * (h @ (w_star - w))).max()
            miss_h = np.abs(h_next - (a * h + b * s)).max()
            worst = max(worst, miss_e / scale, miss_h / np.abs(h_next).max())
            checked += 1
        return worst, checked, learner.gain_resets

    worst, checked, resets = worst_miss()
    assert resets == 2 and checked == 4000 - resets
    assert worst < 1e-13
    # a wrong a (beta off by 1e-6) or a wrong b (alpha off by 1e-6) fails it
    assert worst_miss(beta=2.0 * (1 + 1e-6))[0] > 1e-9
    assert worst_miss(alpha=1.0 * (1 + 1e-6))[0] > 1e-9


def test_ceiling_violation_resets_to_initial_gain():
    """Gamma may not reach gamma_ceiling: a step that takes lambda_min(H) to
    1 / gamma_ceiling or below resets H to I / gamma0 and keeps W."""
    a, _ = _flow(_cfg())
    for scale, reset in ((1.0001 / a, False), (0.9999 / a, True)):
        learner = _learner(weights=np.array([[0.5], [-2.0]]), gamma0=2.0)
        learner.information = np.diag([scale * 1e-7, 1.0])
        learner.update(DT)
        assert learner.last_gain_reset is reset
        assert learner.gain_resets == int(reset)
        np.testing.assert_array_equal(learner.weights, [[0.5], [-2.0]])
        if reset:
            np.testing.assert_array_equal(learner.information, 0.5 * np.eye(2))
            assert learner.gamma_eig_range == (2.0, 2.0)
        else:
            assert learner.gamma_eig_range[1] == pytest.approx(1e7 / 1.0001)


def test_floor_violation_resets_to_initial_gain():
    """Gamma may not reach gamma_floor: excitation that takes lambda_max(H)
    to 1 / gamma_floor or above resets H to I / gamma0 and keeps W."""
    a, b = _flow(_cfg())
    for excitation, reset in ((0.9999e9 / b, False), (1.0001e9 / b, True)):
        rows = math.sqrt(excitation) * np.eye(2)
        learner = _learner(rows, [1.0, 2.0], weights=np.array([[0.5], [-2.0]]))
        learner.information = np.zeros((2, 2))   # so that H+ = b S exactly
        learner.update(DT)
        assert learner.last_gain_reset is reset
        if reset:
            np.testing.assert_array_equal(learner.information, np.eye(2))
            np.testing.assert_array_equal(learner.weights, [[0.5], [-2.0]])
            assert learner.gamma_eig_range == (1.0, 1.0)
        else:
            assert learner.gamma_eig_range[0] == pytest.approx(1e-9 / 0.9999)


def test_reset_survives_non_finite_step():
    """alpha = 1e300 makes b S overflow: H goes non-finite and is reset on
    every step, and nothing raises."""
    learner = _learner([[1e6, 0.0], [0.0, 1e6]], [1.0, 1.0], alpha=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 4):
            learner.update(DT)
            assert learner.last_gain_reset and learner.gain_resets == k
    np.testing.assert_array_equal(learner.information, np.eye(2))
    np.testing.assert_array_equal(learner.weights, np.zeros((2, 1)))
