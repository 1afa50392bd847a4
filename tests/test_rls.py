"""The learner's exact step in information form: growth, contraction, the
closed form on a frozen stack, the certificate, and the reset guard."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

from types import SimpleNamespace

from oirl import rls
from oirl.errors import DivergenceError
from oirl.history import HistoryStack
from oirl.rls import CHUNK, ConcurrentLearner, _norm, row_norms

from conftest import step
from per_step import one_span

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
        assert stack.try_insert(rows[i:i + 1], targets[i:i + 1], t=float(i))
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


@pytest.mark.parametrize("beta, dt", [(2.0, 0.005), (2.0, 0.01),
                                      (20.0, 0.0025), (100.0, 0.01)])
def test_array_powers_do_not_depend_on_the_position(beta, dt):
    """A chunk takes a^j for all its rows from one array power, over
    exponents that restart at each span it crosses. Each power has the bits
    of the same exponent anywhere in an array, as in one power of 1..N, in
    any order and from any offset, so a row's bits do not depend on where
    its span falls in a chunk. (Python's scalar a ** j differs from the
    array power in some bits, so no row takes it.)"""
    a = math.exp(-beta * dt)
    exponents = np.arange(1, 4 * CHUNK + 1)
    powers = a ** exponents
    rng = np.random.default_rng(6)
    for _ in range(20):
        mixed = rng.permutation(exponents)[:rng.integers(1, len(exponents))]
        assert (a ** mixed).tobytes() == powers[mixed - 1].tobytes()
    for start in range(1, 40):
        for n in (1, 7, 8, 9, 17, CHUNK - 1, CHUNK):
            got = a ** np.arange(start, start + n)
            assert got.tobytes() == powers[start - 1:start - 1 + n].tobytes()


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
                step(learner, DT)
    assert learner.weights is last and np.isfinite(last).all()
    assert last[0, 0] > 1e307
    assert learner.gain_resets == 0


def test_finite_gain_beyond_its_squared_norm_is_not_reset():
    """A finite H whose sum of squares overflows takes the finite path."""
    learner = _learner(gamma_floor=1e-250)
    learner.information = 1e200 * np.eye(2)
    a, _ = _flow(learner.cfg)
    with np.errstate(over="ignore"):
        step(learner, DT)
    assert not learner.last_gain_reset
    np.testing.assert_array_equal(learner.information, a * 1e200 * np.eye(2))
    assert learner.gamma_eig_range == (1.0 / (a * 1e200),) * 2


def test_pure_forgetting_grows_geometrically():
    """On an empty stack H shrinks by a, so Gamma grows by 1 / a per step."""
    learner = _learner(weights=np.array([[0.5], [-2.0]]))
    a, _ = _flow(learner.cfg)
    for k in range(1, 4):
        step(learner, DT)
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
        step(learner, DT)
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
        stack.try_insert(rng.normal(size=(3, 5)), rng.normal(size=(3, 1)), t=float(i))
    assert (stack.normal_matrix() == stack.normal_matrix().T).all()
    learner = ConcurrentLearner(_cfg(alpha=3.0), stack, np.zeros(5))
    for _ in range(500):
        step(learner, DT)
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
            step(learner, DT)
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
        step(learner, DT)
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
        step(learner, DT)
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
            step(learner, DT)
            assert learner.last_gain_reset and learner.gain_resets == k
    np.testing.assert_array_equal(learner.information, np.eye(2))
    np.testing.assert_array_equal(learner.weights, np.zeros((2, 1)))


def _advance(learner, steps):
    """The rows of one `advance` call over one span, its chunks joined."""
    chunks = list(learner.advance(DT, one_span(learner, steps)))
    return (np.concatenate([w for w, _ in chunks]),
            np.concatenate([g for _, g in chunks]))


def test_advance_equals_repeated_updates():
    """An L-step span is L one-step spans to 1e-13 relative, row by row,
    across chunk boundaries, on a frozen stack."""
    rng = np.random.default_rng(21)
    rows = rng.normal(size=(8, 4))

    def learner():
        return _learner(rows, rng_targets, weights=np.full((4, 2), 0.3), alpha=5.0)

    rng_targets = rng.normal(size=(8, 2))
    def miss(got, want):        # relative to the largest entry
        return np.abs(got - want).max() / np.abs(want).max()

    span, stepped = learner(), learner()
    steps = 2 * CHUNK + 37
    w, gamma = _advance(span, steps)
    assert w.shape == (steps, 4, 2) and gamma.shape == (steps, 2)
    for j in range(steps):
        step(stepped, DT)
        assert miss(w[j], stepped.weights) < 1e-13
        assert miss(gamma[j], np.array(stepped.gamma_eig_range)) < 1e-13
    assert miss(span.information, stepped.information) < 1e-13
    np.testing.assert_array_equal(span.weights, w[-1])
    assert span.gain_resets == stepped.gain_resets == 0


def test_advance_holds_the_certificate_on_every_row():
    """With rows consistent with W* (C = S W*), E = H (W* - W) obeys
    E_j = a^j E_0 on every row of a span, H_j being the closed form of the
    nominal flow. A learner whose a or b is off by 1e-6 fails it."""
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(6, 3))
    w_star = rng.normal(size=(3, 2))

    def worst_miss(**overrides):
        learner = _learner(rows, rows @ w_star, weights=rng.normal(size=(3, 2)),
                           **overrides)
        learner.information = np.diag([2.0, 0.5, 1.0])
        cfg = _cfg()
        a, _ = _flow(cfg)
        h0, s = learner.information, learner.stack.normal_matrix()
        e0 = h0 @ (w_star - learner.weights)
        w, _ = _advance(learner, 600)
        aj = a ** np.arange(1, 601)[:, None, None]
        h = aj * h0 + (1.0 - aj) * (cfg.alpha / cfg.beta) * s
        e = h @ (w_star - w)
        assert learner.gain_resets == 0
        return np.abs(e - aj * e0).max() / np.abs(e0).max()

    assert worst_miss() < 1e-13
    assert worst_miss(beta=2.0 * (1 + 1e-6)) > 1e-9
    assert worst_miss(alpha=1.0 * (1 + 1e-6)) > 1e-9


def test_bound_violation_inside_a_span_resets_at_that_row():
    """Forgetting takes lambda_min(H) below 1 / gamma_ceiling at row 300 of
    a span, past a chunk boundary: H resets there to I / gamma0, W is kept
    from row 299, and the row ends its chunk flagged, exactly where single
    steps reset. The span goes on from that state, bit for bit a span
    started there."""
    a, _ = _flow(_cfg())
    first = 300                 # the first row whose lambda_min is too low

    def learner():
        # the stack excites only the second direction, so W moves along it
        out = _learner([[0.0, 1.0]], [1.0], weights=np.array([[0.5], [-2.0]]),
                       gamma0=2.0)
        out.information = np.diag([1e-7 * a ** -(first + 0.5), 1.0])
        return out

    span, stepped = learner(), learner()
    chunks, flags = [], []
    for w, g in span.advance(DT, one_span(span, 1000)):
        chunks.append((w, g))
        flags.append((len(w), span.last_gain_reset))
    ends = np.cumsum([n for n, _ in flags]).tolist()
    assert ends[:2] == [CHUNK, first + 1] and ends[-1] == 1000
    assert [end for end, (_, reset) in zip(ends, flags) if reset] == [first + 1]
    w, gamma = (np.concatenate(c) for c in zip(*chunks))
    assert span.gain_resets == 1
    np.testing.assert_array_equal(w[first], w[first - 1])
    assert w[first - 1, 1, 0] != w[0, 1, 0]           # W did move
    assert tuple(gamma[first]) == (2.0, 2.0)
    assert (gamma[:first, 1] < 1e7).all()
    restarted = learner()
    restarted.information = 0.5 * np.eye(2)
    restarted.weights = w[first - 1]
    rest, rest_gamma = _advance(restarted, 1000 - first - 1)
    np.testing.assert_array_equal(w[first + 1:], rest)
    np.testing.assert_array_equal(gamma[first + 1:], rest_gamma)
    np.testing.assert_array_equal(span.information, restarted.information)
    for j in range(1000):
        step(stepped, DT)
        assert stepped.last_gain_reset is (j == first)
        assert np.abs(stepped.weights - w[j]).max() < 1e-13 * np.abs(w[j]).max()


def test_rows_past_a_reset_raise_nothing(monkeypatch):
    """S = c^2 [[1, 1], [1, 1]] with c^2 = 2e305 puts lambda_min(H) below
    1 / gamma_ceiling by rounding on every step, so single steps reset H on
    every row. A 300-step span does the same, bit for bit: the first chunk
    ends at its first row, and its rows past that, whose eigenvalues
    overflow from row 229 on, are dropped without raising. A chunk cut
    short is followed by one of at most twice the rows it kept, so LAPACK
    takes 2 rows, not CHUNK, for each later reset."""
    c = math.sqrt(2e305)
    overrides = {"alpha": 1e3, "gamma_floor": 5e-324}
    span, stepped = (_learner([[c, c]], [1.0], **overrides) for _ in range(2))
    counts = Counter()
    monkeypatch.setattr(rls, "eigvalsh_lo",
                        _counting(rls.eigvalsh_lo, counts, "eigvalsh"))
    got = [(w.tobytes(), g.tobytes(), span.last_gain_reset)
           for w, g in span.advance(DT, one_span(span, 300))]
    monkeypatch.undo()
    assert counts["eigvalsh"] == CHUNK + 2 * 298 + 1     # the last has 1 row left
    want = []
    for _ in range(300):
        step(stepped, DT)
        want.append((stepped.weights[None].tobytes(),
                     np.array([stepped.gamma_eig_range]).tobytes(),
                     stepped.last_gain_reset))
    assert got == want
    assert span.gain_resets == stepped.gain_resets == 300
    np.testing.assert_array_equal(span.information, stepped.information)


def test_a_huge_finite_information_matrix_steps_without_a_warning():
    """lambda_min(H) passes 1.8e308 / gamma_ceiling from row 6 of an
    80-step span on, while every eigenvalue stays finite: the gain-bound
    product overflows to inf, which compares as the exact product, so
    neither the span nor single steps warn, and neither resets. The span's
    closed form and the single steps' recurrence round apart, by about
    eps * cond(H) with cond(H) = s^2 / d^2 = 1e6, so they are compared to
    ten times that."""
    s = math.sqrt(6e305)
    d = 1e-3 * s
    rows = [[(s + d) / 2, (s - d) / 2], [(s - d) / 2, (s + d) / 2]]
    overrides = {"alpha": 1e3, "gamma_floor": 5e-324}
    span, stepped = (_learner(rows, [1.0, 2.0], **overrides) for _ in range(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, g = map(np.concatenate, zip(*span.advance(DT, one_span(span, 80))))
        want_w, want_g = [], []
        for _ in range(80):
            step(stepped, DT)
            want_w.append(stepped.weights)
            want_g.append(stepped.gamma_eig_range)
    assert span.gain_resets == stepped.gain_resets == 0
    bound = 10 * np.finfo(float).eps * (s / d) ** 2
    assert np.all(np.abs(w - want_w).max(axis=1) <= bound * np.abs(want_w).max(axis=1))
    assert np.all(np.abs(g - want_g) <= bound * np.abs(want_g))
    assert np.linalg.eigvalsh(span.information)[0] > np.finfo(float).max / 1e7


def test_a_kept_rows_non_finite_eigenvalues_raise_at_that_row():
    """H stays finite while its largest eigenvalue overflows from row 91 of
    a span on, with no reset before it: the span yields rows 0 to 90 and
    raises at row 91, where single steps raise."""
    s = math.sqrt(6e305)
    d = 1e-6 * s
    rows = [[(s + d) / 2, (s - d) / 2], [(s - d) / 2, (s + d) / 2]]
    overrides = {"alpha": 1e3, "gamma_floor": 5e-324}
    span, stepped = (_learner(rows, [1.0, 2.0], **overrides) for _ in range(2))
    got = []
    with pytest.raises(DivergenceError, match="eigenvalues went non-finite"):
        for w, _ in span.advance(DT, one_span(span, 300)):
            got.append(w)
    w = np.concatenate(got)
    assert len(w) == 91 and span.gain_resets == 0
    np.testing.assert_array_equal(span.weights, w[-1])
    with pytest.raises(DivergenceError, match="eigenvalues went non-finite"):
        for j in range(300):
            step(stepped, DT)
    assert j == 91 and stepped.gain_resets == 0


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("gamma_ceiling, resets", [(1e7, 0), (30.0, 7)])
def test_one_call_over_many_spans_equals_a_call_per_span(vector, gamma_ceiling,
                                                          resets):
    """Chunks that run across span ends change no bit: one `advance` over
    40 spans of 1 to 120 steps, each on its own S and C (an empty stack
    among them), yields the rows, Gamma's ranges and reset flags of one call
    per span, and leaves the same state. With a low gamma ceiling H resets
    seven times inside spans."""
    rng = np.random.default_rng(13)
    spans = []
    for n in rng.integers(1, 121, size=40):
        rows = rng.normal(size=(int(rng.integers(0, 4)), 3)) * [1.0, 1.0, 0.1]
        spans.append((int(n), rows.T @ rows, rows.T @ rng.normal(size=(len(rows), 1))))

    def drive(groups):
        learner = _learner(np.zeros((0, 3)), weights=np.full((3, 1), 0.5),
                           alpha=4.0, gamma_ceiling=gamma_ceiling)
        if vector:
            learner.weights = learner.weights[:, 0]
        out = []
        for group in groups:
            for w, g in learner.advance(DT, group):
                flags = np.zeros(len(w), dtype=bool)
                flags[-1] = learner.last_gain_reset
                out.append((w, g, flags))
        w, g, flags = (np.concatenate(c) for c in zip(*out))
        return (w.tobytes(), g.tobytes(), flags.tobytes(), learner.gain_resets,
                learner.information.tobytes(), learner.weights.tobytes())

    whole = drive([spans])
    assert whole == drive([[span] for span in spans])
    assert whole[3] == resets


class _ClipsOnRows(ConcurrentLearner):
    """Clips W into [-0.1, 0.1] on the given rows of its steps, as a theta
    estimator clips theta_hat into its box, counting the rows it keeps."""

    def __init__(self, learner, rows):
        super().__init__(learner.cfg, learner.stack, learner.weights)
        self.rows, self.row = rows, 0

    def _amend(self, w):
        i = min([j - self.row for j in self.rows if 0 <= j - self.row < len(w)],
                default=len(w))
        if i < len(w):
            np.clip(w[i], -0.1, 0.1, out=w[i])
        self.row += min(i + 1, len(w))
        return i


def test_a_clip_on_a_chunks_last_row_restarts_the_closed_form():
    """A chunk cut short at a clip after t rows is followed by one of 2t
    rows, so clips at rows 0, 2, 6, ..., 126 each fall on their chunk's
    last row, and the one at 200 inside a chunk. Each restarts the closed
    form from H W with W clipped: the rows are bit for bit those of one
    call per stretch ending at a clip, and single steps to 1e-13."""
    clips = [0, 2, 6, 14, 30, 62, 126, 200]

    def learner():
        return _ClipsOnRows(_learner([[1.0, 0.0], [0.5, 1.0]], [2.0, -3.0],
                                     weights=np.full((2, 1), 0.5), alpha=20.0),
                            clips)

    whole, split, stepped = learner(), learner(), learner()
    w, gamma = _advance(whole, 300)
    lengths = np.diff([-1] + clips + [299])
    parts = [_advance(split, int(n)) for n in lengths]
    assert w.tobytes() == np.concatenate([p for p, _ in parts]).tobytes()
    assert gamma.tobytes() == np.concatenate([g for _, g in parts]).tobytes()
    assert (np.abs(w[clips]) == 0.1).all()
    assert (np.abs(w[[j + 1 for j in clips]]) > 0.1).any(axis=(1, 2)).all()
    for j in range(300):
        step(stepped, DT)
        assert np.abs(stepped.weights - w[j]).max() < 1e-13 * np.abs(w[j]).max()


def test_finite_gain_beyond_its_squared_norm_steps_without_a_warning():
    """H = 1e200 I is finite though its squares overflow: a step and a span
    take it under the suite's error::RuntimeWarning filter, with no errstate
    around them."""
    learner = _learner(gamma_floor=1e-250)
    learner.information = 1e200 * np.eye(2)
    a, _ = _flow(learner.cfg)
    step(learner, DT)
    assert not learner.last_gain_reset
    np.testing.assert_array_equal(learner.information, a * 1e200 * np.eye(2))
    _advance(learner, 10)
    assert learner.gain_resets == 0


def _counting(fn, counts, name):
    def counted(a, *args, **kwargs):
        counts[name] += len(a)
        return fn(a, *args, **kwargs)
    return counted


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("beta, gamma_ceiling, resets", [(20.0, 1e7, 0),
                                                         (2.0, 10.0, 3)])
def test_repeated_rows_take_the_lapack_results_of_the_row_before(
        monkeypatch, vector, beta, gamma_ceiling, resets):
    """Once forgetting converges, H and Z repeat bit for bit from row to
    row, and `advance` hands LAPACK only the first of each run. A span of
    3 * CHUNK + 5 steps equals the same span with every row decomposed and
    solved: weights, Gamma's range, reset flags, gamma_eig_range and
    gain_resets, chunk by chunk and bit for bit, for vector and matrix
    weights. At beta = 20 H reaches its fixed point near row 420 and keeps
    it across two CHUNK boundaries, and LAPACK sees a fraction of the rows;
    Z, from weights of 1e6, reaches its own over a hundred rows later, so
    some rows repeat H and not Z. The rows after the third chunk repeat its
    last row, which is its span's fixed point (`_settled`), so only the
    every-row reference, with that shortcut off too, computes them. With a
    low gamma ceiling the weakly excited direction resets H every 230 steps
    or so, and no row repeats."""
    real = rls.eigvalsh_lo, rls.solve
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(4, 3)) * np.array([1.0, 1.0, 0.05])
    targets = rng.normal(size=(4, 1))

    def drive(every_row):
        counts = Counter()
        monkeypatch.setattr(rls, "eigvalsh_lo", _counting(real[0], counts, "eigvalsh"))
        monkeypatch.setattr(rls, "solve", _counting(real[1], counts, "solve"))
        if every_row:
            monkeypatch.setattr(rls, "_fresh", lambda a: np.ones(len(a), dtype=bool))
            monkeypatch.setattr(rls, "_settled", lambda *args: False)
        learner = _learner(rows, targets, weights=np.full((3, 1), 1e6), beta=beta,
                           gamma_ceiling=gamma_ceiling)
        if vector:
            learner.weights = learner.weights[:, 0]
        out = []
        for w, g in learner.advance(DT, one_span(learner, 3 * CHUNK + 5)):
            out += [w.tobytes(), g.tobytes(), learner.last_gain_reset,
                    learner.gamma_eig_range]
        monkeypatch.undo()
        return out + [learner.gain_resets, learner.information.tobytes()], counts

    (got, fewer), (want, every) = drive(False), drive(True)
    assert got == want and got[-2] == resets
    if resets:      # no row between resets repeats the one before it
        assert fewer == every
    else:           # counted: 426 and 549 of 773 rows
        assert every == {"eigvalsh": 3 * CHUNK + 5, "solve": 3 * CHUNK + 5}
        assert fewer["eigvalsh"] < fewer["solve"] < 0.8 * every["solve"], fewer


def _spy_rows(monkeypatch):
    """Count the rows `_rows` computes."""
    real, rows = rls._rows, Counter()

    def counted(a, cfg, r, n, *args):
        rows["computed"] += n
        return real(a, cfg, r, n, *args)
    monkeypatch.setattr(rls, "_rows", counted)
    return rows


def _settling_learner(**overrides):
    """The learner of the repeated-rows test at beta = 20: its one span
    reaches its fixed point in H and Z by the end of its third chunk."""
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(4, 3)) * np.array([1.0, 1.0, 0.05])
    return _learner(rows, rng.normal(size=(4, 1)), weights=np.full((3, 1), 1e6),
                    **{"beta": 20.0, **overrides})


@pytest.mark.parametrize("steps", [3 * CHUNK + 5, 6 * CHUNK + 17])
def test_a_settled_spans_repeated_rows_are_the_rows_it_skips(monkeypatch, steps):
    """Past the row where a span settles, `advance` repeats that row and
    computes nothing: the rows it yields are bit for bit `_rows` of the
    whole span in one piece, each decomposed and solved, with the learner's
    state those rows leave; and `_rows` computed only the rows up to the
    end of the third chunk."""
    learner = _settling_learner()
    h0 = learner.information
    z0 = h0 @ learner.weights
    span = one_span(learner, steps)
    counts = _spy_rows(monkeypatch)
    w, gamma = _advance(learner, steps)
    monkeypatch.undo()
    assert counts["computed"] == 3 * CHUNK < steps
    h, z, *_ = rls._rows(math.exp(-learner.cfg.beta * DT), learner.cfg, 0, steps,
                         [0], h0, z0, span)
    assert w.tobytes() == rls.solve(h, z).tobytes()
    assert gamma.tobytes() == (1.0 / rls.eigvalsh_lo(h)[:, [-1, 0]]).tobytes()
    assert learner.information.tobytes() == h[-1].tobytes()
    assert learner.gain_resets == 0 and not learner.last_gain_reset


def test_a_zero_of_s_under_a_nonzero_of_h0_never_settles(monkeypatch):
    """S is diagonal and H0 is not: H's off-diagonal entries, a^e H0, fall
    through the subnormals to 0 near row 1,490, so from there H equals
    (alpha / beta) S. A settled row must have a normal power, so the span
    never settles: every row is computed, and each equals the rows of the
    same span with the repeat shortcut off."""
    def drive(shortcut):
        learner = _learner([[1.0, 0.0], [0.0, 2.0]], [1.0, -1.0], beta=100.0)
        learner.information = np.array([[1.0, 0.5], [0.5, 1.0]])
        if not shortcut:
            monkeypatch.setattr(rls, "_settled", lambda *args: False)
        counts = _spy_rows(monkeypatch)
        w, gamma = _advance(learner, 2000)
        monkeypatch.undo()
        return w.tobytes(), gamma.tobytes(), learner.information, counts["computed"]

    got, want = drive(True), drive(False)
    assert got[:2] == want[:2] and got[3] == want[3] == 2000
    np.testing.assert_array_equal(got[2], np.diag([0.01, 0.04]))


def test_a_reset_or_a_clip_on_a_chunks_last_row_blocks_the_repeat(monkeypatch):
    """Only a chunk kept whole can settle its span. A clip on the last row
    of the third chunk, where the span has settled, restarts the closed form
    from the clipped W: the rows after it are computed and differ from it,
    bit for bit the rows with the shortcut off. Without the clip they
    repeat it. A reset ends its chunk on the reset row, and no chunk that
    ends in a reset is tested for a fixed point."""
    steps = 3 * CHUNK + 5

    def drive(clips, shortcut=True):
        learner = _ClipsOnRows(_settling_learner(), clips)
        if not shortcut:
            monkeypatch.setattr(rls, "_settled", lambda *args: False)
        counts = _spy_rows(monkeypatch)
        w, _ = _advance(learner, steps)
        monkeypatch.undo()
        return w, counts["computed"]

    last = 3 * CHUNK - 1        # the third chunk's last row
    (clipped, computed), (want, _) = drive([last]), drive([last], False)
    assert computed == steps and clipped.tobytes() == want.tobytes()
    assert (np.abs(clipped[last]) <= 0.1).all()
    assert (clipped[last + 1:] != clipped[last]).any(axis=(1, 2)).all()
    repeated, computed = drive([])
    assert computed == 3 * CHUNK
    assert (repeated[last + 1:] == repeated[last]).all()

    tested, real = [], rls._settled
    learner = _settling_learner(beta=2.0, gamma_ceiling=10.0)

    def spy(*args):
        tested.append(learner.last_gain_reset)
        return real(*args)
    monkeypatch.setattr(rls, "_settled", spy)
    _advance(learner, steps)
    assert learner.gain_resets == 3 and tested and not any(tested)
