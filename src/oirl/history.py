"""Bounded history stacks with informativity bookkeeping.

A stack holds up to `capacity` entries, each a small block of regressor rows
with matching targets, a timestamp, and an integer tag identifying which
parameter-estimate generation produced it. Owners bank rows so that
rows @ W ~= target for their weights W, which is why the policy
(u = -W^T sigma) banks -u and the reward rows (rows @ W + offsets = 0) bank
-offsets. The informativity metric is lambda_min of the stacked normal
matrix; admission maximizes it. Once the stack is full, an offer swaps in
for the entry whose removal leaves the largest lambda_min, and only on a
strict relative gain: `try_insert` appends, or tries every swap. Most
offers are rejected, and an exact certificate (a Rayleigh quotient of every
swap on the current lambda_min eigenvector, with a rounding allowance)
rejects them with no swap tried. It reads the stack only through what is
fixed until the stack changes, so `first_unrejected` takes it of a batch of
upcoming offers in one pass; only the first offer it cannot reject needs
`try_insert`, and every decision is bit for bit the search's. The search
itself decomposes only the swaps whose own bound (the certificate's term
for that swap, with its slack) passes the threshold: a swap it prunes has
lambda_min at most the threshold, so it can neither win nor tie. `clear`
empties the stack; when to purge (staleness, dwell time) is the owner's
rule.

An offer is exactly one block: rows of shape (block_rows, row_dim) and
targets of shape (block_rows, target_dim). `try_insert` reshapes nothing,
and any other shape, a 1-D row or target among them, is a DimensionError;
`harness._walk` shapes every offer of a run into blocks.

This module is the one owner of numpy's private entry points: it alone
imports the LAPACK gufuncs and the clip ufunc, each bound once below with
its float64 signature, and `rls` and `param_estimator` call those names.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from numpy._core import umath
from numpy.linalg import _umath_linalg

from .errors import DimensionError, DivergenceError

Matrix = np.ndarray

ADMISSION_MARGIN = 1e-6     # a full stack's least relative lambda_min gain

# each gives the bits of its public function (np.linalg.eigvalsh, eigh and
# solve over stacks of matrices, np.clip) without that function's dispatch
# and `errstate`, which cost more than LAPACK at these sizes; a gufunc
# returns NaN where numpy would raise `LinAlgError`
eigvalsh_lo = partial(_umath_linalg.eigvalsh_lo, signature="d->d")
eigh_lo = partial(_umath_linalg.eigh_lo, signature="d->dd")
solve = partial(_umath_linalg.solve, signature="dd->d")
clip = partial(umath.clip, signature="ddd->d")


def eigvalsh(a: Matrix) -> np.ndarray:
    """Ascending eigenvalues of float64 symmetric a, shape (..., k, k), from
    `eigvalsh_lo`; a non-finite result raises DivergenceError."""
    w = eigvalsh_lo(a)
    if not np.isfinite(w).all():
        raise DivergenceError("symmetric eigenvalues went non-finite")
    return w


class HistoryStack:
    """Fixed-capacity regressor/target store with lambda_min-greedy admission.

    Entries are blocks of shape (block_rows, row_dim) with targets of shape
    (block_rows, target_dim). The normal matrix sum(block^T block) and the
    cross matrix sum(block^T target) are kept cached so owners can run their
    least-squares updates without restacking.
    """

    def __init__(self, capacity: int, row_dim: int, block_rows: int = 1,
                 target_dim: int = 1):
        if capacity < 1 or row_dim < 1 or block_rows < 1 or target_dim < 1:
            raise ValueError("capacity and dimensions must be positive")
        self.capacity = int(capacity)
        self.row_dim = int(row_dim)
        self.block_rows = int(block_rows)
        self.target_dim = int(target_dim)
        self._rows = np.zeros((capacity, block_rows, row_dim))
        self._targets = np.zeros((capacity, block_rows, target_dim))
        self._times = np.zeros(capacity)
        self._tags = np.zeros(capacity, dtype=int)
        self._grams = np.zeros((capacity, row_dim, row_dim))
        self._count = 0
        self._refresh()

    # -- read side ----------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def rank_metric(self) -> float:
        """Cached lambda_min of the stacked normal matrix (0 when empty)."""
        return self._rank_metric

    def normal_matrix(self) -> Matrix:
        """sum over entries of block^T block, shape (row_dim, row_dim); the
        cached array, read-only, which a change to the stack replaces."""
        return self._normal

    def cross_matrix(self) -> Matrix:
        """sum over entries of block^T target, shape (row_dim, target_dim),
        read-only and cached like `normal_matrix`."""
        return self._cross

    def regressor(self) -> Matrix:
        """All stored rows stacked, shape (count*block_rows, row_dim)."""
        return self._rows[:self._count].reshape(-1, self.row_dim).copy()

    def targets(self) -> Matrix:
        """All stored targets stacked, shape (count*block_rows, target_dim)."""
        return self._targets[:self._count].reshape(-1, self.target_dim).copy()

    def contents(self) -> Matrix:
        """Every stored row as (timestamp, tag, row, target), shape
        (count*block_rows, 2 + row_dim + target_dim), for CSV dumps."""
        k, r = self._count, self.block_rows
        return np.column_stack([np.repeat(self._times[:k], r),
                                np.repeat(self._tags[:k], r),
                                self.regressor(), self.targets()])

    def oldest_tag(self) -> int | None:
        """The least tag among stored entries (None when empty), cached."""
        return self._oldest_tag

    # -- write side ----------------------------------------------------------

    def _coerce(self, row_block, target_block):
        rows = np.asarray(row_block, dtype=float)
        targets = np.asarray(target_block, dtype=float)
        if rows.shape != (self.block_rows, self.row_dim):
            raise DimensionError(
                f"row block must be ({self.block_rows}, {self.row_dim}), "
                f"got {rows.shape}")
        if targets.shape != (self.block_rows, self.target_dim):
            raise DimensionError(
                f"target block must be ({self.block_rows}, {self.target_dim}), "
                f"got {targets.shape}")
        if not (np.isfinite(rows).all() and np.isfinite(targets).all()):
            raise DivergenceError("non-finite row or target offered to history stack")
        return rows, targets

    def _write_slot(self, i: int, rows, targets, t: float, tag: int) -> None:
        self._rows[i] = rows
        self._targets[i] = targets
        self._times[i] = t
        self._tags[i] = tag
        self._grams[i] = rows.T @ rows

    def _refresh(self) -> None:
        # rebuild the cached sums from stored entries; exact, and cheap at
        # these sizes, which keeps rank_metric consistent with the contents
        k = self._count
        if k == 0:
            self._normal = np.zeros((self.row_dim, self.row_dim))
            self._cross = np.zeros((self.row_dim, self.target_dim))
            self._rank_metric = 0.0
            self._oldest_tag = None
        else:
            self._normal = self._grams[:k].sum(axis=0)
            flat_rows = self._rows[:k].reshape(-1, self.row_dim)
            flat_targets = self._targets[:k].reshape(-1, self.target_dim)
            self._cross = flat_rows.T @ flat_targets
            self._rank_metric = float(eigvalsh(self._normal)[0])
            self._oldest_tag = int(self._tags[:k].min())
        # what a swap's lambda_min must beat to be taken
        self._threshold = max(self._rank_metric * (1.0 + ADMISSION_MARGIN), 0.0)
        self._probe = None
        self._normal.flags.writeable = False
        self._cross.flags.writeable = False

    # a finite offer whose products overflow ends in the DivergenceError of
    # eigvalsh, with no warning before it
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def try_insert(self, row_block, target_block, t: float, tag: int = 0) -> bool:
        """Append when not full; otherwise replace the entry whose removal
        most improves lambda_min, and only on a strict relative improvement.
        Only the swaps that `first_unrejected`'s bound, taken per swap,
        cannot reject are eigendecomposed; the decision and the slot are
        those of a search of every swap.

        Returns whether the stack changed.
        """
        rows, targets = self._coerce(row_block, target_block)
        if self._count < self.capacity:
            self._write_slot(self._count, rows, targets, t, tag)
            self._count += 1
            self._refresh()
            return True
        # only the swaps whose own certificate bound passes the threshold
        # can win (or tie the winner), so only they are decomposed
        v, bases, _, vv, slack, trace = self._rayleigh()
        rv, flat = rows @ v, rows.ravel()
        bound = (bases + rv.dot(rv)) / vv + slack * (trace + flat.dot(flat))
        live = np.flatnonzero(~(bound <= self._threshold))
        if not len(live):
            return False
        # lambda_min of the normal matrix with entry i swapped for the candidate
        trial = (self._normal + rows.T @ rows)[None, :, :] - self._grams[live]
        lam = eigvalsh(trial)[:, 0]
        best = int(np.argmax(lam))
        if not lam[best] > self._threshold:
            return False
        self._write_slot(int(live[best]), rows, targets, t, tag)
        self._refresh()
        return True

    def first_unrejected(self, rows, frob) -> int:
        """The index of the first of the offers rows (M, block_rows, row_dim)
        that the certificate, taken of all M in one pass, cannot reject, or
        M; a stack that is not full rejects none. frob[i] is |rows[i]|_F^2
        summed in any order, or NaN for an offer that must reach
        `try_insert` (a non-finite one).

        The swap of entry i is T_i = N + g - G_i, with g = R'R the offer's
        gram. For v the lambda_min eigenvector of N, lambda_min(T_i) <=
        v'T_i v / v'v <= U = (v'Nv + |Rv|^2 - min_i v'G_i v) / v'v in real
        arithmetic, so U + slack <= threshold rejects as the search would.
        Slack: N, g and each G_i are grams, so s = tr N + |R|_F^2 bounds the
        2-norm of each and of its entrywise absolute value. With d = row_dim,
        r = block_rows and u = eps/2 (the unit roundoff), the roundings are
        at most, in units of u*s:
          forming the float T_i from N, g and G_i ........... 3
          |Rv|^2 for v'gv (the matmul R'R, then R@v) ....... d + 2r + 1
          v'Nv and each v'G_i v, matmuls of length d ....... 4d
          summing U's numerator, dividing by v'v, adding ... 2d + 8
        and eigvalsh's backward error moves each lambda by at most
        p(d)*u*|T_i| <= 2p(d)*u*s, p a low-degree polynomial (LAPACK Users'
        Guide 4.7), taken as d^2. The allowance, 16(d^2 + d + r + 1)*u*s, is
        at least twice their sum, whatever the order of each sum. It grows
        with |R|_F^2, so an offer whose gram overflows is not rejected, and
        the search raises on it.
        """
        if self._count < self.capacity:
            return 0
        v, _, base, vv, slack, trace = self._rayleigh()
        with np.errstate(over="ignore", invalid="ignore"):
            rv = np.matmul(rows, v)
            bound = (base + np.vecdot(rv, rv)) / vv + slack * (trace + frob)
        kept = ~(bound <= self._threshold)
        return int(kept.argmax()) if kept.any() else len(rows)

    def _rayleigh(self) -> tuple:
        """What the certificate reads of a full stack, cached until it
        changes: (v, v'Nv - v'G_i v per entry i, the largest of those,
        v'v, the slack per unit of s, tr N)."""
        if self._probe is None:
            v = eigh_lo(self._normal)[1][:, 0]
            d, r, eps = self.row_dim, self.block_rows, np.finfo(float).eps
            # rounding is monotone, so the largest is v'Nv - min_i v'G_i v
            bases = v @ self._normal @ v - self._grams @ v @ v
            self._probe = (v, bases, float(bases.max()), float(v @ v),
                           8.0 * (d * d + d + r + 1) * eps,
                           float(np.trace(self._normal)))
        return self._probe

    def clear(self) -> None:
        """Remove every entry."""
        self._count = 0
        self._refresh()

    def retag(self, tags) -> None:
        """Replace each stored tag i by tags[i], for an owner that banks
        entries before their tags are known and tags each by its index."""
        k = self._count
        self._tags[:k] = np.asarray(tags)[self._tags[:k]]
        self._oldest_tag = int(self._tags[:k].min()) if k else None
