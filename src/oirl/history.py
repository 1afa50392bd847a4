"""Bounded history stacks with informativity bookkeeping.

A stack holds up to `capacity` entries, each a small block of regressor rows
with matching targets, a timestamp, and an integer tag identifying which
parameter-estimate generation produced it. Owners bank rows so that
rows @ W ~= target for their weights W, which is why the policy
(u = -W^T sigma) banks -u and the reward rows (rows @ W + offsets = 0) bank
-offsets. The informativity metric is lambda_min of the stacked normal
matrix; admission maximizes it. Once the stack is full, an offer swaps in
for the entry whose removal leaves the largest lambda_min, and only on a
strict relative gain. Most offers are rejected, so an exact certificate (a
Rayleigh quotient of every swap on the current lambda_min eigenvector, with
a rounding allowance) rejects them before any swap is tried. It rejects only
offers that the full search would reject too, so every decision, slot and
cached sum is bit for bit the search's. `clear` empties the stack;
when to purge (staleness, dwell time) is the owner's rule.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionError, DivergenceError

Matrix = np.ndarray

ADMISSION_MARGIN = 1e-6     # a full stack's least relative lambda_min gain


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite."""
    return bool(np.isfinite(a).all())


def eigvalsh(a: Matrix) -> np.ndarray:
    """Ascending eigenvalues of float64 symmetric a, shape (..., k, k).

    The LAPACK gufunc behind `np.linalg.eigvalsh`, called directly: bit for
    bit the same result without that function's dispatch and `errstate`,
    which cost more than the solve at these sizes. The gufunc returns NaN
    where numpy would raise `LinAlgError`, so a non-finite result raises
    DivergenceError. It lives here, not in `rls`, which imports this module.
    """
    w = _umath_linalg.eigvalsh_lo(a, signature="d->d")
    if not all_finite(w):
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
        # the certificate's rounding allowance per unit of tr N + |R|_F^2
        self._slack = 8.0 * (row_dim * row_dim + row_dim + block_rows + 1) \
            * np.finfo(float).eps
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

    def oldest_tag(self) -> int | None:
        """The least tag among stored entries (None when empty), cached."""
        return self._oldest_tag

    # -- write side ----------------------------------------------------------

    def _coerce(self, row_block, target_block):
        rows = np.asarray(row_block, dtype=float)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        if rows.shape != (self.block_rows, self.row_dim):
            raise DimensionError(
                f"row block must be ({self.block_rows}, {self.row_dim}), "
                f"got {rows.shape}")
        targets = np.asarray(target_block, dtype=float)
        if targets.ndim == 0:
            targets = targets.reshape(1, 1)
        elif targets.ndim == 1:
            if self.target_dim == 1 and targets.shape == (self.block_rows,):
                targets = targets.reshape(-1, 1)
            elif self.block_rows == 1 and targets.shape == (self.target_dim,):
                targets = targets.reshape(1, -1)
        if targets.shape != (self.block_rows, self.target_dim):
            raise DimensionError(
                f"target block must be ({self.block_rows}, {self.target_dim}), "
                f"got shape {np.shape(target_block)}")
        if not (np.isfinite(rows).all() and np.isfinite(targets).all()):
            raise ValueError("non-finite row or target offered to history stack")
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
        self._probe = None
        self._normal.flags.writeable = False
        self._cross.flags.writeable = False

    def try_insert(self, row_block, target_block, t: float, tag: int = 0) -> bool:
        """Append when not full; otherwise replace the entry whose removal
        most improves lambda_min, and only on a strict relative improvement.
        A certificate rejects most offers to a full stack without trying
        the swaps, with the same result.

        Returns whether the stack changed.
        """
        rows, targets = self._coerce(row_block, target_block)
        if self._count < self.capacity:
            self._write_slot(self._count, rows, targets, t, tag)
            self._count += 1
            self._refresh()
            return True

        threshold = self._rank_metric * (1.0 + ADMISSION_MARGIN) \
            if self._rank_metric > 0.0 else 0.0
        # Certificate. The swap of entry i is T_i = N + g - G_i, with g = R'R
        # the candidate's gram. For v the lambda_min eigenvector of N,
        # lambda_min(T_i) <= v'T_i v / v'v <= U = (v'Nv + |Rv|^2 - min_i v'G_i v)
        # / v'v in real arithmetic, so U + slack <= threshold rejects as the
        # search would. Slack: N, g and each G_i are grams, so s = tr N +
        # |R|_F^2 bounds the 2-norm of each and of its entrywise absolute
        # value. With d = row_dim, r = block_rows and u = eps/2 (the unit
        # roundoff), the roundings are at most, in units of u*s:
        #   forming the float T_i from N, g and G_i ........... 3
        #   |Rv|^2 for v'gv (the matmul R'R, then R@v) ....... d + 2r + 1
        #   v'Nv and each v'G_i v, matmuls of length d ....... 4d
        #   summing U's numerator, dividing by v'v, adding ... 2d + 8
        # and eigvalsh's backward error moves each lambda by at most
        # p(d)*u*|T_i| <= 2p(d)*u*s, p a low-degree polynomial (LAPACK Users'
        # Guide 4.7), taken as d^2. The allowance, 16(d^2 + d + r + 1)*u*s,
        # is at least twice their sum. It grows with |R|_F^2, so a candidate
        # whose gram overflows falls through to the search, which raises.
        v, base, vv, trace = self._rayleigh_probe()
        rv = rows @ v
        flat = rows.ravel()
        if (base + rv @ rv) / vv + self._slack * (trace + flat @ flat) <= threshold:
            return False
        cand_gram = rows.T @ rows
        # lambda_min of the normal matrix with entry i swapped for the candidate
        trial = (self._normal + cand_gram)[None, :, :] - self._grams
        lam = eigvalsh(trial)[:, 0]
        best = int(np.argmax(lam))
        if not lam[best] > threshold:
            return False
        self._write_slot(best, rows, targets, t, tag)
        self._refresh()
        return True

    def _rayleigh_probe(self):
        # what the certificate needs of a full stack, once per stack change:
        # the lambda_min eigenvector v of N (the LAPACK gufunc, as eigvalsh
        # calls it), v'Nv - min_i v'G_i v, v'v and tr N
        if self._probe is None:
            v = _umath_linalg.eigh_lo(self._normal, signature="d->dd")[1][:, 0]
            base = v @ self._normal @ v - (self._grams @ v @ v).min()
            self._probe = (v, float(base), float(v @ v), float(np.trace(self._normal)))
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

    # -- debugging -----------------------------------------------------------

    def dump_rows(self):
        """Yield (timestamp, tag, row, target) per stored row, for CSV dumps."""
        for i in range(self._count):
            for j in range(self.block_rows):
                yield (float(self._times[i]), int(self._tags[i]),
                       self._rows[i, j].copy(), self._targets[i, j].copy())
