"""The concatenated-inputs construction.

From a base dataset of n rows, the training view holds all n*n ordered
pairs: element (i, j) has features [x_i || x_j] and the target
(y_i + y_j) / 2, the arithmetic mean of its rows' targets, regression and
classification alike.  Test sets concatenate each input with itself and
keep the original target.

The view is virtual: pair (i, j) has the row-major flat index i * n + j,
``sample_pairs`` draws flat indices and ``ConcatView.batch`` gathers the
pairs they name, and nothing quadratic is ever allocated unless
``materialize`` is called explicitly, within ``MATERIALIZE_BUDGET``.
"""

from __future__ import annotations

import numpy as np

from .datagen import ClassificationDataset, RegressionDataset
from .rng import Rng

# a sample-sweep grid (n <= a few hundred) has pair designs of megabytes;
# SweepConfig rejects a concat grid past this cap before any cell runs
MATERIALIZE_BUDGET = 6 << 30


class MemoryBudgetError(ValueError):
    """Materialization would exceed ``MATERIALIZE_BUDGET``."""


class ConcatView:
    """Constant-memory view over all n*n ordered pairs of a base dataset,
    with averaged targets."""

    def __init__(self, base):
        if base.n < 1:
            raise ValueError("base dataset is empty")
        if not isinstance(base, (RegressionDataset, ClassificationDataset)):
            raise TypeError(f"unsupported base dataset {type(base).__name__}")
        self.base = base

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def pair_count(self) -> int:
        return self.base.n * self.base.n

    @property
    def input_dim(self) -> int:
        return 2 * self.base.dim

    def element(self, i: int, j: int):
        n = self.base.n
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"pair ({i}, {j}) out of range for n={n}")
        features = np.concatenate([self.base.features[i], self.base.features[j]])
        target = (self.base.targets[i] + self.base.targets[j]) / 2.0
        return features, target

    def batch(self, flat):
        """(features, targets) of the pairs at row-major flat indices:
        k -> (k // n, k % n)."""
        i_idx, j_idx = np.divmod(np.asarray(flat, dtype=np.int64), self.base.n)
        features = np.hstack([self.base.features[i_idx],
                              self.base.features[j_idx]])
        targets = (self.base.targets[i_idx] + self.base.targets[j_idx]) / 2.0
        return features, targets


def build_concat_test(base):
    """Self-concatenated evaluation set: row i is ([x_i || x_i], y_i)."""
    if base.n < 1:
        raise ValueError("base dataset is empty")
    features = np.hstack([base.features, base.features])
    if isinstance(base, RegressionDataset):
        return RegressionDataset(features, base.targets.copy())
    return ClassificationDataset(features, base.targets.copy())


VARIANT_STANDARD = "standard"
VARIANT_CONCAT = "concat"
# variant -> what it trains on (built from base train rows) and is scored
# on (from base test rows); perfbench's tracer rebinds these dict values
TRAIN_SOURCES = {VARIANT_STANDARD: lambda base: base,
                 VARIANT_CONCAT: ConcatView}
TEST_SETS = {VARIANT_STANDARD: lambda base: base,
             VARIANT_CONCAT: build_concat_test}
VARIANTS = tuple(TRAIN_SOURCES)


def sample_pairs(view: ConcatView, m: int, rng: Rng) -> np.ndarray:
    """m row-major flat pair indices drawn uniformly without replacement
    from the n*n grid, as an (m,) int64 array for ``ConcatView.batch``.

    Flat indices are drawn in blocks from the seeded stream; repeats are
    skipped in draw order until m distinct pairs are collected, so the
    result is deterministic for a given seed.  Intended for m well below
    n*n (one training epoch); m close to n*n degenerates into coupon
    collecting but stays correct.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    total = view.pair_count
    if m > total:
        raise ValueError(f"cannot draw {m} distinct pairs from a grid of {total}")
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < m:
        block = max(64, int((m - chosen.size) * 1.15) + 16)
        draws = rng.integers(total, size=block)
        # first occurrence of each value not chosen before, in draw order
        values, first = np.unique(draws, return_index=True)
        first = np.sort(first[~np.isin(values, chosen)])
        chosen = np.concatenate([chosen, draws[first[:m - chosen.size]]])
    return chosen


def materialized_bytes(n: int, d: int, target_width: int = 1) -> int:
    """Bytes ``materialize`` allocates for n base rows of width d: the
    n*n pair features [x_i || x_j] plus targets, 8 bytes per value."""
    return n * n * (2 * d + target_width) * 8


def materialize(view: ConcatView):
    """Dense row-major (i, j) dataset for the full n*n grid.

    Refuses to allocate past ``MATERIALIZE_BUDGET`` (``materialized_bytes``)
    since the grid grows quadratically in the base size.
    """
    n = view.n
    base = view.base
    target_width = 1 if base.targets.ndim == 1 else base.targets.shape[1]
    need = materialized_bytes(n, base.dim, target_width)
    if need > MATERIALIZE_BUDGET:
        raise MemoryBudgetError(
            f"materializing {n}x{n} pairs needs {need} bytes, "
            f"over the {MATERIALIZE_BUDGET}-byte budget")
    # row i*n + j is [x_i || x_j]: broadcast each half into one (n, n, 2d)
    # array instead of gathering both halves through n^2 index arrays
    d = base.dim
    features = np.empty((n, n, 2 * d), dtype=base.features.dtype)
    features[:, :, :d] = base.features[:, None, :]
    features[:, :, d:] = base.features[None, :, :]
    features = features.reshape(n * n, 2 * d)
    t = base.targets
    targets = (t[:, None] + t[None, :]) / 2.0
    targets = targets.reshape(n * n, *t.shape[1:])
    if isinstance(base, RegressionDataset):
        return RegressionDataset(features, targets)
    return ClassificationDataset(features, targets)
