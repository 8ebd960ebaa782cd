"""Dataset containers and seeded generators for the experiment suite.

Two dataset flavors exist: dense regression data (features plus scalar
targets) and classification data whose targets are rows of class
probabilities.  Classification targets carry an explicit mode:

* ``"averaged"``  - every target row sums to 1 (cross-entropy training),
* ``"multi_hot"`` - every entry is exactly 0 or 1 (binary cross entropy).

One-hot rows satisfy both conditions; the mode records which contract the
rest of the pipeline may rely on.

Draw orders (cross-implementation contract):

* ``gen_linreg``: n*d feature normals row-major, then n noise normals.
* ``gen_mixture_classification``: c*d mean normals row-major (then each
  mean is scaled to radius ``separation``), then n*d feature normals
  row-major; row i belongs to class ``i % c``.
* ``apply_label_noise``: one permutation of n (see Rng.permutation), then
  one integers(c - 1) block of length floor(fraction * n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng

MODE_AVERAGED = "averaged"
MODE_MULTI_HOT = "multi_hot"


@dataclass(frozen=True)
class RegressionDataset:
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.targets.shape != (self.features.shape[0],):
            raise ValueError(
                f"targets length {self.targets.shape} does not match "
                f"{self.features.shape[0]} feature rows"
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ClassificationDataset:
    features: np.ndarray
    targets: np.ndarray
    mode: str = MODE_AVERAGED

    def __post_init__(self):
        if self.features.ndim != 2 or self.targets.ndim != 2:
            raise ValueError("features and targets must be 2-D matrices")
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError("feature and target row counts differ")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite entries")
        if self.mode == MODE_AVERAGED:
            sums = self.targets.sum(axis=1)
            if not np.all(np.abs(sums - 1.0) <= 1e-9):
                raise ValueError("averaged-mode target rows must sum to 1")
        elif self.mode == MODE_MULTI_HOT:
            if not np.all((self.targets == 0.0) | (self.targets == 1.0)):
                raise ValueError("multi-hot targets must be exactly 0 or 1")
        else:
            raise ValueError(f"unknown target mode {self.mode!r}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def class_count(self) -> int:
        return self.targets.shape[1]

    @property
    def is_one_hot(self) -> bool:
        binary = np.all((self.targets == 0.0) | (self.targets == 1.0))
        return bool(binary and np.all(self.targets.sum(axis=1) == 1.0))

    def take(self, indices) -> "ClassificationDataset":
        return ClassificationDataset(self.features[indices],
                                     self.targets[indices], self.mode)

    def with_mode(self, mode: str) -> "ClassificationDataset":
        """Re-declare the target mode (targets must satisfy its invariant)."""
        return self if mode == self.mode else ClassificationDataset(
            self.features, self.targets, mode)


def one_hot(labels, class_count: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ValueError("label out of range")
    rows = np.zeros((labels.size, class_count))
    rows[np.arange(labels.size), labels] = 1.0
    return rows


def sample_theta(d: int, rng: Rng) -> np.ndarray:
    """Unit-norm direction: standard normal in d dims, rescaled to norm 1."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    while True:
        v = rng.standard_normal(d)
        norm = float(np.linalg.norm(v))
        if norm > 0.0:  # zero draw has probability zero; redraw if it happens
            return v / norm


def gen_linreg(n: int, d: int, sigma: float, theta: np.ndarray,
               rng: Rng) -> RegressionDataset:
    """Gaussian design with targets y_i = theta . x_i + sigma * eps_i."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({d},)")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    features = rng.standard_normal((n, d))
    eps = rng.standard_normal(n)
    targets = features @ theta + sigma * eps
    return RegressionDataset(features, targets)


def gen_mixture_classification(n: int, d: int, c: int, separation: float,
                               rng: Rng) -> ClassificationDataset:
    """Spherical Gaussian mixture with one-hot targets.

    Class means sit on a sphere of radius ``separation``; features are unit
    variance around their class mean.  Row i belongs to class ``i % c``, so
    class sizes are as equal as possible with the remainder going to the
    lowest class indices, and any prefix of the rows is nearly balanced.
    """
    if c < 2:
        raise ValueError(f"need at least 2 classes, got {c}")
    if n < c:
        raise ValueError(f"need n >= c, got n={n}, c={c}")
    if separation <= 0:
        raise ValueError(f"separation must be > 0, got {separation}")
    means = rng.standard_normal((c, d))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise RuntimeError("degenerate zero-norm class mean draw")
    means = means / norms * separation
    labels = np.arange(n, dtype=np.int64) % c
    features = rng.standard_normal((n, d)) + means[labels]
    return ClassificationDataset(features, one_hot(labels, c), MODE_AVERAGED)


def apply_label_noise(ds: ClassificationDataset, fraction: float,
                      rng: Rng) -> ClassificationDataset:
    """Reassign exactly floor(fraction * n) labels to uniformly wrong classes.

    Rows are chosen without replacement through the seeded permutation; each
    chosen row gets a one-hot label drawn uniformly from the c - 1 classes
    other than its own.  Must run before any concatenation: soft targets are
    rejected.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"noise fraction must be in [0, 1], got {fraction}")
    if not ds.is_one_hot:
        raise ValueError("label noise requires one-hot targets "
                         "(apply it before stacking)")
    n = ds.n
    count = int(fraction * n)
    targets = ds.targets.copy()
    if count:
        c = ds.class_count
        if c < 2:
            raise ValueError("cannot draw a wrong class with c < 2")
        rows = rng.permutation(n)[:count]
        orig = targets[rows].argmax(axis=1)
        draw = rng.integers(c - 1, size=count)
        new_cls = draw + (draw >= orig)
        targets[rows] = 0.0
        targets[rows, new_cls] = 1.0
    return ClassificationDataset(ds.features.copy(), targets, ds.mode)


def split_k(ds: ClassificationDataset, k: int, split_size: int,
            rng: Rng) -> list[ClassificationDataset]:
    """Disjoint training splits: a seeded permutation cut into k blocks.

    Leftover rows are unused.  Each split keeps its rows in block order.
    """
    if k < 1 or split_size < 1:
        raise ValueError("k and split_size must be >= 1")
    if k * split_size > ds.n:
        raise ValueError(
            f"k * split_size = {k * split_size} exceeds dataset size {ds.n}")
    perm = rng.permutation(ds.n)
    return [ds.take(perm[i * split_size:(i + 1) * split_size]) for i in range(k)]
