"""Min-norm ridgeless least squares and the sample-count sweep.

The estimator is the SVD pseudoinverse solution: singular values at or
below ``max(m, q) * machine_eps * sigma_max`` are treated as zero, which
makes the fit the minimum-Euclidean-norm least-squares solution and gives
a consistent numerical rank rule for the rank diagnostics.  The fit is one
LAPACK ``gelsd`` call (``np.linalg.lstsq`` with that cutoff passed as
``rcond``): a QR, then an SVD of the small factor, applied to the targets
without ever forming the left singular vectors of the design.

A cell fits each variant's train source (``augment.TRAIN_SOURCES``).  A
``ConcatView`` is fitted in closed form on its n base rows.  The pair
loss is symmetric under swapping the two input halves, so its min-norm
solution is [phi || phi].  With r = X phi - y/2, the loss over all n^2
pairs is 2 r^T (n I + 1 1^T) r: least squares on the base rows weighted
by W = n I + 1 1^T, whose square root is sqrt(n) I + (sqrt(2n) - sqrt(n))
1 1^T / n.  One ``pinv_solve`` of the transformed base rows, an n x d
problem like the standard fit, returns psi = 2 phi.  The n^2 x 2d pair
design is still built, but only for the concat train MSE, which is
defined over all n^2 pairs.

Every variant is scored by ``_test_mse``, which builds the variant's test
rows (``augment.TEST_SETS``) ``_TEST_SLICE_ROWS`` at a time, so no cell
holds a second, wider copy of the n_test-row test set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augment import (TEST_SETS, TRAIN_SOURCES, VARIANT_STANDARD, VARIANTS,
                      ConcatView, materialize)
from .datagen import RegressionDataset, gen_linreg, sample_theta
from .records import STATUS_MEDIAN, CurvePoint, lower_median
from .rng import Rng, mix_seed

# rows per slice of the streamed test MSE.  Keep it a multiple of 8:
# OpenBLAS's gemv kept the full-copy bytes at 512, 1000 and 1024 rows, and
# changed them in 1 of 400 fig1-sized cells at 333.
_TEST_SLICE_ROWS = 1024


@dataclass(frozen=True)
class LinearModel:
    theta_hat: np.ndarray
    effective_rank: int
    sv_cutoff: float


def _svd_cutoff(singular_values: np.ndarray, m: int, q: int) -> float:
    if singular_values.size == 0:
        return 0.0
    return max(m, q) * np.finfo(np.float64).eps * float(singular_values[0])


def pinv_solve(X: np.ndarray, y: np.ndarray) -> LinearModel:
    """Minimum-norm least squares: the SVD pseudoinverse, through gelsd."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("X must be a nonempty 2-D matrix")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite")
    m, q = X.shape
    # gelsd zeroes every singular value <= rcond * s[0], the _svd_cutoff
    # rule; rcond is passed because numpy's default differs before 2.0
    theta, _, rank, s = np.linalg.lstsq(
        X, y, rcond=max(m, q) * np.finfo(np.float64).eps)
    return LinearModel(theta, int(rank), _svd_cutoff(s, m, q))


def mse(model: LinearModel, ds: RegressionDataset) -> float:
    if ds.dim != model.theta_hat.shape[0]:
        raise ValueError(
            f"model width {model.theta_hat.shape[0]} does not match "
            f"dataset width {ds.dim}")
    resid = ds.features @ model.theta_hat - ds.targets
    return float(np.mean(resid * resid))


def design_rank(X: np.ndarray) -> int:
    """Numerical rank under the same cutoff rule as pinv_solve."""
    X = np.asarray(X, dtype=np.float64)
    s = np.linalg.svd(X, compute_uv=False)
    return int(np.sum(s > _svd_cutoff(s, *X.shape)))


def _fit(source):
    """Fit one train source: (model, train MSE).

    A ``ConcatView`` is fitted by one ``pinv_solve`` of its base rows under
    the square root of the pair weighting (see the module docstring),
    split into equal halves.  Its train MSE is the mean over all n^2
    pairs, so the pair design is built first and released when this
    returns.  Any other source is fitted as it is.
    """
    if not isinstance(source, ConcatView):
        model = pinv_solve(source.features, source.targets)
        return model, mse(model, source)
    pairs = materialize(source)
    X, y = source.base.features, source.base.targets
    root_n = math.sqrt(source.n)
    lift = math.sqrt(2 * source.n) - root_n
    psi = pinv_solve(root_n * X + lift * X.mean(axis=0),
                     root_n * y + lift * y.mean())
    half = psi.theta_hat / 2
    model = LinearModel(np.concatenate([half, half]), psi.effective_rank,
                        psi.sv_cutoff)
    return model, mse(model, pairs)


def _test_mse(model: LinearModel, test: RegressionDataset, variant: str) -> float:
    """``mse(model, TEST_SETS[variant](test))`` without the whole test set.

    The variant's test rows are built ``_TEST_SLICE_ROWS`` base rows at a
    time, each slice's residuals land in one n_test vector, and one mean
    is taken over it, so the result is bit-equal to the whole-set MSE.
    """
    resid = np.empty(test.n)
    for start in range(0, test.n, _TEST_SLICE_ROWS):
        stop = start + _TEST_SLICE_ROWS
        part = TEST_SETS[variant](RegressionDataset(
            test.features[start:stop], test.targets[start:stop]))
        np.subtract(part.features @ model.theta_hat, part.targets,
                    out=resid[start:stop])
    return float(np.mean(resid * resid))


def _sweep_cell(d, sigma, n, n_test, seed, variants):
    """One (n, seed) cell: (train MSE, test MSE, params) per variant.

    Draw order: theta, train, test, all from one ``Rng``.  Every variant is
    fitted on the train draw before the test set is drawn; fitting draws
    nothing, so the stream is the same as drawing all three first, and
    the variants share bytes.  The n^2 x 2d pair design, built only for
    the concat train MSE, is thus never alive next to the n_test-row test
    set.
    """
    rng = Rng(mix_seed(seed, n))
    theta = sample_theta(d, rng)
    train = gen_linreg(n, d, sigma, theta, rng)
    fits = [_fit(TRAIN_SOURCES[variant](train)) for variant in variants]
    test = gen_linreg(n_test, d, sigma, theta, rng)
    return [(train_mse, _test_mse(model, test, variant),
             model.theta_hat.shape[0])
            for variant, (model, train_mse) in zip(variants, fits)]


def linreg_sample_sweep(d: int, sigma: float, n_grid, seeds, n_test: int,
                        variants=(VARIANT_STANDARD,),
                        experiment_id: str = "linreg") -> list[CurvePoint]:
    """Test-MSE-versus-samples sweep, fitting every variant per cell.

    Each (n, seed) cell draws its data once and fits all ``variants`` on
    it.  Points come out variant-major: for each variant, per n, one point
    per seed and then one median point (status "median", empty seed).
    Cell draws depend only on (seed, n), so a single-variant sweep yields
    the same points as that variant's slice of a multi-variant one.
    """
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    if not seeds:
        raise ValueError("seeds must be nonempty")
    if n_test < 1:
        raise ValueError("n_test must be >= 1")
    if not variants:
        raise ValueError("variants must be nonempty")
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
    rows = [[] for _ in variants]
    for n in n_grid:
        cells = [_sweep_cell(d, sigma, n, n_test, seed, variants)
                 for seed in seeds]
        for k, variant in enumerate(variants):
            per_seed = [cell[k] for cell in cells]
            params = per_seed[0][2]
            for seed, (train_mse, test_mse, _) in zip(seeds, per_seed):
                rows[k].append(CurvePoint(
                    experiment_id, variant, "samples", float(n),
                    train_loss=train_mse, test_loss=test_mse, seed=seed,
                    params=params, param_sample_ratio=params / n))
            rows[k].append(CurvePoint(
                experiment_id, variant, "samples", float(n),
                train_loss=lower_median(t for t, _, _ in per_seed),
                test_loss=lower_median(t for _, t, _ in per_seed),
                params=params, param_sample_ratio=params / n,
                status=STATUS_MEDIAN))
    return [point for variant_rows in rows for point in variant_rows]
