import tracemalloc

import numpy as np
import pytest

from ddlab import (ConcatView, RegressionDataset, Rng, design_rank,
                   gen_linreg, linreg_sample_sweep, materialize, mse,
                   pinv_solve, sample_theta)
from ddlab.linreg import _sweep_cell, lower_median, median_points


def gram_rank_oracle(X):
    """Rank via eigenvalues of X^T X, independent of the SVD route.

    Gram eigenvalue noise sits at eps * lambda_max, so the cutoff has to be
    relative in eigenvalue space; 1e-10 cleanly separates the structural
    spectrum of generic Gaussian designs from that noise floor.
    """
    eig = np.linalg.eigvalsh(X.T @ X)
    return int(np.sum(eig > eig.max(initial=0.0) * 1e-10))


class TestPinvSolve:
    def test_identity(self):
        model = pinv_solve(np.eye(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(model.theta_hat, [1.0, 2.0])
        assert model.effective_rank == 2

    def test_underdetermined_min_norm(self):
        model = pinv_solve(np.array([[1.0, 0.0]]), np.array([2.0]))
        np.testing.assert_allclose(model.theta_hat, [2.0, 0.0])

    def test_matches_normal_equations(self):
        rng = Rng(3)
        X = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        model = pinv_solve(X, y)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(model.theta_hat, oracle, atol=1e-10)

    def test_min_norm_against_lstsq(self):
        rng = Rng(8)
        for m, q in [(4, 9), (9, 4), (6, 6)]:
            X = rng.standard_normal((m, q))
            y = rng.standard_normal(m)
            model = pinv_solve(X, y)
            other, *_ = np.linalg.lstsq(X, y, rcond=None)
            assert np.linalg.norm(model.theta_hat) <= \
                np.linalg.norm(other) + 1e-9
            r_ours = np.linalg.norm(X @ model.theta_hat - y)
            r_other = np.linalg.norm(X @ other - y)
            assert abs(r_ours - r_other) <= 1e-9

    def test_interpolation_when_rows_independent(self):
        rng = Rng(2)
        X = rng.standard_normal((6, 10))
        y = rng.standard_normal(6)
        model = pinv_solve(X, y)
        assert design_rank(X) == 6
        train = float(np.mean((X @ model.theta_hat - y) ** 2))
        assert train <= 1e-18 * float(y @ y)

    def test_scale_equivariance(self):
        rng = Rng(4)
        X = rng.standard_normal((7, 3))
        y = rng.standard_normal(7)
        base = pinv_solve(X, y).theta_hat
        for c in (1e-3, 5.0, 2e4):
            scaled = pinv_solve(c * X, c * y).theta_hat
            np.testing.assert_allclose(scaled, base, rtol=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pinv_solve(np.array([[np.inf, 1.0]]), np.array([1.0]))


class TestMse:
    def test_true_theta_zero_noise(self):
        theta = sample_theta(4, Rng(0))
        ds = gen_linreg(50, 4, 0.0, theta, Rng(1))
        model = pinv_solve(ds.features, ds.targets)
        assert mse(model, ds) < 1e-25

    def test_zero_model_unit_quadratic_form(self):
        # E[(theta . x)^2] = 1 for unit theta and isotropic x
        theta = sample_theta(10, Rng(5))
        ds = gen_linreg(100_000, 10, 0.0, theta, Rng(6))
        from ddlab import LinearModel
        zero = LinearModel(np.zeros(10), 0, 0.0)
        assert mse(zero, ds) == pytest.approx(1.0, rel=0.05)

    def test_hand_arithmetic(self):
        from ddlab import LinearModel
        ds = RegressionDataset(np.array([[2.0]]), np.array([0.0]))
        assert mse(LinearModel(np.array([1.0]), 1, 0.0), ds) == 4.0

    def test_dimension_mismatch(self):
        from ddlab import LinearModel
        ds = RegressionDataset(np.array([[2.0, 1.0]]), np.array([0.0]))
        with pytest.raises(ValueError):
            mse(LinearModel(np.array([1.0]), 1, 0.0), ds)


class TestDesignRank:
    def test_identity(self):
        assert design_rank(np.eye(4)) == 4

    def test_rank_one_outer_product(self):
        u = np.arange(1.0, 6.0)
        assert design_rank(np.outer(u, u)) == 1

    def test_concat_design_generic_rank(self):
        theta = sample_theta(30, Rng(1))
        base = gen_linreg(5, 30, 0.1, theta, Rng(2))
        design = materialize(ConcatView(base)).features
        assert design_rank(design) == 9
        assert gram_rank_oracle(design) == 9

    def test_rank_law_small_grid(self):
        for d in (5, 30):
            for n in range(2, 11):
                theta = sample_theta(d, Rng(n))
                base = gen_linreg(n, d, 0.1, theta, Rng(100 * d + n))
                design = materialize(ConcatView(base)).features
                assert design_rank(design) == min(2 * n - 1, 2 * d)


class TestSweep:
    def test_row_counts_and_medians(self):
        points = linreg_sample_sweep(5, 0.1, [4, 8], [0, 1, 2], 50)
        assert len(points) == 2 * 3 + 2
        med = median_points(points)
        assert [p.axis_value for p in med] == [4.0, 8.0]
        per_seed = [p for p in points if p.status == "ok"]
        assert all(p.seed is not None for p in per_seed)

    def test_median_is_lower_middle(self):
        assert lower_median([1, 2, 3, 4]) == 2
        assert lower_median([3.0]) == 3.0

    def test_overdetermined_regime_value(self):
        # d=30, n=100, sigma=0.1: theory sigma^2 (1 + d/(n-d-1)) ~ 0.0143
        points = linreg_sample_sweep(30, 0.1, [100], list(range(20)), 10_000)
        med = median_points(points)[0].test_loss
        assert 0.010 <= med <= 0.025

    def test_concat_variant_pairs_with_standard(self):
        std = linreg_sample_sweep(4, 0.1, [6], [0, 1], 20,
                                  variants=("standard",))
        cat = linreg_sample_sweep(4, 0.1, [6], [0, 1], 20,
                                  variants=("concat",))
        assert [p.seed for p in std] == [p.seed for p in cat]
        assert all(p.params == 8 for p in cat)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            linreg_sample_sweep(5, 0.1, [], [0], 10)

    def test_both_variants_equal_separate_sweeps(self):
        args = (4, 0.1, [3, 6, 9], [0, 1, 2], 40)
        both = linreg_sample_sweep(*args, variants=("standard", "concat"))
        std = linreg_sample_sweep(*args, variants=("standard",))
        cat = linreg_sample_sweep(*args, variants=("concat",))
        assert both == std + cat

    def test_unknown_variant_rejected_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew data before validating variants")

        monkeypatch.setattr("ddlab.linreg.sample_theta", no_draws)
        with pytest.raises(ValueError, match="unknown variant 'stacked'"):
            linreg_sample_sweep(5, 0.1, [4], [0], 10,
                                variants=("standard", "stacked"))

    def test_concat_test_set_built_after_pair_design_is_freed(self):
        # The fig1 cell at n=100: the 10^4 x 60 pair design and the
        # 10^4 x 60 concat test set are never alive at once.  The traced
        # peak is 16.2 MiB, against 20.9 MiB with both alive.
        args = (30, 0.1, 100, 10_000, 0, ("standard", "concat"))
        design_bytes = 100 ** 2 * 60 * 8
        _sweep_cell(*args)  # warm numpy's caches
        tracemalloc.start()
        try:
            _sweep_cell(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * design_bytes, peak / 2**20
