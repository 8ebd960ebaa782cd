import numpy as np
import pytest

from ddlab import (ClassificationDataset, RegressionDataset, Rng,
                   apply_label_noise, gen_linreg, gen_mixture_classification,
                   one_hot, pinv_solve, sample_theta, split_k)
from ddlab.datagen import MODE_AVERAGED, MODE_MULTI_HOT


class TestSampleTheta:
    def test_d1_is_sign(self):
        for seed in range(10):
            v = sample_theta(1, Rng(seed))
            assert v[0] in (1.0, -1.0)

    def test_unit_norm(self):
        v = sample_theta(30, Rng(7))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_matches_independent_renormalization(self):
        # oracle: re-draw the same documented stream and normalize separately
        v = sample_theta(5, Rng(3))
        raw = Rng(3).standard_normal(5)
        np.testing.assert_allclose(v, raw / np.linalg.norm(raw), rtol=0, atol=0)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            sample_theta(0, Rng(0))


class TestGenLinreg:
    def test_zero_noise_exact_targets(self):
        theta = sample_theta(2, Rng(1))
        ds = gen_linreg(3, 2, 0.0, theta, Rng(2))
        np.testing.assert_array_equal(ds.targets, ds.features @ theta)

    def test_noise_variance_monte_carlo(self):
        # sample variance of y - theta.x should estimate sigma^2 = 0.01
        theta = sample_theta(30, Rng(5))
        ds = gen_linreg(10000, 30, 0.1, theta, Rng(6))
        resid = ds.targets - ds.features @ theta
        assert 0.0085 <= resid.var() <= 0.0115

    def test_single_point_identity_map(self):
        ds = gen_linreg(1, 1, 0.0, np.array([1.0]), Rng(9))
        assert ds.targets[0] == ds.features[0, 0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gen_linreg(3, 2, 0.1, np.array([1.0]), Rng(0))


class TestMixture:
    def test_equal_split(self):
        ds = gen_mixture_classification(4, 3, 2, 2.0, Rng(0))
        counts = ds.targets.sum(axis=0)
        np.testing.assert_array_equal(counts, [2, 2])

    def test_remainder_to_lowest_classes(self):
        ds = gen_mixture_classification(5, 3, 2, 2.0, Rng(0))
        counts = ds.targets.sum(axis=0)
        np.testing.assert_array_equal(counts, [3, 2])

    def test_linear_probe_separates(self):
        # oracle: pseudoinverse linear classifier trained on the first half
        ds = gen_mixture_classification(1000, 10, 4, 6.0, Rng(11))
        half = ds.n // 2
        weights = []
        for k in range(4):
            model = pinv_solve(ds.features[:half], ds.targets[:half, k])
            weights.append(model.theta_hat)
        scores = ds.features[half:] @ np.stack(weights, axis=1)
        err = np.mean(scores.argmax(axis=1) != ds.targets[half:].argmax(axis=1))
        assert err < 0.05

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gen_mixture_classification(1, 3, 2, 2.0, Rng(0))
        with pytest.raises(ValueError):
            gen_mixture_classification(10, 3, 1, 2.0, Rng(0))


class TestLabelNoise:
    def _base(self, n=100, c=10, seed=0):
        return gen_mixture_classification(n, 5, c, 3.0, Rng(seed))

    def test_zero_fraction_identity(self):
        ds = self._base()
        out = apply_label_noise(ds, 0.0, Rng(1))
        np.testing.assert_array_equal(out.targets, ds.targets)

    def test_full_fraction_binary_flips_all(self):
        ds = self._base(n=20, c=2)
        out = apply_label_noise(ds, 1.0, Rng(1))
        np.testing.assert_array_equal(out.targets.argmax(1),
                                      1 - ds.targets.argmax(1))

    def test_exact_count_and_wrongness(self):
        ds = self._base(n=100, c=10)
        out = apply_label_noise(ds, 0.15, Rng(3))
        changed = np.flatnonzero(out.targets.argmax(1) != ds.targets.argmax(1))
        assert changed.size == 15
        untouched = np.setdiff1d(np.arange(100), changed)
        np.testing.assert_array_equal(out.targets[untouched],
                                      ds.targets[untouched])

    def test_deterministic(self):
        ds = self._base()
        a = apply_label_noise(ds, 0.3, Rng(42))
        b = apply_label_noise(ds, 0.3, Rng(42))
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_soft_targets_rejected(self):
        soft = ClassificationDataset(np.zeros((2, 3)),
                                     np.full((2, 2), 0.5), MODE_AVERAGED)
        with pytest.raises(ValueError):
            apply_label_noise(soft, 0.5, Rng(0))

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="noise fraction"):
            apply_label_noise(self._base(), fraction, Rng(0))


class TestSplitK:
    def test_disjoint_union(self):
        ds = gen_mixture_classification(4, 3, 2, 2.0, Rng(1))
        parts = split_k(ds, 2, 2, Rng(2))
        rows = np.vstack([p.features for p in parts])
        assert len(np.unique(rows, axis=0)) == 4

    def test_five_splits_of_ten_thousand(self):
        # 50,000 rows cut into 5 x 10,000 with no index reused
        features = np.arange(50_000, dtype=np.float64).reshape(-1, 1)
        ds = ClassificationDataset(features, one_hot(np.zeros(50_000), 2))
        parts = split_k(ds, 5, 10_000, Rng(3))
        seen = np.concatenate([p.features[:, 0] for p in parts])
        assert seen.size == 50_000
        assert np.unique(seen).size == 50_000

    def test_deterministic(self):
        ds = gen_mixture_classification(20, 3, 2, 2.0, Rng(1))
        a = split_k(ds, 3, 5, Rng(9))
        b = split_k(ds, 3, 5, Rng(9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)

    def test_oversized_request_rejected(self):
        ds = gen_mixture_classification(10, 3, 2, 2.0, Rng(1))
        with pytest.raises(ValueError):
            split_k(ds, 3, 4, Rng(0))


class TestDatasetInvariants:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            RegressionDataset(np.zeros((3, 2)), np.zeros(2))

    def test_averaged_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ClassificationDataset(np.zeros((1, 2)), np.array([[0.6, 0.6]]),
                                  MODE_AVERAGED)

    def test_multi_hot_entries_binary(self):
        ClassificationDataset(np.zeros((1, 2)), np.array([[1.0, 1.0]]),
                              MODE_MULTI_HOT)
        with pytest.raises(ValueError):
            ClassificationDataset(np.zeros((1, 2)), np.array([[0.5, 1.0]]),
                                  MODE_MULTI_HOT)

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValueError):
            ClassificationDataset(np.array([[np.nan, 0.0]]),
                                  np.array([[1.0, 0.0]]))

    def test_generation_is_deterministic(self):
        a = gen_mixture_classification(50, 4, 3, 2.5, Rng(8))
        b = gen_mixture_classification(50, 4, 3, 2.5, Rng(8))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)
