import math

import numpy as np
import pytest

from ddlab import (ProbDist, Rng, TrainConfig, decompose_point,
                   estimate_bias_variance, gen_mixture_classification,
                   init_mlp, kl, log_geometric_mean, mix_seed, one_hot,
                   train)
from ddlab.biasvar import CSV_HEADER, decompose_batch
from ddlab.nnet import LOSS_CE, OptimizerConfig


def dist(*values):
    return ProbDist.from_raw(np.array(values, dtype=float))


def random_dist(rng, c):
    return ProbDist.from_raw(np.exp(3.0 * rng.standard_normal(c)))


class TestLogGeometricMean:
    def test_idempotent_on_identical_inputs(self):
        d = dist(0.3, 0.2, 0.5)
        out = log_geometric_mean([d, d, d])
        np.testing.assert_allclose(out.p, d.p, atol=1e-12)

    def test_symmetry(self):
        out = log_geometric_mean([dist(0.8, 0.2), dist(0.2, 0.8)])
        np.testing.assert_allclose(out.p, [0.5, 0.5], atol=1e-12)

    def test_direct_arithmetic_case(self):
        # sqrt(0.45) and sqrt(0.05) normalize to exactly 3:1
        out = log_geometric_mean([dist(0.9, 0.1), dist(0.5, 0.5)])
        np.testing.assert_allclose(out.p, [0.75, 0.25], atol=1e-12)

    def test_permutation_invariance(self):
        rng = Rng(5)
        dists = [random_dist(rng, 4) for _ in range(5)]
        a = log_geometric_mean(dists)
        b = log_geometric_mean(dists[::-1])
        np.testing.assert_allclose(a.p, b.p, atol=1e-15)

    def test_duplication_invariance(self):
        rng = Rng(6)
        dists = [random_dist(rng, 3) for _ in range(3)]
        a = log_geometric_mean(dists)
        b = log_geometric_mean(dists * 4)
        np.testing.assert_allclose(a.p, b.p, atol=1e-12)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            log_geometric_mean([dist(0.5, 0.5), dist(0.3, 0.3, 0.4)])


class TestKl:
    def test_self_divergence_zero(self):
        d = dist(0.3, 0.2, 0.5)
        assert kl(d, d) == 0.0

    def test_one_hot_vs_uniform(self):
        hot = ProbDist.from_raw(one_hot([1], 10)[0])
        uniform = dist(*([0.1] * 10))
        assert kl(hot, uniform) == pytest.approx(math.log(10), abs=1e-9)

    def test_direct_arithmetic(self):
        value = kl(dist(0.5, 0.5), dist(0.75, 0.25))
        expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.143841, abs=1e-6)

    def test_nonnegative_on_random_draws(self):
        rng = Rng(7)
        for _ in range(200):
            c = 2 + rng.integers(6)
            assert kl(random_dist(rng, c), random_dist(rng, c)) >= 0.0


class TestDecomposePoint:
    def test_identical_predictions(self):
        pi = ProbDist.from_raw(one_hot([0], 3)[0])
        q = dist(0.6, 0.3, 0.1)
        risk, bias, variance = decompose_point(pi, [q, q, q])
        assert abs(variance) < 1e-12
        assert bias == pytest.approx(risk, abs=1e-12)

    def test_worked_two_model_example(self):
        pi = ProbDist.from_raw(one_hot([0], 2)[0])
        risk, bias, variance = decompose_point(
            pi, [dist(0.9, 0.1), dist(0.5, 0.5)])
        assert bias == pytest.approx(-math.log(0.75), abs=1e-9)
        assert bias == pytest.approx(0.287682, abs=1e-6)
        expected_var = 0.5 * (kl(dist(0.75, 0.25), dist(0.9, 0.1))
                              + kl(dist(0.75, 0.25), dist(0.5, 0.5)))
        assert variance == pytest.approx(expected_var, abs=1e-12)
        assert abs(risk - bias - variance) < 1e-12

    def test_identity_on_random_draws(self):
        rng = Rng(9)
        for _ in range(500):
            c = 2 + rng.integers(5)
            k = 2 + rng.integers(4)
            pi = ProbDist.from_raw(one_hot([rng.integers(c)], c)[0])
            preds = [random_dist(rng, c) for _ in range(k)]
            risk, bias, variance = decompose_point(pi, preds)
            assert abs(risk - bias - variance) < 1e-10
            assert bias >= 0.0 and variance >= 0.0

    def test_soft_label_rejected(self):
        with pytest.raises(ValueError):
            decompose_point(dist(0.5, 0.5), [dist(0.5, 0.5)] * 2)


class TestDecomposeBatch:
    def test_matches_pointwise(self):
        rng = Rng(11)
        c, k, n = 4, 3, 6
        labels = one_hot([rng.integers(c) for _ in range(n)], c)
        stack = np.stack([
            np.vstack([random_dist(rng, c).p for _ in range(n)])
            for _ in range(k)])
        risk, bias, variance = decompose_batch(labels, stack)
        for i in range(n):
            pi = ProbDist.from_raw(labels[i])
            preds = [ProbDist.from_raw(stack[j, i]) for j in range(k)]
            r, b, v = decompose_point(pi, preds)
            assert risk[i] == pytest.approx(r, abs=1e-12)
            assert bias[i] == pytest.approx(b, abs=1e-12)
            assert variance[i] == pytest.approx(v, abs=1e-12)


class TestEstimator:
    def _data(self):
        full = gen_mixture_classification(300, 6, 3, 4.0, Rng(21))
        test = gen_mixture_classification(90, 6, 3, 4.0, Rng(22))
        return full, test

    def test_identical_models_give_zero_variance(self):
        full, test = self._data()
        frozen = init_mlp(6, 4, 3, Rng(5))
        (row,) = estimate_bias_variance(
            [4], full, k=3, split_size=80, test_set=test,
            train_config=None, base_seed=0,
            train_fn=lambda width, splits, seeds: [frozen] * len(splits))
        assert abs(row.variance) < 1e-12
        assert row.identity_residual < 1e-10

    def test_rows_satisfy_identity_and_subtraction_form(self):
        full, test = self._data()
        cfg = TrainConfig(LOSS_CE, epochs=8, batch_size=32,
                          optimizer=OptimizerConfig("adam", lr=0.01))
        rows = estimate_bias_variance(
            [2, 4, 8], full, k=3, split_size=90, test_set=test,
            train_config=cfg, base_seed=77)
        assert [row.width for row in rows] == [2, 4, 8]
        for row in rows:
            assert row.identity_residual < 1e-8
            assert row.bias_kl >= 0.0 and row.variance >= 0.0
            assert row.bias_subtraction == pytest.approx(row.bias_kl,
                                                         abs=1e-8)
            assert row.k == 3

    def test_stacked_default_equals_serial_training(self):
        # the default hook trains the k splits of a width as one stack;
        # training each split on its own must give the same report bytes
        full, test = self._data()
        cfg = TrainConfig(LOSS_CE, epochs=3, batch_size=32,
                          optimizer=OptimizerConfig("adam", lr=0.01))

        def serial(width, splits, seeds):
            fitted = []
            for split, seed in zip(splits, seeds):
                model = init_mlp(split.dim, width, split.class_count,
                                 Rng(mix_seed(seed, 1)))
                fitted.append(train(model, split, cfg, seed)[0])
            return fitted

        args = ([2, 5], full, 3, 70, test, cfg, 13)
        stacked = estimate_bias_variance(*args)
        alone = estimate_bias_variance(*args, train_fn=serial)
        assert [r.csv_row() for r in stacked] == [r.csv_row() for r in alone]

    def test_train_fn_must_return_one_model_per_split(self):
        full, test = self._data()
        frozen = init_mlp(6, 4, 3, Rng(5))
        with pytest.raises(ValueError, match="3 splits"):
            estimate_bias_variance(
                [4], full, k=3, split_size=80, test_set=test,
                train_config=None, base_seed=0,
                train_fn=lambda width, splits, seeds: [frozen])

    def test_split_violation_propagates(self):
        full, test = self._data()
        with pytest.raises(ValueError):
            estimate_bias_variance([2], full, k=5, split_size=100,
                                   test_set=test, train_config=None,
                                   base_seed=0,
                                   train_fn=lambda w, splits, seeds: None)

    def test_csv_lines(self):
        full, test = self._data()
        frozen = init_mlp(6, 4, 3, Rng(5))
        (row,) = estimate_bias_variance(
            [4], full, k=2, split_size=80, test_set=test,
            train_config=None, base_seed=0,
            train_fn=lambda width, splits, seeds: [frozen] * len(splits))
        assert CSV_HEADER == ("config_id,width,k,risk,bias_kl,variance,"
                              "bias_subtraction,identity_residual")
        assert row.csv_row().startswith("biasvar-w4,4,2,")
