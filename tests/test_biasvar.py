import math

import numpy as np
import pytest

from ddlab import (OptimizerConfig, Rng, TrainConfig, estimate_bias_variance,
                   gen_mixture_classification, init_mlp, one_hot)
from ddlab import nnet
from ddlab.biasvar import CSV_HEADER, decompose_batch


def oracle(label, preds):
    """(risk, bias, variance) of one point, term by term: a one-hot (c,)
    label and (k, c) predictions, rows normalized and floored as
    decompose_batch does them; pi_bar is their normalized geometric mean."""
    q = np.maximum(preds / preds.sum(axis=1, keepdims=True), 1e-300)
    log_mean = np.log(q).mean(axis=0)
    bar = np.exp(log_mean - log_mean.max())
    bar /= bar.sum()

    def kl(p, r):
        return sum(a * math.log(a / b) for a, b in zip(p, r) if a > 0)

    risk = np.mean([-np.sum(label * np.log(row)) for row in q])
    return float(risk), kl(label, bar), float(np.mean([kl(bar, r) for r in q]))


def decompose_one(label, preds):
    """decompose_batch on one point: a (c,) label, (k, c) predictions."""
    risk, bias, variance = decompose_batch(
        np.asarray(label, dtype=float)[None],
        np.asarray(preds, dtype=float)[:, None])
    return float(risk[0]), float(bias[0]), float(variance[0])


def geometric_mean(preds):
    """pi_bar of (k, c) predictions as decompose_batch forms it: the bias of
    a one-hot label on class y is -log pi_bar[y], so one row per class
    reads all of pi_bar."""
    preds = np.asarray(preds, dtype=float)
    c = preds.shape[1]
    _, bias, _ = decompose_batch(np.eye(c),
                                 np.repeat(preds[:, None], c, axis=1))
    return np.exp(-bias)


def random_preds(rng, k, c):
    return np.exp(3.0 * rng.standard_normal((k, c)))


class TestLogGeometricMean:
    def test_idempotent_on_identical_inputs(self):
        q = [0.3, 0.2, 0.5]
        np.testing.assert_allclose(geometric_mean([q, q, q]), q, atol=1e-12)

    def test_symmetry(self):
        out = geometric_mean([[0.8, 0.2], [0.2, 0.8]])
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_direct_arithmetic_case(self):
        # sqrt(0.45) and sqrt(0.05) normalize to exactly 3:1
        out = geometric_mean([[0.9, 0.1], [0.5, 0.5]])
        np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-12)

    def test_permutation_invariance(self):
        preds = random_preds(Rng(5), 5, 4)
        np.testing.assert_allclose(geometric_mean(preds),
                                   geometric_mean(preds[::-1]), atol=1e-15)

    def test_duplication_invariance(self):
        preds = random_preds(Rng(6), 3, 3)
        np.testing.assert_allclose(geometric_mean(preds),
                                   geometric_mean(np.tile(preds, (4, 1))),
                                   atol=1e-12)

    def test_arity_mismatch(self):
        # labels and predictions of different class counts do not broadcast
        with pytest.raises(ValueError):
            decompose_batch(one_hot([0], 2),
                            random_preds(Rng(0), 2, 3)[:, None])


class TestKl:
    def test_self_divergence_zero(self):
        # bias is KL(pi, pi_bar): nil when every prediction is the label
        label = one_hot([2], 3)[0]
        assert decompose_one(label, [label, label])[1] == 0.0
        # variance is the mean KL(pi_bar, q): nil when pi_bar is every q
        q = [0.3, 0.2, 0.5]
        assert abs(decompose_one(one_hot([0], 3)[0], [q, q])[2]) < 1e-15

    def test_one_hot_vs_uniform(self):
        risk, bias, variance = decompose_one(one_hot([1], 10)[0],
                                             [[0.1] * 10] * 3)
        assert bias == pytest.approx(math.log(10), abs=1e-9)
        assert risk == pytest.approx(math.log(10), abs=1e-9)
        assert abs(variance) < 1e-12

    def test_direct_arithmetic(self):
        # mirrored predictions average to uniform, and KL(uniform, q) is
        # the same for both, so the variance is KL((.5, .5), (.75, .25))
        _, _, value = decompose_one(one_hot([0], 2)[0],
                                    [[0.75, 0.25], [0.25, 0.75]])
        expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.143841, abs=1e-6)

    def test_nonnegative_on_random_draws(self):
        rng = Rng(7)
        for _ in range(200):
            c = 2 + rng.integers(6)
            _, bias, variance = decompose_one(
                one_hot([rng.integers(c)], c)[0], random_preds(rng, 2, c))
            assert bias >= 0.0 and variance >= 0.0


class TestDecomposePoint:
    """The decomposition of one point: decompose_batch on a single row."""

    def test_identical_predictions(self):
        q = [0.6, 0.3, 0.1]
        risk, bias, variance = decompose_one(one_hot([0], 3)[0], [q, q, q])
        assert abs(variance) < 1e-12
        assert bias == pytest.approx(risk, abs=1e-12)

    def test_worked_two_model_example(self):
        risk, bias, variance = decompose_one(one_hot([0], 2)[0],
                                             [[0.9, 0.1], [0.5, 0.5]])
        assert bias == pytest.approx(-math.log(0.75), abs=1e-9)
        assert bias == pytest.approx(0.287682, abs=1e-6)
        # pi_bar is (0.75, 0.25): the mean of its KL to each prediction
        expected_var = 0.5 * (0.75 * math.log(0.75 / 0.9)
                              + 0.25 * math.log(0.25 / 0.1)
                              + 0.75 * math.log(0.75 / 0.5)
                              + 0.25 * math.log(0.25 / 0.5))
        assert variance == pytest.approx(expected_var, abs=1e-12)
        assert abs(risk - bias - variance) < 1e-12

    def test_identity_on_random_draws(self):
        rng = Rng(9)
        for _ in range(500):
            c = 2 + rng.integers(5)
            k = 2 + rng.integers(4)
            risk, bias, variance = decompose_one(
                one_hot([rng.integers(c)], c)[0], random_preds(rng, k, c))
            assert abs(risk - bias - variance) < 1e-10
            assert bias >= 0.0 and variance >= 0.0

    def test_soft_label_rejected(self):
        with pytest.raises(ValueError, match="one-hot"):
            decompose_one([0.5, 0.5], [[0.5, 0.5]] * 2)


class TestDecomposeBatch:
    def test_matches_pointwise(self):
        # every row of a batch call against the term-by-term oracle
        rng = Rng(11)
        for _ in range(20):
            c, k, n = 2 + rng.integers(9), 2 + rng.integers(7), 6
            labels = one_hot([rng.integers(c) for _ in range(n)], c)
            stack = np.exp(3.0 * rng.standard_normal((k, n, c)))
            got = np.array(decompose_batch(labels, stack))
            for i in range(n):
                np.testing.assert_allclose(
                    got[:, i], oracle(labels[i], stack[:, i]), rtol=0,
                    atol=1e-12)

    def test_rows_are_decomposed_independently(self):
        # the sweep decomposes a test set of n rows in one call: that must
        # equal n one-row calls bit for bit
        rng = Rng(12)
        for _ in range(50):
            c, k = 2 + rng.integers(9), 2 + rng.integers(7)
            n = 1 + rng.integers(300)
            labels = one_hot([rng.integers(c) for _ in range(n)], c)
            stack = np.exp(3.0 * rng.standard_normal((k, n, c)))
            batch = np.array(decompose_batch(labels, stack))
            rows = np.array([
                decompose_batch(labels[i:i + 1], stack[:, i:i + 1])
                for i in range(n)])[:, :, 0].T
            assert np.array_equal(batch, rows)


class TestEstimator:
    def _data(self):
        full = gen_mixture_classification(300, 6, 3, 4.0, Rng(21))
        test = gen_mixture_classification(90, 6, 3, 4.0, Rng(22))
        return full, test

    def test_identical_models_give_zero_variance(self, monkeypatch):
        full, test = self._data()
        frozen = init_mlp(6, 4, 3, Rng(5))
        monkeypatch.setattr(nnet, "train", lambda models, splits, config,
                            seeds: ([frozen] * len(splits), None))
        (row,) = estimate_bias_variance(
            [4], full, k=3, split_size=80, test_set=test,
            train_config=None, base_seed=0)
        assert abs(row.variance) < 1e-12
        assert row.identity_residual < 1e-10

    def test_rows_satisfy_identity_and_subtraction_form(self):
        full, test = self._data()
        cfg = TrainConfig(epochs=8, batch_size=32,
                          optimizer=OptimizerConfig(lr=0.01))
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

    def test_stacked_default_equals_serial_training(self, monkeypatch):
        # the k splits of a width train as one stack; training each split
        # on its own must give the same report bytes
        full, test = self._data()
        cfg = TrainConfig(epochs=3, batch_size=32,
                          optimizer=OptimizerConfig(lr=0.01))
        args = ([2, 5], full, 3, 70, test, cfg, 13)
        stacked = estimate_bias_variance(*args)
        stack_train = nnet.train

        def serial(models, splits, config, seeds):
            fitted = [stack_train(model, split, config, seed)[0]
                      for model, split, seed in zip(models, splits, seeds)]
            return fitted, None

        monkeypatch.setattr(nnet, "train", serial)
        alone = estimate_bias_variance(*args)
        assert [r.csv_row() for r in stacked] == [r.csv_row() for r in alone]

    def test_split_violation_propagates(self):
        full, test = self._data()
        with pytest.raises(ValueError):
            estimate_bias_variance([2], full, k=5, split_size=100,
                                   test_set=test, train_config=None,
                                   base_seed=0)

    def test_csv_lines(self):
        full, test = self._data()
        (row,) = estimate_bias_variance(
            [4], full, k=2, split_size=80, test_set=test,
            train_config=TrainConfig(epochs=0), base_seed=0)
        assert CSV_HEADER == ("config_id,width,k,risk,bias_kl,variance,"
                              "bias_subtraction,identity_residual")
        assert row.csv_row().startswith("biasvar-w4,4,2,")
