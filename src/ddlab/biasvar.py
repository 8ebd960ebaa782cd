"""KL bias-variance decomposition of the cross-entropy risk.

For a one-hot label distribution pi and an ensemble of predictive
distributions pi_hat_1..K, the mean cross entropy splits exactly as

    mean_j CE(pi, pi_hat_j) = KL(pi, pi_bar) + mean_j KL(pi_bar, pi_hat_j)

where pi_bar is the normalized geometric mean of the predictions,
computed in log space.  The first term is the bias, the second the
variance.  The identity needs pi to have zero entropy, which is why the
per-point decomposition insists on one-hot labels.

Probabilities are floored at 1e-300 before any logarithm so saturated
softmax outputs cannot produce infinities; the flooring happens after
normalization and perturbs row sums by at most c * 1e-300.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from . import nnet
from .datagen import ClassificationDataset, split_k
from .records import fmt_value
from .rng import Rng, mix_seed

PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class ProbDist:
    p: np.ndarray

    @staticmethod
    def from_raw(values) -> "ProbDist":
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("a distribution is a nonempty 1-D vector")
        if np.any(values < 0) or not np.isfinite(values).all():
            raise ValueError("probabilities must be finite and nonnegative")
        total = float(values.sum())
        if total <= 0:
            raise ValueError("probabilities must have positive mass")
        return ProbDist(np.maximum(values / total, PROB_FLOOR))

    @property
    def arity(self) -> int:
        return self.p.shape[0]

    @property
    def is_one_hot(self) -> bool:
        return bool(self.p.max() >= 1.0 - 1e-9)


def floor_probs(matrix: np.ndarray) -> np.ndarray:
    """Row-normalize then floor a matrix of probability rows."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return np.maximum(matrix / matrix.sum(axis=-1, keepdims=True), PROB_FLOOR)


def log_geometric_mean(dists: list[ProbDist]) -> ProbDist:
    """Normalized geometric mean, computed stably in log space."""
    if not dists:
        raise ValueError("need at least one distribution")
    arity = dists[0].arity
    if any(d.arity != arity for d in dists):
        raise ValueError("distributions must share one arity")
    stacked = np.stack([d.p for d in dists])
    return ProbDist(_log_geo_mean_rows(np.log(stacked)))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=-1, keepdims=True)


def _log_geo_mean_rows(log_probs: np.ndarray) -> np.ndarray:
    """Geometric-mean rows from (K, ..., c) log probabilities."""
    return np.maximum(_softmax_rows(log_probs.mean(axis=0)), PROB_FLOOR)


def kl(p: ProbDist, q: ProbDist) -> float:
    """KL divergence sum_k p_k (log p_k - log q_k), with 0 log 0 = 0."""
    if p.arity != q.arity:
        raise ValueError("distributions must share one arity")
    mask = p.p > 0.0
    return float(np.sum(p.p[mask] * (np.log(p.p[mask]) - np.log(q.p[mask]))))


def cross_entropy(p: ProbDist, q: ProbDist) -> float:
    if p.arity != q.arity:
        raise ValueError("distributions must share one arity")
    return -float(np.sum(p.p * np.log(q.p)))


def decompose_point(pi: ProbDist, predictions: list[ProbDist]):
    """(risk, bias, variance) for one test point.

    risk is the mean cross entropy, bias is KL(pi, pi_bar), variance is the
    mean KL(pi_bar, pi_hat_j); the three satisfy risk = bias + variance up
    to floating-point error because pi is one-hot.
    """
    if len(predictions) < 1:
        raise ValueError("need at least one prediction")
    if not pi.is_one_hot:
        raise ValueError("the exact decomposition requires a one-hot label")
    pi_bar = log_geometric_mean(predictions)
    risk = float(np.mean([cross_entropy(pi, q) for q in predictions]))
    bias = kl(pi, pi_bar)
    variance = float(np.mean([kl(pi_bar, q) for q in predictions]))
    return risk, bias, variance


def decompose_batch(pi_rows: np.ndarray, prediction_stack: np.ndarray):
    """Vectorized decomposition: (n, c) one-hot labels, (K, n, c) predictions.

    Returns per-point (risk, bias, variance) arrays.  Same arithmetic as
    decompose_point, applied row-wise.
    """
    pi_rows = np.asarray(pi_rows, dtype=np.float64)
    preds = floor_probs(prediction_stack)
    if not np.all(pi_rows.max(axis=1) >= 1.0 - 1e-9):
        raise ValueError("the exact decomposition requires one-hot labels")
    log_preds = np.log(preds)
    pi_bar = _log_geo_mean_rows(log_preds)
    log_bar = np.log(pi_bar)
    risk = -np.einsum("nc,knc->n", pi_rows, log_preds) / preds.shape[0]
    hot = pi_rows > 0.0
    bias = np.where(
        hot, pi_rows * (np.log(np.maximum(pi_rows, PROB_FLOOR)) - log_bar), 0.0
    ).sum(axis=1)
    variance = np.einsum("nc,knc->n", pi_bar, log_bar[None] - log_preds)
    variance = variance / preds.shape[0]
    return risk, bias, variance


# -- split-based estimator ------------------------------------------------------


@dataclass(frozen=True)
class BiasVarianceRow:
    config_id: str
    width: int
    k: int
    risk: float
    bias_kl: float
    variance: float
    bias_subtraction: float
    identity_residual: float

    def csv_row(self) -> str:
        return ",".join(fmt_value(v) for v in astuple(self))


CSV_HEADER = ",".join(f.name for f in fields(BiasVarianceRow))


def estimate_bias_variance(widths, train_set: ClassificationDataset, k: int,
                           split_size: int, test_set: ClassificationDataset,
                           train_config, base_seed: int,
                           train_fn=None, config_id: str = "biasvar"):
    """Split-based empirical decomposition: a list of ``BiasVarianceRow``s,
    one per width, in ``widths`` order; ``CSV_HEADER`` heads their rows.

    k disjoint splits are drawn once (seeded from base_seed) and reused for
    every width; split j (counted from 0) trains with seed
    mix_seed(base_seed, j + 1), stream 0 having drawn the splits.  For every
    test point the k predictive softmax distributions are decomposed and the
    test-set means reported, together with the subtraction-form bias
    (risk - variance) and the identity residual |risk - bias - variance|.

    ``train_fn(width, splits, seeds) -> list[MlpModel]`` returns one fitted
    model per split and may be injected.  The default trains the k
    one-hidden-layer networks of a width as one stack, in a single
    ``nnet.train`` call with ``train_config`` and the k seeds; split j's
    model is bit-identical to one trained on its own.  The k test-set
    softmaxes of a width come from k single-model forward passes.
    """
    if not test_set.is_one_hot:
        raise ValueError("the decomposition needs a one-hot test set")
    if train_fn is None:
        if train_config.loss != nnet.LOSS_CE:
            raise ValueError("categorical predictions require the ce loss")

        def train_fn(width, splits, seeds):
            models = [nnet.init_mlp(split.dim, width, split.class_count,
                                    Rng(mix_seed(seed, 1)))
                      for split, seed in zip(splits, seeds)]
            fitted, _ = nnet.train(models, splits, train_config, seeds)
            return fitted

    splits = split_k(train_set, k, split_size, Rng(mix_seed(base_seed, 0)))
    seeds = [mix_seed(base_seed, j + 1) for j in range(k)]
    rows = []
    for width in widths:
        models = train_fn(width, splits, seeds)
        if len(models) != k:
            raise ValueError(f"train_fn returned {len(models)} models "
                             f"for {k} splits")
        # one forward per model, not one over the stack: the stack's
        # (k, rows, width) hidden array would raise the peak for no speed
        logits = np.stack([nnet.forward(model, test_set.features)
                           for model in models])
        risk, bias, variance = decompose_batch(test_set.targets,
                                               _softmax_rows(logits))
        mean_risk = float(risk.mean())
        mean_bias = float(bias.mean())
        mean_var = float(variance.mean())
        rows.append(BiasVarianceRow(
            config_id=f"{config_id}-w{width}", width=int(width), k=k,
            risk=mean_risk, bias_kl=mean_bias, variance=mean_var,
            bias_subtraction=mean_risk - mean_var,
            identity_residual=abs(mean_risk - mean_bias - mean_var)))
    return rows
