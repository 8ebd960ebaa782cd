"""KL bias-variance decomposition of the cross-entropy risk.

For a one-hot label distribution pi and an ensemble of predictive
distributions pi_hat_1..K, the mean cross entropy splits exactly as

    mean_j CE(pi, pi_hat_j) = KL(pi, pi_bar) + mean_j KL(pi_bar, pi_hat_j)

where pi_bar is the normalized geometric mean of the predictions,
computed in log space.  The first term is the bias, the second the
variance.  The identity needs pi to have zero entropy, which is why
``decompose_batch`` insists on one-hot labels.

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


def _floor_probs(matrix: np.ndarray) -> np.ndarray:
    """Row-normalize then floor a matrix of probability rows."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return np.maximum(matrix / matrix.sum(axis=-1, keepdims=True), PROB_FLOOR)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=-1, keepdims=True)


def decompose_batch(pi_rows: np.ndarray, prediction_stack: np.ndarray):
    """Per-point (risk, bias, variance) arrays from (n, c) one-hot labels
    and a (K, n, c) stack of K predictive distributions for each point.

    Each row is decomposed on its own: risk is the mean cross entropy
    -mean_j log pi_hat_j[y], bias is KL(pi, pi_bar) for pi_bar the
    normalized geometric mean of the K predictions, and variance is the
    mean KL(pi_bar, pi_hat_j), so risk = bias + variance up to rounding.
    Prediction rows are normalized and floored first.
    """
    pi_rows = np.asarray(pi_rows, dtype=np.float64)
    preds = _floor_probs(prediction_stack)
    if not np.all(pi_rows.max(axis=1) >= 1.0 - 1e-9):
        raise ValueError("the exact decomposition requires one-hot labels")
    log_preds = np.log(preds)
    pi_bar = np.maximum(_softmax_rows(log_preds.mean(axis=0)), PROB_FLOOR)
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
