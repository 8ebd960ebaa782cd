"""Desk-scale double-descent experiments built around a concatenated-inputs
dataset construction: min-norm regression sample sweeps, one-hidden-layer
ReLU network width and epoch sweeps, and the KL bias-variance decomposition,
all deterministic under explicit seeds."""

__version__ = "0.1.0"

from .augment import (ConcatView, MemoryBudgetError, build_concat_test,
                      materialize, sample_pairs)
from .biasvar import BiasVarianceRow, estimate_bias_variance
from .datagen import (ClassificationDataset, RegressionDataset,
                      apply_label_noise, gen_linreg,
                      gen_mixture_classification, one_hot, sample_theta,
                      split_k)
from .idx import (IdxCountMismatchError, IdxFormatError, IdxMagicError,
                  IdxTruncatedError, inspect_idx, load_idx, write_idx)
from .linreg import (LinearModel, design_rank, linreg_sample_sweep, mse,
                     pinv_solve)
from .nnet import (MlpModel, OptimizerConfig, TrainConfig,
                   TrainingDivergedError, classify_error, forward, grad_check,
                   init_mlp, lift_model, loss_and_grad, opt_step, train)
from .records import CurvePoint
from .rng import Rng, mix_seed
from .sweep import (ConfigError, SweepConfig, parse_config, run_config,
                    run_sweep, summarize)
