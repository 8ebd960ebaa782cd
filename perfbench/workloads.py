"""The benchmark's workloads and the per-layer metrics it reports.

Each workload is a bundled preset with a few keys overridden.  The
workload seed maps onto the sweep's ``seeds`` list; DEFAULT_SEED gives the
sweeps whose output rows are pinned under ``reference/``.  Every workload
runs closed-loop: one sweep at a time in one process, with ``threads: 2``.
"""

from __future__ import annotations

import json
from pathlib import Path

DEFAULT_SEED = 0
THREADS = 2
LINREG_SEEDS_PER_RUN = 3
# Epochs are cut so that a run holds many short sweeps: every gap between
# two sweeps holds one calibration sample (calibrate.py), and the rescaled
# times steady with the number of those samples, not with their length.
MLP_EPOCHS = 10
BIASVAR_EPOCHS = 20


def _linreg_fig1(raw, seed):
    # Full n-grid 2..100, d=30, n_test=10000, both variants; three seeds.
    first = LINREG_SEEDS_PER_RUN * seed
    raw["seeds"] = list(range(first, first + LINREG_SEEDS_PER_RUN))


def _mlp_width_mixture(raw, seed):
    # All nine widths, both variants, ce + adam; one seed, fewer epochs.
    raw["seeds"] = [seed]
    raw["train"]["epochs"] = MLP_EPOCHS


def _biasvar_mixture(raw, seed):
    # The preset's 5 widths x 5 splits of 500 rows, 20 epochs each.
    raw["seeds"] = [seed]
    raw["train"]["epochs"] = BIASVAR_EPOCHS


WORKLOADS = {
    "linreg_fig1": ("fig1", _linreg_fig1),
    "mlp_width_mixture": ("desk_mixture", _mlp_width_mixture),
    "biasvar_mixture": ("biasvar_mixture", _biasvar_mixture),
}


def workload_config(name: str, seed: int, presets_dir: Path) -> dict:
    """Raw sweep config (as parse_config takes it) for one workload run."""
    preset, adjust = WORKLOADS[name]
    raw = json.loads((presets_dir / f"{preset}.json").read_text())
    adjust(raw, seed)
    raw["experiment_id"] = name
    raw["threads"] = THREADS
    return raw


def expected_rows(raw: dict) -> dict:
    """CSV file name -> data row count that the sweep must write."""
    name = raw["experiment_id"]
    variants = len(raw["variants"])
    seeds = len(raw["seeds"])
    if raw["experiment"] == "linreg-sample":
        # one row per (n, seed) plus one median row per n
        return {f"{name}.csv": variants * len(raw["n_grid"]) * (seeds + 1)}
    if raw["experiment"] == "biasvar":
        return {f"{name}_biasvar.csv": len(raw["widths"])}
    cells = variants * len(raw["widths"]) * seeds
    return {f"{name}.csv": cells,
            f"{name}_traces.csv": cells * raw["train"]["epochs"]}


# -- per-layer metrics ----------------------------------------------------------
#
# Span metrics are "<layer>.<function>.<field>".  calls, values, rows and
# bytes are exact counts; self_s is span time minus the union of its child
# spans, total_s is inclusive.  The derived metrics are defined in run.py.

SPAN_METRICS = (
    "rng.standard_normal.calls",
    "rng.standard_normal.values",
    "rng.standard_normal.self_s",
    "rng.integers.values",
    "rng.permutation.calls",
    "datagen.gen_linreg.self_s",
    "datagen.gen_mixture_classification.self_s",
    "datagen.split_k.self_s",
    "augment.materialize.calls",
    "augment.materialize.bytes",
    "augment.materialize.self_s",
    "augment.build_concat_test.self_s",
    "augment.sample_pairs.calls",
    "augment.sample_pairs.self_s",
    "linreg.pinv_solve.calls",
    "linreg.pinv_solve.rows",
    "linreg.pinv_solve.self_s",
    "linreg.mse.self_s",
    "nnet.train.calls",
    "nnet.train.self_s",
    "nnet.loss_and_grad.calls",
    "nnet.loss_and_grad.rows",
    "nnet.loss_and_grad.self_s",
    "nnet.opt_step.calls",
    "nnet.opt_step.self_s",
    "nnet.eval_loss.calls",
    "nnet.eval_loss.total_s",
    "nnet.classify_error.calls",
    "nnet.classify_error.total_s",
    "nnet.forward.calls",
    "nnet.forward.rows",
    "nnet.forward.self_s",
    "biasvar.estimate_bias_variance.self_s",
    "biasvar.decompose_batch.calls",
    "biasvar.decompose_batch.self_s",
    "sweep.build_base_data.self_s",
    "sweep.dataset_hash.self_s",
    "sweep.run_config.self_s",
    "sweep.write_points_csv.self_s",
    "sweep.write_manifest.self_s",
)

# name -> (unit, better)
DERIVED_METRICS = {
    "augment.sample_pairs.useful_ratio": ("ratio", "higher"),
    "nnet.discarded_grad_ratio": ("ratio", "lower"),
    "records.csv_rows": ("count", "higher"),
    "sweep.cell_parallelism": ("ratio", "higher"),
    "proc.cpu_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

_FIELD_UNITS = {"calls": "count", "values": "count", "rows": "count",
                "bytes": "B", "self_s": "s", "total_s": "s"}


def per_layer_spec() -> dict:
    """Every per-layer metric name -> (unit, better), in report order."""
    spec = {name: (_FIELD_UNITS[name.rsplit(".", 1)[1]], "lower")
            for name in SPAN_METRICS}
    spec.update(DERIVED_METRICS)
    return spec


# Which per-layer metrics each workload loads, and so must read non-zero
# in its traced run (a zero here means a call site the tracer missed).
# This is also the prediction later changes are judged against: a change
# to a layer may move sweep_s only on the workloads that load it, and is
# predicted to leave the others unchanged.  Heavy -> light:
#   rng Gaussians, materialize, pinv_solve: linreg_fig1 only (there they
#     set sweep_s and peak_rss_mib); on the mixtures rng is setup only.
#   sample_pairs and per-epoch eval (eval_loss, discarded backward):
#     mlp_width_mixture only; biasvar_mixture has neither.
#   per-step overhead (loss_and_grad, opt_step on small batches):
#     biasvar_mixture heavy, mlp_width_mixture medium, linreg_fig1 none.
#   sweep.cell_parallelism: > 1 only on mlp_width_mixture today; it should
#     rise on linreg_fig1 and biasvar_mixture once cells share one runner.
_COMMON = (
    "rng.standard_normal.calls", "rng.standard_normal.values",
    "rng.standard_normal.self_s", "sweep.run_config.self_s",
    "sweep.write_manifest.self_s", "records.csv_rows",
    "sweep.cell_parallelism", "proc.cpu_s",
)
_NNET = (
    "rng.permutation.calls", "datagen.gen_mixture_classification.self_s",
    "nnet.train.calls", "nnet.train.self_s", "nnet.loss_and_grad.calls",
    "nnet.loss_and_grad.rows", "nnet.loss_and_grad.self_s",
    "nnet.opt_step.calls", "nnet.opt_step.self_s",
    "nnet.classify_error.calls", "nnet.classify_error.total_s",
    "nnet.forward.calls", "nnet.forward.rows", "nnet.forward.self_s",
    "sweep.build_base_data.self_s", "sweep.dataset_hash.self_s",
)
LOADED = {
    "linreg_fig1": _COMMON + (
        "datagen.gen_linreg.self_s", "augment.materialize.calls",
        "augment.materialize.bytes", "augment.materialize.self_s",
        "augment.build_concat_test.self_s", "linreg.pinv_solve.calls",
        "linreg.pinv_solve.rows", "linreg.pinv_solve.self_s",
        "linreg.mse.self_s", "sweep.write_points_csv.self_s",
    ),
    "mlp_width_mixture": _COMMON + _NNET + (
        "rng.integers.values", "augment.build_concat_test.self_s",
        "augment.sample_pairs.calls", "augment.sample_pairs.self_s",
        "augment.sample_pairs.useful_ratio", "nnet.eval_loss.calls",
        "nnet.eval_loss.total_s", "nnet.discarded_grad_ratio",
        "sweep.write_points_csv.self_s",
    ),
    "biasvar_mixture": _COMMON + _NNET + (
        "datagen.split_k.self_s", "biasvar.estimate_bias_variance.self_s",
        "biasvar.decompose_batch.calls", "biasvar.decompose_batch.self_s",
    ),
}
