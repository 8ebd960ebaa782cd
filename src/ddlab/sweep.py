"""Experiment orchestration: configs, runners, CSV and manifest output.

A sweep is described by a JSON config parsed strictly (unknown keys are
fatal) into the dataclasses below.  Cells are the unit of work and of
parallelism; their results are collected in canonical order so thread
count never changes the output bytes, and a failed cell becomes a
status="failed" row instead of aborting the sweep.

Seed discipline: each sweep seed s fans out through mix_seed(s, tag) into
one stream per purpose (data, label noise, init, training), so the base
dataset bytes for a given s are identical across variants and widths.
The per-cell data hash recorded in the manifest makes that pairing
checkable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .augment import ConcatView, build_concat_test
from .biasvar import BiasVarianceReport, estimate_bias_variance
from .datagen import (MODE_AVERAGED, MODE_MULTI_HOT, ClassificationDataset,
                      NoiseSpec, apply_label_noise,
                      gen_mixture_classification, load_idx)
from .linreg import (VARIANT_CONCAT, VARIANT_STANDARD, VARIANTS,
                     linreg_sample_sweep)
from .nnet import (LOSS_BCE, LOSS_CE, OptimizerConfig, ScheduleConfig,
                   TrainConfig, TrainingDivergedError, init_mlp, train)
from .records import CSV_HEADER, STATUS_FAILED, CurvePoint
from .rng import Rng, mix_seed

EXPERIMENT_KINDS = ("linreg-sample", "mlp-width", "epochwise", "biasvar")

# stream tags for mix_seed(seed, tag)
STREAM_DATA = 1
STREAM_NOISE = 2
STREAM_INIT = 3
STREAM_TRAIN = 4
STREAM_SPLITS = 5


class ConfigError(ValueError):
    pass


# -- config schema -------------------------------------------------------------


@dataclass(frozen=True)
class DataSection:
    kind: str = "mixture"  # mixture | idx
    n: int | None = None
    d: int | None = None
    classes: int | None = None
    separation: float | None = None
    test_n: int | None = None
    noise_fraction: float = 0.0
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    standardize: bool = False


@dataclass(frozen=True)
class OptimizerSection:
    kind: str = "adam"
    lr: float = 0.001
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    schedule: ScheduleConfig | None = None

    def to_optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(self.kind, self.lr, self.momentum, self.beta1,
                               self.beta2, self.eps, self.weight_decay,
                               self.schedule)


@dataclass(frozen=True)
class TrainSection:
    loss: str = LOSS_CE
    epochs: int = 100
    batch_size: int = 32
    e_mult: int = 1
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)


@dataclass(frozen=True)
class SplitsSection:
    k: int = 5
    split_size: int = 500


@dataclass(frozen=True)
class SweepConfig:
    experiment: str
    experiment_id: str
    seeds: list
    variants: list = field(default_factory=lambda: [VARIANT_STANDARD])
    threads: int = 1
    out_dir: str | None = None
    # linreg-sample section
    d: int | None = None
    sigma: float | None = None
    n_grid: list | None = None
    n_test: int | None = None
    # network experiments
    data: DataSection | None = None
    widths: list | None = None
    train: TrainSection | None = None
    splits: SplitsSection | None = None


_PRIMITIVES = {int: int, float: (int, float), str: str, bool: bool}


def _coerce(value, annotation, path):
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if value is None:
            return None
        return _coerce(value, args[0], path)
    if annotation in (list, typing.List) or origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list")
        return list(value)
    if dataclasses.is_dataclass(annotation):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        return _parse_dataclass(annotation, value, path)
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        return float(value)
    if annotation is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer")
        return value
    if annotation is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean")
        return value
    if annotation is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        return value
    return value


def _parse_dataclass(cls, data: dict, prefix: str = ""):
    known = {f.name: f for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        dotted = f"{prefix}.{key}" if prefix else key
        if key not in known:
            raise ConfigError(f"unknown key '{dotted}'")
        kwargs[key] = _coerce(value, hints[key], dotted)
    missing = [name for name, f in known.items()
               if name not in kwargs
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing required key '{missing[0]}'"
                          + (f" in '{prefix}'" if prefix else ""))
    return cls(**kwargs)


def parse_config(raw: dict) -> SweepConfig:
    cfg = _parse_dataclass(SweepConfig, raw)
    validate_config(cfg)
    return cfg


def config_to_dict(cfg: SweepConfig) -> dict:
    """Round-trippable plain-dict form (None-valued keys dropped)."""

    def prune(obj):
        if isinstance(obj, dict):
            return {k: prune(v) for k, v in obj.items() if v is not None}
        return obj

    return prune(dataclasses.asdict(cfg))


def _positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def validate_config(cfg: SweepConfig) -> None:
    if cfg.experiment not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment '{cfg.experiment}'")
    if not cfg.experiment_id:
        raise ConfigError("experiment_id must be nonempty")
    if not cfg.seeds:
        raise ConfigError("seeds must be nonempty")
    if not all(isinstance(s, int) and not isinstance(s, bool)
               for s in cfg.seeds):
        raise ConfigError("seeds must be integers")
    if not cfg.variants:
        raise ConfigError("variants must be nonempty")
    for v in cfg.variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant '{v}'")
    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    if cfg.experiment == "linreg-sample":
        if cfg.d is None or cfg.sigma is None or not cfg.n_grid or cfg.n_test is None:
            raise ConfigError("linreg-sample needs d, sigma, n_grid and n_test")
        if not _positive_int(cfg.d):
            raise ConfigError("d must be a positive integer")
        if not _positive_int(cfg.n_test):
            raise ConfigError("n_test must be a positive integer")
        if not (math.isfinite(cfg.sigma) and cfg.sigma >= 0):
            raise ConfigError("sigma must be a finite number >= 0")
        if not all(_positive_int(n) for n in cfg.n_grid):
            raise ConfigError("n_grid must hold positive integers")
        return
    if cfg.data is None or cfg.train is None:
        raise ConfigError(f"{cfg.experiment} needs data and train sections")
    if cfg.experiment in ("mlp-width", "epochwise", "biasvar"):
        if not cfg.widths:
            raise ConfigError(f"{cfg.experiment} needs a nonempty widths grid")
        if not all(isinstance(w, int) and w >= 1 for w in cfg.widths):
            raise ConfigError("widths must hold positive integers")
    data = cfg.data
    if data.kind == "mixture":
        for name in ("n", "d", "classes", "separation", "test_n"):
            if getattr(data, name) is None:
                raise ConfigError(f"mixture data needs '{name}'")
    elif data.kind == "idx":
        for name in ("images", "labels", "test_images", "test_labels"):
            path = getattr(data, name)
            if path is None:
                raise ConfigError(f"idx data needs '{name}'")
            if not Path(path).exists():
                raise ConfigError(f"data file does not exist: {path}")
    else:
        raise ConfigError(f"unknown data kind '{data.kind}'")
    if not 0.0 <= data.noise_fraction <= 1.0:
        raise ConfigError("noise_fraction must be in [0, 1]")
    if cfg.experiment == "biasvar":
        if cfg.splits is None:
            raise ConfigError("biasvar needs a splits section")
        if cfg.variants != [VARIANT_STANDARD]:
            raise ConfigError("the biasvar experiment runs on standard inputs: "
                              "variants must be [\"standard\"]")
        if len(cfg.seeds) != 1:
            raise ConfigError("the biasvar experiment trains one split "
                              "ensemble: seeds must hold exactly one seed")
        if cfg.train.loss != LOSS_CE:
            raise ConfigError("biasvar needs the ce loss (categorical outputs)")


# -- dataset assembly -----------------------------------------------------------


def _standardize(train_x, test_x):
    mean = train_x.mean(axis=0)
    std = train_x.std(axis=0)
    std[std == 0.0] = 1.0
    return (train_x - mean) / std, (test_x - mean) / std


def build_base_data(cfg: SweepConfig, seed: int):
    """(train, test) pair for one sweep seed, label noise already applied.

    Mixture data draws train and test rows from a single generator call so
    they share class means; test rows never receive label noise.
    """
    data = cfg.data
    if data.kind == "mixture":
        rng = Rng(mix_seed(seed, STREAM_DATA))
        combined = gen_mixture_classification(
            data.n + data.test_n, data.d, data.classes, data.separation, rng)
        train_ds = combined.take(np.arange(data.n))
        test_ds = combined.take(np.arange(data.n, data.n + data.test_n))
    else:
        train_ds = load_idx(data.images, data.labels)
        test_ds = load_idx(data.test_images, data.test_labels)
        rng = Rng(mix_seed(seed, STREAM_DATA))
        if data.n is not None:
            if data.n > train_ds.n:
                raise ConfigError(
                    f"subset size {data.n} exceeds dataset size {train_ds.n}")
            train_ds = train_ds.take(rng.permutation(train_ds.n)[:data.n])
        if data.test_n is not None and data.test_n < test_ds.n:
            test_ds = test_ds.take(rng.permutation(test_ds.n)[:data.test_n])
    if data.standardize:
        train_x, test_x = _standardize(train_ds.features, test_ds.features)
        train_ds = ClassificationDataset(train_x, train_ds.targets, train_ds.mode)
        test_ds = ClassificationDataset(test_x, test_ds.targets, test_ds.mode)
    if data.noise_fraction > 0.0:
        train_ds = apply_label_noise(
            train_ds, NoiseSpec(data.noise_fraction, mix_seed(seed, STREAM_NOISE)))
    if cfg.train is not None and cfg.train.loss == LOSS_BCE:
        train_ds = train_ds.with_mode(MODE_MULTI_HOT)
        test_ds = test_ds.with_mode(MODE_MULTI_HOT)
    return train_ds, test_ds


def dataset_hash(*datasets) -> str:
    digest = hashlib.sha1()
    for ds in datasets:
        digest.update(np.ascontiguousarray(ds.features).tobytes())
        digest.update(np.ascontiguousarray(ds.targets).tobytes())
    return digest.hexdigest()


# -- cell execution --------------------------------------------------------------


@dataclass
class SweepResult:
    points: list
    trace_points: list
    cell_hashes: dict
    failures: list
    report: BiasVarianceReport | None = None


def _train_config(cfg: SweepConfig, seed: int) -> TrainConfig:
    section = cfg.train
    return TrainConfig(loss=section.loss, epochs=section.epochs,
                       batch_size=section.batch_size,
                       seed=mix_seed(seed, STREAM_TRAIN),
                       e_mult=section.e_mult,
                       optimizer=section.optimizer.to_optimizer())


def _run_nn_cell(cfg: SweepConfig, variant: str, width: int, seed: int,
                 train_ds: ClassificationDataset, test_ds: ClassificationDataset):
    """Train one (variant, width, seed) cell and return its epoch points."""
    loss = cfg.train.loss
    if variant == VARIANT_CONCAT:
        mode = MODE_MULTI_HOT if loss == LOSS_BCE else MODE_AVERAGED
        source = ConcatView(train_ds, mode)
        eval_ds = build_concat_test(test_ds)
        d_in = 2 * train_ds.dim
    else:
        source = train_ds
        eval_ds = test_ds
        d_in = train_ds.dim
    model = init_mlp(d_in, width, train_ds.class_count,
                     Rng(mix_seed(seed, STREAM_INIT)))
    params = model.param_count
    ratio = params / train_ds.n  # denominator: pre-concatenation sample count
    fitted, trace = train(model, source, _train_config(cfg, seed),
                          eval_sets={"test": eval_ds})
    points = []
    for rec in trace.records:
        points.append(CurvePoint(
            cfg.experiment_id, variant, "epoch", float(rec.epoch),
            train_loss=rec.train_loss, train_error=rec.train_error,
            test_loss=rec.eval_loss["test"],
            test_error=rec.eval_error.get("test"),
            seed=seed, params=params, param_sample_ratio=ratio))
    return fitted, points


def _canonical_cells(cfg: SweepConfig):
    return [(variant, width, seed)
            for variant in cfg.variants
            for width in cfg.widths
            for seed in cfg.seeds]


def _run_cells(cfg: SweepConfig, worker, cells):
    """Run cells on a pool, collecting results in canonical order."""
    if cfg.threads == 1:
        return [worker(cell) for cell in cells]
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        futures = [pool.submit(worker, cell) for cell in cells]
        return [f.result() for f in futures]


def _nn_sweep(cfg: SweepConfig, final_point_only: bool) -> SweepResult:
    base = {seed: build_base_data(cfg, seed) for seed in cfg.seeds}
    hashes = {seed: dataset_hash(*base[seed]) for seed in cfg.seeds}
    cells = _canonical_cells(cfg)

    def worker(cell):
        variant, width, seed = cell
        train_ds, test_ds = base[seed]
        try:
            _, points = _run_nn_cell(cfg, variant, width, seed, train_ds, test_ds)
            return points, None
        except TrainingDivergedError as exc:
            return None, str(exc)

    results = _run_cells(cfg, worker, cells)
    points, trace_points, cell_hashes, failures = [], [], {}, []
    for cell, (cell_points, error) in zip(cells, results):
        variant, width, seed = cell
        cell_id = f"{variant}/w{width}/s{seed}"
        cell_hashes[cell_id] = hashes[seed]
        if error is not None:
            failures.append((cell_id, error))
            points.append(CurvePoint(
                cfg.experiment_id, variant,
                "epoch" if not final_point_only else "hidden_units",
                float(width) if final_point_only else 0.0,
                seed=seed, status=STATUS_FAILED))
            continue
        if final_point_only:
            last = cell_points[-1]
            points.append(CurvePoint(
                cfg.experiment_id, variant, "hidden_units", float(width),
                train_loss=last.train_loss, train_error=last.train_error,
                test_loss=last.test_loss, test_error=last.test_error,
                seed=seed, params=last.params,
                param_sample_ratio=last.param_sample_ratio))
            trace_points.extend(cell_points)
        else:
            points.extend(cell_points)
    return SweepResult(points, trace_points, cell_hashes, failures)


def run_mlp_width_sweep(cfg: SweepConfig) -> SweepResult:
    """Final-epoch point per (variant, width, seed); traces go to a sidecar."""
    return _nn_sweep(cfg, final_point_only=True)


def run_epochwise(cfg: SweepConfig) -> SweepResult:
    """One point per epoch per (variant, width, seed), axis_name=epoch."""
    return _nn_sweep(cfg, final_point_only=False)


def run_linreg_sweep(cfg: SweepConfig) -> SweepResult:
    """Per-seed and median points per (variant, n), variant-major.

    Each (n, seed) cell is drawn once and fitted for every variant.  Cells
    run serially whatever ``threads`` says: two concurrent concat cells near
    n=100 each hold an n^2 x 2d = 10^4 x 60 design plus its SVD workspace.
    On the ``fig1`` grid with three seeds, a 2-thread pool of these cells
    peaked at 96 MiB RSS against 69 MiB serial.
    """
    points = linreg_sample_sweep(
        cfg.d, cfg.sigma, cfg.n_grid, cfg.seeds, cfg.n_test,
        variants=tuple(cfg.variants), experiment_id=cfg.experiment_id)
    return SweepResult(points, [], {}, [])


def run_biasvar(cfg: SweepConfig) -> SweepResult:
    """One split ensemble for the config's single seed, trained serially.

    The width x k trainings run one after another whatever ``threads``
    says: each is a long run of 32-row steps bound by numpy call overhead,
    which the interpreter lock serializes.  A 2-thread pool over the 25
    trainings of ``biasvar_mixture`` at 20 epochs took 2.32 s against
    1.39 s serial.
    """
    (seed,) = cfg.seeds
    train_ds, test_ds = build_base_data(cfg, seed)
    report = estimate_bias_variance(
        cfg.widths, train_ds, cfg.splits.k, cfg.splits.split_size, test_ds,
        _train_config(cfg, seed), base_seed=mix_seed(seed, STREAM_SPLITS),
        config_id=cfg.experiment_id)
    result = SweepResult([], [], {"base": dataset_hash(train_ds, test_ds)}, [])
    result.report = report
    return result


RUNNERS = {
    "linreg-sample": run_linreg_sweep,
    "mlp-width": run_mlp_width_sweep,
    "epochwise": run_epochwise,
    "biasvar": run_biasvar,
}


# -- aggregation ------------------------------------------------------------------


@dataclass(frozen=True)
class SummaryRow:
    key: tuple
    count: int
    median: float
    mean: float
    min: float
    max: float


def summarize(points, group_keys, value_field: str = "test_loss"):
    """Median / mean / min / max of one field per group, ordered by key.

    Medians use the lower-middle element for even counts.  Points whose
    value field is None (failed cells) are excluded.
    """
    if not points:
        raise ValueError("summarize needs at least one point")
    groups: dict = {}
    for p in points:
        value = getattr(p, value_field)
        if value is None:
            continue
        key = tuple(getattr(p, k) for k in group_keys)
        groups.setdefault(key, []).append(value)
    rows = []
    for key in sorted(groups):
        values = sorted(groups[key])
        rows.append(SummaryRow(
            key, len(values), values[(len(values) - 1) // 2],
            sum(values) / len(values), values[0], values[-1]))
    return rows


# -- output -----------------------------------------------------------------------


def write_points_csv(path, points) -> None:
    lines = [CSV_HEADER] + [p.csv_row() for p in points]
    Path(path).write_text("\n".join(lines) + "\n")


def write_manifest(path, cfg: SweepConfig, result: SweepResult,
                   threads: int | None = None) -> None:
    manifest = {
        "tool_version": __version__,
        "experiment_id": cfg.experiment_id,
        "resolved_config": config_to_dict(cfg),
        "seeds": list(cfg.seeds),
        "threads": threads if threads is not None else cfg.threads,
        "input_hashes": result.cell_hashes,
        "failed_cells": [cell for cell, _ in result.failures],
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run_config(cfg: SweepConfig, out_dir, verbose: bool = False) -> SweepResult:
    """Run a sweep and write CSV outputs plus the manifest into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = RUNNERS[cfg.experiment](cfg)
    if cfg.experiment == "biasvar":
        report_path = out / f"{cfg.experiment_id}_biasvar.csv"
        report_path.write_text("\n".join(result.report.csv_lines()) + "\n")
    else:
        write_points_csv(out / f"{cfg.experiment_id}.csv", result.points)
        if result.trace_points:
            write_points_csv(out / f"{cfg.experiment_id}_traces.csv",
                             result.trace_points)
    write_manifest(out / f"{cfg.experiment_id}_manifest.json", cfg, result)
    if verbose:
        for cell, error in result.failures:
            print(f"cell {cell} failed: {error}")
    return result
