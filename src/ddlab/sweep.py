"""Experiment orchestration: configs, cells, CSV and manifest output.

A sweep is described by a JSON config parsed strictly (unknown keys are
fatal) into the dataclasses below.  ``RUNNERS`` splits each experiment
kind into cells, the unit of work, and one loop, ``run_sweep``, runs the
cells of every kind.  With ``threads`` > 1, linreg-sample and mlp-width
cells run on a pool that hands them out from both ends of the cell list;
biasvar cells stay serial.  Results are collected in canonical
order, so the thread count never changes the output bytes.  A cell that
raises becomes its failed rows and a manifest entry instead of aborting
the sweep.

Seed discipline: each sweep seed s fans out through mix_seed(s, tag) into
one stream per purpose (data, label noise, init, training), so the base
dataset bytes for a given s are identical across variants and widths.
The per-cell data hash recorded in the manifest makes that pairing
checkable.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import sys
import threading
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .augment import ConcatView, build_concat_test, materialized_bytes
from .biasvar import CSV_HEADER as BIASVAR_CSV_HEADER
from .biasvar import estimate_bias_variance
from .datagen import (ClassificationDataset, NoiseSpec, apply_label_noise,
                      gen_mixture_classification)
from .idx import load_idx
from .linreg import (SWEEP_MATERIALIZE_BUDGET, VARIANT_CONCAT,
                     VARIANT_STANDARD, VARIANTS, linreg_sample_sweep)
from .nnet import (LOSS_CE, TRAIN_LOSS_MODES, OptimizerConfig, TrainConfig,
                   init_mlp, train)
from .records import CSV_HEADER, STATUS_FAILED, CurvePoint, lower_median
from .rng import Rng, mix_seed

EXPERIMENT_KINDS = ("linreg-sample", "mlp-width", "biasvar")

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
class OptimizerSection(OptimizerConfig):
    """``nnet.OptimizerConfig`` with the config file's defaults: Adam at
    lr 1e-3.  Its range checks run when the section is parsed."""

    kind: str = "adam"
    lr: float = 0.001


@dataclass(frozen=True)
class TrainSection:
    loss: str = LOSS_CE
    epochs: int = 100
    batch_size: int = 32
    e_mult: int = 1
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)

    def __post_init__(self):
        self.to_config(seed=0)  # nnet's TrainConfig holds the range checks

    def to_config(self, seed: int) -> TrainConfig:
        return TrainConfig(loss=self.loss, epochs=self.epochs,
                           batch_size=self.batch_size, seed=seed,
                           e_mult=self.e_mult, optimizer=self.optimizer)


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
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # a section's own range check; its message starts with the key name
        raise ConfigError(f"{prefix}.{exc}") from None


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


def _int_at_least(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _positive_int(value) -> bool:
    return _int_at_least(value, 1)


def validate_config(cfg: SweepConfig) -> None:
    _validate_sections(cfg)
    # a repeated seed or grid point would run, and count in the medians, twice
    for key in ("seeds", "variants", "widths", "n_grid"):
        seen = set()
        for value in getattr(cfg, key) or ():
            if value in seen:
                raise ConfigError(f"{key} repeats {value!r}: each entry "
                                  f"must be distinct")
            seen.add(value)


def _validate_sections(cfg: SweepConfig) -> None:
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
        if VARIANT_CONCAT in cfg.variants:
            # a concat cell builds its n^2-pair design for the train MSE
            n = max(cfg.n_grid)
            need = materialized_bytes(n, cfg.d)
            if need > SWEEP_MATERIALIZE_BUDGET:
                raise ConfigError(
                    f"n_grid: the concat pair design at n = {n} needs "
                    f"{need} bytes, over the "
                    f"{SWEEP_MATERIALIZE_BUDGET}-byte budget")
        return
    if cfg.data is None or cfg.train is None:
        raise ConfigError(f"{cfg.experiment} needs data and train sections")
    if not cfg.widths:
        raise ConfigError(f"{cfg.experiment} needs a nonempty widths grid")
    if not all(_positive_int(w) for w in cfg.widths):
        raise ConfigError("widths must hold positive integers")
    data = cfg.data
    if data.kind == "mixture":
        for name in ("n", "d", "classes", "separation", "test_n"):
            if getattr(data, name) is None:
                raise ConfigError(f"mixture data needs '{name}'")
        if not _int_at_least(data.classes, 2):
            raise ConfigError("data.classes must be an integer >= 2")
        if not (math.isfinite(data.separation) and data.separation > 0):
            raise ConfigError("data.separation must be a finite number > 0")
    elif data.kind == "idx":
        for name in ("images", "labels", "test_images", "test_labels"):
            path = getattr(data, name)
            if path is None:
                raise ConfigError(f"idx data needs '{name}'")
            if not Path(path).exists():
                raise ConfigError(f"data file does not exist: {path}")
    else:
        raise ConfigError(f"unknown data kind '{data.kind}'")
    for name in ("n", "d", "test_n"):
        value = getattr(data, name)
        if value is not None and not _positive_int(value):
            raise ConfigError(f"data.{name} must be a positive integer")
    if data.kind == "mixture" and data.classes > data.n + data.test_n:
        raise ConfigError(
            f"data.classes = {data.classes} exceeds data.n + data.test_n = "
            f"{data.n + data.test_n}: every class needs a row")
    if not 0.0 <= data.noise_fraction <= 1.0:
        raise ConfigError("noise_fraction must be in [0, 1]")
    if cfg.experiment == "mlp-width" and cfg.train.epochs < 1:
        raise ConfigError("train.epochs must be >= 1 for mlp-width: each "
                          "cell reports its final epoch")
    if cfg.experiment == "biasvar":
        if cfg.splits is None:
            raise ConfigError("biasvar needs a splits section")
        splits = cfg.splits
        if not (_positive_int(splits.k) and _positive_int(splits.split_size)):
            raise ConfigError("splits.k and splits.split_size must be "
                              "positive integers")
        if data.kind == "mixture" and splits.k * splits.split_size > data.n:
            raise ConfigError(
                f"splits.k * splits.split_size = "
                f"{splits.k * splits.split_size} exceeds data.n = {data.n}")
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
    # centre a constant column but do not scale it: its std is rounding noise
    std[(train_x == train_x[0]).all(axis=0)] = 1.0
    return (train_x - mean) / std, (test_x - mean) / std


def build_base_data(cfg: SweepConfig, seed: int):
    """(train, test) pair for one sweep seed, label noise already applied,
    in the target mode the train loss needs (``nnet.TRAIN_LOSS_MODES``).

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
        for path, ds in ((data.images, train_ds), (data.test_images, test_ds)):
            if ds.features.size == 0:
                raise ConfigError(f"{path}: holds no pixels "
                                  f"(image count, rows or cols is 0)")
        # a model fitted on the train files must read the test files
        if train_ds.dim != test_ds.dim:
            raise ConfigError(f"{data.images} and {data.test_images} hold "
                              f"{train_ds.dim} vs {test_ds.dim} pixels per image")
        if train_ds.class_count != test_ds.class_count:
            raise ConfigError(f"{data.labels} and {data.test_labels} hold "
                              f"{train_ds.class_count} vs "
                              f"{test_ds.class_count} classes")
        rng = Rng(mix_seed(seed, STREAM_DATA))
        if data.n is not None:
            if data.n > train_ds.n:
                raise ConfigError(
                    f"subset size {data.n} exceeds dataset size {train_ds.n}")
            train_ds = train_ds.take(rng.permutation(train_ds.n)[:data.n])
        if data.test_n is not None:
            if data.test_n > test_ds.n:
                raise ConfigError(f"test subset size {data.test_n} exceeds "
                                  f"test dataset size {test_ds.n}")
            if data.test_n < test_ds.n:
                test_ds = test_ds.take(
                    rng.permutation(test_ds.n)[:data.test_n])
    if data.standardize:
        train_x, test_x = _standardize(train_ds.features, test_ds.features)
        train_ds = ClassificationDataset(train_x, train_ds.targets, train_ds.mode)
        test_ds = ClassificationDataset(test_x, test_ds.targets, test_ds.mode)
    if data.noise_fraction > 0.0:
        train_ds = apply_label_noise(
            train_ds, NoiseSpec(data.noise_fraction, mix_seed(seed, STREAM_NOISE)))
    mode = TRAIN_LOSS_MODES[cfg.train.loss]
    return train_ds.with_mode(mode), test_ds.with_mode(mode)


def dataset_hash(*datasets) -> str:
    digest = hashlib.sha1()
    for ds in datasets:
        digest.update(np.ascontiguousarray(ds.features).tobytes())
        digest.update(np.ascontiguousarray(ds.targets).tobytes())
    return digest.hexdigest()


# -- cell execution --------------------------------------------------------------


@dataclass
class SweepResult:
    points: list  # CurvePoints; BiasVarianceRows for biasvar
    trace_points: list
    cell_hashes: dict
    failures: list  # (cell id, error message)


class Cell(typing.NamedTuple):
    """``run() -> (points, trace points)``; if it raises, the sweep writes
    ``failed_rows`` instead.  ``seed`` keys the cell's input hash; linreg
    cells, which have no base data, have None."""

    id: str
    seed: int | None
    failed_rows: list
    run: typing.Callable


def _network_cell(cfg: SweepConfig, data, variant: str, width: int, seed: int):
    """Train one (variant, width, seed) cell: its final epoch on the
    hidden_units axis, with every epoch as trace points.  A concat cell
    pairs its rows in the target mode ``build_base_data`` chose."""
    train_ds, test_ds = data
    source = train_ds
    if variant == VARIANT_CONCAT:
        source = ConcatView(train_ds, train_ds.mode)
        test_ds = build_concat_test(test_ds)
    model = init_mlp(test_ds.dim, width, train_ds.class_count,
                     Rng(mix_seed(seed, STREAM_INIT)))
    params = model.param_count
    ratio = params / train_ds.n  # denominator: pre-concatenation sample count
    _, records = train(model, source,
                       cfg.train.to_config(mix_seed(seed, STREAM_TRAIN)),
                       test_set=test_ds)
    epochs = [CurvePoint(
        cfg.experiment_id, variant, "epoch", float(rec.epoch),
        train_loss=rec.train_loss, train_error=rec.train_error,
        test_loss=rec.test_loss, test_error=rec.test_error,
        seed=seed, params=params, param_sample_ratio=ratio)
        for rec in records]
    return [dataclasses.replace(epochs[-1], axis_name="hidden_units",
                                axis_value=float(width))], epochs


def _linreg_cell(cfg: SweepConfig, n: int):
    return linreg_sample_sweep(
        cfg.d, cfg.sigma, [n], cfg.seeds, cfg.n_test,
        variants=tuple(cfg.variants), experiment_id=cfg.experiment_id), []


def _biasvar_cell(cfg: SweepConfig, data, width: int, seed: int):
    return estimate_bias_variance(
        [width], data[0], cfg.splits.k, cfg.splits.split_size, data[1],
        cfg.train.to_config(mix_seed(seed, STREAM_TRAIN)),
        base_seed=mix_seed(seed, STREAM_SPLITS),
        config_id=cfg.experiment_id), []


def linreg_cells(cfg: SweepConfig, base: dict):
    """One cell per n, fitting every variant on each seed's draw.  A failed
    n writes a failed row per (variant, seed) and no median.  The draws
    are a pure function of (seed, n): no base data, no input hash."""
    for n in cfg.n_grid:
        failed = [CurvePoint(cfg.experiment_id, variant, "samples", float(n),
                             seed=seed, status=STATUS_FAILED)
                  for variant in cfg.variants for seed in cfg.seeds]
        yield Cell(f"n{n}", None, failed,
                   functools.partial(_linreg_cell, cfg, n))


def network_cells(cfg: SweepConfig, base: dict):
    """Mlp-width: one cell per (variant, width, seed), variant-major,
    trained on its seed's base data."""
    for variant, width, seed in itertools.product(cfg.variants, cfg.widths,
                                                  cfg.seeds):
        failed = CurvePoint(cfg.experiment_id, variant, "hidden_units",
                            float(width), seed=seed, status=STATUS_FAILED)
        yield Cell(f"{variant}/w{width}/s{seed}", seed, [failed],
                   functools.partial(_network_cell, cfg, base[seed], variant,
                                     width, seed))


def biasvar_cells(cfg: SweepConfig, base: dict):
    """One report row per width.  The k split models of a width train as
    one stack, on splits drawn from a fixed seed, so every width sees the
    same splits.  The report has no status column: a failed width writes
    no row."""
    (variant,), (seed,) = cfg.variants, cfg.seeds
    need, rows = cfg.splits.k * cfg.splits.split_size, base[seed][0].n
    if need > rows:  # IDX data, whose row count is known once loaded
        raise ConfigError(f"splits.k * splits.split_size = {need} exceeds "
                          f"the {rows} train rows")
    for width in cfg.widths:
        yield Cell(f"{variant}/w{width}/s{seed}", seed, [],
                   functools.partial(_biasvar_cell, cfg, base[seed], width,
                                     seed))


RUNNERS = {
    "linreg-sample": linreg_cells,
    "mlp-width": network_cells,
    "biasvar": biasvar_cells,
}
# Biasvar cells run serially whatever ``threads`` says: a width's k splits
# already train as one stack.  The README gives the measurements.
POOLED_KINDS = ("linreg-sample", "mlp-width")


@functools.cache
def _helpers(count: int, pid: int) -> ThreadPoolExecutor:
    """A pool of ``count`` threads kept for the life of process ``pid``
    (a forked child inherits the pool but not its threads).  A thread
    started anew for each sweep may find its predecessor's malloc arena
    not yet released and take a fresh one, so peak memory crept up from
    sweep to sweep; reused threads keep their arenas."""
    return ThreadPoolExecutor(max_workers=count,
                              thread_name_prefix="ddlab-cells")


def _pooled(run, cells: list, threads: int) -> list:
    """``[run(cell) for cell in cells]`` on ``threads`` threads, the
    calling thread among them, but never more threads than cells: a
    helper that can get no cell would only hold a malloc arena.

    Cells are handed out from both ends of the list (c0, c_last, c1,
    c_last-1, ...), so the costliest cells (the largest n, the widest
    width) run next to the cheapest rather than next to each other.  The
    caller drains the queue too instead of waiting on it: each thread's
    malloc arena keeps about the largest working set of the cells it ran,
    so ``threads`` workers beside an idle caller would hold one such set
    more than the caller beside ``threads - 1`` workers.
    """
    ends = zip(range(len(cells)), reversed(range(len(cells))))
    order = iter([i for pair in ends for i in pair][:len(cells)])
    handout = threading.Lock()
    outcomes = [None] * len(cells)

    def drain():
        while True:
            with handout:
                i = next(order, None)
            if i is None:
                return
            outcomes[i] = run(cells[i])

    pool = _helpers(threads - 1, os.getpid())
    helpers = [pool.submit(drain)
               for _ in range(min(threads, len(cells)) - 1)]
    drain()
    for helper in helpers:
        helper.result()
    return outcomes


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run every cell of a sweep, collecting results in canonical order.

    Base data and its hash are built per seed before any cell runs, so a
    bad data file still raises ``ConfigError``.  Cells of a kind in
    ``POOLED_KINDS`` run on ``cfg.threads`` threads (``_pooled``), the
    others one after another.  A cell that raises becomes its failed rows
    plus a ``failures`` entry.
    """
    seeds = [] if cfg.experiment == "linreg-sample" else cfg.seeds
    base = {seed: build_base_data(cfg, seed) for seed in seeds}
    hashes = {seed: dataset_hash(*data) for seed, data in base.items()}
    cells = list(RUNNERS[cfg.experiment](cfg, base))

    def guarded(cell):
        try:
            return cell.run(), None
        except Exception as exc:  # a failing cell must not stop the sweep
            return None, f"{type(exc).__name__}: {exc}"

    if cfg.threads == 1 or cfg.experiment not in POOLED_KINDS:
        outcomes = [guarded(cell) for cell in cells]
    else:
        outcomes = _pooled(guarded, cells, cfg.threads)
    result = SweepResult([], [], {}, [])
    for cell, (outcome, error) in zip(cells, outcomes):
        if cell.seed is not None:
            result.cell_hashes[cell.id] = hashes[cell.seed]
        if error is None:
            result.points.extend(outcome[0])
            result.trace_points.extend(outcome[1])
        else:
            result.failures.append((cell.id, error))
            result.points.extend(cell.failed_rows)
    if cfg.experiment == "linreg-sample":  # n-major cells, variant-major CSV
        result.points.sort(key=lambda p: cfg.variants.index(p.variant))
    return result


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
            key, len(values), lower_median(values),
            sum(values) / len(values), values[0], values[-1]))
    return rows


# -- output -----------------------------------------------------------------------


def _write_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary file next to ``path``, then rename it
    into place, so an interrupted write never leaves a truncated file
    under the final name.  (The data is not fsynced: this guards against
    interrupts, not power loss.)"""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_points_csv(path, rows, header: str = CSV_HEADER) -> None:
    lines = [header] + [row.csv_row() for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


@functools.cache
def _environment() -> dict:
    deps = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.25 has no mode argument
        pass
    probe = np.random.Generator(np.random.PCG64(2024)).random(1 << 16)
    return {
        "numpy": np.__version__,
        **{lib: {key: deps.get(lib, {}).get(key) for key in ("name", "version")}
           for lib in ("blas", "lapack")},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "log_fingerprint": hashlib.sha256(np.log(probe).tobytes()).hexdigest(),
    }


def run_environment() -> dict:
    """What produced a run's bytes: numpy and its BLAS/LAPACK, the
    ``*_NUM_THREADS`` variables, Python and the platform, plus
    ``log_fingerprint``, the SHA-256 of numpy's float64 ``log`` over
    2^16 uniforms from ``PCG64(2024)``.  Rng's Gaussians go through that
    ``log``, so two machines whose fingerprints differ may legitimately
    write different bytes.  Gathered once per process, on first use."""
    return copy.deepcopy(_environment())


def write_manifest(path, cfg: SweepConfig, result: SweepResult) -> None:
    manifest = {
        "tool_version": __version__,
        "experiment_id": cfg.experiment_id,
        "resolved_config": config_to_dict(cfg),
        "seeds": list(cfg.seeds),
        "threads": cfg.threads,
        "input_hashes": result.cell_hashes,
        "failed_cells": [cell for cell, _ in result.failures],
        "environment": run_environment(),
    }
    _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run_config(cfg: SweepConfig, out_dir, verbose: bool = False) -> SweepResult:
    """Run a sweep and write CSV outputs plus the manifest into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_sweep(cfg)
    suffix, header = (("_biasvar", BIASVAR_CSV_HEADER)
                      if cfg.experiment == "biasvar" else ("", CSV_HEADER))
    write_points_csv(out / f"{cfg.experiment_id}{suffix}.csv", result.points,
                     header)
    if result.trace_points:
        write_points_csv(out / f"{cfg.experiment_id}_traces.csv",
                         result.trace_points)
    write_manifest(out / f"{cfg.experiment_id}_manifest.json", cfg, result)
    if verbose:
        for cell, error in result.failures:
            print(f"cell {cell} failed: {error}", file=sys.stderr)
    return result
