"""Experiment orchestration: configs, cells, CSV and manifest output.

A sweep is described by a JSON config parsed strictly (unknown keys are
fatal) into the dataclasses below.  ``RUNNERS`` splits each experiment
kind into cells, the unit of work, and one loop, ``run_sweep``, runs the
cells of every kind.  With ``threads`` > 1, linreg-sample and mlp-width
cells run on a pool that hands the largest cells to the calling thread
and the smallest to its helpers; biasvar cells stay serial.  Results are
collected in canonical order, so the thread count never changes the
output bytes.  A cell that raises becomes its failed rows and a manifest
entry instead of aborting the sweep.

Seed discipline: each sweep seed s fans out through mix_seed(s, tag) into
one stream per purpose (data, label noise, init, training), so the base
dataset bytes for a given s are identical across variants and widths.
The per-cell data hash recorded in the manifest makes that pairing
checkable.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import platform
import re
import threading
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .augment import (MATERIALIZE_BUDGET, TEST_SETS, TRAIN_SOURCES,
                      VARIANT_CONCAT, VARIANT_STANDARD, VARIANTS,
                      materialized_bytes)
from .biasvar import CSV_HEADER as BIASVAR_CSV_HEADER
from .biasvar import estimate_bias_variance
from .datagen import (ClassificationDataset, apply_label_noise,
                      gen_mixture_classification)
from .idx import load_idx
from .linreg import linreg_sample_sweep
from .nnet import (TrainConfig, _finite, _int_at_least, _number, _require,
                   _require_counts, _require_structure, init_mlp, train)
from .records import CSV_HEADER, STATUS_FAILED, CurvePoint, lower_median
from .rng import Rng, mix_seed

# experiment kind -> the top-level keys it reads.  A kind needs each of its
# own keys (an empty list counts as missing) and takes no other kind's.
KIND_KEYS = {
    "linreg-sample": ("d", "sigma", "n_grid", "n_test"),
    "mlp-width": ("data", "widths", "train"),
    "biasvar": ("data", "widths", "train", "splits"),
}
EXPERIMENT_KINDS = tuple(KIND_KEYS)
# data kind -> the data keys it reads, under the same rule; kind,
# noise_fraction and standardize are every data kind's
DATA_KIND_KEYS = {
    "mixture": ("n", "d", "classes", "separation", "test_n"),
    "idx": ("images", "labels", "test_images", "test_labels", "n", "test_n"),
}
# kind -> the keys of its own it may leave out (idx then reads every row)
OPTIONAL_KEYS = {"idx": ("n", "test_n")}

# stream tags for mix_seed(seed, tag)
STREAM_DATA = 1
STREAM_NOISE = 2
STREAM_INIT = 3
STREAM_TRAIN = 4
STREAM_SPLITS = 5


class ConfigError(ValueError):
    pass


# -- config schema -------------------------------------------------------------
#
# A section checks the type and range of each value it holds (None is
# unset), lists and sections first, when it is built, parsed or not; which
# keys each kind reads, and the rules that hang on a kind, are
# SweepConfig's.  Each rule's message starts with the field's key; parsing
# only recurses into sections and prefixes the section path.


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

    def __post_init__(self):
        _require(isinstance(self.kind, str) and self.kind in DATA_KIND_KEYS,
                 "kind", " or ".join(DATA_KIND_KEYS), self.kind)
        _require_counts(self, [("n", 1), ("d", 1), ("test_n", 1),
                               ("classes", 2)])
        _require(self.separation is None or (_finite(self.separation)
                 and self.separation > 0), "separation",
                 "a finite number > 0", self.separation)
        _require(_number(self.noise_fraction)
                 and 0.0 <= self.noise_fraction <= 1.0, "noise_fraction",
                 "in [0, 1]", self.noise_fraction)
        for key in ("images", "labels", "test_images", "test_labels"):
            path = getattr(self, key)
            _require(path is None or isinstance(path, str), key, "a string",
                     path)
        _require(isinstance(self.standardize, bool), "standardize",
                 "a boolean", self.standardize)


@dataclass(frozen=True)
class SplitsSection:
    k: int = 5
    split_size: int = 500

    def __post_init__(self):
        _require_counts(self, [("k", 1), ("split_size", 1)])


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
    train: TrainConfig | None = None
    splits: SplitsSection | None = None

    def __post_init__(self):
        _require_structure(self)
        _require(self.experiment in EXPERIMENT_KINDS, "experiment",
                 f"one of {', '.join(EXPERIMENT_KINDS)}", self.experiment)
        # the id is a file name stem and every CSV row's first cell
        _require(isinstance(self.experiment_id, str)
                 and re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*",
                                  self.experiment_id), "experiment_id",
                 "letters, digits, '.', '_' or '-', led by a letter or digit",
                 self.experiment_id)
        # Rng reduces seeds mod 2^64: two outside [0, 2^64) could alias
        _require(self.seeds and all(_int_at_least(s, 0) and s < 2**64
                                    for s in self.seeds), "seeds",
                 "a nonempty list of integers in [0, 2**64)", self.seeds)
        _require(self.variants and all(v in VARIANTS for v in self.variants),
                 "variants", f"a nonempty list from {', '.join(VARIANTS)}",
                 self.variants)
        _require_counts(self, [("threads", 1), ("d", 1), ("n_test", 1)])
        _require(self.out_dir is None or isinstance(self.out_dir, str),
                 "out_dir", "a string", self.out_dir)
        _require(self.sigma is None or (_finite(self.sigma)
                 and self.sigma >= 0), "sigma",
                 "a finite number >= 0", self.sigma)
        _check_kind_keys(self.experiment, self, KIND_KEYS, self.experiment)
        for key in ("n_grid", "widths"):
            values = getattr(self, key)
            _require(values is None or all(_int_at_least(v, 1) for v in values),
                     key, "a list of integers >= 1", values)
        if self.n_grid and VARIANT_CONCAT in self.variants:
            # a concat cell builds its n^2-pair design for the train MSE
            n = max(self.n_grid)
            need = materialized_bytes(n, self.d)
            _require(need <= MATERIALIZE_BUDGET, "n_grid",
                     f"within the concat pair design's {MATERIALIZE_BUDGET}"
                     f"-byte budget ({need} bytes at n = {n})", n)
        data, splits = self.data, self.splits
        if data is not None:  # a network kind, whose keys are all set
            _check_kind_keys(f"{data.kind} data", data, DATA_KIND_KEYS,
                             data.kind)
            if data.kind == "idx":
                for key in ("images", "labels", "test_images", "test_labels"):
                    path = getattr(data, key)
                    _require(Path(path).exists(), f"data.{key}",
                             "an existing file", path)
            else:
                _require(data.classes <= data.n + data.test_n, "data.classes",
                         f"<= data.n + data.test_n = {data.n + data.test_n} "
                         f"(every class needs a row)", data.classes)
            _require(self.experiment == "biasvar" or self.train.epochs >= 1,
                     "train.epochs", ">= 1 for mlp-width (each cell reports "
                     "its final epoch)", self.train.epochs)
        if self.experiment == "biasvar":
            if data.kind == "mixture":
                need = splits.k * splits.split_size
                _require(need <= data.n, "splits.k * splits.split_size",
                         f"<= data.n = {data.n}", need)
            _require(self.variants == [VARIANT_STANDARD], "variants",
                     '["standard"] for biasvar, which runs on standard inputs',
                     self.variants)
            _require(len(self.seeds) == 1, "seeds", "a single seed for "
                     "biasvar, which trains one split ensemble", self.seeds)
        # a repeated seed or grid point would run, and count, twice
        for key in ("seeds", "variants", "widths", "n_grid"):
            values = getattr(self, key) or ()
            for i, value in enumerate(values):
                _require(value not in values[:i], key,
                         f"distinct ({value!r} repeats)", values)


def _check_kind_keys(owner: str, section, table: dict, kind: str) -> None:
    """``section`` sets each key ``table[kind]`` lists (an empty list counts
    as unset), bar its ``OPTIONAL_KEYS``, and then no other kind's key."""
    own = table[kind]
    for key in own:
        if (key not in OPTIONAL_KEYS.get(kind, ())
                and getattr(section, key) in (None, [])):
            raise ValueError(f"{owner} needs '{key}'")
    for key in dict.fromkeys(itertools.chain(*table.values())):
        if key not in own and getattr(section, key) is not None:
            raise ValueError(f"{owner} takes no '{key}'")


def _coerce(value, annotation, path):
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        annotation = typing.get_args(annotation)[0]  # the X of X | None
    if isinstance(value, list):
        return list(value)
    if dataclasses.is_dataclass(annotation) and isinstance(value, dict):
        return _parse_dataclass(annotation, value, path)
    # a float field's int turns float if it can; one past float range is
    # left as it is, for the section to refuse
    return float(value) if annotation is float and _finite(value) else value


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
        # a section's own check, whose message starts with its key
        raise ConfigError(f"{prefix}.{exc}" if prefix else str(exc)) from None


def parse_config(raw: dict) -> SweepConfig:
    return _parse_dataclass(SweepConfig, raw)


def config_to_dict(cfg: SweepConfig) -> dict:
    """Round-trippable plain-dict form (None-valued keys dropped)."""

    def prune(obj):
        if isinstance(obj, dict):
            return {k: prune(v) for k, v in obj.items() if v is not None}
        return obj

    return prune(dataclasses.asdict(cfg))


# -- dataset assembly -----------------------------------------------------------


def _standardize(train_x, test_x):
    mean = train_x.mean(axis=0)
    std = train_x.std(axis=0)
    # centre a constant column but do not scale it: its std is rounding noise
    std[(train_x == train_x[0]).all(axis=0)] = 1.0
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
        test_ds = load_idx(data.test_images, data.test_labels,
                           class_count=train_ds.class_count)
        for key, ds in (("images", train_ds), ("test_images", test_ds)):
            if ds.features.size == 0:
                raise ConfigError(
                    f"data.{key} must be images of at least one pixel (image "
                    f"count, rows and cols >= 1), got {getattr(data, key)!r}")
        # a model fitted on the train files must read the test files
        if train_ds.dim != test_ds.dim:
            raise ConfigError(
                f"data.test_images must hold the {train_ds.dim} pixels per "
                f"image of {data.images}, got {test_ds.dim} in "
                f"{data.test_images}")
        rng = Rng(mix_seed(seed, STREAM_DATA))
        for key, path, ds in (("n", data.images, train_ds),
                              ("test_n", data.test_images, test_ds)):
            size = getattr(data, key)
            if size is not None and size > ds.n:
                raise ConfigError(f"data.{key} must be <= the {ds.n} images "
                                  f"in {path}, got {size}")
        if data.n is not None:
            train_ds = train_ds.take(rng.permutation(train_ds.n)[:data.n])
        if data.test_n is not None and data.test_n < test_ds.n:
            test_ds = test_ds.take(rng.permutation(test_ds.n)[:data.test_n])
    if data.standardize:
        train_x, test_x = _standardize(train_ds.features, test_ds.features)
        train_ds = ClassificationDataset(train_x, train_ds.targets)
        test_ds = ClassificationDataset(test_x, test_ds.targets)
    if data.noise_fraction > 0.0:
        train_ds = apply_label_noise(train_ds, data.noise_fraction,
                                     Rng(mix_seed(seed, STREAM_NOISE)))
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
    points: list  # CurvePoints; BiasVarianceRows for biasvar
    trace_points: list
    cell_hashes: dict
    failures: list  # (cell id, error message)


class Cell(typing.NamedTuple):
    """``run() -> (points, trace points)``; if it raises, the sweep writes
    ``failed_rows`` instead.  ``seed`` keys the cell's input hash; linreg
    cells, which have no base data, have None.  ``size`` (n for a linreg
    cell, the width for a network cell) orders the pool's handout."""

    id: str
    seed: int | None
    size: int
    failed_rows: list
    run: typing.Callable


def _network_cell(cfg: SweepConfig, data, variant: str, width: int, seed: int):
    """Train one (variant, width, seed) cell on the variant's train source
    and test set: its final epoch on the hidden_units axis, with every
    epoch as trace points."""
    train_ds, test_ds = data
    source = TRAIN_SOURCES[variant](train_ds)
    test_ds = TEST_SETS[variant](test_ds)
    model = init_mlp(test_ds.dim, width, train_ds.class_count,
                     Rng(mix_seed(seed, STREAM_INIT)))
    params = model.param_count
    ratio = params / train_ds.n  # denominator: pre-concatenation sample count
    _, records = train(model, source, cfg.train,
                       mix_seed(seed, STREAM_TRAIN), test_set=test_ds)
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
        cfg.train, base_seed=mix_seed(seed, STREAM_SPLITS),
        config_id=cfg.experiment_id), []


def linreg_cells(cfg: SweepConfig, base: dict):
    """One cell per n, fitting every variant on each seed's draw.  A failed
    n writes a failed row per (variant, seed) and no median.  The draws
    are a pure function of (seed, n): no base data, no input hash."""
    for n in cfg.n_grid:
        failed = [CurvePoint(cfg.experiment_id, variant, "samples", float(n),
                             seed=seed, status=STATUS_FAILED)
                  for variant in cfg.variants for seed in cfg.seeds]
        yield Cell(f"n{n}", None, n, failed,
                   functools.partial(_linreg_cell, cfg, n))


def network_cells(cfg: SweepConfig, base: dict):
    """Mlp-width: one cell per (variant, width, seed), variant-major,
    trained on its seed's base data."""
    for variant, width, seed in itertools.product(cfg.variants, cfg.widths,
                                                  cfg.seeds):
        failed = CurvePoint(cfg.experiment_id, variant, "hidden_units",
                            float(width), seed=seed, status=STATUS_FAILED)
        yield Cell(f"{variant}/w{width}/s{seed}", seed, width, [failed],
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
        raise ConfigError(f"splits.k * splits.split_size must be <= the "
                          f"{rows} train rows, got {need}")
    for width in cfg.widths:
        yield Cell(f"{variant}/w{width}/s{seed}", seed, width, [],
                   functools.partial(_biasvar_cell, cfg, base[seed], width,
                                     seed))


RUNNERS = {
    "linreg-sample": linreg_cells,
    "mlp-width": network_cells,
    "biasvar": biasvar_cells,
}
# Biasvar cells run serially whatever ``threads`` says: a width's k splits
# already train as one stack, and a pool made biasvar_mixture slower and
# larger (README, under the ``threads`` key).
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

    Each thread's malloc arena keeps about the largest working set of the
    cells it ran.  So the cells wait in one deque sorted by ``size``: the
    caller takes them from the large end and the helpers from the small
    end until it is empty.  Only the caller's arena then holds the
    largest cells' working set (the widest width's test-set evaluation,
    the largest n's pair design); the helpers' stay at the size of the
    small and middle cells.  Where the two ends meet depends on how long
    the cells take, so the threads finish together.  Outcomes land at
    the cells' own indices, whatever thread ran them.
    """
    queue = collections.deque(sorted(range(len(cells)),
                                     key=lambda i: cells[i].size))
    handout = threading.Lock()
    outcomes = [None] * len(cells)

    def drain(take):
        while True:
            with handout:
                if not queue:
                    return
                i = take()
            outcomes[i] = run(cells[i])

    pool = _helpers(threads - 1, os.getpid())
    helpers = [pool.submit(drain, queue.popleft)
               for _ in range(min(threads, len(cells)) - 1)]
    drain(queue.pop)
    for helper in helpers:
        helper.result()
    return outcomes


def _plan(cfg: SweepConfig):
    """(cells, input hash per seed).  Base data and its hash are built per
    seed here, so a bad data file raises ``ConfigError`` before any cell
    runs or any output is made."""
    seeds = [] if cfg.experiment == "linreg-sample" else cfg.seeds
    base = {seed: build_base_data(cfg, seed) for seed in seeds}
    hashes = {seed: dataset_hash(*data) for seed, data in base.items()}
    return list(RUNNERS[cfg.experiment](cfg, base)), hashes


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run every cell of a sweep, collecting results in canonical order."""
    return _run_cells(cfg, *_plan(cfg))


def _run_cells(cfg: SweepConfig, cells: list, hashes: dict) -> SweepResult:
    """Cells of a kind in ``POOLED_KINDS`` run on ``cfg.threads`` threads
    (``_pooled``), the others one after another.  A cell that raises
    becomes its failed rows plus a ``failures`` entry."""

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


def run_config(cfg: SweepConfig, out_dir) -> SweepResult:
    """Run a sweep and write CSV outputs plus the manifest into out_dir."""
    cells, hashes = _plan(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = _run_cells(cfg, cells, hashes)
    suffix, header = (("_biasvar", BIASVAR_CSV_HEADER)
                      if cfg.experiment == "biasvar" else ("", CSV_HEADER))
    write_points_csv(out / f"{cfg.experiment_id}{suffix}.csv", result.points,
                     header)
    if result.trace_points:
        write_points_csv(out / f"{cfg.experiment_id}_traces.csv",
                         result.trace_points)
    write_manifest(out / f"{cfg.experiment_id}_manifest.json", cfg, result)
    return result
