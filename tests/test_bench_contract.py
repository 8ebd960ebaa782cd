"""The library's side of the benchmark contract.

``perfbench/`` drives ddlab from outside: its tracer wraps ``Rng``
methods and the public functions of every layer by name, and its
workloads name the spans each metric reads.  Deleting or renaming one of
those functions breaks every traced benchmark run, but nothing under
``tests/`` would notice; these tests read the two benchmark modules
(without changing them) and check that everything they name exists.
A builder called through a name the tracer does not rebind breaks the
run too, so a tiny traced sweep of each kind must load what its workload
lists as loaded.
"""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ddlab
from ddlab import ClassificationDataset, ConcatView, one_hot, parse_config
from ddlab.augment import materialized_bytes
from ddlab.rng import Rng

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# spans that perfbench/run.py's derived metrics read: sample_pairs'
# useful ratio, the discarded-gradient ratio and cell parallelism
DERIVED_SPANS = ("augment.sample_pairs", "rng.integers",
                 "nnet.loss_and_grad", "nnet.eval_loss", "nnet.train",
                 "linreg.linreg_sample_sweep")


def _load(name):
    if not (PERFBENCH / f"{name}.py").is_file():
        pytest.skip("perfbench/ is not in this checkout")
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _span_names(tracer, workloads):
    """Every "<layer>.<function>" span a benchmark metric reads."""
    loaded = {m for names in workloads.LOADED.values() for m in names}
    spans_loaded = loaded - set(workloads.DERIVED_METRICS)
    assert spans_loaded <= set(workloads.SPAN_METRICS)
    spans = {m.rsplit(".", 1)[0] for m in workloads.SPAN_METRICS}
    return sorted(spans | set(DERIVED_SPANS) | set(tracer.AMOUNTS)
                  | {tracer.ROOT_SPAN})


def test_every_traced_rng_method_exists(tracer):
    for method in tracer.RNG_METHODS:
        assert method in Rng.__dict__, f"Rng.{method}"


def test_every_measured_span_is_a_public_function(tracer, workloads):
    for span in _span_names(tracer, workloads):
        layer, name = span.split(".")
        assert layer in tracer.LAYERS, span
        if layer == "rng":
            assert name in tracer.RNG_METHODS, span
            continue
        module = importlib.import_module(f"ddlab.{layer}")
        obj = getattr(module, name, None)
        assert isinstance(obj, types.FunctionType), span
        assert obj.__module__ == module.__name__, span
        assert not name.startswith("_"), span


def test_every_workload_config_parses_to_what_run_reads(workloads):
    # run.py reads cfg.data and cfg.seeds of every parsed workload config,
    # and the tracer and its self-test rebind each runner in sweep.RUNNERS
    from ddlab import sweep
    for name in workloads.WORKLOADS:
        raw = workloads.workload_config(
            name, workloads.DEFAULT_SEED,
            Path(ddlab.__file__).parent / "presets")
        cfg = parse_config(raw)
        assert cfg.seeds == raw["seeds"], name
        assert (cfg.data is None) == (cfg.experiment == "linreg-sample"), name
    assert set(sweep.RUNNERS) == set(sweep.EXPERIMENT_KINDS)
    for runner in sweep.RUNNERS.values():
        assert isinstance(runner, types.FunctionType)


def test_materialize_amount_reads_the_view(tracer):
    base = ClassificationDataset(np.zeros((3, 2)), one_hot([0, 1, 2], 3))
    view = ConcatView(base)
    want = materialized_bytes(3, 2, 3)
    assert tracer._materialize_bytes((view,), {}) == want


def _bindings():
    """Every function a ddlab module holds, globally or in a dict."""
    found = {}
    for modname, module in list(sys.modules.items()):
        if modname != "ddlab" and not modname.startswith("ddlab."):
            continue
        for name, obj in vars(module).items():
            if isinstance(obj, types.FunctionType):
                found[modname, name] = obj
            elif isinstance(obj, dict) and name != "__builtins__":
                for key, value in obj.items():
                    if isinstance(value, types.FunctionType):
                        found[modname, name, key] = value
    found.update((("Rng", k), v) for k, v in Rng.__dict__.items())
    return found


def test_tracer_installs_and_uninstalls_cleanly(tracer, tmp_path):
    from ddlab import sweep
    before = _bindings()
    raw = {
        "experiment": "mlp-width", "experiment_id": "contract",
        "variants": ["standard", "concat"], "seeds": [0], "widths": [2],
        "data": {"kind": "mixture", "n": 12, "d": 3, "classes": 2,
                 "separation": 3.0, "test_n": 6},
        "train": {"epochs": 1, "batch_size": 4},
    }
    with tracer.Tracer() as t:
        assert sweep.run_config is not before["ddlab.sweep", "run_config"]
        assert ddlab.forward is not before["ddlab", "forward"]
        sweep.run_config(parse_config(raw), tmp_path)
    assert _bindings() == before
    names = {span[3] for span in t.spans}
    for span in ("sweep.run_config", "nnet.train", "augment.sample_pairs",
                 "rng.integers", "nnet.loss_and_grad", "nnet.forward"):
        assert span in names, span


# one tiny sweep per experiment kind: its workload's config (preset,
# variants, loss) over a few rows, widths and epochs
TINY_SWEEPS = {
    "linreg-sample": ("linreg_fig1", {"n_grid": [3, 40], "n_test": 50}),
    "mlp-width": ("mlp_width_mixture", {
        "data": {"n": 24, "test_n": 12}, "widths": [2, 3],
        "train": {"epochs": 2}}),
    "biasvar": ("biasvar_mixture", {
        "data": {"n": 60, "test_n": 20}, "widths": [2],
        "splits": {"k": 2, "split_size": 30}, "train": {"epochs": 2}}),
}


def _merge(raw, override):
    for key, value in override.items():
        if isinstance(value, dict):
            _merge(raw[key], value)
        else:
            raw[key] = value


def _loaded_readings(tracer, workloads, spans, metrics):
    """metric -> traced value for each loaded span metric and the two
    pair and gradient ratios; whole-run readings (CSV rows, parallelism,
    CPU time) are left out."""
    stats = tracer.summarize(spans)
    readings = {}
    for metric in metrics:
        if metric == "nnet.discarded_grad_ratio":
            readings[metric] = tracer.count_under(
                spans, "nnet.loss_and_grad", "nnet.eval_loss")
        elif metric == "augment.sample_pairs.useful_ratio":
            drawn = tracer.count_under(spans, "rng.integers",
                                       "augment.sample_pairs", "amount")
            readings[metric] = (stats["augment.sample_pairs"].amount / drawn
                                if drawn else 0)
        elif metric in workloads.SPAN_METRICS:
            span, field = metric.rsplit(".", 1)
            entry = stats[span]
            readings[metric] = (getattr(entry, field)
                                if field in ("calls", "self_s", "total_s")
                                else entry.amount)
    return readings


@pytest.mark.parametrize("kind", sorted(TINY_SWEEPS))
def test_tiny_traced_sweep_loads_its_workload(tracer, workloads, tmp_path,
                                              kind):
    from ddlab import sweep
    name, override = TINY_SWEEPS[kind]
    raw = workloads.workload_config(
        name, workloads.DEFAULT_SEED, Path(ddlab.__file__).parent / "presets")
    assert raw["experiment"] == kind
    _merge(raw, override)
    with tracer.Tracer() as t:
        sweep.run_config(parse_config(raw), tmp_path)
    readings = _loaded_readings(tracer, workloads, t.spans,
                                workloads.LOADED[name])
    assert [m for m, value in readings.items() if value == 0] == []
