"""Self-tests of the benchmark.

    python3 -m pytest perfbench

The traced-run tests execute each workload sweep twice (untraced and
traced), about half a minute in all.
"""

import csv
import io
import json
import shutil
import subprocess
import sys

import pytest

import run  # pins the BLAS thread variables before numpy loads
import calibrate
import workloads
from checks import REFERENCE_DIR, check_file
from tracer import Tracer

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_reported_metrics():
    spec = workloads.per_layer_spec()
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(spec)
    for entry in BENCHMARK["per_layer"]:
        assert (entry["unit"], entry["better"]) == spec[entry["name"]]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for name, loaded in workloads.LOADED.items():
        assert set(loaded) <= set(spec), name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_matches_untraced_and_loads_its_layers(name):
    runner, metrics, info = run.run_traced(name, workloads.DEFAULT_SEED, 0)
    # byte-identical CSVs from the untraced and the traced sweep
    assert runner.identical
    assert runner.check.failed == 0 and runner.check.attempted > 0
    assert info["reference_bytes_equal"]
    assert list(metrics) == list(workloads.per_layer_spec())
    # a zero here means a call site the tracer did not wrap
    assert info["loaded_but_zero"] == []


def test_end_to_end_run_prints_every_end_to_end_metric():
    runner, metrics, info = run.run_end_to_end("biasvar_mixture", 1, 0)
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for entry in BENCHMARK["end_to_end"]:
        assert metrics[entry["name"]][1] == entry["unit"]
        assert metrics[entry["name"]][0] > 0
    assert metrics["ok_frac"][0] == 1.0
    assert len(info["samples"]["setup_s"]) == run.SETUP_PROBES
    assert not info["reference_checked"]


def test_rescaled_time_cancels_machine_speed():
    base = calibrate.rescaled([2.0, 3.0], [0.5, 0.7, 0.6])
    assert base == pytest.approx(2.5 * calibrate.NOMINAL_S / 0.6)
    # a machine twice as slow doubles both sweeps and kernels
    assert calibrate.rescaled([4.0, 6.0], [1.0, 1.4, 1.2]) == pytest.approx(base)


def test_tracer_restores_every_binding():
    import ddlab
    from ddlab import nnet, rng, sweep
    before = (sweep.train, nnet.train, nnet.sample_pairs, ddlab.forward,
              rng.Rng.standard_normal, dict(sweep.RUNNERS))
    with Tracer():
        assert sweep.train is not before[0]
        assert sweep.train is nnet.train  # one wrapper per function
        assert sweep.RUNNERS["mlp-width"] is not before[5]["mlp-width"]
    after = (sweep.train, nnet.train, nnet.sample_pairs, ddlab.forward,
             rng.Rng.standard_normal, dict(sweep.RUNNERS))
    assert after == before


def _perturbed(tmp_path, name, edit):
    """Copy of a reference CSV with edit(rows) applied to its data rows."""
    with open(REFERENCE_DIR / name, newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    edit(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    path = tmp_path / name
    path.write_text(buf.getvalue())
    return path


def _scale(column, row_index, factor):
    def edit(rows):
        value = float(rows[row_index][column]) * factor
        rows[row_index][column] = repr(value)
    return edit


MLP = "mlp_width_mixture.csv"
BIASVAR = "biasvar_mixture_biasvar.csv"


@pytest.mark.parametrize("name, edit, failed", [
    (MLP, lambda rows: None, 0),
    (MLP, _scale("test_loss", 3, 1.0 + 4e-16), 0),  # last-digit change
    (MLP, _scale("test_loss", 3, 1.0 + 1e-4), 1),
    (MLP, _scale("test_error", 5, 1.5), 1),
    (MLP, lambda rows: rows[2].update(train_loss="nan"), 1),
    (MLP, lambda rows: rows[2].update(train_loss="-0.5"), 1),
    (MLP, lambda rows: rows[4].update(status="failed"), 1),
    (MLP, lambda rows: rows.pop(), 1),
    (BIASVAR, _scale("bias_kl", 1, 1.0 + 1e-6), 1),
])
def test_perturbed_csv_counts_as_failed(tmp_path, name, edit, failed):
    path = _perturbed(tmp_path, name, edit)
    expected = sum(1 for _ in open(REFERENCE_DIR / name)) - 1
    with_reference = check_file(path, expected, REFERENCE_DIR / name)
    assert with_reference.attempted == expected
    assert with_reference.failed == failed


def test_invariants_alone_catch_broken_rows(tmp_path):
    path = _perturbed(tmp_path, BIASVAR, _scale("variance", 0, 2.0))
    assert check_file(path, 5, None).failed == 1  # risk != bias + variance
    path = _perturbed(tmp_path, MLP, _scale("test_loss", 0, 1.01))
    assert check_file(path, 18, None).failed == 0  # plausible on another seed


def test_missing_sources_exit_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(run.BENCH_DIR, bench,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "linreg_fig1",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
