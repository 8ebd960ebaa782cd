import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ddlab
from ddlab import write_idx
from ddlab.cli import main, run_gradcheck, run_lift_check
from ddlab.sweep import parse_config, run_config

SRC_ROOT = str(Path(ddlab.__file__).resolve().parents[1])


def run_cli(args, cwd=None):
    # Put the imported package's source root first on the child's path, so
    # the child runs this same ddlab from any cwd, installed or not.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "ddlab", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def one_error_line(proc) -> str:
    """The single ``error:`` line on stderr of a run that exited 2."""
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    return lines[0]


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def tiny_linreg_config():
    return {
        "experiment": "linreg-sample", "experiment_id": "tiny",
        "variants": ["standard"], "seeds": [0],
        "d": 3, "sigma": 0.1, "n_grid": [2, 5], "n_test": 10,
    }


def tiny_biasvar_config():
    return {
        "experiment": "biasvar", "experiment_id": "bv",
        "variants": ["standard"], "seeds": [1],
        "data": {"kind": "mixture", "n": 60, "d": 4, "classes": 3,
                 "separation": 4.0, "test_n": 20},
        "widths": [2],
        "splits": {"k": 2, "split_size": 30},
        "train": {"epochs": 2, "batch_size": 16,
                  "optimizer": {"lr": 0.003}},
    }


class TestSweepCommands:
    def test_linreg_sweep_runs_and_echoes_config(self, tmp_path):
        cfg = write_config(tmp_path, tiny_linreg_config())
        proc = run_cli(["sweep", "-c", str(cfg),
                        "--set", f"out_dir={tmp_path / 'out'}"])
        assert proc.returncode == 0, proc.stderr
        echoed = json.loads(proc.stdout)
        assert echoed["experiment"] == "linreg-sample"
        assert (tmp_path / "out" / "tiny.csv").exists()
        assert (tmp_path / "out" / "tiny_manifest.json").exists()

    def test_echo_reproduces_the_run(self, tmp_path):
        cfg = write_config(tmp_path, tiny_linreg_config())
        first = run_cli(["sweep", "-c", str(cfg),
                         "--set", f"out_dir={tmp_path / 'a'}"])
        echo = write_config(tmp_path, json.loads(first.stdout), "echo.json")
        second = run_cli(["sweep", "-c", str(echo),
                          "--set", f"out_dir={tmp_path / 'b'}"])
        assert second.returncode == 0
        a = (tmp_path / "a" / "tiny.csv").read_bytes()
        b = (tmp_path / "b" / "tiny.csv").read_bytes()
        assert a == b

    def test_set_override_shows_in_echo(self, tmp_path):
        cfg = write_config(tmp_path, tiny_linreg_config())
        proc = run_cli(["sweep", "-c", str(cfg), "--set", "sigma=0.2",
                        "--set", f"out_dir={tmp_path / 'out'}"])
        assert json.loads(proc.stdout)["sigma"] == 0.2

    def test_unknown_key_exit_code_2(self, tmp_path):
        # a misspelt key, a section the schema has no place for and the
        # loss and optimizer choices that are gone read alike, before
        # anything is written
        linreg, biasvar = tiny_linreg_config(), tiny_biasvar_config()
        linreg["sgima"] = 0.2
        biasvar["train"]["optimizer"]["schedule"] = {"factor": 0.5,
                                                     "every_k_epochs": 1}
        cases = [
            (write_config(tmp_path, linreg, "linreg.json"), [], "sgima"),
            (write_config(tmp_path, biasvar), [], "train.optimizer.schedule"),
            (write_config(tmp_path, tiny_biasvar_config(), "bv.json"),
             ["--set", "train.loss=ce"], "train.loss")]
        for override in ["train.loss=mse", "train.optimizer.kind=sgd",
                         "train.optimizer.momentum=0.9"]:
            cases.append(("desk_mixture.json", ["--set", override],
                          override.split("=")[0]))
        for cfg, sets, key in cases:
            proc = run_cli(["sweep", "-c", str(cfg), *sets,
                            "--set", f"out_dir={tmp_path / 'out'}"],
                           cwd=str(tmp_path))
            assert one_error_line(proc) == f"error: unknown key '{key}'"
            assert proc.stdout == ""
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "override", ["d=0", "d=-3", "n_test=0", "sigma=NaN", "sigma=-0.1",
                     pytest.param("sigma=1" + "0" * 400,
                                  id="sigma-past-float-range"),
                     # json.loads refuses ints of more than 4,300 digits
                     pytest.param("sigma=1" + "0" * 5000,
                                  id="sigma-past-int-digit-limit")])
    def test_bad_linreg_size_exit_code_2(self, tmp_path, override):
        cfg = write_config(tmp_path, tiny_linreg_config())
        proc = run_cli(["sweep", "-c", str(cfg), "--set", override,
                        "--set", f"out_dir={tmp_path / 'out'}"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr

    def test_int_past_digit_limit_in_config_file_exit_code_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(tiny_linreg_config(), sigma=0))
                        .replace('"sigma": 0', '"sigma": 1' + "0" * 5000))
        proc = run_cli(["sweep", "-c", str(path),
                        "--set", f"out_dir={tmp_path / 'out'}"])
        assert one_error_line(proc).startswith(f"error: invalid JSON in {path}")
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path):
        proc = run_cli(["sweep", "-c", str(tmp_path / "none.json")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_seed_outside_the_stream_range_exit_code_2(self, tmp_path):
        # Rng reduces seeds mod 2^64, so -1 would run seed 2^64 - 1's streams
        cfg = write_config(tmp_path, tiny_linreg_config())
        proc = run_cli(["sweep", "-c", str(cfg), "--set", "seeds=[-1]",
                        "--set", f"out_dir={tmp_path / 'out'}"])
        assert one_error_line(proc) == (
            "error: seeds must be a nonempty list of integers in [0, 2**64), "
            "got [-1]")
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    def test_failed_cell_exits_1_but_writes_outputs(self, tmp_path):
        raw = {
            "experiment": "mlp-width", "experiment_id": "boom",
            "variants": ["standard"], "seeds": [0],
            "data": {"kind": "mixture", "n": 40, "d": 4, "classes": 2,
                     "separation": 3.0, "test_n": 20},
            "widths": [2],
            "train": {"epochs": 8, "batch_size": 8,
                      "optimizer": {"lr": 1e308}},
        }
        cfg = write_config(tmp_path, raw)
        proc = run_cli(["sweep", "-c", str(cfg),
                        "--set", f"out_dir={tmp_path / 'out'}"])
        assert proc.returncode == 1
        csv = (tmp_path / "out" / "boom.csv").read_text()
        assert "failed" in csv

    def test_verbose_failures_go_to_stderr(self, tmp_path):
        raw = {
            "experiment": "mlp-width", "experiment_id": "boom",
            "variants": ["standard"], "seeds": [0],
            "data": {"kind": "mixture", "n": 40, "d": 4, "classes": 2,
                     "separation": 3.0, "test_n": 20},
            "widths": [2],
            "train": {"epochs": 2, "batch_size": 8,
                      "optimizer": {"lr": 1e308}},
        }
        cfg = write_config(tmp_path, raw)
        proc = run_cli(["sweep", "-c", str(cfg), "-v",
                        "--set", f"out_dir={tmp_path / 'out'}"])
        assert proc.returncode == 1
        echo = json.loads(proc.stdout)  # stdout holds the echo alone
        assert echo["experiment_id"] == "boom"
        assert "cell standard/w2/s0 failed: " in proc.stderr

    @staticmethod
    def _idx_config(tmp_path, counts, **data):
        """An mlp-width config over zero-pixel 2x2 IDX files of the given
        image counts, labelled 0, 1, 2, 0, ..."""
        data["kind"] = "idx"
        for name, count in counts.items():
            ip = tmp_path / f"{name}-idx3"
            lp = tmp_path / f"{name}-idx1"
            write_idx(ip, lp, np.zeros((count, 2, 2), dtype=np.uint8),
                      np.arange(count) % 3)
            data[name] = str(ip)
            data[name.replace("images", "labels")] = str(lp)
        return {
            "experiment": "mlp-width", "experiment_id": "idx",
            "variants": ["standard"], "seeds": [0], "data": data,
            "widths": [2],
            "train": {"epochs": 1, "batch_size": 8},
        }

    @staticmethod
    def _run_idx(tmp_path, raw):
        cfg = write_config(tmp_path, raw)
        return run_cli(["sweep", "-c", str(cfg),
                        "--set", f"out_dir={tmp_path / 'out'}"])

    def _idx_sweep(self, tmp_path, counts, **data):
        """Run an mlp-width sweep on zero-pixel IDX files of the given image
        counts."""
        return self._run_idx(tmp_path,
                             self._idx_config(tmp_path, counts, **data))

    @pytest.mark.parametrize("kind,key,value", [
        ("idx", "d", 9), ("mixture", "images", "nowhere")])
    def test_another_data_kinds_key_exit_code_2(self, tmp_path, kind, key,
                                                value):
        # nothing reads the key, yet the echo would show it
        if kind == "idx":
            raw = self._idx_config(tmp_path, {"images": 4, "test_images": 3})
        else:
            raw = dict(tiny_biasvar_config(), experiment="mlp-width")
            del raw["splits"]
        raw["data"][key] = value
        proc = self._run_idx(tmp_path, raw)
        assert one_error_line(proc) == f"error: {kind} data takes no '{key}'"
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("empty", ["images", "test_images"])
    def test_idx_pair_without_images_exit_code_2(self, tmp_path, empty):
        counts = {"images": 4, "test_images": 3}
        counts[empty] = 0
        proc = self._idx_sweep(tmp_path, counts)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert lines[0] == (
            f"error: data.{empty} must be images of at least one pixel "
            f"(image count, rows and cols >= 1), got "
            f"{str(tmp_path / f'{empty}-idx3')!r}")

    @pytest.mark.parametrize("test_n", [5, 3])
    def test_idx_test_n_past_the_test_file_exit_code_2(self, tmp_path,
                                                       test_n):
        proc = self._idx_sweep(tmp_path, {"images": 4, "test_images": 3},
                               test_n=test_n)
        if test_n == 3:  # exactly the file's rows: the sweep runs
            assert proc.returncode == 0, proc.stderr
            return
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert lines[0] == (f"error: data.test_n must be <= the 3 images in "
                            f"{tmp_path / 'test_images-idx3'}, got 5")

    def test_idx_n_past_the_train_file_exit_code_2(self, tmp_path):
        proc = self._idx_sweep(tmp_path, {"images": 4, "test_images": 3}, n=5)
        assert one_error_line(proc) == (
            f"error: data.n must be <= the 4 images in "
            f"{tmp_path / 'images-idx3'}, got 5")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("standardize", [False, True])
    def test_idx_test_images_of_another_size_exit_code_2(self, tmp_path,
                                                         standardize):
        # standardizing would broadcast the 9-pixel rows against 4 means
        raw = self._idx_config(tmp_path, {"images": 30, "test_images": 10},
                               standardize=standardize)
        data = raw["data"]
        write_idx(data["test_images"], data["test_labels"],
                  np.zeros((10, 3, 3), dtype=np.uint8), np.arange(10) % 3)
        line = one_error_line(self._run_idx(tmp_path, raw))
        assert line == (f"error: data.test_images must hold the 4 pixels per "
                        f"image of {data['images']}, got 9 in "
                        f"{data['test_images']}")
        assert not (tmp_path / "out").exists()  # found before it is made

    def test_idx_test_labels_of_another_class_count_exit_code_2(self,
                                                               tmp_path):
        raw = self._idx_config(tmp_path, {"images": 30, "test_images": 10})
        data = raw["data"]
        write_idx(data["test_images"], data["test_labels"],
                  np.zeros((10, 2, 2), dtype=np.uint8), [11] + [0] * 9)
        line = one_error_line(self._run_idx(tmp_path, raw))
        assert line == (f"error: {data['test_labels']}: label 11 is out of "
                        f"range for 10 classes")

    def test_idx_test_labels_within_the_train_classes_run(self, tmp_path):
        # test labels 0-2 are read with the 12 classes of train labels 0-11
        raw = self._idx_config(tmp_path, {"images": 30, "test_images": 10})
        data = raw["data"]
        write_idx(data["images"], data["labels"],
                  np.zeros((30, 2, 2), dtype=np.uint8), np.arange(30) % 12)
        proc = self._run_idx(tmp_path, raw)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("k", [5, 3])
    def test_idx_biasvar_splits_past_the_train_file_exit_code_2(self,
                                                               tmp_path, k):
        raw = self._idx_config(tmp_path, {"images": 30, "test_images": 10})
        raw.update(experiment="biasvar",
                   splits={"k": k, "split_size": 10})
        proc = self._run_idx(tmp_path, raw)
        if k == 3:  # exactly the file's rows: the sweep runs
            assert proc.returncode == 0, proc.stderr
            return
        line = one_error_line(proc)
        assert line == ("error: splits.k * splits.split_size must be <= the "
                        "30 train rows, got 50")
        assert not (tmp_path / "out" / "idx_biasvar.csv").exists()

    def test_diverging_biasvar_exits_1_without_traceback(self, tmp_path):
        cfg = write_config(tmp_path, tiny_biasvar_config())
        proc = run_cli(["sweep", "-c", str(cfg),
                        "--set", "train.optimizer.lr=1e308",
                        "--set", f"out_dir={tmp_path / 'out'}"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        # overflow is reported by the non-finite loss check, in training
        # and evaluation alike, not as numpy warnings
        assert "RuntimeWarning" not in proc.stderr, proc.stderr
        manifest = json.loads((tmp_path / "out" / "bv_manifest.json")
                              .read_text())
        assert manifest["failed_cells"] == ["standard/w2/s1"]
        assert (tmp_path / "out" / "bv_biasvar.csv").read_text() == (
            "config_id,width,k,risk,bias_kl,variance,bias_subtraction,"
            "identity_residual\n")

    def test_biasvar_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, tiny_biasvar_config())
        proc = run_cli(["sweep", "-c", str(cfg),
                        "--set", f"out_dir={tmp_path / 'out'}"])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "bv_biasvar.csv").exists()

    @pytest.mark.parametrize("override", [
        "seeds=[1,2]", 'variants=["concat"]', 'variants=["standard","concat"]'])
    def test_biasvar_extra_seeds_or_variants_exit_code_2(self, tmp_path,
                                                          override):
        cfg = write_config(tmp_path, tiny_biasvar_config())
        proc = run_cli(["sweep", "-c", str(cfg), "--set", override,
                        "--set", f"out_dir={tmp_path / 'out'}"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind,override", [
        ("biasvar", "data.n=0"), ("biasvar", "data.test_n=0"),
        ("biasvar", "splits.split_size=1000"),
        ("biasvar", "train.batch_size=0"), ("biasvar", "train.epochs=-1"),
        ("biasvar", "train.optimizer.lr=0"), ("biasvar", "widths=[true]"),
        # the id this case had when mlp-width had its own subcommand
        pytest.param("mlp-width", "data.test_n=0",
                     id="mlp-sweep-data.test_n=0"),
        ("biasvar", "data.classes=100"),  # n + test_n = 80 rows
        ("biasvar", "train.optimizer.beta2=1"),
        ("biasvar", "train.optimizer.weight_decay=-5"),
        ("biasvar", "train.optimizer.eps=0"),
        ("biasvar", "train.optimizer.beta1=1.5")])
    def test_bad_network_size_exit_code_2(self, tmp_path, kind, override):
        raw = tiny_biasvar_config()
        if kind == "mlp-width":
            raw["experiment"] = "mlp-width"
            del raw["splits"]
        cfg = write_config(tmp_path, raw)
        proc = run_cli(["sweep", "-c", str(cfg), "--set", override,
                        "--set", f"out_dir={tmp_path / 'out'}"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert not (tmp_path / "out").exists()

    def test_mlp_width_zero_epochs_exit_code_2(self, tmp_path):
        # an mlp-width cell reports its final epoch, so it needs one
        proc = run_cli(["sweep", "-c", "desk_mixture.json",
                        "--set", "train.epochs=0", "--set", "widths=[2]",
                        "--set", f"out_dir={tmp_path / 'out'}"],
                       cwd=str(tmp_path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert "train.epochs" in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override,key", [
        ("seeds=[0,0,1]", "seeds"), ("n_grid=[4,4]", "n_grid")])
    def test_repeated_entries_exit_code_2(self, tmp_path, override, key):
        cfg = write_config(tmp_path, tiny_linreg_config())
        proc = run_cli(["sweep", "-c", str(cfg), "--set", override,
                        "--set", f"out_dir={tmp_path / 'out'}"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {key} "), \
            proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind,override,key", [
        ("mlp-width", "sigma=0.1", "sigma"),
        ("mlp-width", 'splits={"k":2,"split_size":30}', "splits"),
        ("linreg-sample", "widths=[2]", "widths"),
        ("linreg-sample", 'train={"epochs":1}', "train")],
        # the ids these cases had when every kind had its own subcommand
        ids=['mlp-sweep-sigma=0.1-sigma',
             'mlp-sweep-splits={"k":2,"split_size":30}-splits',
             "linreg-sweep-widths=[2]-widths",
             'linreg-sweep-train={"epochs":1}-train'])
    def test_another_kinds_key_exit_code_2(self, tmp_path, kind, override,
                                           key):
        # a key the run never reads would show in the echo as if it did
        if kind == "linreg-sample":
            raw = tiny_linreg_config()
        else:
            raw = dict(tiny_biasvar_config(), experiment="mlp-width")
            del raw["splits"]
        cfg = write_config(tmp_path, raw)
        proc = run_cli(["sweep", "-c", str(cfg), "--set", override,
                        "--set", f"out_dir={tmp_path / 'out'}"])
        assert one_error_line(proc) == f"error: {kind} takes no '{key}'"
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment_id", [
        "sub/run", "../escaped", "a,b", ".hidden"])
    def test_experiment_id_must_be_a_plain_name(self, tmp_path,
                                                experiment_id):
        # the id is the output file stem and every CSV row's first cell
        raw = dict(tiny_linreg_config(), experiment_id=experiment_id)
        cfg = write_config(tmp_path, raw)
        proc = run_cli(["sweep", "-c", str(cfg),
                        "--set", f"out_dir={tmp_path / 'out'}"])
        assert one_error_line(proc).startswith("error: experiment_id ")
        assert proc.stdout == ""
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_epochwise_is_no_experiment(self, tmp_path):
        # epoch curves are an mlp-width sweep's _traces.csv
        raw = tiny_biasvar_config()
        raw["experiment"] = "epochwise"
        del raw["splits"]
        cfg = write_config(tmp_path, raw)
        proc = run_cli(["sweep", "-c", str(cfg)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: experiment must be one of linreg-sample, mlp-width, "
            "biasvar, got 'epochwise'"]
        # the subcommand is gone too: argparse refuses it
        assert run_cli(["epochwise", "-c", str(cfg)]).returncode == 2

    def test_oversize_concat_grid_exit_code_2(self, tmp_path):
        # the concat pair design at n = 4000, d = 30 needs 7.8 GB: the
        # config is refused before any cell runs, standard cells included
        proc = run_cli(["sweep", "-c", "fig1.json",
                        "--set", "n_grid=[4000]", "--set", "seeds=[0]",
                        "--set", "n_test=10",
                        "--set", f"out_dir={tmp_path / 'out'}"],
                       cwd=str(tmp_path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert "n = 4000" in lines[0]
        assert not (tmp_path / "out").exists()

    def test_bundled_preset_by_name(self, tmp_path):
        # fig1 preset resolves from package data; shrink it so it runs fast
        proc = run_cli(["sweep", "-c", "fig1.json",
                        "--set", "n_grid=[2,4]", "--set", "seeds=[0]",
                        "--set", "n_test=10",
                        "--set", 'variants=["standard"]',
                        "--set", f"out_dir={tmp_path / 'out'}"],
                       cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "fig1.csv").exists()

    @pytest.mark.parametrize("preset,overrides", [
        ("fig1.json", ["n_grid=[2,4]", "seeds=[0]", "n_test=10"]),
        ("desk_mixture.json", ["widths=[2,3]", "seeds=[0]", "train.epochs=2",
                               "data.n=40", "data.test_n=20"]),
        ("biasvar_mixture.json", ["widths=[2]", "train.epochs=2", "data.n=60",
                                  "data.test_n=20",
                                  'splits={"k":2,"split_size":30}'])])
    def test_sweep_writes_the_bytes_of_run_config(self, tmp_path, preset,
                                                   overrides):
        # --set items apply in order and the last one for a key wins
        sets = [*overrides, "threads=4", "threads=2",
                f"out_dir={tmp_path / 'cli'}"]
        proc = run_cli(["sweep", "-c", preset,
                        *(arg for item in sets for arg in ("--set", item))],
                       cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        echo = json.loads(proc.stdout)
        assert echo["threads"] == 2
        run_config(parse_config(echo), tmp_path / "lib")
        written = sorted(p.name for p in (tmp_path / "cli").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "lib").iterdir())
        for name in written:
            assert ((tmp_path / "cli" / name).read_bytes()
                    == (tmp_path / "lib" / name).read_bytes()), name


class TestUsageErrors:
    @pytest.mark.parametrize("args,message", [
        (["sweep"], "error: the following arguments are required: "
                    "-c/--config"),
        (["linreg-sweep", "-c", "fig1.json"],
         "error: argument command: invalid choice: 'linreg-sweep'"),
        (["sweep", "-c", "fig1.json", "--threads", "2"],
         "error: unrecognized arguments: --threads 2"),
        (["gradcheck", "--draws", "x"],
         "error: argument --draws: invalid int value: 'x'")])
    def test_usage_error_is_one_line(self, tmp_path, args, message):
        proc = run_cli(args, cwd=str(tmp_path))
        assert one_error_line(proc).startswith(message)
        assert proc.stdout == ""
        assert not any(tmp_path.iterdir())


class TestChecks:
    def test_gradcheck_passes(self):
        worst = run_gradcheck(draws=30, eps=1e-5, seed=0)
        assert worst < 1e-4

    def test_lift_check_passes(self):
        self_dev, pair_dev = run_lift_check(draws=100, seed=0)
        assert max(self_dev, pair_dev) < 1e-9

    @pytest.mark.parametrize("seed", [10, 22])
    def test_gradcheck_redraws_near_kinks(self, seed):
        # these seeds draw pre-activations within eps * |x| of a kink,
        # where a central difference straddles it
        proc = run_cli(["gradcheck", "--seed", str(seed)])
        assert proc.returncode == 0, proc.stdout

    def test_gradcheck_cli(self):
        proc = run_cli(["gradcheck", "--draws", "10"])
        assert proc.returncode == 0
        assert "pass" in proc.stdout

    def test_lift_check_cli(self):
        proc = run_cli(["lift-check", "--draws", "50"])
        assert proc.returncode == 0
        assert "pass" in proc.stdout

    @pytest.mark.parametrize("args,message", [
        (["gradcheck", "--eps", "0"], "--eps must be a finite number > 0, "
                                      "got 0.0"),
        (["gradcheck", "--eps", "nan"], "--eps must be a finite number > 0, "
                                        "got nan"),
        (["gradcheck", "--draws", "-3"], "--draws must be >= 1, got -3"),
        (["lift-check", "--draws", "0"], "--draws must be >= 1, got 0")])
    def test_arguments_that_check_nothing_exit_code_2(self, args, message):
        proc = run_cli(args)
        assert one_error_line(proc) == f"error: {message}"
        assert proc.stdout == ""


class TestIdxInspect:
    def test_inspect_conforming_file(self, tmp_path):
        ip = tmp_path / "img"
        lp = tmp_path / "lab"
        write_idx(ip, lp, np.zeros((3, 2, 4), dtype=np.uint8),
                  np.array([0, 1, 2]))
        proc = run_cli(["idx-inspect", str(ip)])
        assert proc.returncode == 0
        assert "magic=0x00000803" in proc.stdout
        assert "count=3" in proc.stdout and "rows=2" in proc.stdout

    def test_inspect_bad_file(self, tmp_path):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\x00\x00\x00\x07abcdef")
        proc = run_cli(["idx-inspect", str(bad)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")


class TestMainInProcess:
    def test_main_returns_int(self, tmp_path):
        cfg = write_config(tmp_path, tiny_linreg_config())
        code = main(["sweep", "-c", str(cfg),
                     "--set", f"out_dir={tmp_path / 'out'}"])
        assert code == 0
