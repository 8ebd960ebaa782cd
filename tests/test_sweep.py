import dataclasses
import hashlib
import json

import numpy as np
import pytest

from ddlab import ConfigError, CurvePoint, parse_config, run_config, summarize
from ddlab.records import CSV_HEADER
from ddlab.sweep import (build_base_data, config_to_dict, dataset_hash,
                         run_mlp_width_sweep, validate_config)


LINREG_BOTH_VARIANTS = {
    "experiment": "linreg-sample", "experiment_id": "lin",
    "variants": ["standard", "concat"], "seeds": [0, 1],
    "d": 4, "sigma": 0.1, "n_grid": [3, 6, 9], "n_test": 40,
}
LINREG_BOTH_VARIANTS_SHA256 = (
    "c72a78d9aee3cf1259ba998672b826b1610cd83241128ff817b6fd6055a148c3")

# Tiny configs of the training kinds, together covering every optimizer
# branch (adam, momentum with weight decay, sgd) and every output file.
# Each maps output file name -> SHA-256 of its bytes.
_TINY_MIXTURE = {"kind": "mixture", "n": 60, "d": 5, "classes": 3,
                 "separation": 4.0, "test_n": 30, "noise_fraction": 0.1}
TRAINING_GOLDEN = {
    "mlp-width-ce-adam": ({
        "experiment": "mlp-width", "experiment_id": "ce_adam",
        "variants": ["standard", "concat"], "seeds": [0],
        "data": _TINY_MIXTURE, "widths": [2, 4],
        "train": {"loss": "ce", "epochs": 3, "batch_size": 16,
                  "optimizer": {"kind": "adam", "lr": 0.003}},
    }, {
        "ce_adam.csv":
            "7eb76a71ec32d5603610f230a0cc71cfa651f04e3809f48c763dd2f84458c4e9",
        "ce_adam_traces.csv":
            "3f5c3b6e17f4177bcd6e54811f71dce23aa494da3ecbd42ea787ed76b33079d4",
    }),
    "mlp-width-bce-momentum-wd": ({
        "experiment": "mlp-width", "experiment_id": "bce_momentum",
        "variants": ["standard", "concat"], "seeds": [1],
        "data": _TINY_MIXTURE, "widths": [3],
        "train": {"loss": "bce", "epochs": 3, "batch_size": 16,
                  "optimizer": {"kind": "momentum", "lr": 0.05,
                                "momentum": 0.9, "weight_decay": 0.01}},
    }, {
        "bce_momentum.csv":
            "a1b096471ab955d5778e36428f3406200fa24c40bb2de6b74aabf9840370791e",
        "bce_momentum_traces.csv":
            "28b4979b3d7adb87cd96abb15883dfc3a17b8b7f46e29a2d6b01fa2a5b061b38",
    }),
    "epochwise-sgd": ({
        "experiment": "epochwise", "experiment_id": "sgd",
        "variants": ["standard", "concat"], "seeds": [2],
        "data": _TINY_MIXTURE, "widths": [4],
        "train": {"loss": "ce", "epochs": 3, "batch_size": 16,
                  "optimizer": {"kind": "sgd", "lr": 0.1}},
    }, {
        "sgd.csv":
            "6aa47789cae3be9e428def632697a6e5bf2a2f9753338fbcc5cffa69a8cc5b10",
    }),
    "biasvar": ({
        "experiment": "biasvar", "experiment_id": "bv",
        "variants": ["standard"], "seeds": [3],
        "data": {"kind": "mixture", "n": 90, "d": 4, "classes": 3,
                 "separation": 4.0, "test_n": 30},
        "widths": [2, 4], "splits": {"k": 3, "split_size": 30},
        "train": {"loss": "ce", "epochs": 2, "batch_size": 16,
                  "optimizer": {"kind": "adam", "lr": 0.003}},
    }, {
        "bv_biasvar.csv":
            "67eabe98e4a5b7cf0211d853c2c2e5f63825d9a36d432b36170079860c45c23e",
    }),
}


def mixture_config(**overrides):
    raw = {
        "experiment": "mlp-width",
        "experiment_id": "t",
        "variants": ["standard", "concat"],
        "seeds": [0],
        "data": {"kind": "mixture", "n": 60, "d": 5, "classes": 3,
                 "separation": 4.0, "test_n": 30, "noise_fraction": 0.1},
        "widths": [4],
        "train": {"loss": "ce", "epochs": 2, "batch_size": 16,
                  "optimizer": {"kind": "adam", "lr": 0.003}},
    }
    raw.update(overrides)
    return raw


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'sgima'"):
            parse_config(mixture_config(sgima=0.2))

    def test_unknown_nested_key(self):
        raw = mixture_config()
        raw["train"]["epoch"] = 3
        with pytest.raises(ConfigError, match="unknown key 'train.epoch'"):
            parse_config(raw)

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(mixture_config(seeds=3))

    def test_missing_required_key(self):
        raw = mixture_config()
        del raw["experiment_id"]
        with pytest.raises(ConfigError, match="experiment_id"):
            parse_config(raw)

    def test_round_trip_through_dict(self):
        cfg = parse_config(mixture_config())
        again = parse_config(config_to_dict(cfg))
        assert again == cfg

    def test_validation_rules(self):
        with pytest.raises(ConfigError):
            parse_config(mixture_config(experiment="nope"))
        with pytest.raises(ConfigError):
            parse_config(mixture_config(variants=["sideways"]))
        with pytest.raises(ConfigError):
            parse_config(mixture_config(widths=[]))
        raw = mixture_config()
        raw["data"]["kind"] = "idx"
        with pytest.raises(ConfigError, match="idx data needs"):
            parse_config(raw)

    @pytest.mark.parametrize("key,value", [
        ("d", 0), ("d", -3), ("d", 2.5), ("d", True), ("n_test", 0),
        ("n_test", 40.0), ("sigma", -0.1), ("sigma", float("nan")),
        ("sigma", float("inf"))])
    def test_linreg_section_rejects_bad_values(self, key, value):
        # validate_config also guards configs built without parse_config,
        # where no type coercion has run
        cfg = dataclasses.replace(parse_config(LINREG_BOTH_VARIANTS),
                                  **{key: value})
        with pytest.raises(ConfigError, match=f"{key} must be a"):
            validate_config(cfg)

    @pytest.mark.parametrize("key,value", [
        ("seeds", [0, 1]), ("variants", ["concat"]),
        ("variants", ["standard", "concat"]),
        ("variants", ["standard", "standard"])])
    def test_biasvar_needs_one_seed_and_standard_variant(self, key, value):
        # run_biasvar trains one ensemble on standard inputs; anything else
        # would silently run a different experiment than the one asked for
        raw = dict(TRAINING_GOLDEN["biasvar"][0], **{key: value})
        with pytest.raises(ConfigError, match="biasvar"):
            parse_config(raw)

    def test_missing_idx_file_is_config_error(self):
        raw = mixture_config()
        raw["data"] = {"kind": "idx", "images": "no/such/file",
                       "labels": "x", "test_images": "y", "test_labels": "z"}
        with pytest.raises(ConfigError, match="does not exist|no/such/file"):
            parse_config(raw)


class TestSummarize:
    def mkpoints(self, values, variant="standard"):
        return [CurvePoint("e", variant, "samples", 1.0, test_loss=v, seed=i)
                for i, v in enumerate(values)]

    def test_single_row(self):
        rows = summarize(self.mkpoints([2.5]), ["variant"])
        assert rows[0].median == rows[0].mean == rows[0].min == rows[0].max \
            == 2.5

    def test_lower_middle_median(self):
        rows = summarize(self.mkpoints([4.0, 2.0, 3.0, 1.0]), ["variant"])
        assert rows[0].median == 2.0

    def test_group_count(self):
        points = (self.mkpoints([1.0, 2.0], "standard")
                  + self.mkpoints([3.0], "concat"))
        rows = summarize(points, ["variant"])
        assert len(rows) == 2
        assert [r.key for r in rows] == [("concat",), ("standard",)]

    def test_none_values_excluded(self):
        points = self.mkpoints([1.0, 5.0])
        points.append(CurvePoint("e", "standard", "samples", 1.0,
                                 status="failed"))
        rows = summarize(points, ["variant"])
        assert rows[0].count == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([], ["variant"])


class TestWidthSweep:
    def test_point_counting(self):
        cfg = parse_config(mixture_config(
            widths=[1], seeds=[0],
            train={"loss": "ce", "epochs": 1, "batch_size": 16,
                   "optimizer": {"kind": "adam", "lr": 0.003}}))
        result = run_mlp_width_sweep(cfg)
        assert len(result.points) == 2  # one per variant
        variants = {p.variant for p in result.points}
        assert variants == {"standard", "concat"}

    def test_param_axis_conversion(self):
        # width h maps to 795h + 10 params for 784-wide inputs and
        # 1579h + 10 for the 1568-wide concatenated inputs
        from ddlab.nnet import mlp_param_count
        for h in (1, 5, 12):
            assert mlp_param_count(784, h, 10) == 795 * h + 10
            assert mlp_param_count(1568, h, 10) == 1579 * h + 10

    def test_concat_rows_omit_train_error(self):
        cfg = parse_config(mixture_config())
        result = run_mlp_width_sweep(cfg)
        by_variant = {p.variant: p for p in result.points}
        assert by_variant["standard"].train_error is not None
        assert by_variant["concat"].train_error is None
        assert by_variant["concat"].test_error is not None

    def test_paired_variants_share_base_data_hash(self):
        cfg = parse_config(mixture_config())
        result = run_mlp_width_sweep(cfg)
        hashes = {cell: h for cell, h in result.cell_hashes.items()}
        assert hashes["standard/w4/s0"] == hashes["concat/w4/s0"]

    def test_failed_cell_keeps_sweep_alive(self):
        raw = mixture_config(widths=[2, 3])
        raw["train"]["optimizer"] = {"kind": "sgd", "lr": 1e150}
        raw["train"]["epochs"] = 6
        cfg = parse_config(raw)
        result = run_mlp_width_sweep(cfg)
        assert len(result.failures) == 4
        assert all(p.status == "failed" for p in result.points)

    def test_thread_count_does_not_change_results(self):
        cfg1 = parse_config(mixture_config(widths=[2, 4], seeds=[0, 1]))
        cfg2 = parse_config(mixture_config(widths=[2, 4], seeds=[0, 1],
                                           threads=4))
        rows1 = [p.csv_row() for p in run_mlp_width_sweep(cfg1).points]
        rows2 = [p.csv_row() for p in run_mlp_width_sweep(cfg2).points]
        assert rows1 == rows2


class TestOutputs:
    def test_csv_header_and_determinism(self, tmp_path):
        cfg = parse_config(mixture_config())
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_config(cfg, a)
        run_config(cfg, b)
        csv_a = (a / "t.csv").read_bytes()
        assert csv_a == (b / "t.csv").read_bytes()
        assert csv_a.decode().splitlines()[0] == CSV_HEADER
        assert (a / "t_traces.csv").read_bytes() == \
            (b / "t_traces.csv").read_bytes()

    def test_manifest_contents(self, tmp_path):
        cfg = parse_config(mixture_config())
        result = run_config(cfg, tmp_path)
        manifest = json.loads((tmp_path / "t_manifest.json").read_text())
        assert manifest["experiment_id"] == "t"
        assert manifest["seeds"] == [0]
        assert manifest["resolved_config"]["experiment"] == "mlp-width"
        assert set(manifest["input_hashes"]) == set(result.cell_hashes)

    def test_epochwise_rows(self, tmp_path):
        raw = mixture_config(experiment="epochwise", variants=["standard"])
        raw["train"]["epochs"] = 3
        cfg = parse_config(raw)
        result = run_config(cfg, tmp_path)
        assert [p.axis_value for p in result.points] == [1.0, 2.0, 3.0]
        assert all(p.axis_name == "epoch" for p in result.points)

    def test_linreg_csv(self, tmp_path):
        cfg = parse_config(LINREG_BOTH_VARIANTS)
        result = run_config(cfg, tmp_path)
        medians = [p for p in result.points if p.status == "median"]
        per_seed = [p for p in result.points if p.status == "ok"]
        assert len(medians) == 6  # 3 grid cells x 2 variants
        assert len(per_seed) == 12

    def test_linreg_csv_golden_digest(self, tmp_path):
        # A change that alters these bytes on purpose re-pins the digest and
        # says why; any other change must leave it equal.
        run_config(parse_config(LINREG_BOTH_VARIANTS), tmp_path)
        digest = hashlib.sha256((tmp_path / "lin.csv").read_bytes())
        assert digest.hexdigest() == LINREG_BOTH_VARIANTS_SHA256

    @pytest.mark.parametrize("name", sorted(TRAINING_GOLDEN))
    def test_training_csv_golden_digest(self, tmp_path, name):
        # Pinned before parameters moved into one flat vector; a change that
        # alters these bytes on purpose re-pins them and says why.
        raw, digests = TRAINING_GOLDEN[name]
        run_config(parse_config(raw), tmp_path)
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.glob("*.csv")}
        assert written == digests

    def test_biasvar_report_file(self, tmp_path):
        cfg = parse_config(TRAINING_GOLDEN["biasvar"][0])
        run_config(cfg, tmp_path)
        lines = (tmp_path / "bv_biasvar.csv").read_text().splitlines()
        assert lines[0].startswith("config_id,width,k,")
        assert len(lines) == 3


class TestPresets:
    def test_bundled_presets_parse(self):
        from importlib import resources
        for name in ("fig1", "desk_mixture", "biasvar_mixture"):
            raw = json.loads(resources.files("ddlab").joinpath(
                "presets", f"{name}.json").read_text())
            cfg = parse_config(raw)
            assert cfg.experiment_id == name

    def test_fig1_preset_values(self):
        from importlib import resources
        raw = json.loads(resources.files("ddlab").joinpath(
            "presets", "fig1.json").read_text())
        assert raw["d"] == 30 and raw["sigma"] == 0.1
        assert raw["n_grid"] == list(range(2, 101, 2))
        assert len(raw["seeds"]) == 20 and raw["n_test"] == 10000

    def test_fig2_preset_values(self):
        # n=4000 subset, batch 100, 1000 epochs, Adam lr 0.001
        from importlib import resources
        raw = json.loads(resources.files("ddlab").joinpath(
            "presets", "fig2_mnist.json").read_text())
        assert raw["data"]["n"] == 4000
        train = raw["train"]
        assert train["batch_size"] == 100 and train["epochs"] == 1000
        opt = train["optimizer"]
        assert opt["kind"] == "adam" and opt["lr"] == 0.001
        assert opt["beta1"] == 0.9 and opt["beta2"] == 0.999

    def test_desk_mixture_preset_values(self):
        from importlib import resources
        raw = json.loads(resources.files("ddlab").joinpath(
            "presets", "desk_mixture.json").read_text())
        assert raw["data"]["noise_fraction"] == 0.15
        assert raw["data"]["n"] == 1000 and raw["data"]["classes"] == 10
        assert len(raw["seeds"]) == 3

    def test_seed_type_validation(self):
        with pytest.raises(ConfigError, match="seeds must be integers"):
            parse_config(mixture_config(seeds=[True]))


class TestBaseData:
    def test_noise_applied_to_train_only(self):
        cfg = parse_config(mixture_config())
        train_ds, test_ds = build_base_data(cfg, 0)
        clean_cfg = parse_config(mixture_config())
        object.__setattr__(clean_cfg.data, "noise_fraction", 0.0)
        clean_train, clean_test = build_base_data(clean_cfg, 0)
        assert (train_ds.targets != clean_train.targets).any()
        np.testing.assert_array_equal(test_ds.targets, clean_test.targets)
        np.testing.assert_array_equal(train_ds.features, clean_train.features)

    def test_hash_stability(self):
        cfg = parse_config(mixture_config())
        a = dataset_hash(*build_base_data(cfg, 0))
        b = dataset_hash(*build_base_data(cfg, 0))
        c = dataset_hash(*build_base_data(cfg, 1))
        assert a == b != c
