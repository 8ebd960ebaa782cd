import dataclasses
import functools
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import (ConfigError, CurvePoint, OptimizerConfig, SweepConfig,
                   TrainConfig, load_idx, parse_config, run_config, summarize,
                   sweep, write_idx)
from ddlab.biasvar import CSV_HEADER as BIASVAR_CSV_HEADER
from ddlab.records import CSV_HEADER
from ddlab.sweep import (DataSection, SplitsSection, build_base_data,
                         config_to_dict, dataset_hash, run_sweep)


LINREG_BOTH_VARIANTS = {
    "experiment": "linreg-sample", "experiment_id": "lin",
    "variants": ["standard", "concat"], "seeds": [0, 1],
    "d": 4, "sigma": 0.1, "n_grid": [3, 6, 9], "n_test": 40,
}
LINREG_BOTH_VARIANTS_SHA256 = (
    "289d08749f86b9d82c4d54f99067483434f6ac2ace17bddf20c1dfe304b95eeb")

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
    # Once its own experiment kind, whose per-epoch CSV is byte for byte
    # an mlp-width sweep's traces; the final-epoch table was pinned then.
    "epochwise-sgd": ({
        "experiment": "mlp-width", "experiment_id": "sgd",
        "variants": ["standard", "concat"], "seeds": [2],
        "data": _TINY_MIXTURE, "widths": [4],
        "train": {"loss": "ce", "epochs": 3, "batch_size": 16,
                  "optimizer": {"kind": "sgd", "lr": 0.1}},
    }, {
        "sgd.csv":
            "2b45cfee1324467b770b5168c0a91cd0d954e622a6a8f90dbe1cb65690e3b9dd",
        "sgd_traces.csv":
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


def kind_config(kind):
    """A fresh copy of a valid config of experiment ``kind``."""
    raw = {"linreg-sample": LINREG_BOTH_VARIANTS,
           "mlp-width": TRAINING_GOLDEN["mlp-width-ce-adam"][0],
           "biasvar": TRAINING_GOLDEN["biasvar"][0]}[kind]
    return json.loads(json.dumps(raw))


def preset(name):
    """A fresh copy of the bundled preset ``name``, as raw JSON."""
    from importlib import resources
    return json.loads(resources.files("ddlab").joinpath(
        "presets", f"{name}.json").read_text())


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'sgima'"):
            parse_config(mixture_config(sgima=0.2))

    def test_unknown_nested_key(self):
        # a section the schema has no place for reads like a misspelt key
        misspelt, section = mixture_config(), mixture_config()
        misspelt["train"]["epoch"] = 3
        section["train"]["optimizer"]["schedule"] = {"factor": 0.5,
                                                     "every_k_epochs": 1}
        for raw, key in [(misspelt, "train.epoch"),
                         (section, "train.optimizer.schedule")]:
            with pytest.raises(ConfigError) as info:
                parse_config(raw)
            assert str(info.value) == f"unknown key '{key}'"

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
        # SweepConfig checks a config built or replaced in code, type
        # included, as it checks a parsed one
        cfg = parse_config(LINREG_BOTH_VARIANTS)
        with pytest.raises(ValueError, match=f"^{key} must be a"):
            dataclasses.replace(cfg, **{key: value})

    @pytest.mark.parametrize("key,value", [
        ("threads", 0), ("seeds", [0, 0]), ("variants", ["x"])])
    def test_replaced_config_is_checked(self, key, value):
        # a config changed in code gets the rules a parsed one does
        with pytest.raises(ValueError, match=f"^{key} must be "):
            dataclasses.replace(parse_config(preset("fig1")), **{key: value})

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

    @pytest.mark.parametrize("path,value", [
        ("data.n", 0), ("data.n", -5), ("data.d", 0), ("data.test_n", 0),
        ("data.classes", 1), ("data.separation", 0.0),
        ("data.separation", float("nan")), ("train.epochs", -1),
        ("train.batch_size", 0), ("train.e_mult", 0),
        ("train.optimizer.lr", 0.0), ("train.optimizer.lr", -0.1),
        ("train.optimizer.lr", float("inf")), ("splits.k", 0),
        ("splits.split_size", 0), ("splits.split_size", 31),
        ("widths", [True]), ("widths", [0])])
    def test_network_sizes_rejected(self, path, value):
        # the tiny biasvar config has n = 90 = 3 splits x 30 rows
        raw = json.loads(json.dumps(TRAINING_GOLDEN["biasvar"][0]))
        node, *keys = raw, *path.split(".")
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        with pytest.raises(ConfigError, match=path.rsplit(".", 1)[-1]):
            parse_config(raw)

    @pytest.mark.parametrize("path,value,message", [
        ("train.batch_size", True,
         "train.batch_size must be an integer >= 1, got True"),
        ("train.epochs", 2.5, "train.epochs must be an integer >= 0, got 2.5"),
        ("train.epochs", -1, "train.epochs must be an integer >= 0, got -1"),
        ("train.optimizer.lr", True,
         "train.optimizer.lr must be a finite number > 0, got True")])
    def test_train_section_messages(self, path, value, message):
        # one rule per field checks its type and range together
        raw = json.loads(json.dumps(TRAINING_GOLDEN["biasvar"][0]))
        node, *keys = raw, *path.split(".")
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == message

    @pytest.mark.parametrize("path,value,key", [
        ("train.optimizer.kind", "rmsprop", None),
        ("train.optimizer.beta2", 1.0, None),
        ("train.optimizer.weight_decay", -5.0, None),
        ("train.optimizer.momentum", -1.0, None),
        ("train.optimizer.beta1", 1.5, None),
        ("train.loss", "hinge", None), ("data.classes", 121, None),
        ("data.noise_fraction", 1.5, None),
        ("train.optimizer.eps", float("inf"), None),
        ("experiment", "epochwise", None), ("seeds", [], None),
        ("seeds", [True], None),
        # Rng reduces a seed mod 2^64: each pair would run one stream twice
        ("mlp-width:seeds", [0, 2**64], None),
        ("mlp-width:seeds", [-1, 2**64 - 1], None),
        ("variants", ["x"], None), ("variants", [], None),
        ("threads", 0, None), ("linreg-sample:d", 0, None),
        ("linreg-sample:n_test", 0, None), ("linreg-sample:sigma", -0.1, None),
        ("linreg-sample:n_grid", [0], None),
        ("linreg-sample:n_grid", [10**4], None), ("widths", [0], None),
        ("data.kind", "csv", None), ("data.n", 0, None), ("data.d", 0, None),
        ("data.test_n", 0, None), ("data.classes", 1, None),
        ("data.separation", float("nan"), None),
        ("data.noise_fraction", -0.1, None),
        ("mlp-width:data", {"kind": "idx", "images": "nowhere", "labels": "a",
                            "test_images": "b", "test_labels": "c"},
         "data.images"),
        ("splits.k", 0, None), ("splits.split_size", 0, None),
        ("splits.split_size", 31, "splits.k * splits.split_size"),
        ("mlp-width:train.epochs", 0, None), ("variants", ["concat"], None),
        ("seeds", [0, 1], None), ("train.loss", "bce", None)])
    def test_range_errors_name_the_dotted_key(self, path, value, key):
        # every section checks its own ranges; parsing prefixes the section
        # path to the field name their messages start with.  A path may
        # name its base config's kind, "kind:path"; the default is the
        # tiny biasvar config (n = 90 = 3 splits x 30 rows).
        kind, _, path = path.rpartition(":")
        raw = kind_config(kind or "biasvar")
        node, *keys = raw, *path.split(".")
        for part in keys[:-1]:
            node = node[part]
        node[keys[-1]] = value
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value).startswith(f"{key or path} must be ")

    @pytest.mark.parametrize("kind,key", [
        ("linreg-sample", "n_grid"), ("linreg-sample", "sigma"),
        ("mlp-width", "widths"), ("mlp-width", "data"), ("biasvar", "splits")])
    def test_each_kind_needs_its_own_keys(self, kind, key):
        # an empty list counts as missing
        raw = kind_config(kind)
        if isinstance(raw[key], list):
            raw[key] = []
        else:
            del raw[key]
        with pytest.raises(ConfigError, match=f"^{kind} needs '{key}'$"):
            parse_config(raw)

    @pytest.mark.parametrize("kind,key,value", [
        ("idx", "d", 9), ("idx", "classes", 7), ("idx", "separation", 2.0),
        ("mixture", "images", "nowhere"), ("mixture", "test_labels", "x")])
    def test_another_data_kinds_key_rejected(self, kind, key, value):
        # an idx run reads no mixture key and a mixture run no file path
        raw = kind_config("mlp-width")
        if kind == "idx":
            raw["data"] = {"kind": "idx", **{
                name: "nowhere" for name in ("images", "labels",
                                             "test_images", "test_labels")}}
        raw["data"][key] = value
        with pytest.raises(ConfigError,
                           match=f"^{kind} data takes no '{key}'$"):
            parse_config(raw)

    def test_idx_data_may_leave_out_its_row_counts(self):
        # without n and test_n an idx run reads every row of its files
        raw = kind_config("mlp-width")
        raw["data"] = {"kind": "idx", "images": "nowhere", "labels": "a",
                       "test_images": "b", "test_labels": "c"}
        with pytest.raises(
                ConfigError,
                match="^data.images must be an existing file, got 'nowhere'$"):
            parse_config(raw)

    def test_empty_train_section_takes_the_documented_defaults(self):
        raw = kind_config("mlp-width")
        raw["train"] = {}
        train = parse_config(raw).train
        assert train == TrainConfig()
        assert (train.loss, train.epochs, train.batch_size, train.e_mult) \
            == ("ce", 100, 32, 1)
        assert (train.optimizer.kind, train.optimizer.lr) == ("adam", 0.001)

    @pytest.mark.parametrize("kind,key,value", [
        ("mlp-width", "sigma", 0.1), ("mlp-width", "n_grid", [2]),
        ("mlp-width", "splits", {"k": 2, "split_size": 30}),
        ("linreg-sample", "widths", [2]), ("linreg-sample", "data", {}),
        ("linreg-sample", "splits", {}), ("biasvar", "n_test", 10)])
    def test_another_kinds_key_rejected(self, kind, key, value):
        # the echo must not show a key the run never reads
        raw = dict(kind_config(kind), **{key: value})
        with pytest.raises(ConfigError, match=f"^{kind} takes no '{key}'$"):
            parse_config(raw)

    @pytest.mark.parametrize("experiment_id", [
        "", "sub/run", "../escaped", "a,b", ".hidden", "-x", "a b", "é"])
    def test_experiment_id_must_be_a_plain_name(self, experiment_id):
        raw = mixture_config(experiment_id=experiment_id)
        with pytest.raises(ConfigError, match="^experiment_id must be letters, digits"):
            parse_config(raw)

    def test_zero_epochs_allowed(self):
        raw = json.loads(json.dumps(TRAINING_GOLDEN["biasvar"][0]))
        raw["train"]["epochs"] = 0
        assert parse_config(raw).train.epochs == 0

    def test_zero_epochs_rejected_for_mlp_width(self):
        # an mlp-width cell reports its final epoch, so it needs one
        raw = json.loads(json.dumps(TRAINING_GOLDEN["mlp-width-ce-adam"][0]))
        raw["train"]["epochs"] = 0
        with pytest.raises(ConfigError, match=r"^train\.epochs must be >= 1"):
            parse_config(raw)

    def test_epochwise_kind_is_gone(self):
        # epoch curves are an mlp-width sweep's _traces.csv
        raw = json.loads(json.dumps(TRAINING_GOLDEN["epochwise-sgd"][0]))
        raw["experiment"] = "epochwise"
        with pytest.raises(ConfigError, match=(
                "^experiment must be one of linreg-sample, mlp-width, "
                "biasvar, got 'epochwise'$")):
            parse_config(raw)

    @pytest.mark.parametrize("key,value,repeated", [
        ("seeds", [0, 0, 1], "0"), ("variants", ["concat", "concat"], "'concat'"),
        ("n_grid", [4, 4], "4"), ("widths", [2, 3, 2], "2")])
    def test_repeated_entries_rejected(self, key, value, repeated):
        # a repeated seed or grid point would run, and count, twice
        base = LINREG_BOTH_VARIANTS if key == "n_grid" else mixture_config()
        raw = json.loads(json.dumps(dict(base, **{key: value})))
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == (
            f"{key} must be distinct ({repeated} repeats), got {value!r}")

    @pytest.mark.parametrize("kind", ["mlp-width", "biasvar"])
    def test_mse_loss_rejected_on_network_sweeps(self, kind):
        golden = "biasvar" if kind == "biasvar" else "mlp-width-ce-adam"
        raw = json.loads(json.dumps(TRAINING_GOLDEN[golden][0]))
        raw["train"]["loss"] = "mse"
        with pytest.raises(ConfigError, match=r"^train\.loss must be ce or bce"):
            parse_config(raw)

    def test_concat_pair_design_over_budget_rejected(self):
        # n^2 (2d + 1) 8 bytes against the 6 GiB budget: at d = 30, n = 3633
        # needs 6,440,960,232 bytes and n = 3634 needs 6,444,506,528
        raw = dict(LINREG_BOTH_VARIANTS, d=30, n_grid=[100, 3633])
        assert parse_config(raw).n_grid == [100, 3633]
        raw["n_grid"] = [3634, 100]
        with pytest.raises(ConfigError, match=(
                r"^n_grid must be within the concat pair design's "
                r"6442450944-byte budget \(6444506528 bytes at n = 3634\), "
                r"got 3634$")):
            parse_config(raw)
        # standard cells build no pair design, so any n is accepted
        raw.update(variants=["standard"], n_grid=[4000])
        assert parse_config(raw).n_grid == [4000]

    def test_missing_idx_file_is_config_error(self):
        raw = mixture_config()
        raw["data"] = {"kind": "idx", "images": "no/such/file",
                       "labels": "x", "test_images": "y", "test_labels": "z"}
        with pytest.raises(ConfigError, match="does not exist|no/such/file"):
            parse_config(raw)


# -- one type rule per config field ---------------------------------------------
#
# Parsing only recurses into sections; every field is its section's to
# check, type first.  The sections and their fields are read off the
# dataclasses, so a field or section added without a type rule fails here.


def section_paths(cls=SweepConfig, path=""):
    """Each config section class -> its dotted path in a config file,
    found by walking the nested dataclass annotations from ``cls``."""
    paths = {cls: path}
    for key, hint in typing.get_type_hints(cls).items():
        kind = (typing.get_args(hint) or (hint,))[0]
        if dataclasses.is_dataclass(kind):
            paths.update(section_paths(kind, f"{path}.{key}".lstrip(".")))
    return paths


SECTION_PATHS = section_paths()
# each scalar annotation -> the probe types it accepts
SCALAR_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}
TYPE_PROBES = (True, "x", 1, 1.5, None, [1], {})
# an int no float holds; it passes `< math.inf`, which compares it exactly
PAST_FLOAT_RANGE = 10**400


def wrong_typed_fields(cls, parsed=False):
    """(field name, wrong-typed probe values) for each field.  A float
    field also gets an int past float range; a section field given as
    JSON takes an object, so ``parsed`` probes it with no dict."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        base, *rest = typing.get_args(hints[f.name]) or (hints[f.name],)
        if base is list or dataclasses.is_dataclass(base):
            accepted = (base, dict) if parsed and base is not list else (base,)
        else:
            accepted = SCALAR_TYPES[base]
        accepted += tuple(rest)  # NoneType if optional
        yield f.name, ([v for v in TYPE_PROBES if type(v) not in accepted]
                       + [PAST_FLOAT_RANGE] * (base is float))


class TestScalarTypeRules:
    @pytest.mark.parametrize("name", ["fig1", "desk_mixture",
                                      "biasvar_mixture"])
    def test_parsed_wrong_type_names_its_dotted_key(self, name):
        base = preset(name)
        wrong = []
        for cls, path in SECTION_PATHS.items():
            keys = path.split(".") if path else []
            if keys and keys[0] not in base:
                continue
            for key, values in wrong_typed_fields(cls, parsed=True):
                dotted = ".".join(keys + [key])
                for value in values:
                    raw = json.loads(json.dumps(base))
                    node = raw
                    for part in keys:
                        node = node[part]
                    node[key] = value
                    try:
                        parse_config(raw)
                        wrong.append((dotted, value, "accepted"))
                    except ConfigError as exc:
                        if not str(exc).startswith(f"{dotted} must be "):
                            wrong.append((dotted, value, str(exc)))
        assert wrong == []

    @pytest.mark.parametrize("cls", list(SECTION_PATHS),
                             ids=lambda cls: cls.__name__)
    def test_replaced_wrong_type_names_its_field(self, cls):
        cfg = parse_config(preset("biasvar_mixture"))
        valid = {SweepConfig: parse_config(preset("fig1")),
                 DataSection: cfg.data, SplitsSection: cfg.splits,
                 TrainConfig: cfg.train,
                 OptimizerConfig: cfg.train.optimizer}[cls]
        wrong = []
        for key, values in wrong_typed_fields(cls):
            for value in values:
                try:
                    dataclasses.replace(valid, **{key: value})
                    wrong.append((key, value, "accepted"))
                except ValueError as exc:
                    if not str(exc).startswith(f"{key} must be "):
                        wrong.append((key, value, str(exc)))
        assert wrong == []


# -- config round trip ----------------------------------------------------------
#
# Valid configs of every experiment kind, optional keys included or left to
# their defaults, must survive config_to_dict -> parse_config unchanged: the
# resolved-config echo is itself a config that reproduces the run.

IDX_NAMES = ("images", "labels", "test_images", "test_labels")


@pytest.fixture(scope="module")
def idx_paths(tmp_path_factory):
    # validation only checks that idx files exist; parsing never reads them
    root = tmp_path_factory.mktemp("idx")
    for name in IDX_NAMES:
        (root / name).touch()
    return {name: str(root / name) for name in IDX_NAMES}


def _finite(low, high, **kwargs):
    return st.floats(low, high, allow_nan=False, allow_infinity=False,
                     **kwargs)


def _ints(low, high=50):
    return st.integers(low, high)


def _optimizer_section():
    fraction = _finite(0.0, 1.0, exclude_max=True)
    return st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from(["sgd", "momentum", "adam"]),
        "lr": _finite(0.0, 10.0, exclude_min=True),
        "momentum": fraction, "beta1": fraction, "beta2": fraction,
        "eps": _finite(0.0, 1.0, exclude_min=True),
        "weight_decay": _finite(0.0, 1.0)})


def _train_section(losses, min_epochs=0):
    return st.fixed_dictionaries({"loss": st.sampled_from(losses)}, optional={
        "epochs": _ints(min_epochs), "batch_size": _ints(1), "e_mult": _ints(1),
        "optimizer": _optimizer_section()})


@st.composite
def _data_section(draw, idx_paths, min_n=1):
    if draw(st.booleans()):
        data = dict(idx_paths, kind="idx")
        for name in ("n", "test_n"):
            if draw(st.booleans()):
                data[name] = draw(_ints(max(min_n, 1), 500))
    else:
        n, test_n = draw(_ints(min_n, 500)), draw(_ints(1))
        data = {"kind": "mixture", "n": n, "test_n": test_n, "d": draw(_ints(1)),
                "classes": draw(_ints(2, n + test_n)),
                "separation": draw(_finite(0.0, 10.0, exclude_min=True))}
    data.update(draw(st.fixed_dictionaries({}, optional={
        "noise_fraction": _finite(0.0, 1.0), "standardize": st.booleans()})))
    return data


@st.composite
def valid_raw_configs(draw, idx_paths):
    kind = draw(st.sampled_from(["linreg-sample", "mlp-width", "biasvar"]))
    raw = {"experiment": kind,
           "experiment_id": draw(st.from_regex(
               r"[A-Za-z0-9][A-Za-z0-9._-]{0,7}", fullmatch=True))}
    raw.update(draw(st.fixed_dictionaries({}, optional={
        "threads": _ints(1, 8), "out_dir": st.text(max_size=8)})))
    if kind == "biasvar":
        k, split_size = draw(_ints(1, 5)), draw(_ints(1, 40))
        raw.update(seeds=[draw(st.integers(0, 2**32))],
                   variants=["standard"],
                   widths=draw(st.lists(_ints(1), min_size=1, max_size=4,
                                        unique=True)),
                   splits={"k": k, "split_size": split_size},
                   data=draw(_data_section(idx_paths, min_n=k * split_size)),
                   train=draw(_train_section(["ce"])))
        return raw
    # seeds, variants, widths and n_grid must not repeat an entry
    raw.update(seeds=draw(st.lists(st.integers(0, 2**32), min_size=1,
                                   max_size=4, unique=True)),
               variants=draw(st.lists(st.sampled_from(["standard", "concat"]),
                                      min_size=1, max_size=2, unique=True)))
    if kind == "linreg-sample":
        raw.update(d=draw(_ints(1)), sigma=draw(_finite(0.0, 10.0)),
                   n_grid=draw(st.lists(_ints(1), min_size=1, max_size=5,
                                        unique=True)),
                   n_test=draw(_ints(1)))
    else:
        raw.update(widths=draw(st.lists(_ints(1), min_size=1, max_size=4,
                                        unique=True)),
                   data=draw(_data_section(idx_paths)),
                   # an mlp-width cell reports its final epoch
                   train=draw(_train_section(["ce", "bce"], min_epochs=1)))
    return raw


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_config_round_trip_property(idx_paths, data):
    cfg = parse_config(data.draw(valid_raw_configs(idx_paths)))
    assert parse_config(config_to_dict(cfg)) == cfg
    echo = json.dumps(config_to_dict(cfg), indent=2)
    assert parse_config(json.loads(echo)) == cfg


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
        result = run_sweep(cfg)
        assert len(result.points) == 2  # one per variant
        variants = {p.variant for p in result.points}
        assert variants == {"standard", "concat"}

    def test_param_axis_conversion(self):
        # width h maps to 795h + 10 params for 784-wide inputs and
        # 1579h + 10 for the 1568-wide concatenated inputs
        from ddlab import Rng, init_mlp
        for h in (1, 5, 12):
            assert init_mlp(784, h, 10, Rng(0)).param_count == 795 * h + 10
            assert init_mlp(1568, h, 10, Rng(0)).param_count == 1579 * h + 10

    def test_concat_rows_omit_train_error(self):
        cfg = parse_config(mixture_config())
        result = run_sweep(cfg)
        by_variant = {p.variant: p for p in result.points}
        assert by_variant["standard"].train_error is not None
        assert by_variant["concat"].train_error is None
        assert by_variant["concat"].test_error is not None

    def test_paired_variants_share_base_data_hash(self):
        cfg = parse_config(mixture_config())
        result = run_sweep(cfg)
        hashes = {cell: h for cell, h in result.cell_hashes.items()}
        assert hashes["standard/w4/s0"] == hashes["concat/w4/s0"]

    def test_failed_cell_keeps_sweep_alive(self):
        raw = mixture_config(widths=[2, 3])
        raw["train"]["optimizer"] = {"kind": "sgd", "lr": 1e150}
        raw["train"]["epochs"] = 6
        cfg = parse_config(raw)
        result = run_sweep(cfg)
        assert len(result.failures) == 4
        assert all(p.status == "failed" for p in result.points)

    @pytest.mark.parametrize("raw", [
        mixture_config(widths=[2, 4], seeds=[0, 1]),
        *(raw for raw, _ in TRAINING_GOLDEN.values()),
        LINREG_BOTH_VARIANTS,
        # n_test past two 1024-row slices of the streamed concat test MSE
        dict(LINREG_BOTH_VARIANTS, n_test=2100),
        mixture_config(widths=[2, 4], data=dict(_TINY_MIXTURE,
                                                standardize=True)),
        # unsorted grids: the pool hands cells out in another order
        mixture_config(widths=[32, 3, 96]),
        dict(LINREG_BOTH_VARIANTS, n_grid=[6, 9, 3]),
    ], ids=["mlp-width-two-seeds", *TRAINING_GOLDEN, "linreg",
            "linreg-sliced-test", "mlp-width-standardize",
            "mlp-width-unsorted", "linreg-unsorted"])
    def test_thread_count_does_not_change_results(self, tmp_path, raw):
        written = []
        for threads in (1, 2, 4):
            out = tmp_path / f"threads{threads}"
            run_config(parse_config(dict(raw, threads=threads)), out)
            written.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        assert written[0] == written[1] == written[2]
        assert written[0]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_pool_runs_in_a_forked_child(self):
        # a forked child inherits the parent's cell pool but not its threads
        cfg = parse_config(dict(LINREG_BOTH_VARIANTS, threads=2))
        points = run_sweep(cfg).points
        pid = os.fork()
        if pid == 0:
            os._exit(0 if run_sweep(cfg).points == points else 1)
        deadline = time.monotonic() + 30
        while not (done := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("a pooled sweep hung in a forked child")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_pool_starts_no_thread_that_gets_no_cell(self):
        # pools outlive a sweep, so the threads are counted in a fresh
        # process: 2 cells at threads 8 need one helper beside the caller
        raw = dict(LINREG_BOTH_VARIANTS, n_grid=[3, 6])
        script = "\n".join([
            "import threading",
            "from ddlab.sweep import parse_config, run_sweep",
            f"raw = {raw!r}",
            "pooled = run_sweep(parse_config(dict(raw, threads=8))).points",
            "serial = run_sweep(parse_config(dict(raw, threads=1))).points",
            "print(pooled == serial, sum(t.name.startswith('ddlab-cells')",
            "                            for t in threading.enumerate()))",
        ])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(sweep.__file__).resolve().parents[1]),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        same, helpers = proc.stdout.split()
        assert same == "True" and int(helpers) <= 1

    @pytest.mark.parametrize("raw", [
        mixture_config(widths=[32, 3, 96]),
        dict(LINREG_BOTH_VARIANTS, n_grid=[6, 9, 3]),
    ], ids=["mlp-width", "linreg"])
    def test_caller_starts_on_the_largest_cell_a_helper_on_the_smallest(
            self, raw):
        cfg = parse_config(dict(raw, threads=2))
        cells, hashes = sweep._plan(cfg)
        ran, lock = [], threading.Lock()
        # each thread's first cell waits until the other thread has taken
        # its own, so neither can drain the deque alone
        barrier = threading.Barrier(2, timeout=30)

        def record(size):
            with lock:
                first = all(threading.get_ident() != t for t, _ in ran)
                ran.append((threading.get_ident(), size))
            if first:
                barrier.wait()
            return [], []

        result = sweep._run_cells(cfg, [
            cell._replace(run=functools.partial(record, cell.size))
            for cell in cells], hashes)
        assert result.failures == []
        assert sorted(size for _, size in ran) == sorted(c.size for c in cells)
        caller = threading.get_ident()
        helper_sizes = [size for t, size in ran if t != caller]
        caller_sizes = [size for t, size in ran if t == caller]
        assert caller_sizes[0] == max(cell.size for cell in cells)
        assert helper_sizes[0] == min(cell.size for cell in cells)

    def test_pool_runs_every_cell_once_under_fast_thread_switches(self):
        # more threads than cores, switching every microsecond: each cell
        # still runs once, and its outcome lands in its own slot
        cells = [sweep.Cell(str(i), None, (i * 7) % 50, [], None)
                 for i in range(400)]
        runs, lock = [], threading.Lock()

        def run(cell):
            with lock:
                runs.append(cell.id)
            return cell.id

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = sweep._pooled(run, cells, 4)
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == [cell.id for cell in cells]
        assert sorted(runs) == sorted(cell.id for cell in cells)


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

    def test_manifest_environment(self, tmp_path):
        run_config(parse_config(LINREG_BOTH_VARIANTS), tmp_path)
        manifest = json.loads((tmp_path / "lin_manifest.json").read_text())
        env = manifest["environment"]
        assert set(env) == {"numpy", "blas", "lapack", "num_threads_env",
                            "python", "platform", "log_fingerprint"}
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == set(env["lapack"]) == {"name", "version"}
        assert all(k.endswith("_NUM_THREADS") for k in env["num_threads_env"])
        probe = np.random.Generator(np.random.PCG64(2024)).random(2**16)
        assert env["log_fingerprint"] == \
            hashlib.sha256(np.log(probe).tobytes()).hexdigest()

    def test_outputs_leave_no_temporary_files(self, tmp_path):
        run_config(parse_config(mixture_config()), tmp_path / "mlp")
        run_config(parse_config(TRAINING_GOLDEN["biasvar"][0]),
                   tmp_path / "bv")
        assert sorted(p.name for p in (tmp_path / "mlp").iterdir()) == \
            ["t.csv", "t_manifest.json", "t_traces.csv"]
        assert sorted(p.name for p in (tmp_path / "bv").iterdir()) == \
            ["bv_biasvar.csv", "bv_manifest.json"]

    def test_failed_write_leaves_no_file_under_final_name(self, tmp_path,
                                                          monkeypatch):
        # an interrupt or a full disk halfway through the CSV write
        real_write_text = Path.write_text

        def fail_halfway(self, text, *args, **kwargs):
            real_write_text(self, text[:len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", fail_halfway)
        with pytest.raises(OSError, match="disk full"):
            run_config(parse_config(LINREG_BOTH_VARIANTS), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_traces_hold_one_row_per_epoch(self, tmp_path):
        # one width gives one epoch-wise curve per variant and seed
        raw = mixture_config(variants=["standard"])
        raw["train"]["epochs"] = 3
        result = run_config(parse_config(raw), tmp_path)
        assert [p.axis_value for p in result.trace_points] == [1.0, 2.0, 3.0]
        assert all(p.axis_name == "epoch" for p in result.trace_points)
        assert [(p.axis_name, p.axis_value) for p in result.points] == \
            [("hidden_units", 4.0)]
        final = dataclasses.replace(result.points[0], axis_name="epoch",
                                    axis_value=3.0)
        assert final == result.trace_points[-1]

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

    def test_diverging_biasvar_widths_fail_soft(self, tmp_path):
        raw = json.loads(json.dumps(TRAINING_GOLDEN["biasvar"][0]))
        raw["train"]["optimizer"] = {"kind": "sgd", "lr": 1e150}
        result = run_config(parse_config(raw), tmp_path)
        report = (tmp_path / "bv_biasvar.csv").read_text()
        assert report.splitlines() == [BIASVAR_CSV_HEADER]
        manifest = json.loads((tmp_path / "bv_manifest.json").read_text())
        cells = ["standard/w2/s3", "standard/w4/s3"]
        assert manifest["failed_cells"] == cells
        assert sorted(manifest["input_hashes"]) == sorted(cells)
        assert [cell for cell, _ in result.failures] == cells

    def test_failed_linreg_n_keeps_the_other_rows(self, tmp_path,
                                                  monkeypatch):
        clean = run_config(parse_config(LINREG_BOTH_VARIANTS),
                           tmp_path / "clean").points
        real_sweep = sweep.linreg_sample_sweep

        def fail_at_six(d, sigma, n_grid, *args, **kwargs):
            if n_grid == [6]:
                raise FloatingPointError("boom")
            return real_sweep(d, sigma, n_grid, *args, **kwargs)

        monkeypatch.setattr(sweep, "linreg_sample_sweep", fail_at_six)
        for threads in (1, 2):  # serial, then on the pool
            out = tmp_path / f"broken{threads}"
            result = run_config(
                parse_config(dict(LINREG_BOTH_VARIANTS, threads=threads)), out)
            assert result.failures == [("n6", "FloatingPointError: boom")]
            at_six = [p for p in result.points if p.axis_value == 6.0]
            assert [(p.variant, p.seed, p.status) for p in at_six] == [
                (v, s, "failed") for v in ("standard", "concat")
                for s in (0, 1)]
            assert all(p.test_loss is None for p in at_six)
            assert [p for p in result.points if p.axis_value != 6.0] == \
                [p for p in clean if p.axis_value != 6.0]
            manifest = json.loads((out / "lin_manifest.json").read_text())
            assert manifest["failed_cells"] == ["n6"]
            assert manifest["input_hashes"] == {}

    def test_biasvar_report_file(self, tmp_path):
        cfg = parse_config(TRAINING_GOLDEN["biasvar"][0])
        run_config(cfg, tmp_path)
        lines = (tmp_path / "bv_biasvar.csv").read_text().splitlines()
        assert lines[0].startswith("config_id,width,k,")
        assert len(lines) == 3


class TestStandardize:
    def test_train_statistics_scale_both_sets(self):
        raw = mixture_config()
        plain_train, plain_test = build_base_data(parse_config(raw), 0)
        raw["data"]["standardize"] = True
        train_ds, test_ds = build_base_data(parse_config(raw), 0)
        np.testing.assert_allclose(train_ds.features.mean(axis=0), 0.0,
                                   atol=1e-12)
        np.testing.assert_allclose(train_ds.features.std(axis=0), 1.0,
                                   rtol=1e-12)
        mean = plain_train.features.mean(axis=0)
        std = plain_train.features.std(axis=0)
        np.testing.assert_array_equal(test_ds.features,
                                      (plain_test.features - mean) / std)
        np.testing.assert_array_equal(test_ds.targets, plain_test.targets)

    def test_zero_variance_column_is_centred_but_not_scaled(self, tmp_path):
        # pixel 0 is 7 in every train image; the test images vary there
        rng = np.random.default_rng(0)
        data = {"kind": "idx", "standardize": True}
        for name, count in (("images", 12), ("test_images", 5)):
            pixels = rng.integers(0, 256, (count, 2, 2), dtype=np.uint8)
            if name == "images":
                pixels[:, 0, 0] = 7
            write_idx(tmp_path / name, tmp_path / f"{name}_labels", pixels,
                      np.arange(count) % 3)
            data[name] = str(tmp_path / name)
            data[name.replace("images", "labels")] = \
                str(tmp_path / f"{name}_labels")
        raw = mixture_config(data=data)
        train_ds, test_ds = build_base_data(parse_config(raw), 0)
        raw_train = load_idx(data["images"], data["labels"])
        raw_test = load_idx(data["test_images"], data["test_labels"])
        # the mean of 12 rows of 7/255 is off by rounding: the column's
        # std reads 3.5e-18, not 0, and the centred column is not all 0
        mean = raw_train.features.mean(axis=0)[0]
        np.testing.assert_array_equal(train_ds.features[:, 0],
                                      raw_train.features[:, 0] - mean)
        np.testing.assert_array_equal(test_ds.features[:, 0],
                                      raw_test.features[:, 0] - mean)
        np.testing.assert_allclose(train_ds.features[:, 1:].std(axis=0), 1.0,
                                   rtol=1e-12)


class TestPresets:
    def test_bundled_presets_parse(self):
        for name in ("fig1", "desk_mixture", "biasvar_mixture"):
            cfg = parse_config(preset(name))
            assert cfg.experiment_id == name

    # SHA-256 of each bundled preset's resolved-config echo, the JSON that
    # the CLI prints before a run; recorded before the optimizer and train
    # sections took their range checks from nnet.
    PRESET_ECHO_SHA256 = {
        "biasvar_mixture":
            "1016563641e7f61cb78fdb9daea59202d147dd72f89951187d95df7c2b2c5851",
        "desk_mixture":
            "7d9a502b69d7c2e95575f50733e456e0c05ad25aeae583968ee386b8b45d4bca",
        "fig1":
            "568e8eede56a33d900f50d87eaba745ee14c856cc55d0795d529b6393e5f09cb",
        "fig2_mnist":
            "72c8e55c697d0f592d40850c14509c6ca3547dccff92b84690ff7a77b4c95bfe",
    }

    @pytest.mark.parametrize("name", sorted(PRESET_ECHO_SHA256))
    def test_preset_echo_bytes_pinned(self, tmp_path, monkeypatch, name):
        raw = preset(name)
        if raw.get("data", {}).get("kind") == "idx":
            # its relative idx paths must exist for validation to pass
            monkeypatch.chdir(tmp_path)
            for key in IDX_NAMES:
                path = tmp_path / raw["data"][key]
                path.parent.mkdir(parents=True, exist_ok=True)
                path.touch()
        echo = json.dumps(config_to_dict(parse_config(raw)), indent=2)
        digest = hashlib.sha256(echo.encode()).hexdigest()
        assert digest == self.PRESET_ECHO_SHA256[name]

    def test_fig1_preset_values(self):
        raw = preset("fig1")
        assert raw["d"] == 30 and raw["sigma"] == 0.1
        assert raw["n_grid"] == list(range(2, 101, 2))
        assert len(raw["seeds"]) == 20 and raw["n_test"] == 10000

    def test_fig2_preset_values(self):
        # n=4000 subset, batch 100, 1000 epochs, Adam lr 0.001
        raw = preset("fig2_mnist")
        assert raw["data"]["n"] == 4000
        train = raw["train"]
        assert train["batch_size"] == 100 and train["epochs"] == 1000
        opt = train["optimizer"]
        assert opt["kind"] == "adam" and opt["lr"] == 0.001
        assert opt["beta1"] == 0.9 and opt["beta2"] == 0.999

    def test_desk_mixture_preset_values(self):
        raw = preset("desk_mixture")
        assert raw["data"]["noise_fraction"] == 0.15
        assert raw["data"]["n"] == 1000 and raw["data"]["classes"] == 10
        assert len(raw["seeds"]) == 3

    def test_seed_type_validation(self):
        with pytest.raises(ConfigError, match=(
                r"^seeds must be a nonempty list of integers in \[0, 2\*\*64\), "
                r"got \[True\]$")):
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
