"""Command-line front end.

Subcommands::

    ddlab linreg-sweep -c fig1.json [-o DIR] [--set KEY=VALUE] [--threads N]
    ddlab mlp-sweep    -c desk_mixture.json ...
    ddlab biasvar      -c CONFIG ...
    ddlab gradcheck    [--draws N] [--eps E] [--seed S]
    ddlab lift-check   [--draws N] [--seed S]
    ddlab idx-inspect  FILE

Config files are JSON with the sweep schema; ``--set`` overrides use
dotted paths into that JSON (``--set train.optimizer.lr=0.01``) and win
over the file.  Unknown keys anywhere are fatal.  The environment
variable ``DDLAB_SEED`` replaces the seed list with that single seed.
A resolved-config echo (itself a valid config file) is printed before
the run.

Exit codes: 0 success, 1 at least one failed cell or failed check,
2 configuration error.  Errors print one line prefixed ``error:``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .idx import IdxFormatError, inspect_idx
from .nnet import LOSS_KINDS, forward, grad_check, init_mlp, lift_model
from .rng import Rng
from .sweep import ConfigError, config_to_dict, parse_config, run_config

SWEEP_COMMANDS = {
    "linreg-sweep": "linreg-sample",
    "mlp-sweep": "mlp-width",
    "biasvar": "biasvar",
}

GRADCHECK_LIMIT = 1e-4
# gradcheck redraws a model whose hidden pre-activations come this close
# to a ReLU kink: no finite-difference step is meaningful across one
KINK_MARGIN = 1e-6
LIFT_LIMIT = 1e-9


def _load_config_file(path_arg: str) -> dict:
    """Read a JSON config from disk, falling back to a bundled preset name."""
    path = Path(path_arg)
    if path.exists():
        text = path.read_text()
    else:
        candidate = resources.files("ddlab").joinpath("presets", path.name)
        if path.parent == Path(".") and candidate.is_file():
            text = candidate.read_text()
        else:
            raise ConfigError(f"config file not found: {path_arg}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path_arg}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object: {path_arg}")
    return raw


def _parse_override(item: str):
    if "=" not in item:
        raise ConfigError(f"override must look like KEY=VALUE, got '{item}'")
    key, text = item.split("=", 1)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text  # bare strings need no quoting
    return key.strip(), value


def _apply_override(raw: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = raw
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"cannot override through non-object key '{part}'")
        node = nxt
    node[parts[-1]] = value


def _resolve_config(args) -> dict:
    raw = _load_config_file(args.config)
    for item in args.set or []:
        key, value = _parse_override(item)
        _apply_override(raw, key, value)
    env_seed = os.environ.get("DDLAB_SEED")
    if env_seed is not None:
        try:
            raw["seeds"] = [int(env_seed)]
        except ValueError:
            raise ConfigError(f"DDLAB_SEED must be an integer, got '{env_seed}'")
    if args.threads is not None:
        raw["threads"] = args.threads
    if args.out is not None:
        raw["out_dir"] = args.out
    return raw


def _run_sweep_command(command: str, args) -> int:
    raw = _resolve_config(args)
    cfg = parse_config(raw)
    if cfg.experiment != SWEEP_COMMANDS[command]:
        raise ConfigError(
            f"config experiment '{cfg.experiment}' does not match "
            f"subcommand '{command}'")
    print(json.dumps(config_to_dict(cfg), indent=2))
    out_dir = cfg.out_dir or f"runs/{cfg.experiment_id}"
    result = run_config(cfg, out_dir)
    if args.verbose:
        for cell, error in result.failures:
            print(f"cell {cell} failed: {error}", file=sys.stderr)
        print(f"wrote results to {out_dir}", file=sys.stderr)
    return 1 if result.failures else 0


def _random_model_and_batch(rng: Rng):
    d_in = 2 + rng.integers(6)
    h = 2 + rng.integers(6)
    c = 2 + rng.integers(4)
    batch = 1 + rng.integers(4)
    model = init_mlp(d_in, h, c, rng.spawn(1))
    model.b1[:] = 0.2 * rng.standard_normal(h)
    model.b2[:] = 0.2 * rng.standard_normal(c)
    X = rng.standard_normal((batch, d_in))
    return model, X, c


def _gradcheck_targets(rng: Rng, kind: str, batch: int, c: int):
    if kind == "ce":
        raw = rng.random((batch, c)) + 1e-3
        return raw / raw.sum(axis=1, keepdims=True)
    return (rng.random((batch, c)) < 0.5).astype(float)


def run_gradcheck(draws: int, eps: float, seed: int):
    """Max relative analytic-vs-central-difference deviation over draws,
    redrawing any draw within ``KINK_MARGIN`` of a ReLU kink."""
    rng = Rng(seed)
    worst = 0.0
    done = 0
    while done < draws:
        model, X, c = _random_model_and_batch(rng)
        pre = X @ model.W1.T + model.b1
        if np.min(np.abs(pre)) < KINK_MARGIN:
            continue
        kind = LOSS_KINDS[done % len(LOSS_KINDS)]
        T = _gradcheck_targets(rng, kind, X.shape[0], c)
        worst = max(worst, grad_check(model, X, T, kind, eps))
        done += 1
    return worst


def run_lift_check(draws: int, seed: int):
    """Max absolute deviation of the two model-lifting identities."""
    rng = Rng(seed)
    worst_self = 0.0
    worst_pair = 0.0
    for _ in range(draws):
        model, X, _ = _random_model_and_batch(rng)
        x1 = X[0]
        x2 = rng.standard_normal(model.d_in)
        lifted = lift_model(model)
        self_dev = np.abs(forward(lifted, np.concatenate([x1, x1]))
                          - forward(model, x1)).max()
        pair_dev = np.abs(forward(lifted, np.concatenate([x1, x2]))
                          - 0.5 * (forward(model, x1) + forward(model, x2))).max()
        worst_self = max(worst_self, float(self_dev))
        worst_pair = max(worst_pair, float(pair_dev))
    return worst_self, worst_pair


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddlab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SWEEP_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True, help="JSON config path")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (dotted path, repeatable)")
        p.add_argument("-o", "--out", help="output directory")
        p.add_argument("--threads", type=int, help="worker threads")
        p.add_argument("-v", "--verbose", action="store_true")
    g = sub.add_parser("gradcheck")
    g.add_argument("--draws", type=int, default=100)
    g.add_argument("--eps", type=float, default=1e-5)
    g.add_argument("--seed", type=int, default=0)
    li = sub.add_parser("lift-check")
    li.add_argument("--draws", type=int, default=1000)
    li.add_argument("--seed", type=int, default=0)
    ii = sub.add_parser("idx-inspect")
    ii.add_argument("path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # no draws, or a step that is not finite and > 0, checks nothing
        if args.command in ("gradcheck", "lift-check") and args.draws < 1:
            raise ConfigError(f"--draws must be >= 1, got {args.draws}")
        if args.command == "gradcheck" and not 0 < args.eps < math.inf:
            raise ConfigError(f"--eps must be a finite number > 0, "
                              f"got {args.eps}")
        if args.command in SWEEP_COMMANDS:
            return _run_sweep_command(args.command, args)
        if args.command == "gradcheck":
            worst = run_gradcheck(args.draws, args.eps, args.seed)
            status = "pass" if worst < GRADCHECK_LIMIT else "FAIL"
            print(f"gradcheck {status}: max relative deviation {worst:.3e} "
                  f"(limit {GRADCHECK_LIMIT:g}, {args.draws} draws)")
            return 0 if worst < GRADCHECK_LIMIT else 1
        if args.command == "lift-check":
            self_dev, pair_dev = run_lift_check(args.draws, args.seed)
            worst = max(self_dev, pair_dev)
            status = "pass" if worst < LIFT_LIMIT else "FAIL"
            print(f"lift-check {status}: self {self_dev:.3e} "
                  f"pair {pair_dev:.3e} (limit {LIFT_LIMIT:g}, "
                  f"{args.draws} draws)")
            return 0 if worst < LIFT_LIMIT else 1
        info = inspect_idx(args.path)
        dims = "" if info.rows is None else f" rows={info.rows} cols={info.cols}"
        print(f"magic=0x{info.magic:08x} kind={info.kind} "
              f"count={info.count}{dims}")
        return 0
    except (ConfigError, IdxFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
