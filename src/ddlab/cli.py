"""Command-line front end.

Subcommands::

    ddlab sweep        -c CONFIG [--set KEY=VALUE]... [-v]
    ddlab gradcheck    [--draws N] [--eps E] [--seed S]
    ddlab lift-check   [--draws N] [--seed S]
    ddlab idx-inspect  FILE

``sweep`` runs whichever experiment kind the config's ``experiment`` key
names.  Config files are JSON with the sweep schema; ``--set`` overrides
use dotted paths into that JSON (``--set train.optimizer.lr=0.01``,
``--set out_dir=runs/x``, ``--set threads=4``) and apply in command-line
order over the file, so the last one for a key wins.  Unknown keys
anywhere are fatal.  A resolved-config echo (itself a valid config file)
is printed before the run.

Exit codes: 0 success, 1 at least one failed cell or failed check,
2 usage or configuration error.  Errors print one line prefixed
``error:``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .idx import IdxFormatError, inspect_idx
from .nnet import LOSS_KINDS, forward, grad_check, init_mlp, lift_model
from .rng import Rng
from .sweep import ConfigError, config_to_dict, parse_config, run_config

GRADCHECK_LIMIT = 1e-4
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
    except ValueError as exc:  # JSONDecodeError, or an int past 4,300 digits
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
    except ValueError:  # JSONDecodeError, or an int past 4,300 digits
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


def _run_sweep(args) -> int:
    raw = _load_config_file(args.config)
    for item in args.set or []:  # in order: the last one for a key wins
        _apply_override(raw, *_parse_override(item))
    cfg = parse_config(raw)
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


def _near_kink(model, X, eps: float) -> bool:
    """True if a hidden pre-activation lies within 2*eps*max(1, max|x|) of
    the ReLU kink, which a +-eps step on a W1 or b1 entry may cross."""
    pre = X @ model.W1.T + model.b1
    return np.min(np.abs(pre)) < 2 * eps * max(1.0, np.max(np.abs(X)))


def run_gradcheck(draws: int, eps: float, seed: int):
    """Max relative analytic-vs-central-difference deviation over draws,
    redrawing any draw ``_near_kink``."""
    rng = Rng(seed)
    worst = 0.0
    done = 0
    while done < draws:
        model, X, c = _random_model_and_batch(rng)
        if _near_kink(model, X, eps):
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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ddlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sw = sub.add_parser("sweep")
    sw.add_argument("-c", "--config", required=True, help="JSON config path")
    sw.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a config key (dotted path, repeatable)")
    sw.add_argument("-v", "--verbose", action="store_true")
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
        if args.command == "sweep":
            return _run_sweep(args)
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
