"""In-memory span tracer for the ddlab package, installed from outside.

ddlab binds names with ``from .x import y``, so wrapping a function in its
defining module is not enough: the tracer replaces every reference to a
public function of a measured module wherever a ddlab module holds one (as
a module global or as a value of a module-level dict such as
``sweep.RUNNERS``).  ``Rng`` methods are wrapped on the class.

A span is (id, parent id, thread id, name, start, end, amount).  The parent
is the innermost open span of the same thread; a pool worker's outermost
span takes the open ``sweep.run_config`` span as its parent.  ``amount`` is
the work count of the call (values drawn, rows, bytes), 0 where none is
defined.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "ddlab"
LAYERS = ("rng", "datagen", "augment", "linreg", "nnet", "biasvar", "sweep",
          "records")
RNG_METHODS = ("random", "uniform", "integers", "permutation",
               "standard_normal", "spawn")
ROOT_SPAN = "sweep.run_config"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _size_count(size) -> int:
    if size is None:
        return 1
    return math.prod(size) if hasattr(size, "__len__") else int(size)


def _batch_rows(X) -> int:
    return X.shape[0] if getattr(X, "ndim", 2) > 1 else 1


def _materialize_bytes(args, kwargs) -> int:
    # the same n^2 x (2d + target width) x 8 bytes materialize budgets for
    view = _arg(args, kwargs, 0, "view")
    targets = view.base.targets
    width = 1 if targets.ndim == 1 else targets.shape[1]
    return view.n * view.n * (view.input_dim + width) * 8


AMOUNTS = {
    "rng.standard_normal": lambda a, k: _size_count(_arg(a, k, 1, "size")),
    "rng.integers": lambda a, k: _size_count(_arg(a, k, 2, "size")),
    "augment.materialize": _materialize_bytes,
    "augment.sample_pairs": lambda a, k: int(_arg(a, k, 1, "m")),
    "linreg.pinv_solve": lambda a, k: _batch_rows(_arg(a, k, 0, "X")),
    "nnet.loss_and_grad": lambda a, k: _batch_rows(_arg(a, k, 1, "X")),
    "nnet.forward": lambda a, k: _batch_rows(_arg(a, k, 1, "X")),
}


class Tracer:
    """Context manager: wraps ddlab on entry, restores it on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._restore: list[tuple] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        amount = AMOUNTS.get(name)
        is_root = name == ROOT_SPAN
        spans, ids, local = self.spans, self._ids, self._local
        perf_counter, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            n = amount(args, kwargs) if amount else 0
            stack.append(sid)
            if is_root:
                outer_root, self._root = self._root, sid
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_root:
                    self._root = outer_root
                spans.append((sid, parent, get_ident(), name, start, end, n))

        return traced

    def _replace(self, owner, key, value):
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        prefix = PACKAGE + "."
        modules = {layer: sys.modules[prefix + layer] for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        rng_class = modules["rng"].Rng
        for method in RNG_METHODS:
            self._replace(rng_class, method,
                          self._wrap(f"rng.{method}", rng_class.__dict__[method]))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(prefix):
                continue
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._replace(module, name, wrappers[obj])
                elif isinstance(obj, dict) and name != "__builtins__":
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and value in wrappers:
                            self._replace(obj, key, wrappers[value])

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def write_jsonl(self, path):
        keys = ("id", "parent", "thread", "name", "start", "end", "amount")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


@dataclass
class SpanStats:
    calls: int = 0
    amount: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def _covered(start, end, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    covered, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def summarize(spans) -> dict:
    """Span name -> SpanStats; self time subtracts the union of children."""
    children = defaultdict(list)
    for _, parent, _, _, start, end, _ in spans:
        children[parent].append((start, end))
    stats = defaultdict(SpanStats)
    for sid, _, _, name, start, end, amount in spans:
        entry = stats[name]
        entry.calls += 1
        entry.amount += amount
        entry.total_s += end - start
        entry.self_s += (end - start) - _covered(start, end, children[sid])
    return stats


def count_under(spans, name: str, ancestor: str, field: str = "calls") -> int:
    """Calls (or summed amount) of ``name`` spans that run inside an
    ``ancestor`` span, at any depth."""
    by_id = {span[0]: span for span in spans}
    total = 0
    for sid, parent, _, span_name, _, _, amount in spans:
        if span_name != name:
            continue
        while parent is not None and by_id[parent][3] != ancestor:
            parent = by_id[parent][1]
        if parent is not None:
            total += 1 if field == "calls" else amount
    return total
