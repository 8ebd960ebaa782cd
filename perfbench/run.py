"""ddlab benchmark: run one workload's sweep repeatedly and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  The library is imported from the
``src`` directory next to this one and driven only through its public
functions (``parse_config``, ``build_base_data``, ``run_config``).

--trace 0 prints the end-to-end metrics:
  setup_s       mean over fresh processes of import ddlab + parse_config
                + build_base_data for each sweep seed
  sweep_s       mean time of one run_config (cells + CSV + manifest)
  peak_rss_mib  ru_maxrss of this process after all sweeps
  ok_frac       1 - (failed + incorrect CSV rows) / rows checked
Both times are means of wall times rescaled by a calibration kernel run
between the samples (calibrate.py): seconds on a machine where the kernel
takes calibrate.NOMINAL_S, which cancels the host's drifting speed.  The
raw wall times are printed on the line before the result.
--trace 1 alternates untraced and traced sweeps and prints the per-layer
metrics (medians over the traced sweeps) plus trace.overhead_frac.

One untimed warm-up sweep runs first; timed sweeps then repeat until
--seconds have passed (at least MIN_SWEEPS, or one untraced/traced pair).
Every sweep's CSVs are checked (checks.py) and must be byte-identical to
the first sweep's, traced or not.  The last stdout line is the JSON
result; the line before it holds the environment and the raw samples.
Span logs of the last traced sweep go to perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before numpy loads (calibrate imports it), here and in the setup
# probes, so BLAS adds no threads to the sweep's two.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, count_under, summarize  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PRESETS = SRC / "ddlab" / "presets"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 9
MIN_SWEEPS = 3
PROBE_TIMEOUT_S = 120


def probe_setup(name: str, seed: int) -> float:
    """Seconds from before ``import ddlab`` until the sweep could start."""
    raw = workloads.workload_config(name, seed, PRESETS)
    start = time.perf_counter()
    from ddlab import sweep
    cfg = sweep.parse_config(raw)
    if cfg.data is not None:
        for s in cfg.seeds:
            sweep.build_base_data(cfg, s)
    return time.perf_counter() - start


def measure_setup(name: str, seed: int):
    """probe_setup in SETUP_PROBES fresh interpreters, one after another,
    between calibration kernels; returns calibrate.bracketed's pair."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", name, "--seed", str(seed)]

    def probe():
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        return float(done.stdout.strip().splitlines()[-1])

    return calibrate.bracketed(probe, lambda done: done < SETUP_PROBES)


def cpu_ticks():
    """(steal, total) jiffies of the whole machine from /proc/stat, or None.

    Steal is time the hypervisor ran other guests on our CPUs; a run with a
    high steal share measured a slower machine than usual.
    """
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]), sum(int(f) for f in fields[1:])
    except (OSError, IndexError, ValueError):
        return None


def steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


class SweepRunner:
    """Runs one workload's sweep into a scratch directory and checks it."""

    def __init__(self, name: str, seed: int):
        from ddlab import sweep
        self.raw = workloads.workload_config(name, seed, PRESETS)
        self.cfg = sweep.parse_config(self.raw)
        self.expected = workloads.expected_rows(self.raw)
        self.use_reference = seed == workloads.DEFAULT_SEED
        self.check = checks.CheckResult()
        self.first_outputs = None
        self.identical = True
        self.csv_rows = 0
        self.out = OUT_DIR / f"sweep-{name}-{os.getpid()}"

    def run(self):
        """One checked sweep; returns (wall s, process cpu s)."""
        from ddlab import sweep  # looked up per call: the tracer may wrap it
        shutil.rmtree(self.out, ignore_errors=True)
        cpu0, start = time.process_time(), time.perf_counter()
        sweep.run_config(self.cfg, self.out)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        self.check.add(checks.check_outputs(self.out, self.expected,
                                            self.use_reference))
        outputs = {name: (self.out / name).read_bytes()
                   for name in self.expected if (self.out / name).is_file()}
        self.csv_rows = sum(data.count(b"\n") - 1 for data in outputs.values())
        if self.first_outputs is None:
            self.first_outputs = outputs
        self.identical = self.identical and outputs == self.first_outputs
        shutil.rmtree(self.out)
        return wall, cpu

    @property
    def correct(self) -> bool:
        return self.check.failed == 0 and self.identical

    def info(self) -> dict:
        return {"outputs_identical": self.identical,
                "reference_checked": self.use_reference,
                "reference_bytes_equal": (self.check.bytes_equal
                                          if self.use_reference else None)}


def run_end_to_end(name: str, seed: int, seconds: float):
    setup, setup_kernels = measure_setup(name, seed)
    runner = SweepRunner(name, seed)
    warmup = runner.run()[0]
    ticks = cpu_ticks()
    start = time.perf_counter()
    sweeps, kernels = calibrate.bracketed(
        lambda: runner.run()[0],
        lambda done: done < MIN_SWEEPS or time.perf_counter() - start < seconds)
    steal = steal_share(ticks, cpu_ticks())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check = runner.check
    metrics = {
        "setup_s": (calibrate.rescaled(setup, setup_kernels), "s"),
        "sweep_s": (calibrate.rescaled(sweeps, kernels), "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        "ok_frac": (1.0 - check.failed / check.attempted, "ratio"),
    }
    info = runner.info()
    info["samples"] = {"setup_s": setup, "setup_kernel_s": setup_kernels,
                       "warmup_sweep_s": warmup, "sweep_s": sweeps,
                       "sweep_kernel_s": kernels}
    info["cpu_steal_share"] = steal
    return runner, metrics, info


def layer_metrics(spans, wall: float, cpu: float, csv_rows: int) -> dict:
    """Per-layer metric values of one traced sweep."""
    stats = summarize(spans)
    values = {}
    for metric in workloads.SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        values[metric] = (getattr(stats[span], field)
                          if field in ("calls", "self_s", "total_s")
                          else stats[span].amount)
    drawn = count_under(spans, "rng.integers", "augment.sample_pairs", "amount")
    values["augment.sample_pairs.useful_ratio"] = (
        stats["augment.sample_pairs"].amount / drawn if drawn else 0.0)
    grads = stats["nnet.loss_and_grad"].calls
    discarded = count_under(spans, "nnet.loss_and_grad", "nnet.eval_loss")
    values["nnet.discarded_grad_ratio"] = discarded / grads if grads else 0.0
    values["records.csv_rows"] = csv_rows
    cells = (stats["nnet.train"].total_s
             + stats["linreg.linreg_sample_sweep"].total_s)
    values["sweep.cell_parallelism"] = cells / wall
    values["proc.cpu_s"] = cpu
    return values


def run_traced(name: str, seed: int, seconds: float):
    runner = SweepRunner(name, seed)
    warmup = runner.run()[0]
    plain, traced, per_sweep = [], [], []
    ticks = cpu_ticks()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.run()[0])
        with Tracer() as tracer:
            wall, cpu = runner.run()
        traced.append(wall)
        per_sweep.append(layer_metrics(tracer.spans, wall, cpu, runner.csv_rows))
    steal = steal_share(ticks, cpu_ticks())
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    spec = workloads.per_layer_spec()
    metrics = {}
    for metric, (unit, _) in spec.items():
        if metric != "trace.overhead_frac":
            metrics[metric] = (statistics.median(v[metric] for v in per_sweep), unit)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    info = runner.info()
    info["samples"] = {"warmup_sweep_s": warmup, "sweep_s": plain,
                       "traced_sweep_s": traced}
    info["cpu_steal_share"] = steal
    info["loaded_but_zero"] = [m for m in workloads.LOADED[name]
                               if metrics[m][0] == 0]
    return runner, metrics, info


def git_commit(root: Path):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    libs = {lib: {key: deps.get(lib, {}).get(key)
                  for key in ("name", "version", "openblas configuration")}
            for lib in ("blas", "lapack")}
    return {
        "numpy": numpy.__version__,
        **libs,
        "cpu_count": os.cpu_count(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ddlab" / "__init__.py").is_file():
        print(f"error: no ddlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0
    measure = run_traced if args.trace else run_end_to_end
    runner, metrics, info = measure(args.workload, args.seed, args.seconds)
    loaded_zero = info.get("loaded_but_zero", [])
    info.update(workload=args.workload, seed=args.seed, sweep_seeds=runner.cfg.seeds,
                environment=environment())
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": runner.correct and not loaded_zero,
        "attempted": runner.check.attempted,
        "failed": runner.check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
