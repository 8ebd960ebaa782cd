"""A fixed calibration kernel that measures how fast the machine is right now.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x over minutes, while the ratio of a sweep's time to the time of a fixed
piece of similar work run in the same minutes stays put.  So the timed
samples of a run (sweeps, set-up probes) are interleaved with runs of
``kernel_s``, and the benchmark reports

    mean(sample wall times) * NOMINAL_S / mean(kernel times)

that is, the mean sample time on a machine where the kernel takes NOMINAL_S
seconds.  Means, not medians: the host switches between a fast and a slow
state every few seconds, and a median jumps between the two modes where a
mean follows the share of time spent in each.  The kernel never touches
ddlab, so a change to the library moves the rescaled time exactly as it
moves the wall time.

Its work mirrors the workloads' hot paths: a loop of small-array numpy
steps (per-step overhead of nnet training), Gaussian draws and elementwise
math on long arrays (rng / datagen), and thin SVDs (linreg.pinv_solve).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's fast-state time on a 2-vCPU VM (numpy 2.4.6,
# OpenBLAS 0.3.31, Python 3.11.7); only a unit, it need not be exact.
NOMINAL_S = 0.2

_STEPS = 2000
_DRAWS = 170
_SVDS = 110


def _work() -> float:
    gen = np.random.default_rng(20210701)
    x = gen.standard_normal((512, 20))
    w1 = gen.standard_normal((20, 16)) * 0.1
    w2 = gen.standard_normal((16, 10)) * 0.1
    m = np.zeros_like(w1)
    v = np.zeros_like(w1)
    for i in range(_STEPS):
        start = (32 * i) % 480
        xb = x[start:start + 32]
        h = np.maximum(xb @ w1, 0.0)
        z = h @ w2
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = xb.T @ ((p @ w2.T) * (h > 0.0))
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w1 = w1 - 1e-3 * m / (np.sqrt(v) + 1e-8)
    acc = float(w1.sum())
    for _ in range(_DRAWS):
        u = gen.uniform(-1.0, 1.0, 40000)
        acc += float(np.sqrt(-2.0 * np.log(np.abs(u) + 1e-12)).sum())
    a = gen.standard_normal((100, 61))
    for _ in range(_SVDS):
        acc += float(np.linalg.svd(a, full_matrices=False, compute_uv=True)[1][0])
    return acc


def kernel_s() -> float:
    """Wall seconds of one run of the calibration kernel."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def bracketed(measure, more):
    """Call ``measure()`` while ``more(samples_so_far)`` holds, with a
    kernel run before the first call and after each.

    Returns (samples, kernel times).
    """
    kernels = [kernel_s()]
    samples = []
    while more(len(samples)):
        samples.append(measure())
        kernels.append(kernel_s())
    return samples, kernels


def rescaled(samples, kernels) -> float:
    """Mean sample time at the kernel's nominal speed."""
    return statistics.fmean(samples) * NOMINAL_S / statistics.fmean(kernels)
