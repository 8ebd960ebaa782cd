"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 1 note: the sample-wise peak of min-norm regression (d=30,
sigma=0.1, unit-norm theta) is a property of the expected test risk.  In
closed form it is (1-n/d)|theta|^2 + sigma^2 n/(d-n-1) + sigma^2 for
n <= d-2 and sigma^2 d/(n-d-1) + sigma^2 for n >= d+2: 0.682 at n=10,
0.01435 at n=100, and infinite at n=d.  The per-seed risk near n=d is
heavy-tailed, so its median does not peak there: an independent
numpy-only lstsq oracle (exact risk |theta_hat-theta|^2 + sigma^2,
thousands of draws per n) puts the true medians at 0.96 (n=2), 0.69
(n=10), 0.62-0.68 (n=30) and 0.0142 (n=100), a median(30)/median(10)
ratio near 0.94.  Clauses a and b therefore read the per-n mean of the
per-seed test MSE.  Over random 20-seed sets the mean curve peaks in
[28, 32] in about 98.5-99% of sets and mean(30) >= mean(10) holds in
about 99.7%; a ridge fit at lambda=1e-2, which has no peak, passes either
clause in under 0.1% of sets.  The median-based versions hold in about
18-21% (argmax) and 0.2-0.3% (5x ratio) of seed sets.  Clause c
(median(30)/median(100) >= 20) holds in about 96% of seed sets and keeps
the median.
"""

import itertools
import json
import math
import time
import warnings

import numpy as np
import pytest

from ddlab import (ConcatView, Rng, TrainConfig, design_rank,
                   estimate_bias_variance, gen_linreg,
                   gen_mixture_classification, init_mlp, linreg_sample_sweep,
                   load_idx, loss_and_grad, materialize, mix_seed, one_hot,
                   parse_config, run_config, sample_theta, summarize,
                   write_idx)
from ddlab.biasvar import decompose_batch
from ddlab.cli import run_gradcheck, run_lift_check
from ddlab.nnet import LOSS_CE, OptimizerConfig
from ddlab.records import STATUS_MEDIAN
from ddlab.sweep import run_sweep

GRID = list(range(2, 101, 2))
SEEDS = list(range(20))
N_TEST = 10_000
D = 30
SIGMA = 0.1


def report(criterion, ok, detail):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _sweep(variant):
    """Medians by n, per-seed test MSE by n, and wall time of one sweep."""
    started = time.perf_counter()
    points = linreg_sample_sweep(D, SIGMA, GRID, SEEDS, N_TEST,
                                 variants=(variant,))
    elapsed = time.perf_counter() - started
    medians = {}
    test_by_n = {n: [] for n in GRID}
    for p in points:
        if p.status == STATUS_MEDIAN:
            medians[int(p.axis_value)] = p.test_loss
        else:
            test_by_n[int(p.axis_value)].append(p.test_loss)
    return medians, test_by_n, elapsed


@pytest.fixture(scope="module")
def standard_sweep():
    return _sweep("standard")


@pytest.fixture(scope="module")
def concat_sweep():
    return _sweep("concat")


def peak_clauses(test_by_n):
    """Criterion 1 clauses a and b on the per-n mean of per-seed test MSE.

    Returns (argmax n, mean(30)/mean(10), clause a, clause b).
    """
    means = {n: float(np.mean(v)) for n, v in test_by_n.items()}
    argmax = max(means, key=means.get)
    ratio10 = means[30] / means[10]
    return argmax, ratio10, 28 <= argmax <= 32, ratio10 >= 1.0


def ridge_test_by_n(lam, n_test):
    """Per-seed test MSE by n of a ridge fit on the sweep's own draws."""
    test_by_n = {}
    for n in GRID:
        test_by_n[n] = []
        for seed in SEEDS:
            rng = Rng(mix_seed(seed, n))
            theta = sample_theta(D, rng)
            train = gen_linreg(n, D, SIGMA, theta, rng)
            test = gen_linreg(n_test, D, SIGMA, theta, rng)
            X, y = train.features, train.targets
            theta_hat = np.linalg.solve(X.T @ X + lam * np.eye(D), X.T @ y)
            resid = test.features @ theta_hat - test.targets
            test_by_n[n].append(float(np.mean(resid * resid)))
    return test_by_n


class TestCriterion1LinregDoubleDescent:
    def test_criterion_1(self, standard_sweep):
        medians, test_by_n, elapsed = standard_sweep
        argmax, ratio10, clause_a, clause_b = peak_clauses(test_by_n)
        ratio100 = medians[30] / medians[100]
        clause_c = ratio100 >= 20.0
        clause_t = elapsed < 60.0
        detail = (f"mean argmax n={argmax} ({'ok' if clause_a else 'BAD'}), "
                  f"mean(30)/mean(10)={ratio10:.2f} "
                  f"({'>=1 ok' if clause_b else '<1 BAD'}), "
                  f"median(30)/median(100)={ratio100:.1f} "
                  f"({'>=20 ok' if clause_c else 'BAD'}), "
                  f"runtime {elapsed:.1f}s "
                  f"({'<60s ok' if clause_t else 'BAD'})")
        report(1, clause_a and clause_b and clause_c and clause_t, detail)
        assert clause_a, detail
        assert clause_c, detail
        assert clause_t, detail
        assert clause_b, (
            f"{detail}. The closed-form expected risk is 0.682 at n=10 and "
            f"infinite at n=d=30, so the per-seed mean at n=30 should exceed "
            f"the one at n=10 (it does in ~99.7% of random 20-seed sets).")

    def test_ridge_control_fails_peak_clauses(self):
        # A ridge fit at lambda=1e-2 has no interpolation peak; on the same
        # draws the corrected clauses must reject it, so they can fail.
        argmax, ratio10, clause_a, clause_b = peak_clauses(
            ridge_test_by_n(1e-2, n_test=2000))
        assert not clause_a, f"ridge mean argmax n={argmax}"
        assert not clause_b, f"ridge mean(30)/mean(10)={ratio10:.2f}"


class TestCriterion2PeakInvariance:
    def test_criterion_2(self, standard_sweep, concat_sweep):
        std, _, _ = standard_sweep
        cat, _, elapsed = concat_sweep
        argmax_std = max(std, key=std.get)
        argmax_cat = max(cat, key=cat.get)
        ok = argmax_std == argmax_cat and elapsed < 300.0
        report(2, ok, f"standard argmax n={argmax_std}, concat argmax "
                      f"n={argmax_cat}, concat runtime {elapsed:.1f}s")
        assert argmax_cat == argmax_std
        assert elapsed < 300.0


class TestCriterion3ConcatRankLaw:
    def test_criterion_3(self):
        cells = [(n, d) for d in (5, 30) for n in range(2, 11)]
        draws = list(itertools.islice(itertools.cycle(cells), 50))
        failures = []
        for idx, (n, d) in enumerate(draws):
            rng = Rng(mix_seed(1234, idx))
            theta = sample_theta(d, rng)
            base = gen_linreg(n, d, SIGMA, theta, rng)
            rank = design_rank(materialize(ConcatView(base)).features)
            if rank != min(2 * n - 1, 2 * d):
                failures.append((n, d, rank))
        ok = not failures
        report(3, ok, f"rank = min(2n-1, 2d) on 50/50 draws"
                      f"{'' if ok else f', failures: {failures}'}")
        assert ok


class TestCriterion4GradientCorrectness:
    def test_criterion_4(self):
        worst = run_gradcheck(draws=100, eps=1e-5, seed=0)
        ok = worst < 1e-4
        report(4, ok, f"max relative deviation {worst:.3e} over 100 draws "
                      f"(limit 1e-4, ReLU-kink neighborhoods excluded)")
        assert ok


class TestCriterion5LiftIdentities:
    def test_criterion_5(self):
        self_dev, pair_dev = run_lift_check(draws=1000, seed=0)
        ok = self_dev < 1e-9 and pair_dev < 1e-9
        report(5, ok, f"self-concat deviation {self_dev:.3e}, pair-average "
                      f"deviation {pair_dev:.3e} over 1000 draws (limit 1e-9)")
        assert ok


class TestCriterion6DecompositionIdentity:
    def test_criterion_6(self):
        rng = Rng(99)
        worst_resid = 0.0
        min_bias = math.inf
        min_var = math.inf
        # each draw is one test point: a (1, c) label row and a (k, 1, c)
        # stack, decomposed by the function the biasvar sweep runs
        for _ in range(10_000):
            c = 2 + rng.integers(9)
            k = 2 + rng.integers(7)
            pi = one_hot([rng.integers(c)], c)
            preds = np.stack([np.exp(3.0 * rng.standard_normal(c))
                              for _ in range(k)])[:, None]
            (risk,), (bias,), (variance,) = decompose_batch(pi, preds)
            worst_resid = max(worst_resid, abs(risk - bias - variance))
            min_bias = min(min_bias, bias)
            min_var = min(min_var, variance)
        # identical predictions: variance vanishes to rounding noise
        worst_ident = 0.0
        for _ in range(1000):
            c = 2 + rng.integers(9)
            q = np.exp(3.0 * rng.standard_normal(c))
            _, _, (variance,) = decompose_batch(
                one_hot([0], c), np.stack([q] * (2 + rng.integers(7)))[:, None])
            worst_ident = max(worst_ident, abs(variance))
        ok = (worst_resid < 1e-10 and min_bias >= 0.0 and min_var >= 0.0
              and worst_ident < 1e-12)
        report(6, ok, f"max |risk-bias-variance| {worst_resid:.2e} over "
                      f"10,000 draws, min bias {min_bias:.2e}, min variance "
                      f"{min_var:.2e}, identical-prediction variance "
                      f"{worst_ident:.2e}")
        assert worst_resid < 1e-10
        assert min_bias >= 0.0 and min_var >= 0.0
        assert worst_ident < 1e-12


class TestCriterion7SplitEstimatorConsistency:
    def test_criterion_7(self):
        started = time.perf_counter()
        rng = Rng(mix_seed(7, 1))
        full = gen_mixture_classification(3500, 20, 10, 4.0, rng)
        train_set = full.take(np.arange(2500))
        test_set = full.take(np.arange(2500, 3500))
        cfg = TrainConfig(LOSS_CE, epochs=40, batch_size=32,
                          optimizer=OptimizerConfig("adam", lr=0.001))
        rows = estimate_bias_variance([2, 4, 8, 16, 32], train_set, k=5,
                                      split_size=500, test_set=test_set,
                                      train_config=cfg, base_seed=7)
        elapsed = time.perf_counter() - started
        worst = max(abs(r.bias_kl - r.bias_subtraction) for r in rows)
        ok = worst < 1e-8 and len(rows) == 5 and elapsed < 600.0
        report(7, ok, f"max |bias_kl - (risk - variance)| = {worst:.2e} over "
                      f"widths {{2,4,8,16,32}}, k=5 (limit 1e-8), "
                      f"runtime {elapsed:.1f}s")
        assert worst < 1e-8
        assert elapsed < 600.0


class TestCriterion8DeskScaleMitigation:
    def test_criterion_8(self, tmp_path):
        """Advisory: warns instead of failing (statistical expectation)."""
        from importlib import resources
        raw = json.loads(resources.files("ddlab").joinpath(
            "presets", "desk_mixture.json").read_text())
        cfg = parse_config(raw)
        started = time.perf_counter()
        result = run_sweep(cfg)
        elapsed = time.perf_counter() - started

        med = summarize(result.points, ["variant", "axis_value"],
                        "test_error")
        ratios = {(p.variant, p.axis_value): p.param_sample_ratio
                  for p in result.points}
        prominence = {}
        for variant in ("standard", "concat"):
            curve = {row.key[1]: row.median for row in med
                     if row.key[0] == variant}
            band = [w for w in curve
                    if 0.5 <= ratios[(variant, w)] <= 2.0]
            largest = max(curve)
            prominence[variant] = max(curve[w] for w in band) - curve[largest]
        ok = (prominence["standard"] >= 0.02
              and prominence["concat"] < prominence["standard"])
        csv_path = tmp_path / "desk_mixture.csv"
        from ddlab.sweep import write_points_csv
        write_points_csv(csv_path, result.points)
        detail = (f"standard prominence {prominence['standard']:+.3f} "
                  f"(need >= 0.02), concat prominence "
                  f"{prominence['concat']:+.3f} (need smaller), runtime "
                  f"{elapsed / 60:.1f} min, CSV at {csv_path}")
        report(8, ok, detail + " [advisory]")
        assert elapsed < 1800.0
        if not ok:
            warnings.warn("criterion 8 (advisory) not met: " + detail)


class TestCriterion9Determinism:
    def test_sweep_rerun_byte_identical(self, tmp_path):
        raw = {
            "experiment": "mlp-width", "experiment_id": "det",
            "variants": ["standard", "concat"], "seeds": [0, 1],
            "threads": 2,
            "data": {"kind": "mixture", "n": 80, "d": 6, "classes": 4,
                     "separation": 4.0, "test_n": 40,
                     "noise_fraction": 0.1},
            "widths": [3, 6],
            "train": {"loss": "ce", "epochs": 3, "batch_size": 16,
                      "optimizer": {"kind": "adam", "lr": 0.003}},
        }
        cfg = parse_config(raw)
        run_config(cfg, tmp_path / "a")
        run_config(cfg, tmp_path / "b")
        same_csv = ((tmp_path / "a" / "det.csv").read_bytes()
                    == (tmp_path / "b" / "det.csv").read_bytes())
        same_traces = ((tmp_path / "a" / "det_traces.csv").read_bytes()
                       == (tmp_path / "b" / "det_traces.csv").read_bytes())
        ok = same_csv and same_traces
        report("9a", ok, "sweep re-run produces byte-identical CSV outputs")
        assert ok

    def test_idx_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(17)
        pixels = rng.integers(0, 256, size=(20, 5, 7)).astype(np.uint8)
        labels = rng.integers(0, 10, size=20)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx(ip, lp, pixels, labels)
        ds = load_idx(ip, lp)
        out_ip, out_lp = tmp_path / "img2", tmp_path / "lab2"
        write_idx(out_ip, out_lp,
                  np.rint(ds.features * 255).astype(np.uint8).reshape(20, 5, 7),
                  ds.targets.argmax(axis=1))
        ok = (out_ip.read_bytes() == ip.read_bytes()
              and out_lp.read_bytes() == lp.read_bytes())
        report("9b", ok, "IDX load/write round trip is byte-identical")
        assert ok


class TestCriterion10SoftmaxSpotValues:
    def test_criterion_10(self):
        worst = 0.0
        for c in (2, 10, 100):
            model = init_mlp(3, 2, c, Rng(0))
            model.W2[:] = 0.0
            model.b2[:] = 1.5  # equal logits in every coordinate
            one = one_hot([c - 1], c)
            two = np.zeros((1, c))
            two[0, 0] = two[0, c // 2] = 0.5
            for targets in (one, two):
                loss, _ = loss_and_grad(model, np.ones((1, 3)), targets,
                                        LOSS_CE)
                worst = max(worst, abs(loss - math.log(c)))
        ok = worst < 1e-12
        report(10, ok, f"uniform-logit CE equals ln(c) for c in {{2,10,100}}, "
                       f"one-hot and two-hot targets; max deviation "
                       f"{worst:.2e} (limit 1e-12)")
        assert ok
