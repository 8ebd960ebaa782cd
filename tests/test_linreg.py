import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import (ConcatView, LinearModel, RegressionDataset, Rng,
                   build_concat_test, design_rank, gen_linreg,
                   linreg_sample_sweep, materialize, mix_seed, mse,
                   pinv_solve, sample_theta)
from ddlab.linreg import (_concat_test_mse, _fit_variant, _svd_cutoff,
                          _sweep_cell, median_points)


def gram_rank_oracle(X):
    """Rank via eigenvalues of X^T X, independent of the SVD route.

    Gram eigenvalue noise sits at eps * lambda_max, so the cutoff has to be
    relative in eigenvalue space; 1e-10 cleanly separates the structural
    spectrum of generic Gaussian designs from that noise floor.
    """
    eig = np.linalg.eigvalsh(X.T @ X)
    return int(np.sum(eig > eig.max(initial=0.0) * 1e-10))


def thin_svd_pinv_solve(X, y):
    """Thin-SVD pseudoinverse under pinv_solve's cutoff rule.

    The reference that pinv_solve's gelsd call must match; it forms the
    full m x q left factor U, which gelsd never does.
    """
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    cutoff = _svd_cutoff(s, *X.shape)
    keep = s > cutoff
    coeffs = (u[:, keep].T @ y) / s[keep]
    return LinearModel(vt[keep].T @ coeffs, int(keep.sum()), cutoff)


@st.composite
def solver_problems(draw):
    """(X, y) over tall, wide, low-rank, duplicated-column and pair designs."""
    kind = draw(st.sampled_from(
        ["tall", "wide", "low_rank", "duplicated", "concat"]))
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "concat":
        # n <= d and n > d: the pair design has rank min(2n - 1, 2d)
        n, d = draw(st.integers(1, 12)), draw(st.integers(1, 8))
        base = gen_linreg(n, d, 0.1, sample_theta(d, rng), rng)
        pairs = materialize(ConcatView(base))
        return pairs.features, pairs.targets
    a, b = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    if kind == "tall":
        m, q = max(a, b), min(a, b)
    elif kind == "wide":
        m, q = min(a, b), max(a, b)
    else:
        m, q = a, b
    if kind == "low_rank":
        r = draw(st.integers(1, max(1, min(m, q) - 1)))
        X = rng.standard_normal((m, r)) @ rng.standard_normal((r, q))
    else:
        X = rng.standard_normal((m, q))
    if kind == "duplicated":
        src = draw(st.integers(0, q - 1))
        X[:, draw(st.integers(0, q - 1))] = X[:, src]
    return X, rng.standard_normal(m)


class TestPinvSolve:
    def test_identity(self):
        model = pinv_solve(np.eye(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(model.theta_hat, [1.0, 2.0])
        assert model.effective_rank == 2

    def test_underdetermined_min_norm(self):
        model = pinv_solve(np.array([[1.0, 0.0]]), np.array([2.0]))
        np.testing.assert_allclose(model.theta_hat, [2.0, 0.0])

    def test_matches_normal_equations(self):
        rng = Rng(3)
        X = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        model = pinv_solve(X, y)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(model.theta_hat, oracle, atol=1e-10)

    def test_min_norm_against_lstsq(self):
        rng = Rng(8)
        for m, q in [(4, 9), (9, 4), (6, 6)]:
            X = rng.standard_normal((m, q))
            y = rng.standard_normal(m)
            model = pinv_solve(X, y)
            other, *_ = np.linalg.lstsq(X, y, rcond=None)
            assert np.linalg.norm(model.theta_hat) <= \
                np.linalg.norm(other) + 1e-9
            r_ours = np.linalg.norm(X @ model.theta_hat - y)
            r_other = np.linalg.norm(X @ other - y)
            assert abs(r_ours - r_other) <= 1e-9

    def test_interpolation_when_rows_independent(self):
        rng = Rng(2)
        X = rng.standard_normal((6, 10))
        y = rng.standard_normal(6)
        model = pinv_solve(X, y)
        assert design_rank(X) == 6
        train = float(np.mean((X @ model.theta_hat - y) ** 2))
        assert train <= 1e-18 * float(y @ y)

    def test_scale_equivariance(self):
        rng = Rng(4)
        X = rng.standard_normal((7, 3))
        y = rng.standard_normal(7)
        base = pinv_solve(X, y).theta_hat
        for c in (1e-3, 5.0, 2e4):
            scaled = pinv_solve(c * X, c * y).theta_hat
            np.testing.assert_allclose(scaled, base, rtol=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pinv_solve(np.array([[np.inf, 1.0]]), np.array([1.0]))

    def test_zero_design_gives_zero_fit(self):
        model = pinv_solve(np.zeros((3, 2)), np.ones(3))
        np.testing.assert_array_equal(model.theta_hat, [0.0, 0.0])
        assert model.effective_rank == 0 and model.sv_cutoff == 0.0


@settings(max_examples=200, deadline=None)
@given(solver_problems())
def test_solver_matches_thin_svd_reference(problem):
    X, y = problem
    got, ref = pinv_solve(X, y), thin_svd_pinv_solve(X, y)
    assert got.effective_rank == ref.effective_rank
    assert abs(got.sv_cutoff - ref.sv_cutoff) <= 1e-12 * ref.sv_cutoff
    # 8.6e-14 relative to max(1, |y|) was the worst of 20,000 random cases
    scale = max(1.0, float(np.linalg.norm(y)))
    np.testing.assert_allclose(X @ got.theta_hat, X @ ref.theta_hat,
                               rtol=0, atol=1e-10 * scale)


def test_fig1_fits_match_thin_svd_reference():
    # All 300 fits of the fig1 grid at seeds 0-2, drawn as _sweep_cell
    # draws them: equal ranks, and test MSE within 1e-12 relative.
    raw = json.loads(resources.files("ddlab").joinpath(
        "presets", "fig1.json").read_text())
    d, sigma, n_test = raw["d"], raw["sigma"], raw["n_test"]
    worst = 0.0
    for n in raw["n_grid"]:
        for seed in (0, 1, 2):
            rng = Rng(mix_seed(seed, n))
            theta = sample_theta(d, rng)
            train = gen_linreg(n, d, sigma, theta, rng)
            test = gen_linreg(n_test, d, sigma, theta, rng)
            pairs = materialize(ConcatView(train))
            for fit_on, test_on in ((train, test),
                                    (pairs, build_concat_test(test))):
                got = pinv_solve(fit_on.features, fit_on.targets)
                ref = thin_svd_pinv_solve(fit_on.features, fit_on.targets)
                assert got.effective_rank == ref.effective_rank, (n, seed)
                a, b = mse(got, test_on), mse(ref, test_on)
                worst = max(worst, abs(a - b) / b)
    assert worst <= 1e-12, worst


def pair_design_fit(train):
    """The concat fit by brute force: pinv_solve on all n^2 pair rows.

    The reference for linreg's closed-form concat fit on the base rows.
    """
    pairs = materialize(ConcatView(train))
    return pinv_solve(pairs.features, pairs.targets)


@st.composite
def concat_bases(draw):
    """Regression bases, n <= d and n > d, generic, with a duplicated row,
    or with an all-zero design."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    base = gen_linreg(n, d, 0.1, sample_theta(d, rng), rng)
    X = base.features.copy()
    kind = draw(st.sampled_from(["generic", "duplicated", "zero"]))
    if kind == "duplicated" and n > 1:
        X[draw(st.integers(1, n - 1))] = X[0]
    elif kind == "zero":
        X[:] = 0.0
    return RegressionDataset(X, base.targets), rng


@settings(max_examples=200, deadline=None)
@given(concat_bases())
def test_closed_form_concat_matches_pair_design(case):
    base, rng = case
    d = base.dim
    got, _ = _fit_variant(base, "concat")
    ref = pair_design_fit(base)
    theta_a, theta_b = got.theta_hat[:d], got.theta_hat[d:]
    assert np.array_equal(theta_a, theta_b)
    scale = max(1.0, float(np.linalg.norm(base.targets)))
    # fitted values on all n^2 pairs: a projection, as well conditioned as y
    pairs = materialize(ConcatView(base)).features
    np.testing.assert_allclose(pairs @ got.theta_hat, pairs @ ref.theta_hat,
                               rtol=0, atol=1e-10 * scale)
    # any 2d-wide input: there the reference errs by about eps times the
    # pair design's condition number, mostly in its antisymmetric half
    # (worst 3.4e-13 * cond * scale over 40,000 random bases)
    s = np.linalg.svd(pairs, compute_uv=False)
    kept = s[s > _svd_cutoff(s, *pairs.shape)]
    cond = kept[0] / kept[-1] if kept.size else 1.0
    probes = rng.standard_normal((20, 2 * d))
    np.testing.assert_allclose(probes @ got.theta_hat, probes @ ref.theta_hat,
                               rtol=0, atol=1e-11 * cond * scale)


def test_fig1_concat_fits_match_pair_design():
    # All 150 concat cells of the fig1 grid at seeds 0-2, drawn as
    # _sweep_cell draws them: the closed-form fit's test MSE on [x || x]
    # within 1e-12 relative of the pair-design fit's.
    raw = json.loads(resources.files("ddlab").joinpath(
        "presets", "fig1.json").read_text())
    d, sigma, n_test = raw["d"], raw["sigma"], raw["n_test"]
    worst = 0.0
    for n in raw["n_grid"]:
        for seed in (0, 1, 2):
            rng = Rng(mix_seed(seed, n))
            theta = sample_theta(d, rng)
            train = gen_linreg(n, d, sigma, theta, rng)
            test = build_concat_test(gen_linreg(n_test, d, sigma, theta, rng))
            got, _ = _fit_variant(train, "concat")
            a, b = mse(got, test), mse(pair_design_fit(train), test)
            worst = max(worst, abs(a - b) / b)
    assert worst <= 1e-12, worst


@pytest.mark.parametrize("n_test", [1, 7, 1023, 1024, 1025, 2053])
@pytest.mark.parametrize("n", [12, 45])  # n <= d and n > d at d = 30
def test_streamed_concat_test_mse_is_bit_equal(n, n_test):
    # The full [x || x] copy stays only as this oracle: the sweep builds
    # the concat test rows in slices, on and across slice boundaries.
    for seed in range(4):
        rng = Rng(mix_seed(seed, n))
        theta = sample_theta(30, rng)
        model, _ = _fit_variant(gen_linreg(n, 30, 0.5, theta, rng), "concat")
        test = gen_linreg(n_test, 30, 0.5, theta, rng)
        assert _concat_test_mse(model, test) == \
            mse(model, build_concat_test(test)), seed


@pytest.mark.parametrize("n", [2, 5, 10, 29, 30])
def test_concat_equals_standard_when_n_at_most_d(n):
    # For n <= d the base rows are independent and both min-norm fits
    # interpolate, so the pair weighting drops out: concat predicts
    # [x || x] exactly as standard predicts x.
    for seed in range(3):
        (_, std, _), (_, cat, _) = _sweep_cell(
            30, 0.1, n, 10_000, seed, ("standard", "concat"))
        assert abs(cat - std) <= 1e-12 * std, (seed, cat, std)


class TestMse:
    def test_true_theta_zero_noise(self):
        theta = sample_theta(4, Rng(0))
        ds = gen_linreg(50, 4, 0.0, theta, Rng(1))
        model = pinv_solve(ds.features, ds.targets)
        assert mse(model, ds) < 1e-25

    def test_zero_model_unit_quadratic_form(self):
        # E[(theta . x)^2] = 1 for unit theta and isotropic x
        theta = sample_theta(10, Rng(5))
        ds = gen_linreg(100_000, 10, 0.0, theta, Rng(6))
        from ddlab import LinearModel
        zero = LinearModel(np.zeros(10), 0, 0.0)
        assert mse(zero, ds) == pytest.approx(1.0, rel=0.05)

    def test_hand_arithmetic(self):
        from ddlab import LinearModel
        ds = RegressionDataset(np.array([[2.0]]), np.array([0.0]))
        assert mse(LinearModel(np.array([1.0]), 1, 0.0), ds) == 4.0

    def test_dimension_mismatch(self):
        from ddlab import LinearModel
        ds = RegressionDataset(np.array([[2.0, 1.0]]), np.array([0.0]))
        with pytest.raises(ValueError):
            mse(LinearModel(np.array([1.0]), 1, 0.0), ds)


class TestDesignRank:
    def test_identity(self):
        assert design_rank(np.eye(4)) == 4

    def test_rank_one_outer_product(self):
        u = np.arange(1.0, 6.0)
        assert design_rank(np.outer(u, u)) == 1

    def test_concat_design_generic_rank(self):
        theta = sample_theta(30, Rng(1))
        base = gen_linreg(5, 30, 0.1, theta, Rng(2))
        design = materialize(ConcatView(base)).features
        assert design_rank(design) == 9
        assert gram_rank_oracle(design) == 9

    def test_rank_law_small_grid(self):
        for d in (5, 30):
            for n in range(2, 11):
                theta = sample_theta(d, Rng(n))
                base = gen_linreg(n, d, 0.1, theta, Rng(100 * d + n))
                design = materialize(ConcatView(base)).features
                assert design_rank(design) == min(2 * n - 1, 2 * d)


class TestSweep:
    def test_row_counts_and_medians(self):
        points = linreg_sample_sweep(5, 0.1, [4, 8], [0, 1, 2], 50)
        assert len(points) == 2 * 3 + 2
        med = median_points(points)
        assert [p.axis_value for p in med] == [4.0, 8.0]
        per_seed = [p for p in points if p.status == "ok"]
        assert all(p.seed is not None for p in per_seed)

    def test_overdetermined_regime_value(self):
        # d=30, n=100, sigma=0.1: theory sigma^2 (1 + d/(n-d-1)) ~ 0.0143
        points = linreg_sample_sweep(30, 0.1, [100], list(range(20)), 10_000)
        med = median_points(points)[0].test_loss
        assert 0.010 <= med <= 0.025

    def test_concat_variant_pairs_with_standard(self):
        std = linreg_sample_sweep(4, 0.1, [6], [0, 1], 20,
                                  variants=("standard",))
        cat = linreg_sample_sweep(4, 0.1, [6], [0, 1], 20,
                                  variants=("concat",))
        assert [p.seed for p in std] == [p.seed for p in cat]
        assert all(p.params == 8 for p in cat)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            linreg_sample_sweep(5, 0.1, [], [0], 10)

    def test_both_variants_equal_separate_sweeps(self):
        args = (4, 0.1, [3, 6, 9], [0, 1, 2], 40)
        both = linreg_sample_sweep(*args, variants=("standard", "concat"))
        std = linreg_sample_sweep(*args, variants=("standard",))
        cat = linreg_sample_sweep(*args, variants=("concat",))
        assert both == std + cat

    def test_unknown_variant_rejected_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew data before validating variants")

        monkeypatch.setattr("ddlab.linreg.sample_theta", no_draws)
        with pytest.raises(ValueError, match="unknown variant 'stacked'"):
            linreg_sample_sweep(5, 0.1, [4], [0], 10,
                                variants=("standard", "stacked"))

    def test_concat_test_set_built_after_pair_design_is_freed(self):
        # The fig1 cell at n=100: gelsd never forms the n^2 x 60 left
        # singular vectors, the test set is drawn after the 10^4 x 60 pair
        # design is freed, and its [x || x] rows are built a slice at a
        # time.  The traced peak is 4.8 MiB, 1.06x the design.  A whole
        # [x || x] copy of the test set gives 1.57x, and so does drawing
        # the test set before the fit; the thin-SVD solver gave 3.03x.
        # The test below also checks the draw order directly.
        args = (30, 0.1, 100, 10_000, 0, ("standard", "concat"))
        design_bytes = 100 ** 2 * 60 * 8
        _sweep_cell(*args)  # warm numpy's caches
        tracemalloc.start()
        try:
            _sweep_cell(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * design_bytes, peak / 2**20

    def test_test_set_drawn_after_every_fit(self, monkeypatch):
        # The 10^4 x 30 test set must not be alive next to the pair design.
        events = []

        def traced(name, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                events.append((name, args[0]))
                return result
            return wrapper

        monkeypatch.setattr("ddlab.linreg.gen_linreg",
                            traced("draw", gen_linreg))
        monkeypatch.setattr("ddlab.linreg.materialize",
                            traced("pairs", materialize))
        monkeypatch.setattr("ddlab.linreg.pinv_solve",
                            traced("fit", pinv_solve))
        _sweep_cell(4, 0.1, 6, 50, 0, ("standard", "concat"))
        assert [name for name, _ in events] == \
            ["draw", "fit", "pairs", "fit", "draw"]
        assert events[0][1] == 6 and events[-1][1] == 50
