import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import (ClassificationDataset, ConcatView, MemoryBudgetError,
                   RegressionDataset, Rng, build_concat_test,
                   gen_mixture_classification, materialize, one_hot,
                   sample_pairs)
from ddlab.datagen import MODE_AVERAGED, MODE_MULTI_HOT


def tiny_regression():
    return RegressionDataset(np.array([[1.0], [2.0]]), np.array([10.0, 20.0]))


def small_classification(n=6, c=4, seed=0):
    return gen_mixture_classification(n, 3, c, 2.0, Rng(seed))


def pair_view(kind, n, d, c, seed):
    """A ConcatView over a regression, soft-label or one-hot base."""
    rng = Rng(seed)
    features = rng.standard_normal((n, d))
    if kind == "regression":
        return ConcatView(RegressionDataset(features, rng.standard_normal(n)))
    if kind == "averaged":
        weights = rng.uniform(0.1, 1.0, size=(n, c))
        targets = weights / weights.sum(axis=1, keepdims=True)
        return ConcatView(ClassificationDataset(features, targets))
    targets = one_hot(rng.integers(c, size=n), c)
    return ConcatView(ClassificationDataset(features, targets,
                                            MODE_MULTI_HOT))


PAIR_KINDS = ("regression", "averaged", "multi_hot")


class TestConcatPair:
    """Pair targets, through ``ConcatView.element``, the single-pair oracle."""

    def test_two_hot_from_distinct_one_hots(self):
        base = ClassificationDataset(np.array([[0.0, 0.0], [1.0, 1.0]]),
                                     one_hot([3, 7], 10))
        _, target = ConcatView(base).element(0, 1)
        expected = np.zeros(10)
        expected[3] = expected[7] = 0.5
        np.testing.assert_array_equal(target, expected)

    def test_self_pair_keeps_target(self):
        e2 = one_hot([2], 5)
        base = ClassificationDataset(np.array([[1.0, 2.0]]), e2)
        features, target = ConcatView(base).element(0, 0)
        np.testing.assert_array_equal(features, [1.0, 2.0, 1.0, 2.0])
        np.testing.assert_array_equal(target, e2[0])

    def test_regression_mean(self):
        base = RegressionDataset(np.zeros((2, 1)), np.array([0.2, 0.6]))
        _, target = ConcatView(base).element(0, 1)
        assert target == pytest.approx(0.4)

    def test_multi_hot_max(self):
        targets = one_hot([1, 3], 4)
        view = ConcatView(ClassificationDataset(np.zeros((2, 1)), targets,
                                                MODE_MULTI_HOT))
        _, target = view.element(0, 1)
        np.testing.assert_array_equal(target, [0.0, 1.0, 0.0, 1.0])
        # same class stays a valid binary vector
        _, target = view.element(0, 0)
        np.testing.assert_array_equal(target, targets[0])

    def test_mixed_modes_rejected(self):
        # pairs take their base's mode, so soft targets cannot pair
        # multi-hot: the base itself refuses that mode
        soft = ClassificationDataset(np.zeros((2, 1)),
                                     np.array([[0.5, 0.5], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            ConcatView(soft.with_mode(MODE_MULTI_HOT))
        with pytest.raises(TypeError):
            ConcatView(soft, MODE_MULTI_HOT)
        assert ConcatView(soft).mode == MODE_AVERAGED
        regression = RegressionDataset(np.zeros((2, 1)), np.zeros(2))
        assert ConcatView(regression).mode == MODE_AVERAGED


class TestConcatView:
    def test_n2_enumerates_the_four_displayed_pairs(self):
        view = ConcatView(tiny_regression())
        assert view.pair_count == 4
        got = [view.element(i, j) for i in range(2) for j in range(2)]
        expected = [([1.0, 1.0], 10.0), ([1.0, 2.0], 15.0),
                    ([2.0, 1.0], 15.0), ([2.0, 2.0], 20.0)]
        for (f, t), (ef, et) in zip(got, expected):
            np.testing.assert_array_equal(f, ef)
            assert t == et

    def test_single_row_base(self):
        base = RegressionDataset(np.array([[3.0]]), np.array([7.0]))
        view = ConcatView(base)
        assert view.pair_count == 1
        features, target = view.element(0, 0)
        np.testing.assert_array_equal(features, [3.0, 3.0])
        assert target == 7.0

    def test_huge_base_stays_virtual(self):
        features = np.zeros((50_000, 2))
        targets = one_hot(np.arange(50_000) % 2, 2)
        view = ConcatView(ClassificationDataset(features, targets))
        assert view.pair_count == 2_500_000_000
        assert view.input_dim == 4

    def test_symmetry(self):
        view = ConcatView(small_classification())
        for i, j in [(0, 3), (2, 5), (1, 4)]:
            fij, tij = view.element(i, j)
            fji, tji = view.element(j, i)
            d = view.base.dim
            np.testing.assert_array_equal(fij[:d], fji[d:])
            np.testing.assert_array_equal(fij[d:], fji[:d])
            np.testing.assert_array_equal(tij, tji)

    def test_diagonal_matches_self_concat_test(self):
        base = small_classification()
        view = ConcatView(base)
        test = build_concat_test(base)
        for i in range(base.n):
            features, target = view.element(i, i)
            np.testing.assert_array_equal(features, test.features[i])
            np.testing.assert_array_equal(target, test.targets[i])

    def test_out_of_range(self):
        view = ConcatView(tiny_regression())
        with pytest.raises(IndexError):
            view.element(0, 2)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(PAIR_KINDS), n=st.integers(1, 8),
       d=st.integers(1, 4), c=st.integers(2, 4), seed=st.integers(0, 10**6),
       data=st.data())
def test_batch_matches_elements(kind, n, d, c, seed, data):
    view = pair_view(kind, n, d, c, seed)
    index = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1,
                               max_size=20))
    features, targets = view.batch([i * n + j for i, j in pairs])
    for row, (i, j) in enumerate(pairs):
        feature, target = view.element(i, j)
        assert np.array_equal(features[row], feature)
        assert np.array_equal(targets[row], target)


class TestConcatTest:
    def test_shape_and_targets(self):
        base = small_classification(n=5)
        test = build_concat_test(base)
        assert test.features.shape == (5, 2 * base.dim)
        np.testing.assert_array_equal(test.targets, base.targets)
        np.testing.assert_array_equal(test.features[:, :base.dim],
                                      base.features)

    def test_double_application(self):
        base = small_classification(n=4)
        twice = build_concat_test(build_concat_test(base))
        assert twice.features.shape == (4, 4 * base.dim)
        np.testing.assert_array_equal(twice.targets, base.targets)


class TestSamplePairs:
    def test_exhaustive(self):
        view = ConcatView(tiny_regression())
        flat = sample_pairs(view, 4, Rng(0))
        assert flat.shape == (4,) and flat.dtype == np.int64
        assert set(flat.tolist()) == {0, 1, 2, 3}

    def test_without_replacement(self):
        view = ConcatView(tiny_regression())
        flat = sample_pairs(view, 3, Rng(5))
        assert len(set(flat.tolist())) == 3

    def test_deterministic(self):
        view = ConcatView(small_classification(n=10))
        a = sample_pairs(view, 25, Rng(3))
        b = sample_pairs(view, 25, Rng(3))
        np.testing.assert_array_equal(a, b)

    def test_batch_features_match_elements(self):
        view = ConcatView(small_classification(n=7))
        flat = sample_pairs(view, 12, Rng(1))
        features, targets = view.batch(flat)
        for row, k in enumerate(flat.tolist()):
            feature, target = view.element(*divmod(k, 7))
            np.testing.assert_array_equal(features[row], feature)
            np.testing.assert_array_equal(targets[row], target)

    def test_oversized_request(self):
        view = ConcatView(tiny_regression())
        with pytest.raises(ValueError):
            sample_pairs(view, 5, Rng(0))


def reference_sample_pairs(view, m, rng):
    """sample_pairs as a per-value loop over each drawn block."""
    total = view.pair_count
    chosen, seen = [], set()
    while len(chosen) < m:
        block = max(64, int((m - len(chosen)) * 1.15) + 16)
        for value in rng.integers(total, size=block).tolist():
            if value not in seen:
                seen.add(value)
                chosen.append(value)
                if len(chosen) == m:
                    break
    return np.array(chosen, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(PAIR_KINDS), n=st.integers(1, 40),
       seed=st.integers(0, 10**6), data=st.data())
def test_sample_pairs_matches_loop_reference(kind, n, seed, data):
    # m = n^2 is coupon collecting: several blocks, most draws repeats
    m = data.draw(st.one_of(st.integers(1, n * n), st.just(n * n)))
    view = pair_view(kind, n, 2, 3, seed)
    rng, ref_rng = Rng(seed + 1), Rng(seed + 1)
    got = sample_pairs(view, m, rng)
    want = reference_sample_pairs(view, m, ref_rng)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rng.random() == ref_rng.random()  # same stream position


class TestMaterialize:
    def test_tiny_example_rows(self):
        ds = materialize(ConcatView(tiny_regression()))
        np.testing.assert_array_equal(
            ds.features, [[1, 1], [1, 2], [2, 1], [2, 2]])
        np.testing.assert_array_equal(ds.targets, [10, 15, 15, 20])

    def test_shape(self):
        base = RegressionDataset(Rng(0).standard_normal((30, 30)),
                                 np.zeros(30))
        ds = materialize(ConcatView(base))
        assert ds.features.shape == (900, 60)

    def test_column_half_multisets_match(self):
        base = RegressionDataset(Rng(2).standard_normal((5, 3)), np.zeros(5))
        ds = materialize(ConcatView(base))
        left = np.sort(ds.features[:, :3], axis=0)
        right = np.sort(ds.features[:, 3:], axis=0)
        np.testing.assert_array_equal(left, right)

    def test_budget_error_names_the_budget(self):
        # 30,000^2 pairs x 3 values x 8 bytes = 21.6 GB, refused before
        # anything is allocated
        base = RegressionDataset(np.zeros((30_000, 1)), np.zeros(30_000))
        with pytest.raises(MemoryBudgetError, match="6442450944-byte"):
            materialize(ConcatView(base))

    def test_matches_enumeration_order(self):
        base = small_classification(n=4)
        view = ConcatView(base)
        ds = materialize(view)
        row = 0
        for i in range(4):
            for j in range(4):
                features, target = view.element(i, j)
                np.testing.assert_array_equal(ds.features[row], features)
                np.testing.assert_array_equal(ds.targets[row], target)
                row += 1

    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_bit_identical_to_gathered_batch(self, kind):
        view = pair_view(kind, 9, 5, 3, seed=11)
        n = view.n
        ds = materialize(view)
        features, targets = view.batch(np.arange(n * n))
        assert ds.features.dtype == features.dtype
        assert np.array_equal(ds.features, features)
        assert ds.targets.shape == targets.shape
        assert np.array_equal(ds.targets, targets)
        assert getattr(ds, "mode", MODE_AVERAGED) == view.mode

    def test_target_conservation(self):
        # mean of pair targets equals mean of base targets by linearity
        base = small_classification(n=8)
        ds = materialize(ConcatView(base))
        np.testing.assert_allclose(ds.targets.mean(axis=0),
                                   base.targets.mean(axis=0), atol=1e-12)
