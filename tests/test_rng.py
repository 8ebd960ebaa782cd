"""Stream-exactness tests for the seeded generator.

The reference below re-implements the documented conventions as a plain
scalar loop, drawing one uniform at a time.  The vectorized Rng must
reproduce its output bit for bit under arbitrary interleavings of calls.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, PCG64

from ddlab import rng as rng_module
from ddlab.rng import Rng, mix_seed


def numpy_log(s):
    """numpy's float64 log ufunc, the kernel the vectorized path runs."""
    return float(np.log(s))


class ScalarReference:
    """One-value-at-a-time implementation of the documented stream.

    ``log`` computes ln(s) in the polar transform.  The C library's log and
    numpy's SIMD log (AVX512F builds) disagree in the last ulp on about
    0.2% of inputs, so bit-for-bit checks over many deviates pass
    ``numpy_log``.
    """

    def __init__(self, seed, log=math.log):
        self._gen = Generator(PCG64(seed))
        self._cache = None
        self._log = log

    def random(self):
        return self._gen.random()

    def integers(self, bound):
        return min(int(self._gen.random() * bound), bound - 1)

    def permutation(self, n):
        keys = [self._gen.random() for _ in range(n)]
        return sorted(range(n), key=lambda i: (keys[i], i))

    def standard_normal(self):
        if self._cache is not None:
            value, self._cache = self._cache, None
            return value
        while True:
            u = 2.0 * self._gen.random() - 1.0
            v = 2.0 * self._gen.random() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                m = math.sqrt(-2.0 * self._log(s) / s)
                self._cache = v * m
                return u * m


@pytest.mark.parametrize("seed", [0, 1, 7, 123456789, 2**64 - 1])
def test_normals_match_scalar_reference(seed):
    rng = Rng(seed)
    ref = ScalarReference(seed)
    got = rng.standard_normal(257)
    want = np.array([ref.standard_normal() for _ in range(257)])
    np.testing.assert_array_equal(got, want)


def test_interleaved_calls_match_scalar_reference():
    rng = Rng(42)
    ref = ScalarReference(42)
    # odd-sized normal requests exercise the cached second deviate
    np.testing.assert_array_equal(rng.standard_normal(3),
                                  [ref.standard_normal() for _ in range(3)])
    assert rng.random() == ref.random()
    np.testing.assert_array_equal(rng.standard_normal(5),
                                  [ref.standard_normal() for _ in range(5)])
    assert rng.integers(17) == ref.integers(17)
    np.testing.assert_array_equal(rng.permutation(11), ref.permutation(11))
    assert rng.standard_normal() == ref.standard_normal()


def test_multi_block_request_matches_scalar_reference():
    # a block accepts at most _GAUSS_BLOCK_PAIRS pairs, so this odd-length
    # request needs at least three capped blocks and ends mid-pair
    n = 4 * rng_module._GAUSS_BLOCK_PAIRS + 7
    rng = Rng(2024)
    ref = ScalarReference(2024, log=numpy_log)
    got = rng.standard_normal(n)
    want = np.array([ref.standard_normal() for _ in range(n)])
    np.testing.assert_array_equal(got, want)
    libm = ScalarReference(2024)
    np.testing.assert_array_max_ulp(
        got, [libm.standard_normal() for _ in range(n)], maxulp=2)
    # the cached second deviate and the uniform position both carry over
    assert rng.standard_normal() == ref.standard_normal()
    assert rng.random() == ref.random()


seeds = st.integers(0, 2**64 - 1)
splits = st.lists(st.integers(0, 300), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, sizes=splits)
def test_normal_stream_is_chunking_invariant(seed, sizes):
    whole = Rng(seed).standard_normal(sum(sizes))
    rng = Rng(seed)
    parts = [rng.standard_normal(k) for k in sizes]
    np.testing.assert_array_equal(np.concatenate(parts), whole)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, sizes=splits, block_pairs=st.integers(1, 9))
def test_normal_stream_is_block_size_invariant(seed, sizes, block_pairs):
    whole = Rng(seed).standard_normal(sum(sizes))
    rng = Rng(seed)
    with mock.patch.object(rng_module, "_GAUSS_BLOCK_PAIRS", block_pairs):
        parts = [rng.standard_normal(k) for k in sizes]
    np.testing.assert_array_equal(np.concatenate(parts), whole)


def test_scalar_normal_is_float():
    x = Rng(3).standard_normal()
    assert isinstance(x, float)


def test_same_seed_same_stream():
    a = Rng(99)
    b = Rng(99)
    np.testing.assert_array_equal(a.standard_normal(1000), b.standard_normal(1000))
    np.testing.assert_array_equal(a.random(100), b.random(100))
    np.testing.assert_array_equal(a.permutation(50), b.permutation(50))


def test_shaped_output():
    x = Rng(5).standard_normal((4, 3))
    assert x.shape == (4, 3)


def test_normal_moments():
    x = Rng(11).standard_normal(200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01


def test_integers_range_and_determinism():
    rng = Rng(8)
    vals = rng.integers(10, size=10_000)
    assert vals.min() >= 0 and vals.max() <= 9
    # all values hit for a healthy stream
    assert len(np.unique(vals)) == 10
    with pytest.raises(ValueError):
        rng.integers(0)


def test_permutation_is_permutation():
    p = Rng(21).permutation(1000)
    assert sorted(p) == list(range(1000))


def test_mix_seed_distinct_and_stable():
    base = 1234
    derived = {mix_seed(base, k) for k in range(1000)}
    assert len(derived) == 1000
    assert mix_seed(base, 5) == mix_seed(base, 5)
    assert mix_seed(base, 5) != mix_seed(base + 1, 5)


def test_spawn_independent_of_parent_consumption():
    a = Rng(77)
    a.standard_normal(10)
    child1 = a.spawn(2)
    child2 = Rng(77).spawn(2)
    np.testing.assert_array_equal(child1.random(20), child2.random(20))


def test_state_roundtrip():
    rng = Rng(13)
    rng.standard_normal(7)  # leaves a cached deviate
    snapshot = rng.state
    first = rng.standard_normal(9)
    rng.state = snapshot
    np.testing.assert_array_equal(rng.standard_normal(9), first)
