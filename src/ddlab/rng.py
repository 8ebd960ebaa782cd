"""Seeded random streams with a fully documented consumption order.

Every experiment in this package derives its randomness from :class:`Rng`,
which produces one well-defined value stream per seed.  The goal is that a
re-implementation in any language can reproduce the streams, so the
conventions are spelled out here rather than left to library defaults.
Bit for bit it holds only with a float64 ``log`` that rounds as numpy's
does on the machine at hand: numpy's AVX512F ``log`` kernel differs from
the C library's in the last ulp for about 0.3% of inputs.

Stream conventions
------------------
* The raw source is the PCG64 bit generator seeded through numpy's
  ``SeedSequence(seed)``.  Both are published, platform-independent
  algorithms; one 64-bit output is consumed per uniform double.
* ``random`` draws doubles in [0, 1) (53-bit resolution), one raw output
  each, in stream order.
* ``standard_normal`` uses the polar Box-Muller transform.  Candidate pairs
  ``(u, v)`` are formed from two consecutive uniforms on (-1, 1).  A pair
  with ``s = u*u + v*v >= 1`` or ``s == 0`` is rejected; both uniforms are
  consumed and nothing is produced.  An accepted pair yields the deviates
  ``u*m`` then ``v*m`` with ``m = sqrt(-2*ln(s)/s)``.  When a request ends
  mid-pair the second deviate is cached and handed out first on the next
  call, before any new uniforms are consumed.  ``ln`` is numpy's float64
  ``log`` ufunc; its SIMD kernel on AVX512F CPUs differs from the C
  library's ``log`` in the last ulp on roughly 0.2% of inputs.
* ``integers(bound)`` maps one uniform per value through
  ``floor(u * bound)`` (requires ``bound <= 2**53``).
* ``permutation(n)`` draws n uniforms and returns the indices that sort
  them ascending, ties broken by index (a stable argsort).

The implementation below is vectorized but reproduces the sequential
semantics exactly: normal generation peeks ahead on the uniform stream and
then rewinds the bit generator to consume precisely the uniforms that the
scalar algorithm would have consumed.  A request is served in blocks of at
most ``_GAUSS_BLOCK_PAIRS`` candidate pairs.  A block's uniforms take
256 KiB; with s, the acceptance masks and indices, and the accepted s and
m, a request holds about 0.9 MiB besides its output however many deviates
it asks for.  (Blocks of 2**16 pairs, sized for their uniforms alone to
fit L2, held 4.5 MiB with those temporaries.)  Accepted pairs are gathered
straight into the output and scaled in place there.  Every block but the
last is consumed whole (its rejected pairs included, exactly as the scalar
loop would), and only the last one rewinds, so the block size never
changes the stream.
"""

from __future__ import annotations


import numpy as np
from numpy.random import Generator, PCG64

_MASK64 = (1 << 64) - 1
# candidate pairs per vectorized Gaussian block (2 uniforms each, 256 KiB)
_GAUSS_BLOCK_PAIRS = 1 << 14


def _scramble64(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit avalanche function."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def mix_seed(seed: int, index: int) -> int:
    """Derive an independent 64-bit seed from a base seed and an index.

    Defined as ``scramble(scramble(seed) XOR index)`` with the splitmix64
    finalizer, all arithmetic mod 2**64.  Used wherever one logical seed
    has to fan out into per-trial or per-purpose streams.
    """
    return _scramble64(_scramble64(seed) ^ (index & _MASK64))


class Rng:
    """Deterministic random stream (see module docstring for conventions)."""

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = int(seed) & _MASK64
        self._bits = PCG64(self.seed)
        self._gen = Generator(self._bits)
        self._gauss_cache: float | None = None

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"

    def spawn(self, index: int) -> "Rng":
        """Independent child stream, seeded with mix_seed(self.seed, index)."""
        return Rng(mix_seed(self.seed, index))

    # -- uniforms ---------------------------------------------------------

    def random(self, size=None):
        """Uniform doubles in [0, 1), one raw 64-bit output per value."""
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size=None):
        """Uniform doubles in [low, high); consumption identical to random."""
        return self._gen.uniform(low, high, size)

    # -- integers and permutations ----------------------------------------

    def integers(self, bound: int, size=None):
        """Integers in [0, bound) via floor(u * bound), one uniform each."""
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        if bound > (1 << 53):
            raise ValueError("bound must be <= 2**53 for exact reproducibility")
        if size is None:
            return min(int(self._gen.random() * bound), bound - 1)
        u = self._gen.random(size)
        return np.minimum((u * bound).astype(np.int64), bound - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n): stable argsort of n fresh uniforms."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        keys = self._gen.random(n)
        return np.argsort(keys, kind="stable")

    # -- Gaussians ----------------------------------------------------------

    def standard_normal(self, size=None):
        """Standard normal deviates by the polar Box-Muller method."""
        if size is None:
            return float(self._normals(1)[0])
        n = int(np.prod(size))
        return self._normals(n).reshape(size)

    def _normals(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.float64)
        filled = 0
        if self._gauss_cache is not None and n > 0:
            out[0] = self._gauss_cache
            self._gauss_cache = None
            filled = 1
        while filled < n:
            need = n - filled
            # Acceptance rate is pi/4; oversample ~10% so one peek usually
            # suffices, then rewind to the exact consumption point.
            block = min(_GAUSS_BLOCK_PAIRS, max(128, (need * 7) // 10 + 32))
            state = self._bits.state
            # -1 + 2u is uniform(-1, 1)'s own arithmetic (2u is exact)
            uv = self._gen.random(2 * block).reshape(block, 2)
            uv *= 2.0
            uv -= 1.0
            s = uv[:, 0] * uv[:, 0]
            s += uv[:, 1] * uv[:, 1]
            accepted = np.flatnonzero((s < 1.0) & (s > 0.0))
            if 2 * accepted.size >= need:
                pairs = (need + 1) // 2
                used = int(accepted[pairs - 1]) + 1
                self._bits.state = state
                self._bits.advance(2 * used)
                accepted = accepted[:pairs]
            else:
                pairs = accepted.size
            if not pairs:
                continue
            s_acc = s[accepted]
            m = np.log(s_acc)
            m *= -2.0
            m /= s_acc
            np.sqrt(m, out=m)
            # whole pairs go straight into out; a pair that the end of the
            # request splits hands its second deviate to the cache
            whole = min(pairs, need // 2)
            dest = out[filled:filled + 2 * whole].reshape(whole, 2)
            np.take(uv, accepted[:whole], axis=0, out=dest, mode="clip")
            dest *= m[:whole, None]
            filled += 2 * whole
            if whole < pairs:
                u, v = uv[accepted[whole]]
                out[filled] = u * m[whole]
                self._gauss_cache = float(v * m[whole])
                filled += 1
        return out

    # -- state snapshot (used by tests) -------------------------------------

    @property
    def state(self):
        return (self._bits.state, self._gauss_cache)

    @state.setter
    def state(self, value):
        bits, cache = value
        self._bits.state = bits
        self._gauss_cache = cache
