"""Seeded random streams with deterministic child derivation."""

from __future__ import annotations

import numpy as np


class Rng:
    """A PCG64 stream keyed by a 64-bit seed.

    The same seed always yields the same stream.  ``child(*tags)`` derives an
    independent stream from the seed and the tags alone (not from how much of
    this stream has been consumed), so call order never changes child draws.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0 or seed >= 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def child(self, *tags: int) -> "Rng":
        ss = np.random.SeedSequence([self.seed, *[int(t) for t in tags]])
        return Rng(int(ss.generate_state(1, dtype=np.uint64)[0]))

    # -- draws ----------------------------------------------------------
    def normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size: int, p=None) -> np.ndarray:
        return self._gen.choice(n, size=size, p=p)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    # -- cursor (for checkpointing) --------------------------------------
    @property
    def state(self) -> dict:
        return self._gen.bit_generator.state

    @state.setter
    def state(self, value: dict):
        self._gen.bit_generator.state = value
