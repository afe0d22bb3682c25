"""Deterministic seeded random numbers with a documented Gaussian transform.

The bit generator is PCG64; Gaussian variates are produced from uniform
pairs by the Box-Muller transform, so the stream is fully determined by the
seed and the algorithm identifier below can be recorded in output files.
"""
from __future__ import annotations

import numpy as np

ALGORITHM = "pcg64+box-muller"


class SeededRng:
    """Reproducible random stream: same seed, same draws, bit for bit."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, size: int) -> np.ndarray:
        return self._gen.random(size)

    def normal(self, size: int, sigma: float = 1.0) -> np.ndarray:
        """Standard-deviation-sigma Gaussians via Box-Muller on uniform pairs."""
        n_pairs = (size + 1) // 2
        u1 = self._gen.random(n_pairs)
        u2 = self._gen.random(n_pairs)
        # u1 is in [0, 1); reflect to (0, 1] so the log is finite
        radius = np.sqrt(-2.0 * np.log(1.0 - u1))
        angle = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:size]
        return sigma * z

    def spawn(self, key: int) -> "SeededRng":
        """A child stream keyed by an integer counter, independent per key."""
        derived = int(np.random.SeedSequence([self.seed, int(key)]).generate_state(1)[0])
        return SeededRng(derived)
