"""Deterministic seeded random numbers with a documented Gaussian transform.

The stream is defined here in full, so it can be reproduced without numpy:

- Seeding.  The seed's little-endian uint32 words are hashed into a 4-word
  pool and 8 uint32 are drawn from it, as by numpy's
  SeedSequence(seed).generate_state(8).  Read as 4 little-endian uint64
  w0..w3, they give initstate = w0 * 2**64 + w1 and
  inc = 2 * (w2 * 2**64 + w3) + 1; the state starts at 0 and takes one LCG
  step, adds initstate, and takes one more.
- Draws.  Each draw is one step of the 128-bit LCG
  state = state * PCG_MULTIPLIER + inc (mod 2**128) followed by the
  XSL-RR output: the two 64-bit halves of the state xored, rotated right
  by the state's top 6 bits (O'Neill's PCG64 XSL-RR 128/64).  A uniform is
  the top 53 bits of a draw times 2**-53, in [0, 1).
- Gaussians.  normal(size) draws n = ceil(size / 2) uniforms u1, then n
  uniforms u2, and returns the Box-Muller pairs sqrt(-2 log(1 - u1)) times
  cos(2 pi u2), then times sin(2 pi u2), cut to size.
- Spawning.  spawn(key) is the stream seeded with the first uint32 that
  the same hash draws from the words of seed followed by those of key.

Every draw equals that of numpy's Generator(PCG64(seed)).random.  Only
the tests run numpy's generator, as the oracle, so a run never loads it
(nor the OpenSSL bindings its seeding imports).  The algorithm identifier
below is recorded in output files.
"""
from __future__ import annotations

import numpy as np

ALGORITHM = "pcg64+box-muller"

PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
MASK32, MASK64, MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1

# SeedSequence's hash constants
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_SIZE = 4


def _words(n: int) -> list:
    """The little-endian uint32 words of a non-negative integer (0 is [0])."""
    if n < 0:
        raise ValueError("seeds and keys must be non-negative integers")
    words = [n & MASK32]
    n >>= 32
    while n:
        words.append(n & MASK32)
        n >>= 32
    return words


def _seed_state(entropy: list, n_words: int) -> list:
    """numpy's SeedSequence(entropy).generate_state(n_words) for a list of
    uint32 entropy words: mix them into the pool, then hash words out."""
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(POOL_SIZE)]
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[POOL_SIZE:]:
        for i_dst in range(POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    state, hash_const = [], INIT_B
    for i in range(n_words):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const & MASK32
        state.append(value ^ value >> 16)
    return state


class SeededRng:
    """Reproducible random stream: same seed, same draws, bit for bit."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        w = _seed_state(_words(self.seed), 8)
        w0, w1, w2, w3 = (lo | hi << 32 for lo, hi in zip(w[::2], w[1::2]))
        self._inc = ((w2 << 64 | w3) << 1 | 1) & MASK128
        # one LCG step from 0 gives inc; add initstate, step once more
        self._state = ((self._inc + (w0 << 64 | w1)) * PCG_MULTIPLIER
                       + self._inc) & MASK128

    def uniform(self, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError("size must be non-negative")
        state, inc, out = self._state, self._inc, []
        for _ in range(size):
            state = (state * PCG_MULTIPLIER + inc) & MASK128
            x = (state >> 64 ^ state) & MASK64
            rot = state >> 122
            out.append((((x >> rot | x << (64 - rot)) & MASK64) >> 11) * 2.0 ** -53)
        self._state = state
        return np.array(out, dtype=float)

    def normal(self, size: int, sigma: float = 1.0) -> np.ndarray:
        """Standard-deviation-sigma Gaussians via Box-Muller on uniform pairs."""
        if size < 0:
            raise ValueError("size must be non-negative")
        n_pairs = (size + 1) // 2
        u1 = self.uniform(n_pairs)
        u2 = self.uniform(n_pairs)
        # u1 is in [0, 1); reflect to (0, 1] so the log is finite
        radius = np.sqrt(-2.0 * np.log(1.0 - u1))
        angle = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:size]
        return sigma * z

    def spawn(self, key: int) -> "SeededRng":
        """A child stream keyed by an integer counter, independent per key."""
        return SeededRng(_seed_state(_words(self.seed) + _words(int(key)), 1)[0])
