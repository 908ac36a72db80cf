"""Seeded random streams named by a user seed and a path of integers.

The path says what a stream is for (a training stream id, an augmentation
method and channel, a sample index), so two different paths under one seed
never share a stream, and neither do two seeds under one path. Seeds are
reduced modulo 2**64, which accepts negative and oversized command-line
seeds.
"""

from __future__ import annotations

import numpy as np

_SEED_MASK = (1 << 64) - 1


def _seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed & _SEED_MASK, *path])


def stream(seed: int, *path: int) -> np.random.Generator:
    """The generator for (seed, *path)."""
    return np.random.default_rng(_seed_sequence(seed, *path))


def derive_seed(seed: int, *path: int) -> int:
    """A 64-bit integer seed for (seed, *path), for APIs that take a seed."""
    return int(_seed_sequence(seed, *path).generate_state(1, np.uint64)[0])
