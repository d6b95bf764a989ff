"""Counter-addressed random streams for reproducible simulation.

Stream ``k`` under seed ``s`` is one Philox generator keyed by
``SeedSequence(s, spawn_key=(k, 0))``.  Philox is counter-based and each
counter step yields four doubles, so draw position ``i`` is reached directly:
advance the counter ``i // 4`` steps and drop ``i % 4`` draws.  Any
contiguous range of draws can therefore be regenerated identically
regardless of how work is partitioned across workers.  Normals use the
inverse CDF (one uniform per normal), keeping the addressing exact.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = [
    "stream_generator",
    "addressed_uniforms",
    "addressed_normals",
]

_U_LO = 2.0**-64  # keep inverse-CDF inputs strictly inside (0, 1)


def stream_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for one (seed, stream) pair, at position 0."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, 0))
    return np.random.Generator(np.random.Philox(ss))


def addressed_uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Uniforms at positions [start, start+count) of the stream, in (0, 1)."""
    if count < 0 or start < 0:
        raise ValueError("start and count must be non-negative")
    gen = stream_generator(seed, stream)
    steps, skip = divmod(int(start), 4)  # 4 doubles per counter step; advance() rejects numpy ints
    gen.bit_generator.advance(steps)
    return np.clip(gen.random(skip + count)[skip:], _U_LO, 1.0 - _U_LO)


def addressed_normals(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Standard normals via inverse CDF of addressed uniforms (1 draw each)."""
    return ndtri(addressed_uniforms(seed, stream, start, count))
