"""Counter-addressed random streams for reproducible simulation.

Draw position ``i`` of stream ``k`` under seed ``s`` always comes from the
same place: positions are grouped into fixed blocks of 8192, and block ``b``
is a dedicated Philox generator keyed by ``SeedSequence(s, spawn_key=(k, b))``.
Any contiguous range of draws can therefore be regenerated identically
regardless of how work is partitioned across workers.  Normals use the
inverse CDF (one uniform per normal), keeping the addressing exact.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = [
    "BLOCK",
    "stream_generator",
    "addressed_uniforms",
    "addressed_normals",
]

BLOCK = 8192
_U_LO = 2.0**-64  # keep inverse-CDF inputs strictly inside (0, 1)


def stream_generator(seed: int, stream: int = 0, block: int = 0) -> np.random.Generator:
    """Generator for one (seed, stream, block) cell."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, block))
    return np.random.Generator(np.random.Philox(ss))


def addressed_uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Uniforms at positions [start, start+count) of the stream, in (0, 1)."""
    if count < 0 or start < 0:
        raise ValueError("start and count must be non-negative")
    out = np.empty(count)
    pos = start
    filled = 0
    while filled < count:
        block_index, offset = divmod(pos, BLOCK)
        take = min(BLOCK - offset, count - filled)
        chunk = stream_generator(seed, stream, block_index).random(offset + take)
        out[filled : filled + take] = chunk[offset:]
        filled += take
        pos += take
    return np.clip(out, _U_LO, 1.0 - _U_LO)


def addressed_normals(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Standard normals via inverse CDF of addressed uniforms (1 draw each)."""
    return ndtri(addressed_uniforms(seed, stream, start, count))

