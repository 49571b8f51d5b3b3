"""Counter-based Gaussian streams for reproducible parallel Monte Carlo.

Draw j of stream (seed, k) is a pure function of (seed, k, j):

    ndtri(((philox((seed, k), (j // 4 + 1, 0, 0, 0))[j % 4] >> 12) + 0.5) * 2**-52)

where philox is Philox4x64-10 (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011) under the key (seed, k), returning four 64-bit
words per counter block.  Each draw consumes one word and never rejects, so
the draw count per path is fixed and results are independent of scheduling.
This is the sequence `np.random.Philox(key=(seed, k))` gives through
`Generator.integers(0, 2**52)`.

Two implementations compute it, chosen by row length and equal bit for bit:
rows of at most CROSSOVER_DRAWS draws run a numpy-vectorized Philox over all
rows at once, in chunks of counter blocks; longer rows rekey numpy's C Philox
once per row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

_U64 = 2**64
_BITS = 52  # uniform resolution; (k + 0.5) * 2**-52 is exact for k < 2**52
_SHIFT = np.uint64(64 - _BITS)

#: Row length (draws) at or below which the vectorized Philox beats rekeying
#: the C generator per row; measured on a 2-core host (BENCH_streams.json).
CROSSOVER_DRAWS = 100
#: Counter blocks per vectorized pass, which bounds its temporaries.
_CHUNK_BLOCKS = 4096

# Philox4x64 round multipliers and key (Weyl) increments.
_M0, _M1 = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


@dataclass(frozen=True)
class GaussianStream:
    """One reproducible stream: identical (seed, index) -> identical draws."""

    seed: int
    index: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < _U64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= self.index < _U64:
            raise ValueError("stream index must fit in 64 bits")

    def normals(self, n: int) -> np.ndarray:
        """The first n draws of the stream, one row of _uniform_matrix under
        the inverse normal CDF: the reference of the stream contract."""
        u = _uniform_matrix(self.seed, 1, n, self.index)[0]
        return ndtri(u, out=u)


def normal_matrix(seed: int, n_streams: int, n_draws: int,
                  first_index: int = 0) -> np.ndarray:
    """Stacked stream draws: row i equals GaussianStream(seed, first_index+i).normals(n_draws)."""
    u = _uniform_matrix(seed, n_streams, n_draws, first_index)
    return ndtri(u, out=u)


def _uniform_matrix(seed: int, n_streams: int, n_draws: int,
                    first_index: int) -> np.ndarray:
    """Row i holds the first n_draws uniforms of stream (seed, first_index + i),
    strictly inside (0, 1), one counter word each."""
    seed, first_index = operator.index(seed), operator.index(first_index)
    if not 0 <= seed < _U64:
        raise ValueError("seed must fit in 64 bits")
    if first_index < 0 or first_index + n_streams > _U64:
        raise ValueError("stream indices must fit in 64 bits")
    out = np.empty((n_streams, n_draws))
    if n_draws <= CROSSOVER_DRAWS:
        blocks = -(-n_draws // 4)
        counters = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
        step = _CHUNK_BLOCKS // max(blocks, 1)
        for r0 in range(0, n_streams, step):
            rows = min(step, n_streams - r0)
            keys = np.uint64(first_index + r0) + np.arange(rows, dtype=np.uint64)
            words = _philox(seed, keys[:, None], counters).reshape(rows, 4 * blocks)
            out[r0:r0 + rows] = words[:, :n_draws] >> _SHIFT
    else:
        bitgen = np.random.Philox(key=0)
        zero = np.zeros(4, dtype=np.uint64)
        for i in range(n_streams):
            key = np.array([seed, first_index + i], dtype=np.uint64)
            # counter 0 and an exhausted buffer: the first word is block 1's
            bitgen.state = {"bit_generator": "Philox",
                            "state": {"counter": zero, "key": key},
                            "buffer": zero, "buffer_pos": 4,
                            "has_uint32": 0, "uinteger": 0}
            out[i] = bitgen.random_raw(n_draws) >> _SHIFT
    out += 0.5
    out *= 2.0**-_BITS
    return out


def _philox(seed: int, keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 words, shape (rows, blocks, 4), of key (seed, keys[i]) at
    counter (counters[b], 0, 0, 0); keys is a column and counters a row."""
    zero = np.zeros((1, 1), dtype=np.uint64)
    x0, x1, x2, x3 = counters, zero, zero, zero
    for r in range(_ROUNDS):
        k0 = np.uint64((seed + r * _W0) % _U64)
        k1 = keys + np.uint64(r * _W1 % _U64)
        hi0, lo0 = _mulhilo(_M0, x0)
        hi1, lo1 = _mulhilo(_M1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack(np.broadcast_arrays(x0, x1, x2, x3), axis=-1)


def _mulhilo(m: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x of uint64 arrays or
    scalars, which broadcast, from 32-bit halves."""
    m_lo, m_hi = m & _LOW32, m >> _S32
    x_lo, x_hi = x & _LOW32, x >> _S32
    t = m_lo * x_lo
    u = m_hi * x_lo + (t >> _S32)  # each partial sum stays below 2**64
    v = m_lo * x_hi + (u & _LOW32)
    return m_hi * x_hi + (u >> _S32) + (v >> _S32), m * x
