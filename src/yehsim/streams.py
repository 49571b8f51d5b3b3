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

Two compiled modules are loaded without their package's __init__ (_load):
ndtri, and the ndtr and kolmogorov that stats takes from here, are ufuncs of
scipy.special's _ufuncs, whose package would also load its array-API layer,
and with it numpy.f2py and numpy.testing: about 0.2 s and 14 MB per command
on a 2-core host (BENCH_scipy_import.json).  The C Philox is
numpy.random._philox's, whose package would also load every other bit
generator and the Generator and RandomState modules: 2.2 MB and 10 ms
against 0.6 MB and 4 ms for _philox (BENCH_working_set.json).  _ufuncs
loads with this module.  _philox loads, and its one generator per process
is built (_c_philox), at the first row longer than CROSSOVER_DRAWS, so a
command that draws only short rows loads no numpy.random module.  _philox
loads numpy.random.bit_generator, which takes randbits from secrets, and
secrets imports hmac, whose _hashlib maps OpenSSL's libcrypto: about 3.5 MB
of resident memory (BENCH_no_openssl.json) for a name that only draws a
SeedSequence's entropy from the OS.  Unless secrets is loaded already,
_c_philox loads _philox under a stand-in for secrets whose randbits is
random.SystemRandom().getrandbits, which is what secrets.randbits is, and
removes the stand-in again; a later import of secrets gets the real module.
"""

from __future__ import annotations

import functools
import operator
import os
import random
import sys
import types

import numpy as np
import scipy  # scipy.special's parent, which _load looks up


def _load(package: str, module: str, names: tuple[str, ...]) -> tuple:
    """The objects `names` of package.module, or of the package itself if it
    is loaded already.  Unless it is, the module loads under a bare stand-in
    for the package, removed again at once, so the package's __init__ does
    not run; a later import of the package reuses the module and gives the
    same objects.  The module is private, so any ImportError, a missing name
    included, falls back to the package."""
    parent, _, child = package.rpartition(".")
    base = sys.modules[parent]
    if package not in sys.modules:
        stub = sys.modules[package] = types.ModuleType(package)
        stub.__path__ = [os.path.join(path, child) for path in base.__path__]
        try:
            found = __import__(f"{package}.{module}", fromlist=names)
            return tuple(getattr(found, name) for name in names)
        except (ImportError, AttributeError):
            pass
        finally:
            del sys.modules[package]
            # vars(), not getattr(): a package's module __getattr__ may import it
            if vars(base).get(child) is stub:
                delattr(base, child)
    found = __import__(package, fromlist=names)
    return tuple(getattr(found, name) for name in names)


kolmogorov, ndtr, ndtri = _load("scipy.special", "_ufuncs", ("kolmogorov", "ndtr", "ndtri"))


@functools.cache
def _c_philox():
    """numpy's C Philox bit generator, loaded and built at the first call.
    Each row sets its whole state, so every call, and a forked part with its
    inherited copy, can share it.  Unless secrets is loaded, it loads under
    a stand-in for secrets, removed again at once (module docstring)."""
    stub = None
    if "secrets" not in sys.modules:
        stub = sys.modules["secrets"] = types.ModuleType("secrets")
        stub.randbits = random.SystemRandom().getrandbits
    try:
        return _load("numpy.random", "_philox", ("Philox",))[0](key=0)
    finally:
        if stub is not None:
            del sys.modules["secrets"]


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


def normal_matrix(seed: int, n_streams: int, n_draws: int, first_index: int = 0,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Stacked stream draws: row i holds the first n_draws draws of stream
    (seed, first_index + i) as the module docstring defines them, so
    normal_matrix(seed, 1, n, k)[0] is the first n draws of stream k and a
    row does not depend on the rows stacked with it.  They fill out, a float
    matrix (or a view of one) of shape (n_streams, n_draws), if it is given,
    and out is returned."""
    u = _uniform_matrix(seed, n_streams, n_draws, first_index, out)
    return ndtri(u, out=u)


def _uniform_matrix(seed: int, n_streams: int, n_draws: int, first_index: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Row i holds the first n_draws uniforms of stream (seed, first_index + i),
    strictly inside (0, 1), one counter word each; in out, if it is given."""
    seed, first_index = operator.index(seed), operator.index(first_index)
    if not 0 <= seed < _U64:
        raise ValueError("seed must fit in 64 bits")
    if first_index < 0 or first_index + n_streams > _U64:
        raise ValueError("stream indices must fit in 64 bits")
    if out is None:
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
        bitgen = _c_philox()
        zero = np.zeros(4, dtype=np.uint64)
        key = np.array([seed, 0], dtype=np.uint64)
        # counter 0 and an exhausted buffer: the first word is block 1's; the
        # setter copies key and counter, so one dict serves every row
        state = {"bit_generator": "Philox",
                 "state": {"counter": zero, "key": key},
                 "buffer": zero, "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for i in range(n_streams):
            key[1] = first_index + i
            bitgen.state = state
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
