"""Construction and sampling of Gaussian additive processes.

Two representations: exact increment sampling on a grid (no truncation error
at the grid points) and truncated random-series sampling built on an
orthonormal basis of the rho-weighted space.  `increment_value_matrix` gives
whole increment paths (for `simulate`).  For Monte Carlo checks that reduce
every path to a few step integrals, `increment_functionals` draws a step
family (funcspace.step_cells) on its own partition and returns
pieces @ (dlambda + sigma * z) straight from the normals, and
`series_point_values` returns the series values at given times.  The
per-path samplers are one-row calls: `sample_increments` of
`increment_value_matrix`, and series.sample_series of
`series_point_values`.  The centered process X - lambda is a law of
its own, YehSpec.centered(rho), drawn like any other; `center` is only the
pathwise identity on a path already drawn.  All draw in row chunks of
about CHUNK_DRAWS normals, so neither their memory nor that of `simulate`,
which writes the chunks as they come, grows with the path count.  Row k
depends only on stream first_index + k, never on the batch layout, chunk
height, BLAS thread count or number of processes.

One stream-range map runs on every core: stream_ranges cuts [0, count)
into one contiguous range per core, and fork_ranges runs each range after
the first in a forked part, whose result comes back through a pipe.
`simulate` writes its paths through it, and the two functional samplers
split through it once they draw FORK_DRAWS normals.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadGridError,
    NegativeVarianceError,
    PartitionNotOnGridError,
)
from .funcspace import BasisFamily
from .stieltjes import Interval, MeanFunction, VarianceFunction, rho_inverse
from .streams import GaussianStream, normal_matrix

#: Default grid resolution: 2**10 + 1 points.
DEFAULT_GRID_POINTS = 1025

#: Default series truncation.
DEFAULT_TRUNCATION = 256

#: Normal draws per row chunk of the functional samplers: a chunk holds
#: max(1, CHUNK_DRAWS // draws per row) rows.
CHUNK_DRAWS = 2**18

#: Normal draws (count x draws per row) from which a functional sampler
#: splits its stream range over the cores (stream_ranges): below it a fork
#: and a pipe cost more than the half range saves.
FORK_DRAWS = 2**20

# The pid of the parent while this process is a part forked by fork_ranges.
_PARENT: int | None = None


@dataclass(frozen=True)
class YehSpec:
    """The pair (lambda, rho) determining the process on a shared interval."""

    lam: MeanFunction
    rho: VarianceFunction

    def __post_init__(self):
        if self.lam.interval != self.rho.interval:
            raise ValueError("mean and variance functions must share the interval")

    @property
    def interval(self) -> Interval:
        return self.lam.interval

    @classmethod
    def brownian(cls, interval=(0.0, 1.0)) -> "YehSpec":
        return cls(MeanFunction.zero(interval), VarianceFunction.identity(interval))

    @classmethod
    def centered(cls, rho: VarianceFunction) -> "YehSpec":
        """The centered process X - lambda: zero drift, the same rho."""
        return cls(MeanFunction.zero(rho.interval), rho)


@dataclass(frozen=True)
class SamplePath:
    """One realization: its values at the points of a grid, read-only."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.shape != values.shape or grid.ndim != 1:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def grid_indices(grid, points) -> np.ndarray:
    """Indices of `points` on a strictly increasing grid, exact up to 1e-12
    absolute slack; the lower neighbour wins when both are that close."""
    grid = np.asarray(grid, dtype=float)
    points = np.atleast_1d(np.asarray(points, dtype=float))
    i = np.searchsorted(grid, points)
    lower, upper = np.maximum(i - 1, 0), np.minimum(i, len(grid) - 1)
    idx = np.where(np.abs(grid[lower] - points) <= 1e-12, lower, upper)
    off = ~(np.abs(grid[idx] - points) <= 1e-12)
    if off.any():
        raise PartitionNotOnGridError(
            f"point {points[off][0]} is not on the path grid; refusing to interpolate"
        )
    return idx


def make_grid(interval, points: int = DEFAULT_GRID_POINTS, scale: str = "t",
              rho: VarianceFunction | None = None) -> np.ndarray:
    """Sampling grid over [a, b]: uniform in t, or uniform in rho mass.

    The rho scale equalizes increment variances across cells.
    """
    iv = Interval.coerce(interval)
    if points < 2:
        raise BadGridError("grid needs at least 2 points")
    if scale == "t":
        return np.linspace(iv.a, iv.b, points)
    if scale == "rho":
        if rho is None:
            raise BadGridError("rho-scale grid requires the variance function")
        masses = np.linspace(0.0, rho.total_mass, points)
        return rho_inverse(rho, masses)
    raise BadGridError(f"unknown grid scale {scale!r}")


def validate_grid(grid: np.ndarray, interval: Interval) -> np.ndarray:
    """The grid as a float array, checked to be strictly increasing from a to b."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise BadGridError("grid must be a 1-d array with at least 2 points")
    if np.any(np.diff(grid) <= 0):
        raise BadGridError("grid must be strictly increasing")
    if grid[0] != interval.a or grid[-1] != interval.b:
        raise BadGridError(
            f"grid must span [{interval.a}, {interval.b}], "
            f"got [{grid[0]}, {grid[-1]}]"
        )
    return grid


def _increment_scales(spec: YehSpec, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dlam = np.diff(spec.lam(grid))
    drho = np.diff(spec.rho(grid))
    if np.any(drho <= 0):
        raise NegativeVarianceError(
            "variance increment not positive; rho must be strictly increasing"
        )
    return dlam, np.sqrt(drho)


def sample_increments(spec: YehSpec, grid, stream: GaussianStream) -> SamplePath:
    """Exact-in-distribution sampling at the grid points: row 0 of
    increment_value_matrix for the stream.

    X(a) = lambda(a); each increment is an independent draw from
    Normal(dlambda, drho) over its cell.
    """
    return SamplePath(grid, increment_value_matrix(spec, grid, stream.seed, 1,
                                                   stream.index)[0])


def center(path: SamplePath, lam: MeanFunction) -> SamplePath:
    """Subtract the drift pointwise: the pathwise identity I(f)(X - lambda) =
    I(f)(X) - (integral of f d lambda).  The centered process's law is
    YehSpec.centered."""
    return SamplePath(path.grid, path.values - lam(path.grid))


def stream_ranges(count: int) -> list[tuple[int, int]]:
    """[0, count) cut into contiguous, near-equal ranges, one per core this
    process may run on and at most count; a single range in a part."""
    parts = 1 if _PARENT is not None else max(1, min(len(os.sched_getaffinity(0)), count))
    firsts = [count * i // parts for i in range(parts + 1)]
    return list(zip(firsts, firsts[1:]))


@contextmanager
def fork_ranges(run, ranges):
    """Yield the results of run(lo, hi) over the ranges, in order, as an
    iterator.  Every range after the first runs in a part forked on entry;
    the first runs in this process when the iterator reaches it.  A part's
    result, or the exception it raised, comes back pickled through a pipe,
    and the exception is raised again here.  On exit every part not yet
    joined is killed and reaped."""
    parts = []
    try:
        for lo, hi in ranges[1:]:
            parts.append(_Part(run, lo, hi))
        here = (run(lo, hi) for lo, hi in ranges[:1])
        yield itertools.chain(here, (part.join() for part in parts))
    finally:
        for part in parts:
            part.close()


class _Part:
    """A forked child that runs run(lo, hi) and exits.

    The child never returns into its caller's stack: it ends with os._exit,
    so no exit handler or caller's cleanup runs in it.  It forks no part of
    its own (stream_ranges gives it one range), and _normal_chunks stops it
    before its next chunk once its parent has died."""

    def __init__(self, run, lo: int, hi: int):
        global _PARENT
        self.lo, self.hi = lo, hi
        self.pipe, report = os.pipe()
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid:
            os.close(report)
            return
        _PARENT = parent
        try:
            os.close(self.pipe)
            try:
                reply = (True, run(lo, hi))
            except BaseException as exc:
                reply = (False, _portable(exc))
            with os.fdopen(report, "wb") as fh:
                pickle.dump(reply, fh, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)

    def join(self):
        """Wait for the child; return its result, or raise its exception."""
        with os.fdopen(self.pipe, "rb") as pipe:
            self.pipe = None
            reply = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code or not reply:
            raise RuntimeError(f"the process drawing streams [{self.lo}, {self.hi}) "
                               f"ended with exit code {code}")
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        return value

    def close(self):
        """Kill and reap the child if join has not."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self.pipe is not None:
            os.close(self.pipe)
            self.pipe = None


def _portable(exc: BaseException) -> BaseException:
    """exc, or a RuntimeError carrying its type and message when it does not
    survive pickling."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _normal_chunks(seed: int, count: int, draws: int, first_index: int = 0):
    """Yield (k0, z) for row chunks of about CHUNK_DRAWS draws: row k of z is
    the first `draws` normals of stream first_index + k0 + k.  In a part
    (fork_ranges) whose parent has died, raise before the next chunk."""
    rows = max(1, CHUNK_DRAWS // draws)
    for k0 in range(0, count, rows):
        if _PARENT is not None and os.getppid() != _PARENT:
            raise RuntimeError("the process that forked this part has died")
        yield k0, normal_matrix(seed, min(rows, count - k0), draws, first_index + k0)


# The chunk pipelines below are maps rather than generators: a generator's
# frame would keep its last chunk alive while the caller works on it, and
# each chunk held that way adds its size to the peak memory.

def _increment_chunks(spec: YehSpec, grid, seed: int):
    """chunks(count, first_index): (k0, increments) over _normal_chunks, row k
    of a chunk being dlambda + sigma * z.  The grid is validated and the drift
    and variance are evaluated once, here, however many ranges and chunks are
    drawn, so a part forked later evaluates neither."""
    grid = validate_grid(grid, spec.interval)
    dlam, sigma = _increment_scales(spec, grid)

    def increments(chunk):
        k0, z = chunk
        z *= sigma  # in place: the bits of dlam + sigma * z, without temporaries
        z += dlam
        return k0, z

    def chunks(count: int, first_index: int):
        return map(increments, _normal_chunks(seed, count, len(dlam), first_index))

    return chunks


def _row_products(chunks, count: int, load: np.ndarray) -> np.ndarray:
    """Stack the products row @ load over (k0, rows) chunks.  The stacked
    matmul multiplies each row on its own, so its bits do not depend on the
    chunk it falls in or on the BLAS thread count, as a blocked GEMM's do."""
    out = np.empty((count, load.shape[1]))
    for k0, block in chunks:
        out[k0:k0 + len(block)] = (block[:, None, :] @ load)[:, 0]
    return out


def _value_chunks(spec: YehSpec, grid, seed: int):
    """chunks(count, first_index): (k0, values), the path values of
    _increment_chunks' row chunks, starting at lambda(a).  As there, the grid
    is validated and the drift and variance are evaluated in this call."""
    start = spec.lam(spec.interval.a)
    increment_chunks = _increment_chunks(spec, grid, seed)

    def values(chunk):
        k0, increments = chunk
        out = np.empty((len(increments), increments.shape[1] + 1))
        out[:, 0] = start
        np.cumsum(increments, axis=1, out=out[:, 1:])
        out[:, 1:] += start
        return k0, out

    def chunks(count: int, first_index: int):
        return map(values, increment_chunks(count, first_index))

    return chunks


def increment_value_matrix(spec: YehSpec, grid, seed: int, count: int,
                           first_index: int = 0) -> np.ndarray:
    """Batched increment sampling: row k is the value array of stream index
    first_index + k."""
    chunks = _value_chunks(spec, grid, seed)(count, first_index)
    values = np.empty((count, len(grid)))
    for k0, chunk in chunks:
        values[k0:k0 + len(chunk)] = chunk
    return values


def _map_rows(rows, count: int, draws: int) -> np.ndarray:
    """rows(lo, hi) over the stream range [0, count), stacked: split over
    stream_ranges when the range holds at least FORK_DRAWS normals."""
    ranges = stream_ranges(count) if count * draws >= FORK_DRAWS else [(0, count)]
    if len(ranges) == 1:
        return rows(0, count)
    with fork_ranges(rows, ranges) as results:
        return np.concatenate(list(results))


def increment_functionals(spec: YehSpec, partition, pieces, seed: int, count: int,
                          first_index: int = 0) -> np.ndarray:
    """Step integrals of increment-sampled paths, straight from the normals.

    This is the Wiener-integral kernel for paths that exist only as
    increments.  It takes a step family as one partition, the grid drawn on,
    and one piece matrix with one row per member and one column per cell
    (as funcspace.step_cells gives it).  The result has shape (count,
    members), row k being pieces @ (dlambda + sigma * z) for stream
    first_index + k.  No path values are formed: the normals are drawn
    CHUNK_DRAWS at a time, and split over the cores above FORK_DRAWS.
    """
    chunks = _increment_chunks(spec, partition, seed)
    pieces = np.asarray(pieces, dtype=float)
    if pieces.ndim != 2 or pieces.shape[1] != len(partition) - 1:
        raise ValueError(f"pieces must have shape (members, {len(partition) - 1}), "
                         f"got {pieces.shape}")
    if not np.all(np.isfinite(pieces)):
        raise ValueError("pieces must be finite")
    load = pieces.T

    def rows(lo: int, hi: int) -> np.ndarray:
        return _row_products(chunks(hi - lo, first_index + lo), hi - lo, load)

    return _map_rows(rows, count, len(partition) - 1)


def series_point_values(spec: YehSpec, basis: BasisFamily, truncation: int, times,
                        seed: int, count: int, first_index: int = 0) -> np.ndarray:
    """Series-sampled values at a few times, shape (count, len(times)).

    Row k is lambda(times) + xi_k @ A, where xi_k are the first `truncation`
    draws of stream first_index + k and A holds the running integrals of the
    basis members at the times.  The normals are drawn CHUNK_DRAWS at a
    time, and split over the cores above FORK_DRAWS.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    times = np.asarray(times, dtype=float)
    amatrix = basis.antiderivative(np.arange(truncation), times)
    lam = spec.lam(times)

    def rows(lo: int, hi: int) -> np.ndarray:
        chunks = _normal_chunks(seed, hi - lo, truncation, first_index + lo)
        return lam + _row_products(chunks, hi - lo, amatrix)

    return _map_rows(rows, count, truncation)
