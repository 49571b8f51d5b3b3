"""Construction and sampling of Gaussian additive processes.

Two representations: exact increment sampling on a grid (no truncation error
at the grid points) and truncated random-series sampling built on an
orthonormal basis of the rho-weighted space.  One generator,
_increment_chunks, draws every chunk: rows of dlambda + sigma * z, about
CHUNK_DRAWS normals a chunk, drawn, scaled and shifted in place in one
matrix.  `increment_value_matrix` sums them into whole paths (for
`simulate`, which writes the chunks as they come).  `increment_functionals`
is the one Wiener-integral kernel: it draws a step family
(funcspace.step_cells) on its own partition and returns pieces @ (dlambda +
sigma * z) straight from the normals.  `series_point_values` calls it: the
series coefficients are the increments of a standard Brownian motion over
unit cells, so a series value is a Wiener integral too.  The centered
process X - lambda is a law of its own, YehSpec.centered(rho), drawn like
any other.  No chunk grows with the path count.  Row k depends only on
stream first_index + k, never on the batch layout, chunk height, BLAS
thread count or number of processes.

One stream-range map runs on every core: stream_ranges cuts [0, count)
into one contiguous range per core, and fork_ranges runs each range after
the first in a forked part, whose result comes back through a pipe.
`simulate` writes its paths through it, and the kernel splits through it
once it draws FORK_DRAWS normals.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import YehError
from .funcspace import BasisFamily
from .stieltjes import Interval, MeanFunction, VarianceFunction, rho_inverse
from .streams import normal_matrix

#: Default grid resolution: 2**10 + 1 points.
DEFAULT_GRID_POINTS = 1025

#: Default series truncation.
DEFAULT_TRUNCATION = 256

#: Normal draws per row chunk of every sampler: a chunk holds
#: max(1, CHUNK_DRAWS // draws per row) rows, 128 paths of 513 points.
CHUNK_DRAWS = 2**16

#: Normal draws (count x draws per row) from which increment_functionals
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


def make_grid(interval, points: int = DEFAULT_GRID_POINTS, scale: str = "t",
              rho: VarianceFunction | None = None) -> np.ndarray:
    """Sampling grid over [a, b]: uniform in t, or uniform in rho mass.

    The rho scale equalizes increment variances across cells.
    """
    iv = Interval.coerce(interval)
    if points < 2:
        raise YehError("grid needs at least 2 points")
    if scale == "t":
        return np.linspace(iv.a, iv.b, points)
    if scale == "rho":
        if rho is None:
            raise YehError("rho-scale grid requires the variance function")
        masses = np.linspace(0.0, rho.total_mass, points)
        return rho_inverse(rho, masses)
    raise YehError(f"unknown grid scale {scale!r}")


def validate_grid(grid: np.ndarray, interval: Interval) -> np.ndarray:
    """The grid as a float array, checked to be strictly increasing from a to b."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise YehError("grid must be a 1-d array with at least 2 points")
    if np.any(np.diff(grid) <= 0):
        raise YehError("grid must be strictly increasing")
    if grid[0] != interval.a or grid[-1] != interval.b:
        raise YehError(f"grid must span [{interval.a}, {interval.b}], "
                       f"got [{grid[0]}, {grid[-1]}]")
    return grid


def _increment_scales(spec: YehSpec, grid) -> tuple[np.ndarray, np.ndarray]:
    """(dlambda, sigma) over the cells of the grid, which is validated first:
    the one evaluation of the law by a sampler, made before any fork."""
    grid = validate_grid(grid, spec.interval)
    dlam = np.diff(spec.lam(grid))
    drho = np.diff(spec.rho(grid))
    if np.any(drho <= 0):
        i = int(np.argmax(drho <= 0))
        lo, hi, d = grid[i].item(), grid[i + 1].item(), drho[i].item()
        raise YehError(f"rho: the variance increment over the cell [{lo!r}, {hi!r}] "
                       f"is {d!r}, not positive; rho must be strictly increasing "
                       f"in double precision")
    return dlam, np.sqrt(drho)


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
    its own (stream_ranges gives it one range), and _increment_chunks stops it
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
        """Wait for the child; return its result, or raise its exception, or
        a YehError naming its range if it died (by a signal, as the OOM
        killer ends it) without a reply."""
        with os.fdopen(self.pipe, "rb") as pipe:
            self.pipe = None
            reply = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code or not reply:
            how = (f"was killed by signal {-code}" if code < 0
                   else f"ended with exit code {code}")
            raise YehError(f"the process drawing streams [{self.lo}, {self.hi}) {how}")
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


def _increment_chunks(seed: int, count: int, dlam: np.ndarray, sigma: np.ndarray,
                      first_index: int = 0, lead: int = 0):
    """Yield (k0, z) for row chunks of about CHUNK_DRAWS draws: row k of
    z[:, lead:] is dlam + sigma * the first len(dlam) normals of stream
    first_index + k0 + k, and the `lead` columns before them are left for
    the caller to fill.  In a part (fork_ranges) whose parent has died,
    raise before the next chunk."""
    draws = len(dlam)
    rows = max(1, CHUNK_DRAWS // draws)
    for k0 in range(0, count, rows):
        if _PARENT is not None and os.getppid() != _PARENT:
            raise RuntimeError("the process that forked this part has died")
        z = np.empty((min(rows, count - k0), lead + draws))
        dz = normal_matrix(seed, len(z), draws, first_index + k0, out=z[:, lead:])
        dz *= sigma  # in place: the bits of dlam + sigma * z, without temporaries
        dz += dlam
        yield k0, z
        del z, dz  # not held while the next chunk is drawn


def _value_chunks(spec: YehSpec, grid, seed: int):
    """chunks(count, first_index): (k0, values), the path values of
    _increment_chunks' row chunks, starting at lambda(a).  Each chunk is one
    matrix: its increments are drawn into columns 1: and summed in place.
    The grid is validated and the drift and variance are evaluated in this
    call, however many ranges and chunks are drawn, so a part forked later
    evaluates neither.  A map rather than a generator: a generator's frame
    would keep its last chunk alive while the caller works on it."""
    start = spec.lam(spec.interval.a)
    dlam, sigma = _increment_scales(spec, grid)

    def values(chunk):
        k0, out = chunk
        out[:, 0] = start
        path = out[:, 1:]
        np.cumsum(path, axis=1, out=path)
        path += start
        return k0, out

    def chunks(count: int, first_index: int):
        return map(values, _increment_chunks(seed, count, dlam, sigma, first_index, lead=1))

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
    dlam, sigma = _increment_scales(spec, partition)
    pieces = np.asarray(pieces, dtype=float)
    if pieces.ndim != 2 or pieces.shape[1] != len(dlam):
        raise ValueError(f"pieces must have shape (members, {len(dlam)}), "
                         f"got {pieces.shape}")
    if not np.all(np.isfinite(pieces)):
        raise ValueError("pieces must be finite")
    load = pieces.T

    def rows(lo: int, hi: int) -> np.ndarray:
        # The stacked matmul multiplies each row on its own, so its bits do
        # not depend on the chunk it falls in or on the BLAS thread count, as
        # a blocked GEMM's do.
        out = np.empty((hi - lo, load.shape[1]))
        for k0, z in _increment_chunks(seed, hi - lo, dlam, sigma, first_index + lo):
            out[k0:k0 + len(z)] = (z[:, None, :] @ load)[:, 0]
        return out

    ranges = stream_ranges(count) if count * len(dlam) >= FORK_DRAWS else [(0, count)]
    if len(ranges) == 1:
        return rows(0, count)
    with fork_ranges(rows, ranges) as results:
        return np.concatenate(list(results))


def series_point_values(basis: BasisFamily, truncation: int, times, seed: int,
                        count: int, first_index: int = 0) -> np.ndarray:
    """Centered series-sampled values at a few times, shape (count,
    len(times)), under basis.rho.

    Row k is xi_k @ A, where xi_k are the first `truncation` draws of stream
    first_index + k and A holds the running integrals of the basis members at
    the times.  The xi_j are the increments of a standard Brownian motion
    over the unit cells [j, j + 1), so row k is the Wiener integral of the
    step j -> A[j] and increment_functionals draws it: sigma is exactly 1.0
    and dlambda exactly 0.0, which leave the normals' bits as they are.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    amatrix = basis.antiderivative(np.arange(truncation), np.asarray(times, dtype=float))
    return increment_functionals(YehSpec.brownian((0.0, float(truncation))),
                                 np.arange(truncation + 1.0), amatrix.T, seed, count,
                                 first_index)
