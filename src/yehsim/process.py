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
`increment_value_matrix`, `sample_series` of `series_point_values`.  All draw
in row chunks of about CHUNK_DRAWS normals, so neither their memory nor that
of `simulate`, which writes the chunks as they come, grows with the path
count.  Row k depends only on stream first_index + k, never on the batch
layout, chunk height or BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class SamplePath:
    """One realization on a grid, with provenance and stream identity."""

    grid: np.ndarray
    values: np.ndarray
    provenance: str  # "increments" or "series"
    seed: int | None = None
    stream_index: int | None = None
    truncation: int | None = None
    truncation_defect: float | None = None
    centered: bool = False

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


def _validate_grid(grid: np.ndarray, interval: Interval) -> np.ndarray:
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
    values = increment_value_matrix(spec, grid, stream.seed, 1, stream.index)[0]
    return SamplePath(grid, values, "increments",
                      seed=stream.seed, stream_index=stream.index)


def sample_series(spec: YehSpec, basis: BasisFamily, truncation: int, grid,
                  stream: GaussianStream) -> SamplePath:
    """Truncated random-series sampling: series_point_values for the stream
    over the whole grid.

    Values are lambda(t) + sum over n < truncation of (running rho-integral of
    phi_n up to t) * xi_n, with xi_n consumed from the stream in index order.
    The reported truncation defect is the largest variance shortfall
    rho(t) - sum of squared running integrals over the grid.
    """
    if basis.rho != spec.rho:
        raise ValueError("basis must be built on the spec's variance function")
    grid = _validate_grid(grid, spec.interval)
    values = series_point_values(spec, basis, truncation, grid, stream.seed, 1,
                                 stream.index)[0]
    from .series import series_variance_defect  # series imports this module
    defect = float(np.max(series_variance_defect(basis, truncation, grid)))
    return SamplePath(grid, values, "series",
                      seed=stream.seed, stream_index=stream.index,
                      truncation=truncation, truncation_defect=defect)


def center(path: SamplePath, lam: MeanFunction) -> SamplePath:
    """Subtract the drift pointwise; centering with a zero drift is the identity."""
    return replace(path, values=path.values - lam(path.grid), centered=True)


def _normal_chunks(seed: int, count: int, draws: int, first_index: int = 0):
    """Yield (k0, z) for row chunks of about CHUNK_DRAWS draws: row k of z is
    the first `draws` normals of stream first_index + k0 + k."""
    rows = max(1, CHUNK_DRAWS // draws)
    for k0 in range(0, count, rows):
        yield k0, normal_matrix(seed, min(rows, count - k0), draws, first_index + k0)


# The chunk pipelines below are maps rather than generators: a generator's
# frame would keep its last chunk alive while the caller works on it, and
# each chunk held that way adds its size to the peak memory.

def _increment_chunks(spec: YehSpec, grid, seed: int, count: int, first_index: int = 0):
    """(k0, increments) over _normal_chunks: row k of a chunk is
    dlambda + sigma * z.  The grid is validated and the drift and variance are
    evaluated once per call, however many chunks there are."""
    grid = _validate_grid(grid, spec.interval)
    dlam, sigma = _increment_scales(spec, grid)

    def increments(chunk):
        k0, z = chunk
        z *= sigma  # in place: the bits of dlam + sigma * z, without temporaries
        z += dlam
        return k0, z

    return map(increments, _normal_chunks(seed, count, len(dlam), first_index))


def _row_products(chunks, count: int, load: np.ndarray) -> np.ndarray:
    """Stack the products row @ load over (k0, rows) chunks.  The stacked
    matmul multiplies each row on its own, so its bits do not depend on the
    chunk it falls in or on the BLAS thread count, as a blocked GEMM's do."""
    out = np.empty((count, load.shape[1]))
    for k0, block in chunks:
        out[k0:k0 + len(block)] = (block[:, None, :] @ load)[:, 0]
    return out


def _value_chunks(spec: YehSpec, grid, seed: int, count: int, first_index: int = 0):
    """(k0, values): the path values of _increment_chunks' row chunks,
    starting at lambda(a)."""
    start = spec.lam(spec.interval.a)

    def values(chunk):
        k0, increments = chunk
        out = np.empty((len(increments), increments.shape[1] + 1))
        out[:, 0] = start
        np.cumsum(increments, axis=1, out=out[:, 1:])
        out[:, 1:] += start
        return k0, out

    return map(values, _increment_chunks(spec, grid, seed, count, first_index))


def increment_value_matrix(spec: YehSpec, grid, seed: int, count: int,
                           first_index: int = 0) -> np.ndarray:
    """Batched increment sampling: row k is the value array of stream index
    first_index + k."""
    chunks = _value_chunks(spec, grid, seed, count, first_index)
    values = np.empty((count, len(grid)))
    for k0, chunk in chunks:
        values[k0:k0 + len(chunk)] = chunk
    return values


def increment_functionals(spec: YehSpec, grid, weights, seed: int, count: int,
                          first_index: int = 0) -> np.ndarray:
    """Step integrals of increment-sampled paths, straight from the normals.

    This is the Wiener-integral kernel for paths that exist only as
    increments.  It takes a step family as one partition, the grid drawn on,
    and one piece matrix, weights, with one row per member and one column
    per cell (as funcspace.step_cells gives it).  The result has shape
    (count, members), row k being weights @ (dlambda + sigma * z) for
    stream first_index + k.  No path values are formed: the normals are
    drawn CHUNK_DRAWS at a time.
    """
    chunks = _increment_chunks(spec, grid, seed, count, first_index)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != len(grid) - 1:
        raise ValueError(f"weights must have shape (functionals, {len(grid) - 1}), "
                         f"got {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    return _row_products(chunks, count, weights.T)


def series_point_values(spec: YehSpec, basis: BasisFamily, truncation: int, times,
                        seed: int, count: int, first_index: int = 0) -> np.ndarray:
    """Series-sampled values at a few times, shape (count, len(times)).

    Row k is lambda(times) + xi_k @ A, where xi_k are the first `truncation`
    draws of stream first_index + k and A holds the running integrals of the
    basis members at the times.  The normals are drawn CHUNK_DRAWS at a
    time.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    times = np.asarray(times, dtype=float)
    amatrix = basis.antiderivative(np.arange(truncation), times)
    chunks = _normal_chunks(seed, count, truncation, first_index)
    return spec.lam(times) + _row_products(chunks, count, amatrix)
