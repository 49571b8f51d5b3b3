"""Wiener integrals against sample paths and their analytic moments.

Step integrands integrate exactly (the defining telescoping sum); continuous
integrands go through step projection (the L2-limit construction) or through
pathwise Riemann-Stieltjes sums when a bounded-variation certificate is
present.  Every integral of a path held as values goes through one kernel,
`integrate_step_batch`, which takes a step family as one partition and one
(members, pieces) matrix.  Paths that exist only as increments, in
process.increment_functionals, take the family as per-cell weights instead
(`cell_weights`, `step_weights`); every Monte Carlo draw of step integrals
takes its grid and weights from `step_cells`, the members' own partition.
Partition points must lie on the path grid: a path is only known at its
grid points and interpolating would fabricate correlation structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingBVCertificateError, PartitionNotOnGridError
from .funcspace import as_integrand, inner_rho, project_family
from .process import SamplePath, grid_indices
from .stieltjes import (
    DEFAULT_RESOLUTION,
    Interval,
    MeanFunction,
    VarianceFunction,
    stieltjes_quad,
    stieltjes_step,
)


@dataclass(frozen=True)
class WienerIntegralResult:
    """Integral value, the method that produced it, and a refinement estimate.

    step_exact results are partition-refinement invariant and carry estimate 0.
    l2_approx reports |result(cells) - result(cells // 2)|; pathwise_rs reports
    the left/right tag spread of the same partition.  inf means no refinement
    comparison was available.
    """

    value: float
    method: str
    cells: int | None = None
    refinement: float = 0.0


def integrate_step_batch(partition, pieces, values, grid) -> np.ndarray:
    """Exact integrals of a step family over paths held as values.

    This is the Wiener-integral kernel for paths given as values.  A family
    is one partition and a (members, pieces) matrix, or one row of pieces;
    values is one path (1-d) or a stack of paths (2-d) on the grid.  The
    paths are gathered at the partition points, differenced once and
    multiplied by the pieces, giving shape values.shape[:-1] + (members,).
    The partition points must lie on the grid.
    """
    increments = np.diff(values[..., grid_indices(grid, partition)], axis=-1)
    return increments @ np.atleast_2d(pieces).T


def cell_weights(partition, values, grid) -> np.ndarray:
    """Per-cell weights on a path grid of a step family given as one partition
    and a (members, pieces) value matrix.

    weights[m, c] is member m's value on grid cell c, 0 outside the
    partition's span, so weights @ increments are the members' step
    integrals: the form process.increment_functionals takes, where the paths
    exist only as increments.  The partition points must lie on the grid.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    idx = grid_indices(grid, partition)
    if values.shape[1] != len(idx) - 1:
        raise ValueError("need one more partition point than values per member")
    piece = np.searchsorted(idx, np.arange(len(grid) - 1), side="right") - 1
    inside = (piece >= 0) & (piece < len(idx) - 1)
    weights = np.zeros((len(values), len(grid) - 1))
    weights[:, inside] = values[:, piece[inside]]
    return weights


def _steps(family) -> list:
    steps = [as_integrand(g).step for g in family]
    if any(step is None for step in steps):
        raise TypeError("step weights require step integrands")
    return steps


def step_weights(family, grid) -> np.ndarray:
    """Per-cell weights of step integrands on a path grid, one row each.

    The members may have different partitions; each must lie on the grid.
    The rows are the weights that process.increment_functionals takes.
    """
    return np.vstack([cell_weights(s.partition, s.values, grid) for s in _steps(family)])


def step_cells(family, interval) -> tuple[np.ndarray, np.ndarray]:
    """The draw grid of a step family and its weights on it: (grid, weights).

    The grid is the sorted union of the members' partitions and the
    interval's two ends; the weights are step_weights on that grid.
    Increments over disjoint cells are independent Normal(dlambda, drho), so
    a step integral depends only on lambda and rho at its partition points:
    drawn on this grid it has the same law as on any finer one.
    """
    iv = Interval.coerce(interval)
    grid = np.unique(np.concatenate([[iv.a, iv.b], *(s.partition for s in _steps(family))]))
    return grid, step_weights(family, grid)


def integrate_step(f, path: SamplePath) -> WienerIntegralResult:
    """Exact Wiener integral of a step function: sum of ci * (X(ti) - X(t_{i-1}))."""
    step = as_integrand(f).step
    if step is None:
        raise TypeError("the Wiener-integral kernel requires step integrands")
    value = integrate_step_batch(step.partition, step.values, path.values, path.grid)[0]
    return WienerIntegralResult(float(value), "step_exact")


def integrate_l2(f, path: SamplePath, cells: int) -> WienerIntegralResult:
    """Wiener integral via the step-projection route (the L2-limit construction).

    Cell boundaries must lie on the path grid.  The refinement estimate
    compares against cells // 2; it is inf when the coarse boundaries do not
    exist on the grid (or cells == 1).
    """
    if cells < 1:
        raise ValueError("cell count must be >= 1")
    interval = Interval(float(path.grid[0]), float(path.grid[-1]))

    def projected(n: int) -> float:
        edges, pieces = project_family([f], n, interval)
        return float(integrate_step_batch(edges, pieces, path.values, path.grid)[0])

    value = projected(cells)
    refinement = math.inf
    if cells >= 2:
        try:
            refinement = abs(value - projected(cells // 2))
        except PartitionNotOnGridError:
            pass
    return WienerIntegralResult(value, "l2_approx", cells=cells, refinement=refinement)


def integrate_pathwise_rs(f, path: SamplePath, cells: int) -> WienerIntegralResult:
    """Pathwise Riemann-Stieltjes sum with left tags on the path grid.

    Requires a bounded-variation certificate.  The refinement estimate is the
    left/right tag spread |sum of (f(right) - f(left)) * dX| over the same
    cells, which bounds the spread of tagged sums on this partition.
    """
    if cells < 1:
        raise ValueError("cell count must be >= 1")
    f = as_integrand(f)
    if not f.is_step and f.bv_breaks is None:
        raise MissingBVCertificateError(
            "pathwise RS integration requires a bounded-variation certificate"
        )
    boundaries = tuple(np.linspace(float(path.grid[0]), float(path.grid[-1]),
                                   cells + 1))
    left = f(boundaries[:-1])
    right = f(boundaries[1:])
    value, spread = integrate_step_batch(boundaries, [left, right - left],
                                         path.values, path.grid)
    return WienerIntegralResult(float(value), "pathwise_rs", cells=cells,
                                refinement=abs(float(spread)))


def integral_mean(f, lam: MeanFunction, resolution: int = DEFAULT_RESOLUTION) -> float:
    """Expected value of the Wiener integral: the integral of f against d(lambda)."""
    f = as_integrand(f)
    if f.is_step:
        return stieltjes_step(f.step, lam)
    return stieltjes_quad(f, lam, lam.interval.a, lam.interval.b, resolution).value


def integral_covariance(f, g, lam: MeanFunction, rho: VarianceFunction,
                        resolution: int = DEFAULT_RESOLUTION) -> float:
    """E[I(f) I(g)]: the rho inner product plus the product of the means."""
    return inner_rho(f, g, rho, resolution) + integral_mean(
        f, lam, resolution
    ) * integral_mean(g, lam, resolution)


def integral_distribution(f, lam: MeanFunction, rho: VarianceFunction,
                          resolution: int = DEFAULT_RESOLUTION) -> tuple[float, float]:
    """(mean, variance) of the Gaussian law of the Wiener integral."""
    mean = integral_mean(f, lam, resolution)
    variance = inner_rho(f, f, rho, resolution)
    return mean, variance
