"""Wiener integrals against sample paths and their analytic moments.

A step integrand is a funcspace.StepFunction and integrates exactly (the
defining telescoping sum); continuous integrands go through step projection
(the L2-limit construction) or through pathwise Riemann-Stieltjes sums when
a bounded-variation certificate is present.  Means are
funcspace.stieltjes_integral, exact for steps.  A step family is one
partition and one (members, pieces) matrix (funcspace.step_cells), and both
Wiener-integral kernels take it: `integrate_step_batch` for paths held as
values, and process.increment_functionals, drawing on the partition itself,
for paths that exist only as increments.  Partition points must lie on the
path grid: a path is only known at its grid points and interpolating would
fabricate correlation structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingBVCertificateError, PartitionNotOnGridError
from .funcspace import (StepFunction, as_integrand, inner_rho, project_family,
                        stieltjes_integral)
from .process import SamplePath, grid_indices
from .stieltjes import DEFAULT_RESOLUTION, Interval, MeanFunction, VarianceFunction


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


def integrate_step(f, path: SamplePath) -> WienerIntegralResult:
    """Exact Wiener integral of a step function: sum of ci * (X(ti) - X(t_{i-1}))."""
    if not isinstance(f, StepFunction):
        raise TypeError("the Wiener-integral kernel requires step integrands")
    value = integrate_step_batch(f.partition, f.values, path.values, path.grid)[0]
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

    Requires a bounded-variation certificate; a step integrand is first cut
    to the path's interval, so its last value holds only at the path's end.
    The refinement estimate is the left/right tag spread |sum of (f(right) -
    f(left)) * dX| over the same cells, which bounds the spread of tagged
    sums on this partition.
    """
    if cells < 1:
        raise ValueError("cell count must be >= 1")
    f = as_integrand(f)
    if f.bv_breaks is None:
        raise MissingBVCertificateError(
            "pathwise RS integration requires a bounded-variation certificate"
        )
    a, b = float(path.grid[0]), float(path.grid[-1])
    if isinstance(f, StepFunction):
        f = f.restrict(a, b)
    boundaries = tuple(np.linspace(a, b, cells + 1))
    left = f(boundaries[:-1])
    right = f(boundaries[1:])
    value, spread = integrate_step_batch(boundaries, [left, right - left],
                                         path.values, path.grid)
    return WienerIntegralResult(float(value), "pathwise_rs", cells=cells,
                                refinement=abs(float(spread)))


def integral_mean(f, lam: MeanFunction, resolution: int = DEFAULT_RESOLUTION) -> float:
    """Expected value of the Wiener integral: the integral of f against d(lambda)."""
    return stieltjes_integral(f, lam, resolution=resolution)


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
