"""Random-series expansion of Wiener integrals over a centered path.

The expansion writes the integral of f against the centered process X -
lambda, the law YehSpec.centered(rho), as the sum over n of <f, phi_n>_rho
times the integral of phi_n; the analytic mean-square truncation error after
n terms is the Parseval defect ||f||^2_rho - sum of the first n squared
coefficients.  `expand_integral` draws f and the members, projected onto
uniform cells, as one step family straight from the normals of one stream.
`sample_series` draws one truncated-series path on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funcspace import (
    BasisFamily,
    as_integrand,
    fourier_coeffs,
    inner_rho,
    project_family,
)
from .process import (SamplePath, YehSpec, increment_functionals, series_point_values,
                      validate_grid)
from .stieltjes import DEFAULT_RESOLUTION
from .streams import GaussianStream


@dataclass(frozen=True)
class ExpansionReport:
    """Cumulative partial sums against a direct integral on the same path.

    partial_sums[i] uses coefficients 0..i; defects[i] is the analytic
    mean-square residual after those terms (nonincreasing in i).
    """

    truncation: int
    coefficients: np.ndarray
    partial_sums: np.ndarray
    target: float
    defects: np.ndarray
    norm_sq: float

    def rows(self):
        """(n, partial_sum, defect) rows, n = 1..truncation."""
        return zip(range(1, self.truncation + 1), self.partial_sums.tolist(),
                   self.defects.tolist())


def expand_integral(f, basis: BasisFamily, truncation: int, cells: int,
                    stream: GaussianStream,
                    resolution: int = DEFAULT_RESOLUTION) -> ExpansionReport:
    """Expand the Wiener integral of f over the centered path of `stream`.

    The target and the first `truncation` members are projected onto `cells`
    uniform cells of the basis interval and drawn as one family on that
    partition, so the comparison isolates truncation error from grid error.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    f = as_integrand(f)
    coeffs = fourier_coeffs(f, basis, truncation, resolution)
    edges, values = project_family([f], cells, basis.rho.interval, basis, truncation)
    integrals = increment_functionals(YehSpec.centered(basis.rho), edges, values,
                                      stream.seed, 1, stream.index)[0]
    target, member_integrals = float(integrals[0]), integrals[1:]
    partial_sums = np.cumsum(coeffs * member_integrals)
    norm_sq = inner_rho(f, f, basis.rho, resolution)
    defects = norm_sq - np.cumsum(coeffs**2)
    return ExpansionReport(truncation, coeffs, partial_sums, target, defects, norm_sq)


def parseval_defect(f, basis: BasisFamily, truncation: int,
                    resolution: int = DEFAULT_RESOLUTION) -> float:
    """||f||^2_rho minus the sum of the first `truncation` squared coefficients.

    Nonnegative up to quadrature error and nonincreasing in the truncation.
    """
    coeffs = fourier_coeffs(f, basis, truncation, resolution)
    return inner_rho(f, f, basis.rho, resolution) - float(np.sum(coeffs**2))


def series_variance_defect(basis: BasisFamily, truncation: int, t):
    """Variance shortfall rho(t) minus the truncated series variance at t,
    broadcast over t (a float for scalar t).

    The squared running integrals are summed in index order.  The defect lies
    in [0, rho(t)] and vanishes pointwise as the truncation grows; tiny
    negative float dust is clamped to 0.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    squares = basis.antiderivative(np.arange(truncation), t) ** 2
    defect = np.maximum(0.0, basis.rho(t) - np.cumsum(squares, axis=0)[-1])
    return float(defect) if defect.ndim == 0 else defect


def sample_series(spec: YehSpec, basis: BasisFamily, truncation: int, grid,
                  stream: GaussianStream) -> SamplePath:
    """Truncated random-series sampling: series_point_values for the stream
    over the whole grid.

    Values are lambda(t) + sum over n < truncation of (running rho-integral of
    phi_n up to t) * xi_n, with xi_n consumed from the stream in index order;
    series_variance_defect gives the variance each value lacks.
    """
    if basis.rho != spec.rho:
        raise ValueError("basis must be built on the spec's variance function")
    grid = validate_grid(grid, spec.interval)
    return SamplePath(grid, series_point_values(spec, basis, truncation, grid,
                                                stream.seed, 1, stream.index)[0])
