"""Random-series expansion of Wiener integrals over a centered path.

The expansion writes the integral of f against the centered process as the
sum over n of <f, phi_n>_rho times the integral of phi_n; the analytic
mean-square truncation error after n terms is the Parseval defect
||f||^2_rho - sum of the first n squared coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotCenteredError
from .funcspace import (
    BasisFamily,
    as_integrand,
    fourier_coeffs,
    inner_rho,
    project_family,
)
from .integral import cell_weights, integral_mean
from .process import SamplePath
from .stieltjes import DEFAULT_RESOLUTION, Interval, MeanFunction


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


def expand_integral(f, basis: BasisFamily, truncation: int, path: SamplePath,
                    cells: int, resolution: int = DEFAULT_RESOLUTION) -> ExpansionReport:
    """Expand the Wiener integral of f over a centered path.

    The target and the members are projected onto the same `cells` steps and
    integrated as one family, so the comparison isolates truncation error from
    grid error.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if not path.centered:
        raise NotCenteredError("expansion requires a centered path")
    f = as_integrand(f)
    coeffs = fourier_coeffs(f, basis, truncation, resolution)
    interval = Interval(float(path.grid[0]), float(path.grid[-1]))
    edges, values = project_family([f], cells, interval, basis, truncation)
    integrals = np.diff(path.values) @ cell_weights(edges, values, path.grid).T
    target, member_integrals = float(integrals[0]), integrals[1:]
    partial_sums = np.cumsum(coeffs * member_integrals)
    norm_sq = inner_rho(f, f, basis.rho, resolution)
    defects = norm_sq - np.cumsum(coeffs**2)
    return ExpansionReport(truncation, coeffs, partial_sums, target, defects, norm_sq)


def expand_integral_uncentered(f, basis: BasisFamily, truncation: int,
                               path: SamplePath, lam: MeanFunction, cells: int,
                               resolution: int = DEFAULT_RESOLUTION) -> ExpansionReport:
    """Expansion against an uncentered path: centers it, then shifts target and
    partial sums by the integral of f against d(lambda)."""
    from .process import center

    report = expand_integral(f, basis, truncation, center(path, lam), cells, resolution)
    shift = integral_mean(f, lam, resolution)
    return ExpansionReport(
        report.truncation, report.coefficients, report.partial_sums + shift,
        report.target + shift, report.defects, report.norm_sq,
    )


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
