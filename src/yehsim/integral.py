"""Analytic moments of Wiener integrals.

The Wiener integral of f is the L2 limit of step-function integrals.  A
step family is one partition and one (members, pieces) matrix
(funcspace.step_cells, or project_family for the midpoint projection of
any integrand), and process.increment_functionals is its one kernel: it
draws the family on the partition itself, straight from the normals.  The
law of the integral is Gaussian with the mean and covariance given here:
means are funcspace.stieltjes_integral, exact for steps, and covariances
add the rho inner product.
"""

from __future__ import annotations

from .funcspace import inner_rho, stieltjes_integral
from .stieltjes import DEFAULT_RESOLUTION, MeanFunction, VarianceFunction


def integral_mean(f, lam: MeanFunction, resolution: int = DEFAULT_RESOLUTION) -> float:
    """Expected value of the Wiener integral: the integral of f against d(lambda)."""
    return stieltjes_integral(f, lam, resolution=resolution)


def integral_covariance(f, g, lam: MeanFunction, rho: VarianceFunction,
                        resolution: int = DEFAULT_RESOLUTION) -> float:
    """E[I(f) I(g)]: the rho inner product plus the product of the means."""
    return inner_rho(f, g, rho, resolution) + integral_mean(
        f, lam, resolution
    ) * integral_mean(g, lam, resolution)
