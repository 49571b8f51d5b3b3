"""Monte Carlo estimators and a one-sample Kolmogorov-Smirnov test.

All stochastic acceptance checks in this package are phrased as "within k
standard errors" with k = 4 (false-alarm probability below 1e-4 per check
under Gaussian asymptotics); test seeds are fixed so failures are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov, ndtr

from .errors import DegenerateReferenceError, NonFiniteDrawError


@dataclass(frozen=True)
class MCEstimate:
    """Mean/variance estimate with its standard error."""

    mean: float
    variance: float
    se: float
    count: int
    seed: int | None = None
    first_index: int | None = None


def mean_se(samples) -> tuple[float, float]:
    """(mean, std(ddof=1) / sqrt(count)) of a sample array; a non-finite
    sample gives a non-finite result, never an exception."""
    samples = np.asarray(samples, dtype=float)
    with np.errstate(invalid="ignore"):
        se = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    return float(samples.mean()), se


def mc_from_samples(samples: np.ndarray, seed: int | None = None,
                    first_index: int | None = None) -> MCEstimate:
    """Estimate from a sample array: the mean, the ddof=1 variance and the
    SE of mean_se."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need at least 2 draws")
    if not np.all(np.isfinite(samples)):
        raise NonFiniteDrawError("sample array contains non-finite values")
    mean, se = mean_se(samples)
    return MCEstimate(mean=mean, variance=float(samples.var(ddof=1)), se=se,
                      count=samples.size, seed=seed, first_index=first_index)


@dataclass(frozen=True)
class KSReport:
    """One-sample KS statistic against a Gaussian reference."""

    statistic: float
    p_value: float
    count: int
    mean: float
    variance: float


def ks_test(samples, mean: float, variance: float) -> KSReport:
    """Exact D statistic and asymptotic p-value against Normal(mean, variance).

    D is the supremum over the sample of |empirical CDF - reference CDF|; the
    p-value is the Kolmogorov survival function (scipy.special.kolmogorov) at
    sqrt(n) * D.
    """
    if variance <= 0:
        raise DegenerateReferenceError("reference variance must be positive")
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 30:
        raise ValueError("need at least 30 samples")
    cdf = ndtr((x - mean) / math.sqrt(variance))
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    d = float(max(upper.max(), lower.max()))
    return KSReport(statistic=d, p_value=float(kolmogorov(math.sqrt(n) * d)),
                    count=n, mean=mean, variance=variance)
