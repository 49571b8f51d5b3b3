"""The Monte Carlo standard error and a one-sample Kolmogorov-Smirnov test.

mean_se is the one SE formula of every Monte Carlo row.  All stochastic
acceptance checks in this package are phrased as "within k standard errors"
with k = 4 (false-alarm probability below 1e-4 per check under Gaussian
asymptotics); test seeds are fixed so failures are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import YehError
from .streams import kolmogorov, ndtr


def mean_se(samples) -> tuple[float, float]:
    """(mean, std(ddof=1) / sqrt(count)) of a sample array; a non-finite
    sample, or a sum that overflows, gives a non-finite result, never an
    exception or a warning."""
    samples = np.asarray(samples, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(samples.mean()), float(samples.std(ddof=1)) / math.sqrt(samples.size)


@dataclass(frozen=True)
class KSReport:
    """One-sample KS statistic against a Gaussian reference; `count`, the
    sample size, is what bench/tracer.py counts as stats.ks.samples."""

    statistic: float
    p_value: float
    count: int


def ks_test(samples, mean: float, variance: float) -> KSReport:
    """Exact D statistic and asymptotic p-value against Normal(mean, variance).

    D is the supremum over the sample of |empirical CDF - reference CDF|; the
    p-value is the Kolmogorov survival function (scipy.special.kolmogorov) at
    sqrt(n) * D.
    """
    if variance <= 0:
        raise YehError("reference variance must be positive")
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 30:
        raise ValueError("need at least 30 samples")
    cdf = ndtr((x - mean) / math.sqrt(variance))
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    d = float(max(upper.max(), lower.max()))
    return KSReport(statistic=d, p_value=float(kolmogorov(math.sqrt(n) * d)), count=n)
