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
from .streams import GaussianStream


@dataclass(frozen=True)
class MCEstimate:
    """Mean/variance estimate with its standard error."""

    mean: float
    variance: float
    se: float
    count: int
    seed: int | None = None
    first_index: int | None = None

    @classmethod
    def _from_moments(cls, mean, m2, count, seed=None, first_index=None):
        """se is sqrt(variance) / sqrt(count): the bits of
        std(ddof=1) / sqrt(count) that the verify rows use."""
        variance = m2 / (count - 1) if count > 1 else 0.0
        return cls(mean=float(mean), variance=float(variance),
                   se=math.sqrt(variance) / math.sqrt(count), count=count,
                   seed=seed, first_index=first_index)


def mc_estimate(sampler, count: int, stream: GaussianStream) -> MCEstimate:
    """mc_from_samples of `count` draws.

    Draw k calls the sampler with the derived stream (seed, index + k), so the
    result is a pure function of the stream layout.
    """
    if count < 2:
        raise ValueError("need at least 2 draws")
    draws = [float(sampler(stream.child(k))) for k in range(count)]
    return mc_from_samples(draws, seed=stream.seed, first_index=stream.index)


def mc_from_samples(samples: np.ndarray, seed: int | None = None,
                    first_index: int | None = None) -> MCEstimate:
    """Estimate from a sample array: the mean, the ddof=1 variance and its SE."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need at least 2 draws")
    if not np.all(np.isfinite(samples)):
        raise NonFiniteDrawError("sample array contains non-finite values")
    mean = float(samples.mean())
    m2 = float(np.sum((samples - mean) ** 2))
    return MCEstimate._from_moments(mean, m2, samples.size, seed, first_index)


def merge_estimates(a: MCEstimate, b: MCEstimate) -> MCEstimate:
    """Associative merge of two estimates (Chan et al.); canonical order is
    ascending first_index."""
    n = a.count + b.count
    delta = b.mean - a.mean
    mean = a.mean + delta * b.count / n
    m2 = (a.variance * (a.count - 1) + b.variance * (b.count - 1)
          + delta**2 * a.count * b.count / n)
    return MCEstimate._from_moments(mean, m2, n, seed=a.seed,
                                    first_index=a.first_index)


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
