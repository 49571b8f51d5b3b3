"""Weighted L2 spaces: step functions, integrands, inner products, bases.

Inner products are exact closed-form Stieltjes sums when both arguments are
step functions and midpoint quadrature otherwise.  Orthonormal bases of the
rho-weighted space are built by pulling a Lebesgue-orthonormal family on
[0, rho(b)] back through rho, which gives closed-form antiderivatives and
orthonormality up to quadrature error without numerical orthogonalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .stieltjes import (
    DEFAULT_RESOLUTION,
    Interval,
    MeanFunction,
    VarianceFunction,
    _eval_function,
    rho_inverse,
    stieltjes_quad,
    stieltjes_step,
)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function: value ci on [t_{i-1}, t_i), cn at t = b."""

    partition: tuple
    values: tuple

    def __post_init__(self):
        partition = tuple(float(p) for p in self.partition)
        values = tuple(float(v) for v in self.values)
        if len(partition) != len(values) + 1:
            raise ValueError("need one more partition point than values")
        if len(values) < 1:
            raise ValueError("step function needs at least one piece")
        if not all(math.isfinite(p) for p in partition):
            raise ValueError("partition must be finite")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("values must be finite")
        if any(p2 <= p1 for p1, p2 in zip(partition, partition[1:])):
            raise ValueError("partition must be strictly increasing")
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "values", values)

    @property
    def interval(self) -> Interval:
        return Interval(self.partition[0], self.partition[-1])

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        idx = np.searchsorted(self.partition, np.atleast_1d(arr), side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        out = np.asarray(self.values)[idx]
        return float(out[0]) if scalar else out

    def max_abs(self) -> float:
        return max(abs(v) for v in self.values)

    @classmethod
    def indicator(cls, lo: float, hi: float, interval) -> "StepFunction":
        """1 on [lo, hi), 0 elsewhere on the ambient interval."""
        iv = Interval.coerce(interval)
        lo, hi = float(lo), float(hi)
        if not (iv.a <= lo < hi <= iv.b):
            raise ValueError(f"need {iv.a} <= lo < hi <= {iv.b}")
        partition = sorted({iv.a, lo, hi, iv.b})
        values = [1.0 if lo <= 0.5 * (p + q) < hi else 0.0
                  for p, q in zip(partition, partition[1:])]
        return cls(tuple(partition), tuple(values))


def merge_partitions(f: StepFunction, g: StepFunction) -> tuple:
    return tuple(sorted(set(f.partition) | set(g.partition)))


def step_combine(alpha: float, f: StepFunction, beta: float, g: StepFunction) -> StepFunction:
    """The step function alpha*f + beta*g on the merged partition."""
    partition = merge_partitions(f, g)
    mids = [0.5 * (p + q) for p, q in zip(partition, partition[1:])]
    values = tuple(alpha * f(m) + beta * g(m) for m in mids)
    return StepFunction(partition, values)


@dataclass(frozen=True)
class Integrand:
    """A step function or a function handle, with optional certificates.

    bv_breaks, when present, lists times splitting [a, b] into monotone pieces
    (a bounded-variation certificate).  sign is +1 for nonnegative, -1 for
    nonpositive, 0 for identically zero, None for unknown/mixed.
    """

    step: StepFunction | None = None
    func: Callable | None = None
    bv_breaks: tuple | None = None
    sign: int | None = None

    def __post_init__(self):
        if (self.step is None) == (self.func is None):
            raise ValueError("exactly one of step or func must be given")

    @classmethod
    def from_step(cls, sf: StepFunction) -> "Integrand":
        vals = np.asarray(sf.values)
        if np.all(vals == 0):
            sign = 0
        elif np.all(vals >= 0):
            sign = 1
        elif np.all(vals <= 0):
            sign = -1
        else:
            sign = None
        return cls(step=sf, bv_breaks=sf.partition, sign=sign)

    @classmethod
    def from_function(cls, fn: Callable, bv_breaks=None, sign: int | None = None) -> "Integrand":
        breaks = tuple(float(x) for x in bv_breaks) if bv_breaks is not None else None
        return cls(func=fn, bv_breaks=breaks, sign=sign)

    @property
    def is_step(self) -> bool:
        return self.step is not None

    def __call__(self, t):
        fn = self.step if self.step is not None else self.func
        if self.step is not None:
            return fn(t)
        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            return float(fn(float(arr)))
        return _eval_function(fn, arr)


def as_integrand(obj) -> Integrand:
    if isinstance(obj, Integrand):
        return obj
    if isinstance(obj, StepFunction):
        return Integrand.from_step(obj)
    if callable(obj):
        return Integrand.from_function(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as an integrand")


def _product_step(f: StepFunction, g: StepFunction) -> StepFunction:
    partition = merge_partitions(f, g)
    mids = [0.5 * (p + q) for p, q in zip(partition, partition[1:])]
    return StepFunction(partition, tuple(f(m) * g(m) for m in mids))


def inner_rho(f, g, rho: VarianceFunction, resolution: int = DEFAULT_RESOLUTION) -> float:
    """Inner product integral of f*g against d(rho).

    Exact when both arguments are step functions; midpoint quadrature at
    `resolution` otherwise.
    """
    f, g = as_integrand(f), as_integrand(g)
    if f.is_step and g.is_step:
        return stieltjes_step(_product_step(f.step, g.step), rho)
    a, b = rho.interval.a, rho.interval.b
    return stieltjes_quad(lambda x: f(x) * g(x), rho, a, b, resolution).value


def inner_lambda_rho(f, g, lam: MeanFunction, rho: VarianceFunction,
                     resolution: int = DEFAULT_RESOLUTION) -> float:
    """Inner product of f and g against d(rho) + d|lambda|."""
    return inner_rho(f, g, rho, resolution) + inner_rho(
        f, g, lam.variation_function(), resolution
    )


def norm_sq_rho(f, rho: VarianceFunction, resolution: int = DEFAULT_RESOLUTION) -> float:
    return inner_rho(f, f, rho, resolution)


def project_to_steps(f, n: int, interval) -> StepFunction:
    """Piecewise-constant approximation on a uniform n-cell partition.

    Uses cell-midpoint values (not measure-weighted cell averages): simpler,
    and sufficient for L2 convergence of continuous integrands.
    """
    if n < 1:
        raise ValueError("cell count must be >= 1")
    iv = Interval.coerce(interval)
    f = as_integrand(f)
    edges = np.linspace(iv.a, iv.b, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return StepFunction(tuple(edges), tuple(np.atleast_1d(f(mids))))


@dataclass(frozen=True)
class BasisFamily:
    """Orthonormal basis of the rho-weighted L2 space by pullback through rho.

    Member n is psi_n(rho(t)) where {psi_n} is orthonormal on [0, T] under
    Lebesgue measure, T = rho(b).  Index 0 is the constant 1/sqrt(T).
    """

    rho: VarianceFunction
    family: str = "cosine"

    _FAMILIES = ("cosine", "haar")

    def __post_init__(self):
        if self.family not in self._FAMILIES:
            raise ValueError(f"unknown basis family {self.family!r}")

    @cached_property
    def mass(self) -> float:
        return self.rho.total_mass

    def _psi(self, n: int, x: np.ndarray) -> np.ndarray:
        T = self.mass
        if n == 0:
            return np.full_like(x, 1.0 / math.sqrt(T))
        if self.family == "cosine":
            return math.sqrt(2.0 / T) * np.cos(n * math.pi * x / T)
        level = (n).bit_length() - 1  # n = 2**level + shift
        shift = n - (1 << level)
        width = T / (1 << level)
        lo = shift * width
        scale = math.sqrt((1 << level) / T)
        rel = x - lo
        out = np.zeros_like(x)
        out[(rel >= 0) & (rel < 0.5 * width)] = scale
        out[(rel >= 0.5 * width) & (rel < width)] = -scale
        if shift == (1 << level) - 1:  # extend the last piece to the closed end
            out[x == T] = -scale
        return out

    def member(self, n: int, certificate: bool = True) -> Integrand:
        """Basis member phi_n as an integrand.

        With certificate=True (default) the integrand carries its monotone
        pieces, found by inverting rho; pass False where no pathwise integral
        needs them.
        """
        if n < 0:
            raise ValueError("basis index must be >= 0")
        rho = self.rho
        a, b = rho.interval.a, rho.interval.b
        T = self.mass
        if not certificate:
            breaks = None
        elif n == 0:
            breaks = (a, b)
        elif self.family == "cosine":
            breaks = tuple(rho_inverse(rho, np.arange(n + 1) * T / n))
        else:
            level = (n).bit_length() - 1
            shift = n - (1 << level)
            width = T / (1 << level)
            xs = (0.0, shift * width, (shift + 0.5) * width, (shift + 1) * width, T)
            breaks = tuple(np.unique(rho_inverse(rho, xs)))

        def fn(t, _n=n):
            x = np.atleast_1d(np.asarray(rho(t), dtype=float))
            out = self._psi(_n, x)
            return out if np.ndim(t) else float(out[0])

        sign = 1 if n == 0 else None
        return Integrand.from_function(fn, bv_breaks=breaks, sign=sign)

    def antiderivative(self, n: int, t):
        """Closed form of the running integral of phi_n against d(rho) from a to t.

        Cosine family: index 0 -> rho(t)/sqrt(T); index n >= 1 ->
        sqrt(2T) * sin(n*pi*rho(t)/T) / (n*pi).
        """
        if n < 0:
            raise ValueError("basis index must be >= 0")
        T = self.mass
        x = np.asarray(self.rho(t), dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if n == 0:
            out = x / math.sqrt(T)
        elif self.family == "cosine":
            out = math.sqrt(2.0 * T) * np.sin(n * math.pi * x / T) / (n * math.pi)
        else:
            level = (n).bit_length() - 1
            shift = n - (1 << level)
            width = T / (1 << level)
            lo = shift * width
            scale = math.sqrt((1 << level) / T)
            up = np.clip(x - lo, 0.0, 0.5 * width)
            down = np.clip(x - lo - 0.5 * width, 0.0, 0.5 * width)
            out = scale * (up - down)
        return float(out[0]) if scalar else out

    def antiderivative_matrix(self, count: int, grid) -> np.ndarray:
        """Stacked antiderivatives, shape (count, len(grid))."""
        grid = np.asarray(grid, dtype=float)
        return np.stack([self.antiderivative(n, grid) for n in range(count)])


def fourier_coeffs(f, basis: BasisFamily, count: int,
                   resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Coefficients <f, phi_n>_rho for n = 0..count-1.

    Exact for step integrands via the closed-form antiderivatives; midpoint
    quadrature at `resolution` otherwise.
    """
    if count < 1:
        raise ValueError("coefficient count must be >= 1")
    f = as_integrand(f)
    rho = basis.rho
    a, b = rho.interval.a, rho.interval.b
    if f.is_step:
        pts = np.asarray(f.step.partition)
        vals = np.asarray(f.step.values)
        coeffs = np.empty(count)
        for n in range(count):
            anti = basis.antiderivative(n, pts)
            coeffs[n] = float(np.dot(vals, np.diff(anti)))
        return coeffs
    edges = np.linspace(a, b, resolution + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    fvals = f(mids)
    dmu = np.diff(rho(edges))
    x = rho(mids)
    coeffs = np.empty(count)
    for n in range(count):
        coeffs[n] = float(np.dot(fvals * basis._psi(n, x), dmu))
    return coeffs


def gram_matrix(basis: BasisFamily, count: int,
                resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Gram matrix of the first `count` members under the rho inner product."""
    rho = basis.rho
    edges = np.linspace(rho.interval.a, rho.interval.b, resolution + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    dmu = np.diff(rho(edges))
    x = rho(mids)
    members = np.stack([basis._psi(n, x) for n in range(count)])
    return (members * dmu) @ members.T
