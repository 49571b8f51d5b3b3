"""Weighted L2 spaces: step functions, integrands, inner products, bases.

A step integrand is a StepFunction, sum of c_i 1_[t_{i-1}, t_i), 0 outside
its partition; other integrands are function handles (Integrand).  A step
family is one partition and one (members, pieces) matrix: `step_cells`, the
one code that merges or cuts partitions, builds it from steps and
`project_family` from any integrands and basis members; both
Wiener-integral kernels take it.  `stieltjes_integral` integrates against
d(mu): exactly for a StepFunction, by midpoint quadrature otherwise.  Bases
of the rho-weighted space pull a Lebesgue-orthonormal family on [0, rho(b)]
back through rho: closed-form antiderivatives, and orthonormality without
numerical orthogonalization.  Its two evaluators, members and running
integrals (sines, or Schauder tents for Haar), take an array of member
indices and return one matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NonFiniteValueError
from .stieltjes import (
    DEFAULT_RESOLUTION,
    Interval,
    MeanFunction,
    VarianceFunction,
    _eval_function,
    midpoint_rule,
    rho_inverse,
    stieltjes_quad,
    stieltjes_step,
)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function: value ci on [t_{i-1}, t_i), cn at t = tn,
    and 0 outside [t0, tn], as the integrals take it."""

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

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.partition, t, side="right") - 1
        idx[t == self.partition[-1]] -= 1  # cn holds at t = tn
        out = np.append(self.values, 0.0)[idx]  # indices -1 and n read the 0
        return float(out[0]) if scalar else out

    def max_abs(self) -> float:
        return max(abs(v) for v in self.values)

    @property
    def bv_breaks(self) -> tuple:
        """The partition: a step function is monotone between its points."""
        return self.partition

    @property
    def sign(self) -> int | None:
        """+1 nonnegative, -1 nonpositive, 0 identically zero, None mixed."""
        signs = set(np.sign(self.values).tolist()) - {0.0}
        if len(signs) > 1:
            return None
        return int(signs.pop()) if signs else 0

    def restrict(self, s: float, t: float) -> "StepFunction":
        """This step function on [s, t], 0 outside it, with s and t added to
        the partition."""
        partition, pieces = step_cells([self], (s, t))
        return StepFunction(partition, pieces[0])

    @classmethod
    def indicator(cls, lo: float, hi: float, interval) -> "StepFunction":
        """1 on [lo, hi), 0 elsewhere on the ambient interval."""
        iv = Interval.coerce(interval)
        lo, hi = float(lo), float(hi)
        if not (iv.a <= lo < hi <= iv.b):
            raise ValueError(f"need {iv.a} <= lo < hi <= {iv.b}")
        partition, pieces = step_cells([cls((lo, hi), (1.0,))], iv)
        return cls(partition, pieces[0])


def step_cells(family, interval=None) -> tuple[np.ndarray, np.ndarray]:
    """A family of step integrands as one partition and one piece matrix:
    (partition, pieces).

    The partition is the sorted union of the members' partitions and the
    interval's two ends, cut to the interval (by default the hull of the
    members' partitions); pieces[m, i] is member m at the midpoint of cell
    i, 0 where the member's partition does not reach.  Increments over
    disjoint cells are independent Normal(dlambda, drho), so a step integral
    depends only on lambda and rho at its partition points: drawn on this
    partition it has the same law as on any finer one.
    """
    steps = list(family)
    if not all(isinstance(f, StepFunction) for f in steps):
        raise TypeError("step cells require step integrands")
    points = np.concatenate([s.partition for s in steps])
    iv = Interval.coerce((points.min(), points.max()) if interval is None else interval)
    points = np.append(points, [iv.a, iv.b])
    partition = np.unique(points[(points >= iv.a) & (points <= iv.b)])
    mids = 0.5 * partition[:-1] + 0.5 * partition[1:]
    return partition, np.vstack([step(mids) for step in steps])


def step_combine(alpha: float, f: StepFunction, beta: float, g: StepFunction) -> StepFunction:
    """The step function alpha*f + beta*g on the merged partition."""
    partition, (x, y) = step_cells([f, g])
    return StepFunction(partition, alpha * x + beta * y)


@dataclass(frozen=True)
class Integrand:
    """A function handle with optional certificates.

    bv_breaks, when present, lists times splitting [a, b] into monotone pieces
    (a bounded-variation certificate).  sign is +1 for nonnegative, -1 for
    nonpositive, 0 for identically zero, None for unknown/mixed.  A
    StepFunction answers both itself.
    """

    func: Callable
    bv_breaks: tuple | None = None
    sign: int | None = None

    @classmethod
    def from_function(cls, fn: Callable, bv_breaks=None, sign: int | None = None) -> "Integrand":
        breaks = tuple(float(x) for x in bv_breaks) if bv_breaks is not None else None
        return cls(func=fn, bv_breaks=breaks, sign=sign)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            return float(self.func(float(arr)))
        return _eval_function(self.func, arr)


def as_integrand(obj) -> Integrand | StepFunction:
    """A StepFunction or Integrand unchanged, a bare callable as an Integrand."""
    if isinstance(obj, (Integrand, StepFunction)):
        return obj
    if callable(obj):
        return Integrand.from_function(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as an integrand")


def stieltjes_integral(f, mu, s: float | None = None, t: float | None = None,
                       resolution: int = DEFAULT_RESOLUTION) -> float:
    """The integral of f against d(mu) over [s, t], by default mu's interval:
    the exact closed form for a StepFunction, midpoint quadrature at
    `resolution` otherwise."""
    f = as_integrand(f)
    if isinstance(f, StepFunction):
        return stieltjes_step(f, mu, s, t)
    lo = mu.interval.a if s is None else s
    hi = mu.interval.b if t is None else t
    return stieltjes_quad(f, mu, lo, hi, resolution).value


def inner_rho(f, g, rho: VarianceFunction, resolution: int = DEFAULT_RESOLUTION) -> float:
    """Inner product integral of f*g against d(rho).

    Exact when both arguments are step functions, on the union of their
    partitions; midpoint quadrature at `resolution` otherwise.
    """
    f, g = as_integrand(f), as_integrand(g)
    if isinstance(f, StepFunction) and isinstance(g, StepFunction):
        partition, (x, y) = step_cells([f, g])
        return stieltjes_integral(StepFunction(partition, x * y), rho)
    return stieltjes_integral(lambda x: f(x) * g(x), rho, resolution=resolution)


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
    edges, values = project_family([f], n, interval)
    return StepFunction(edges, tuple(values[0]))


def project_family(fs, n: int, interval, basis: BasisFamily | None = None,
                   terms: int = 0) -> tuple[tuple, np.ndarray]:
    """Midpoint projection of several integrands onto one uniform n-cell
    partition: (edges, values), edges being the partition as a tuple (as in
    StepFunction) and values[m, i] row m at the midpoint of cell i.  The rows
    are fs, then the first `terms` members of `basis` from one evaluator
    call: a step family with no StepFunction per member."""
    if n < 1:
        raise ValueError("cell count must be >= 1")
    iv = Interval.coerce(interval)
    edges, mids, _ = midpoint_rule(iv.a, iv.b, n)
    rows = [np.atleast_1d(as_integrand(f)(mids)) for f in fs]
    if terms:
        rows.append(basis.values(np.arange(terms), mids))
    values = np.vstack(rows)
    if np.any(np.diff(edges) <= 0):
        raise ValueError("partition must be strictly increasing")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    return tuple(edges.tolist()), values


#: Member values held at once by the quadrature branch of fourier_coeffs,
#: which evaluates the members in blocks of max(1, BLOCK_VALUES // resolution).
BLOCK_VALUES = 2**16


@dataclass(frozen=True)
class BasisFamily:
    """Orthonormal basis of the rho-weighted L2 space by pullback through rho.

    Member n is psi_n(rho(t)) where {psi_n} is orthonormal on [0, T] under
    Lebesgue measure, T = rho(b).  Index 0 is the constant 1/sqrt(T).  The
    two evaluators, `values` for the members and `antiderivative` for their
    running integrals, take an array of indices and broadcast over it.
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

    def _haar(self, n):
        """The Haar index split n = 2**level + shift as (shift, width, scale):
        in rho-space member n >= 1 is scale on [shift, shift + 1/2) * width
        and -scale on [shift + 1/2, shift + 1) * width, where width =
        T / 2**level and scale = sqrt(2**level / T).  Index 0, the constant,
        gets the split of index 1 (callers overwrite its rows)."""
        n = np.maximum(n, 1)
        pow2 = np.ldexp(1.0, np.frexp(n)[1] - 1)
        return n - pow2, self.mass / pow2, np.sqrt(pow2 / self.mass)

    def _evaluate(self, n, t, running: bool):
        """Members n, or their running integrals against d(rho) from a, at
        times t: shape np.shape(n) + np.shape(t), a float for scalar n and t,
        built as one (indices, times) matrix transformed in place."""
        ns, x = np.asarray(n), np.asarray(self.rho(t), dtype=float)
        flat, xs, T = np.ravel(ns), np.ravel(x), self.mass
        if np.any(flat < 0):
            raise ValueError("basis index must be >= 0")
        if self.family == "cosine":
            freq = flat * math.pi
            if not (math.isfinite(2.0 * T) and math.isfinite(float(freq.max(initial=0)) * T)):
                raise NonFiniteValueError(f"series.family: the cosine basis overflows for rho "
                                          f"mass {T!r} (2 T or n pi T is not finite)")
            out = np.multiply.outer(freq, xs)
            out /= T
            if running:
                np.sin(out, out=out)
                out *= math.sqrt(2.0 * T)
                np.divide(out, freq[:, None], out=out, where=freq[:, None] > 0)
            else:
                np.cos(out, out=out)
                out *= math.sqrt(2.0 / T)
        else:
            shift, width, scale = (v[:, None] for v in self._haar(flat))
            out, half = xs - shift * width, 0.5 * width
            if running:
                down = np.clip(out - half, 0.0, half)
                np.clip(out, 0.0, half, out=out)
                out -= down
                out *= scale
            else:  # the last member of a level (n + 1 a power of 2) is closed at x = T
                end = ((flat & (flat + 1)) == 0)[:, None] & (xs == T)
                out = np.select([(out >= 0) & (out < half), (out >= half) & (out < width) | end],
                                [scale, -scale])
        out[flat == 0] = xs / math.sqrt(T) if running else 1.0 / math.sqrt(T)
        out = out.reshape(ns.shape + x.shape)
        return float(out) if out.ndim == 0 else out

    def values(self, n, t):
        """Members phi_n(t), broadcast over the indices n and the times t."""
        return self._evaluate(n, t, running=False)

    def antiderivative(self, n, t):
        """Closed-form running integrals of phi_n against d(rho) from a to t,
        broadcast over the indices n and the times t: rho(t)/sqrt(T) for index
        0, sqrt(2T) * sin(n*pi*rho(t)/T) / (n*pi) for cosine members n >= 1,
        and Schauder tents for Haar members."""
        return self._evaluate(n, t, running=True)

    def member(self, n: int) -> Integrand:
        """Basis member phi_n as an integrand carrying its monotone pieces,
        found by inverting rho."""
        if n < 0:
            raise ValueError("basis index must be >= 0")
        rho, T = self.rho, self.mass
        if n == 0:
            breaks = (rho.interval.a, rho.interval.b)
        elif self.family == "cosine":
            breaks = tuple(rho_inverse(rho, np.arange(n + 1) * T / n))
        else:
            shift, width, _ = self._haar(n)
            xs = (0.0, shift * width, (shift + 0.5) * width, (shift + 1) * width, T)
            breaks = tuple(np.unique(rho_inverse(rho, xs)))
        return Integrand.from_function(lambda t: self.values(n, t), bv_breaks=breaks,
                                       sign=1 if n == 0 else None)


def fourier_coeffs(f, basis: BasisFamily, count: int,
                   resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Coefficients <f, phi_n>_rho for n = 0..count-1.

    Exact for step integrands via the closed-form antiderivatives; midpoint
    quadrature at `resolution` otherwise, over blocks of members so memory
    does not grow with the count.  Each coefficient is one dot product (a
    stacked 1 x k @ k x 1 product) for steps and one np.sum of products for
    quadrature, so its bits depend neither on the count nor on the BLAS
    thread count.
    """
    if count < 1:
        raise ValueError("coefficient count must be >= 1")
    f = as_integrand(f)
    ns = np.arange(count)
    if isinstance(f, StepFunction):
        steps = np.diff(basis.antiderivative(ns, f.partition), axis=1)
        return (steps[:, None, :] @ np.asarray(f.values)[:, None])[:, 0, 0]
    rho = basis.rho
    _, mids, masses = midpoint_rule(rho.interval.a, rho.interval.b, resolution, rho)
    fvals = f(mids)
    rows = max(1, BLOCK_VALUES // resolution)
    coeffs = np.empty(count)
    for lo in range(0, count, rows):
        block = basis.values(ns[lo:lo + rows], mids) * fvals
        block *= masses
        coeffs[lo:lo + rows] = block.sum(axis=1)
    return coeffs


def gram_matrix(basis: BasisFamily, count: int,
                resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Gram matrix of the first `count` members under the rho inner product."""
    rho = basis.rho
    _, mids, masses = midpoint_rule(rho.interval.a, rho.interval.b, resolution, rho)
    members = basis.values(np.arange(count), mids)
    return (members * masses) @ members.T
