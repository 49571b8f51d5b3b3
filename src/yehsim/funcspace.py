"""Weighted L2 spaces: step functions, integrands, inner products, bases.

An integrand is a StepFunction, sum of c_i 1_[t_{i-1}, t_i), 0 outside its
partition, or a callable on arrays, which stieltjes._eval_function evaluates
and guards.  A step family is one partition and one (members, pieces)
matrix: `step_cells`, the one code that merges or cuts partitions, builds it
from steps and `project_family` from any integrands and basis members, and
the one Wiener-integral kernel, process.increment_functionals, takes it.
`stieltjes_integral`, the one Stieltjes integral, integrates against d(mu):
exactly for a StepFunction, by midpoint quadrature otherwise.  The Wiener
integral I(f) is Normal(stieltjes_integral(f, lambda), inner_rho(f, f,
rho)), and E[I(f) I(g)] is inner_rho(f, g, rho) plus the product of the
means.
Bases of the rho-weighted space pull a Lebesgue-orthonormal family on
[0, rho(b)] back through rho: closed-form antiderivatives, and
orthonormality without numerical orthogonalization.  Its two evaluators,
members and running integrals (sines, or Schauder tents for Haar), take an
array of member indices and return one matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import YehError
from .stieltjes import (
    _EDGE_TOL,
    DEFAULT_RESOLUTION,
    Interval,
    VarianceFunction,
    _eval_function,
    midpoint_rule,
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
    # np.unique's sort-and-compare, without its np.ma.is_masked check, which
    # imports numpy.ma
    partition = np.sort(points[(points >= iv.a) & (points <= iv.b)])
    partition = partition[np.append(True, partition[1:] != partition[:-1])]
    mids = 0.5 * partition[:-1] + 0.5 * partition[1:]
    return partition, np.vstack([step(mids) for step in steps])


def stieltjes_integral(f, mu, s: float | None = None, t: float | None = None,
                       resolution: int = DEFAULT_RESOLUTION) -> float:
    """The integral of f against d(mu) over [s, t], by default mu's interval.

    For a StepFunction, t0 < ... < tn with values c1..cn, it is the closed
    form sum of ci * (mu(ti) - mu(t_{i-1})) restricted to [s, t], independent
    of partition refinement.  For a callable it is the midpoint rule on
    `resolution` uniform cells of [s, t], which converges for continuous f.
    """
    a, b = mu.interval.a, mu.interval.b
    lo = a if s is None else float(s)
    hi = b if t is None else float(t)
    if not (a <= lo <= hi <= b):
        raise YehError(f"need {a} <= s <= t <= {b}, got s={lo}, t={hi}")
    if isinstance(f, StepFunction):
        partition = np.asarray(f.partition)
        if partition[0] < a - _EDGE_TOL or partition[-1] > b + _EDGE_TOL:
            raise YehError(f"partition [{partition[0]}, {partition[-1]}] outside [{a}, {b}]")
        left = np.maximum(partition[:-1], lo)
        right = np.minimum(partition[1:], hi)
        terms = (np.asarray(f.values) * (mu(right) - mu(left)))[right > left]
        # cumsum adds the pieces in order from 0.0, so the bits do not depend
        # on numpy's pairwise summation
        return float(np.cumsum(np.append(0.0, terms))[-1])
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if lo == hi:
        return 0.0
    _, mids, masses = midpoint_rule(lo, hi, resolution, mu)
    return float(np.sum(_eval_function(f, mids) * masses))


def inner_rho(f, g, rho: VarianceFunction, resolution: int = DEFAULT_RESOLUTION) -> float:
    """Inner product integral of f*g against d(rho).

    Exact when both arguments are step functions, on the union of their
    partitions; midpoint quadrature at `resolution` otherwise.
    """
    if isinstance(f, StepFunction) and isinstance(g, StepFunction):
        partition, (x, y) = step_cells([f, g])
        return stieltjes_integral(StepFunction(partition, x * y), rho)
    return stieltjes_integral(lambda x: f(x) * g(x), rho, resolution=resolution)


#: Member values held at once by project_family and by the quadrature branch
#: of fourier_coeffs, which evaluate the members in blocks of
#: max(1, BLOCK_VALUES // cells).
BLOCK_VALUES = 2**16


def project_family(fs, n: int, interval, basis: BasisFamily | None = None,
                   terms: int = 0) -> tuple[tuple, np.ndarray]:
    """Midpoint projection of several integrands onto one uniform n-cell
    partition: (edges, values), edges being the partition as a tuple (as in
    StepFunction) and values[m, i] row m at the midpoint of cell i.  The rows
    are fs, then the first `terms` members of `basis`, evaluated straight
    into the one result matrix in blocks of max(1, BLOCK_VALUES // n) rows:
    a step family with no StepFunction per member.  Midpoint values, not
    measure-weighted cell averages, suffice for the L2 convergence of
    continuous integrands.  The family is not checked here: the kernel
    checks the partition and the pieces, and StepFunction its own."""
    if n < 1:
        raise ValueError("cell count must be >= 1")
    iv = Interval.coerce(interval)
    edges, mids, _ = midpoint_rule(iv.a, iv.b, n)
    fs = list(fs)
    values = np.empty((len(fs) + terms, n))
    for row, f in zip(values, fs):
        row[:] = _eval_function(f, mids)
    ns, members, rows = np.arange(terms), values[len(fs):], max(1, BLOCK_VALUES // n)
    for lo in range(0, terms, rows):
        members[lo:lo + rows] = basis.values(ns[lo:lo + rows], mids)
    return tuple(edges.tolist()), values


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
                raise YehError(f"series.family: the cosine basis overflows for rho "
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
                up = out >= 0
                up &= out < half
                down = out < width
                down &= out >= half
                down |= ((flat & (flat + 1)) == 0)[:, None] & (xs == T)
                np.subtract(up, down, out=out, dtype=float)  # 1, -1 or 0, into out
                out *= scale
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

    def member(self, n: int):
        """Basis member phi_n as a function of t."""
        if n < 0:
            raise ValueError("basis index must be >= 0")
        return lambda t: self.values(n, t)


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
    ns = np.arange(count)
    if isinstance(f, StepFunction):
        steps = np.diff(basis.antiderivative(ns, f.partition), axis=1)
        return (steps[:, None, :] @ np.asarray(f.values)[:, None])[:, 0, 0]
    rho = basis.rho
    _, mids, masses = midpoint_rule(rho.interval.a, rho.interval.b, resolution, rho)
    fvals = _eval_function(f, mids)
    rows = max(1, BLOCK_VALUES // resolution)
    coeffs = np.empty(count)
    for lo in range(0, count, rows):
        block = basis.values(ns[lo:lo + rows], mids) * fvals
        block *= masses
        coeffs[lo:lo + rows] = block.sum(axis=1)
    return coeffs
