"""Mean/variance functions and Lebesgue-Stieltjes integration against them.

A process is parameterized by a drift lambda of bounded variation and a
continuous strictly increasing variance function rho.  This module holds the
representable families for both, their induced Stieltjes measures, exact
closed-form integrals of step functions, and midpoint-tagged quadrature for
continuous integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    NonFiniteValueError,
    OutOfDomainError,
    OutOfRangeError,
    PartitionOutOfDomainError,
)

#: Default cell count for midpoint Stieltjes quadrature.
DEFAULT_RESOLUTION = 2**14

#: Default ternary scan depth for the Cantor function (beyond double precision).
DEFAULT_CANTOR_DEPTH = 64

# Domain checks tolerate this much relative float dust at the endpoints.
_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class Interval:
    """A finite time interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    @classmethod
    def coerce(cls, obj) -> "Interval":
        if isinstance(obj, Interval):
            return obj
        a, b = obj
        return cls(float(a), float(b))

    def clip(self, t):
        """Validate t (scalar or array) lies in [a, b]; returns clipped values."""
        arr = np.asarray(t, dtype=float)
        slack = _EDGE_TOL * max(1.0, abs(self.a), abs(self.b))
        if np.any(arr < self.a - slack) or np.any(arr > self.b + slack):
            bad = arr[(arr < self.a - slack) | (arr > self.b + slack)]
            raise OutOfDomainError(
                f"time {np.ravel(bad)[0]} outside [{self.a}, {self.b}]"
            )
        return np.clip(arr, self.a, self.b)


def cantor_eval(t, depth: int = DEFAULT_CANTOR_DEPTH) -> float:
    """Cantor function value on [0, 1] by ternary digit scan.

    Scans the ternary digits of t up to `depth`, stopping at the first digit 1;
    preceding digits 0/2 map to binary bits 0/1.  The scan is exact rational
    arithmetic, so the value is exact (before the final float rounding) for
    every representable input; truncation error is at most 2**-depth.
    Fraction inputs are honored exactly, which makes the self-similarity
    identities testable without argument rounding.
    """
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    x = t if isinstance(t, Fraction) else Fraction(t)
    if x < 0 or x > 1:
        raise OutOfDomainError(f"cantor_eval requires t in [0, 1], got {t}")
    if x == 1:
        return 1.0
    value = Fraction(0)
    bit = Fraction(1, 2)
    for _ in range(depth):
        x *= 3
        digit = int(x)
        x -= digit
        if digit == 1:
            value += bit
            break
        if digit == 2:
            value += bit
        bit /= 2
    return float(value)


def _cantor_array(t: np.ndarray, depth: int = DEFAULT_CANTOR_DEPTH) -> np.ndarray:
    """Vectorized Cantor function on [0, 1], equal to cantor_eval bit for bit.

    Each float t < 1 is exactly m / 2**k with integers m (the 53-bit frexp
    mantissa) and k (53 minus the exponent), so the ternary scan runs exactly
    on Python integers, subnormals included.  The binary digits collect in an
    integer over 2**depth, rounded to float once, as cantor_eval rounds its
    Fraction.
    """
    t = np.asarray(t, dtype=float)
    mantissa, exponent = np.frexp(t.ravel())
    pos = np.flatnonzero(t.ravel() < 1.0)  # t == 1 is set after the scan
    num = (mantissa[pos] * 2.0**53).astype(np.int64).astype(object)
    den = 2 ** (53 - exponent[pos]).astype(object)
    bits = np.zeros(t.size, dtype=object)
    for k in range(depth):
        if pos.size == 0:
            break
        num = num * 3
        digit = num // den
        num = num - digit * den
        bits[pos[digit >= 1]] += 1 << (depth - 1 - k)
        scanning = digit != 1
        pos, num, den = pos[scanning], num[scanning], den[scanning]
    value = (bits / (1 << depth)).astype(float)
    value[t.ravel() >= 1.0] = 1.0
    return value.reshape(t.shape)


def _interp(t: np.ndarray, knots: tuple, values: tuple) -> np.ndarray:
    return np.interp(t, knots, values)


def _validate_knots(knots, values, interval: Interval, name: str):
    knots = tuple(float(k) for k in knots)
    values = tuple(float(v) for v in values)
    if len(knots) != len(values):
        raise ValueError(f"{name}: knots and values must have equal length")
    if len(knots) < 2:
        raise ValueError(f"{name}: need at least two knots")
    if any(k2 <= k1 for k1, k2 in zip(knots, knots[1:])):
        raise ValueError(f"{name}: knots must be strictly increasing")
    if knots[0] != interval.a or knots[-1] != interval.b:
        raise ValueError(f"{name}: knots must span [{interval.a}, {interval.b}]")
    return knots, values


@dataclass(frozen=True)
class MeanFunction:
    """Continuous bounded-variation drift on a fixed interval.

    Piecewise-linear kinds carry their monotone pieces explicitly; the Cantor
    kind is monotone on the whole interval.  Jordan decomposition and the
    total variation function are exact over the monotone pieces.
    """

    kind: str
    interval: Interval
    slope: float = 0.0
    intercept: float = 0.0
    knots: tuple = ()
    values: tuple = ()
    depth: int = DEFAULT_CANTOR_DEPTH

    _KINDS = ("zero", "linear", "piecewise", "cantor", "table")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown mean function kind {self.kind!r}")
        if self.kind in ("piecewise", "table"):
            knots, values = _validate_knots(
                self.knots, self.values, self.interval, "mean function"
            )
            object.__setattr__(self, "knots", knots)
            object.__setattr__(self, "values", values)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, interval) -> "MeanFunction":
        return cls("zero", Interval.coerce(interval))

    @classmethod
    def linear(cls, interval, slope: float, intercept: float = 0.0) -> "MeanFunction":
        return cls("linear", Interval.coerce(interval), slope=float(slope),
                   intercept=float(intercept))

    @classmethod
    def piecewise(cls, knots, values) -> "MeanFunction":
        interval = Interval(float(knots[0]), float(knots[-1]))
        return cls("piecewise", interval, knots=tuple(knots), values=tuple(values))

    @classmethod
    def table(cls, knots, values) -> "MeanFunction":
        interval = Interval(float(knots[0]), float(knots[-1]))
        return cls("table", interval, knots=tuple(knots), values=tuple(values))

    @classmethod
    def cantor(cls, interval=(0.0, 1.0), depth: int = DEFAULT_CANTOR_DEPTH) -> "MeanFunction":
        return cls("cantor", Interval.coerce(interval), depth=depth)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        arr = self.interval.clip(t)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if self.kind == "zero":
            out = np.zeros_like(arr)
        elif self.kind == "linear":
            out = self.slope * arr + self.intercept
        elif self.kind in ("piecewise", "table"):
            out = _interp(arr, self.knots, self.values)
        else:  # cantor, rescaled from [a, b] to [0, 1]
            u = (arr - self.interval.a) / self.interval.length
            out = _cantor_array(np.clip(u, 0.0, 1.0), self.depth)
        return float(out[0]) if scalar else out

    # -- variation structure -------------------------------------------------

    @cached_property
    def monotone_breaks(self) -> tuple:
        """Times a = k0 < ... < km = b with the drift monotone on each piece."""
        if self.kind in ("piecewise", "table"):
            return self.knots
        return (self.interval.a, self.interval.b)

    @cached_property
    def monotone_direction(self):
        """+1 nondecreasing, -1 nonincreasing, 0 constant, None mixed."""
        if self.kind == "zero":
            return 0
        if self.kind == "linear":
            return 0 if self.slope == 0 else (1 if self.slope > 0 else -1)
        if self.kind == "cantor":
            return 1
        deltas = np.diff(self.values)
        if np.all(deltas >= 0):
            return 0 if np.all(deltas == 0) else 1
        if np.all(deltas <= 0):
            return -1
        return None

    def variation_function(self) -> "MeanFunction":
        """The nondecreasing function t -> |lambda|(t) anchored at 0 at t=a."""
        if self.kind == "zero":
            return MeanFunction.zero(self.interval)
        if self.kind == "cantor":
            return self  # increasing from 0: its own variation
        if self.kind == "linear":
            return MeanFunction.linear(self.interval, abs(self.slope),
                                       -abs(self.slope) * self.interval.a)
        vals = np.asarray(self.values)
        cum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(vals)))])
        return MeanFunction.piecewise(self.knots, tuple(cum))

    def jordan(self) -> tuple["MeanFunction", "MeanFunction"]:
        """Exact Jordan decomposition (pos, neg): both nondecreasing, pos - neg = self."""
        if self.kind == "zero":
            return self, self
        if self.kind == "cantor":
            return self, MeanFunction.zero(self.interval)
        if self.kind == "linear":
            if self.slope >= 0:
                return self, MeanFunction.zero(self.interval)
            return (MeanFunction.zero(self.interval),
                    MeanFunction.linear(self.interval, -self.slope, -self.intercept))
        vals = np.asarray(self.values)
        deltas = np.diff(vals)
        pos = vals[0] + np.concatenate([[0.0], np.cumsum(np.maximum(deltas, 0.0))])
        neg = np.concatenate([[0.0], np.cumsum(np.maximum(-deltas, 0.0))])
        return (MeanFunction.piecewise(self.knots, tuple(pos)),
                MeanFunction.piecewise(self.knots, tuple(neg)))


@dataclass(frozen=True)
class VarianceFunction:
    """Continuous strictly increasing variance function, normalized to rho(a) = 0.

    Inputs with rho(a) != 0 are shifted at construction; only increments enter
    the process law, and the normalization makes X(a) = lambda(a) consistent
    with the second-moment identity.
    """

    kind: str
    interval: Interval
    exponent: float = 1.0
    knots: tuple = ()
    values: tuple = ()

    _KINDS = ("identity", "power", "piecewise", "table")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown variance function kind {self.kind!r}")
        if self.kind == "power" and not self.exponent >= 1.0:
            raise ValueError("power variance function requires exponent >= 1")
        if self.kind in ("piecewise", "table"):
            knots, values = _validate_knots(
                self.knots, self.values, self.interval, "variance function"
            )
            if any(v2 <= v1 for v1, v2 in zip(values, values[1:])):
                raise ValueError("variance function must be strictly increasing")
            base = values[0]
            object.__setattr__(self, "knots", knots)
            object.__setattr__(self, "values", tuple(v - base for v in values))

    @classmethod
    def identity(cls, interval) -> "VarianceFunction":
        return cls("identity", Interval.coerce(interval))

    @classmethod
    def power(cls, interval, exponent: float) -> "VarianceFunction":
        return cls("power", Interval.coerce(interval), exponent=float(exponent))

    @classmethod
    def piecewise(cls, knots, values) -> "VarianceFunction":
        interval = Interval(float(knots[0]), float(knots[-1]))
        return cls("piecewise", interval, knots=tuple(knots), values=tuple(values))

    @classmethod
    def table(cls, knots, values) -> "VarianceFunction":
        interval = Interval(float(knots[0]), float(knots[-1]))
        return cls("table", interval, knots=tuple(knots), values=tuple(values))

    def __call__(self, t):
        arr = self.interval.clip(t)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if self.kind == "identity":
            out = arr - self.interval.a
        elif self.kind == "power":
            out = (arr - self.interval.a) ** self.exponent
        else:
            out = _interp(arr, self.knots, self.values)
        return float(out[0]) if scalar else out

    @property
    def total_mass(self) -> float:
        return self(self.interval.b)


def total_variation(lam: MeanFunction, s: float, t: float) -> float:
    """Total variation of the drift over [s, t], exact over monotone pieces."""
    a, b = lam.interval.a, lam.interval.b
    if not (a <= s <= t <= b):
        raise OutOfDomainError(f"need {a} <= s <= t <= {b}, got s={s}, t={t}")
    if s == t:
        return 0.0
    cuts = [s] + [k for k in lam.monotone_breaks if s < k < t] + [t]
    vals = lam(np.asarray(cuts))
    return float(np.sum(np.abs(np.diff(vals))))


def stieltjes_step(f, mu, s: float | None = None, t: float | None = None) -> float:
    """Exact Stieltjes integral of a step function against d(mu) over [s, t].

    f carries a partition t0 < ... < tn and values c1..cn (ci on [t_{i-1}, t_i));
    the result is the closed form sum of ci * (mu(ti) - mu(t_{i-1})) restricted
    to [s, t], independent of partition refinement.
    """
    partition = np.asarray(f.partition, dtype=float)
    values = np.asarray(f.values, dtype=float)
    a, b = mu.interval.a, mu.interval.b
    if partition[0] < a - _EDGE_TOL or partition[-1] > b + _EDGE_TOL:
        raise PartitionOutOfDomainError(
            f"partition [{partition[0]}, {partition[-1]}] outside [{a}, {b}]"
        )
    lo = a if s is None else float(s)
    hi = b if t is None else float(t)
    if not (a <= lo <= hi <= b):
        raise OutOfDomainError(f"need {a} <= s <= t <= {b}, got s={lo}, t={hi}")
    left = np.maximum(partition[:-1], lo)
    right = np.minimum(partition[1:], hi)
    total = 0.0
    for ci, l, r in zip(values, left, right):
        if r > l:
            total += ci * (mu(r) - mu(l))
    return total


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with a refinement estimate |I(res) - I(res // 2)|."""

    value: float
    refinement: float


def _eval_function(f, x: np.ndarray) -> np.ndarray:
    """Evaluate a function handle on an array, falling back to a scalar loop."""
    try:
        out = np.asarray(f(x), dtype=float)
        if out.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        out = np.array([float(f(xi)) for xi in x])
    if not np.all(np.isfinite(out)):
        raise NonFiniteValueError("integrand returned a non-finite value")
    return out


def _midpoint_sum(f, mu, s: float, t: float, resolution: int) -> float:
    edges = np.linspace(s, t, resolution + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return float(np.dot(_eval_function(f, mids), np.diff(mu(edges))))


def stieltjes_quad(f, mu, s: float, t: float, resolution: int) -> QuadResult:
    """Riemann-Stieltjes quadrature of f against d(mu) on [s, t].

    Uniform partition of `resolution` cells in t with midpoint tags; converges
    for continuous f as the resolution grows.  The refinement estimate is the
    change from the half-resolution result (inf when resolution == 1, where no
    comparison exists).
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    a, b = mu.interval.a, mu.interval.b
    if not (a - _EDGE_TOL <= s <= t <= b + _EDGE_TOL):
        raise OutOfDomainError(f"need {a} <= s <= t <= {b}, got s={s}, t={t}")
    if s == t:
        return QuadResult(0.0, 0.0)
    value = _midpoint_sum(f, mu, s, t, resolution)
    if resolution == 1:
        return QuadResult(value, math.inf)
    coarse = _midpoint_sum(f, mu, s, t, resolution // 2)
    return QuadResult(value, abs(value - coarse))


def rho_inverse(rho: VarianceFunction, v) -> float | np.ndarray:
    """Exact inverse of a variance function, elementwise over v.

    identity: a + v; power: a + v**(1/p); piecewise/table: linear
    interpolation of the knots against the values.  Targets within
    1e-12 * max(1, rho(b)) of [0, rho(b)] are accepted; results are clamped to
    [a, b], and the ends 0 and rho(b) map to a and b exactly.
    """
    a, b = rho.interval.a, rho.interval.b
    top = rho.total_mass
    tol = 1e-12 * max(1.0, top)
    v = np.asarray(v, dtype=float)
    outside = ~((v >= -tol) & (v <= top + tol))
    if outside.any():
        raise OutOfRangeError(f"target {np.ravel(v[outside])[0]} outside [0, {top}]")
    x = np.clip(v, 0.0, top)
    if rho.kind == "identity":
        t = a + x
    elif rho.kind == "power":
        t = a + x ** (1.0 / rho.exponent)
    else:
        t = np.interp(x, rho.values, rho.knots)
    t = np.where(x <= 0.0, a, np.where(x >= top, b, np.clip(t, a, b)))
    return float(t) if t.ndim == 0 else t
