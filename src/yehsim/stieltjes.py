"""Mean and variance functions, and the pieces of quadrature against them.

A process is parameterized by a drift lambda of bounded variation and a
continuous strictly increasing variance function rho.  This module holds the
representable families for both, the uniform midpoint partition whose cell
masses diff(mu(edges)) are their Stieltjes measures, the one guarded
evaluation of a function integrand, and the inverse of rho.  The Stieltjes
integral itself is funcspace.stieltjes_integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import YehError

#: Default cell count for midpoint Stieltjes quadrature.
DEFAULT_RESOLUTION = 2**14

#: Default ternary scan depth for the Cantor function (beyond double precision).
DEFAULT_CANTOR_DEPTH = 64

#: Deepest Cantor scan: further digits add only bits below 2**-1074.
MAX_CANTOR_DEPTH = 1074

# Domain checks tolerate this much relative float dust at the endpoints.
_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class Interval:
    """A finite time interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not math.isfinite(self.b - self.a):
            raise ValueError("interval endpoints and length must be finite")
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
            raise YehError(f"time {np.ravel(bad)[0]} outside [{self.a}, {self.b}]")
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
    from fractions import Fraction  # only this oracle needs it

    if depth < 1:
        raise ValueError("depth must be a positive integer")
    x = t if isinstance(t, Fraction) else Fraction(t)
    if x < 0 or x > 1:
        raise YehError(f"cantor_eval requires t in [0, 1], got {t}")
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


def _finite(name: str, x) -> float:
    """x as a finite float, or a ValueError whose message starts with `name`."""
    try:
        value = float(x)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{name}: must be a finite number, got {x!r}")
    return value


def _knots_values(knots, values) -> tuple[tuple, tuple]:
    """Float knots and values, checked so that interpolating them stays finite."""
    try:
        knots = tuple(_finite("knots", k) for k in knots)
        values = tuple(_finite("values", v) for v in values)
    except TypeError:
        raise ValueError("knots: knots and values must be lists of numbers") from None
    if len(knots) < 2 or len(values) != len(knots):
        raise ValueError("values: need one value per knot, and at least two knots")
    if (any(k2 <= k1 for k1, k2 in zip(knots, knots[1:]))
            or not math.isfinite(knots[-1] - knots[0])):
        raise ValueError("knots: must be strictly increasing with a finite span")
    if not all(math.isfinite((v2 - v1) / (k2 - k1)) for k1, k2, v1, v2
               in zip(knots, knots[1:], values, values[1:])):
        raise ValueError("values: slopes between knots must be finite")
    return knots, values


@dataclass(frozen=True)
class MeanFunction:
    """Continuous bounded-variation drift on a fixed interval.

    `knots` and `values` hold the drift at the ends of its monotone pieces:
    `piecewise` interpolates them linearly (zero and linear drifts have two
    knots), `cantor` is the Cantor function on [a, b], one piece from 0 to 1.
    The constructors validate; each error message starts with the parameter
    name.
    """

    kind: str
    interval: Interval
    knots: tuple = ()
    values: tuple = ()
    depth: int = DEFAULT_CANTOR_DEPTH

    def __post_init__(self):
        if self.kind not in ("piecewise", "cantor"):
            raise ValueError(f"unknown mean function kind {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, interval) -> "MeanFunction":
        return cls.linear(interval, 0.0)

    @classmethod
    def linear(cls, interval, slope: float, intercept: float = 0.0) -> "MeanFunction":
        """slope * t + intercept, as the piecewise drift through its values at a and b."""
        iv = Interval.coerce(interval)
        slope, intercept = _finite("slope", slope), _finite("intercept", intercept)
        return cls.piecewise((iv.a, iv.b),
                             (slope * iv.a + intercept, slope * iv.b + intercept))

    @classmethod
    def piecewise(cls, knots, values) -> "MeanFunction":
        knots, values = _knots_values(knots, values)
        return cls("piecewise", Interval(knots[0], knots[-1]), knots=knots, values=values)

    @classmethod
    def cantor(cls, interval=(0.0, 1.0), depth: int = DEFAULT_CANTOR_DEPTH) -> "MeanFunction":
        if not (isinstance(depth, int) and 1 <= depth <= MAX_CANTOR_DEPTH):
            raise ValueError(
                f"depth: must be an integer in [1, {MAX_CANTOR_DEPTH}], got {depth!r}")
        iv = Interval.coerce(interval)
        return cls("cantor", iv, knots=(iv.a, iv.b), values=(0.0, 1.0), depth=depth)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        arr = self.interval.clip(t)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if self.kind == "piecewise":
            out = np.interp(arr, self.knots, self.values)
        else:  # cantor, rescaled from [a, b] to [0, 1]
            u = (arr - self.interval.a) / self.interval.length
            out = _cantor_array(np.clip(u, 0.0, 1.0), self.depth)
        return float(out[0]) if scalar else out

    # -- monotonicity -------------------------------------------------------

    @cached_property
    def monotone_direction(self):
        """+1 nondecreasing, -1 nonincreasing, 0 constant, None mixed."""
        deltas = np.diff(self.values)
        if np.all(deltas >= 0):
            return 0 if np.all(deltas == 0) else 1
        if np.all(deltas <= 0):
            return -1
        return None


@dataclass(frozen=True)
class VarianceFunction:
    """Continuous strictly increasing variance function, normalized to rho(a) = 0.

    `power` is (t - a)**exponent (the identity is exponent 1); `piecewise`
    interpolates strictly increasing values, shifted at construction so that
    rho(a) = 0: only increments enter the process law, and the shift makes
    X(a) = lambda(a) consistent with the second-moment identity.  The
    constructors validate; each error message starts with the parameter name.
    """

    kind: str
    interval: Interval
    exponent: float = 1.0
    knots: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("power", "piecewise"):
            raise ValueError(f"unknown variance function kind {self.kind!r}")

    @classmethod
    def identity(cls, interval) -> "VarianceFunction":
        return cls.power(interval, 1.0)

    @classmethod
    def power(cls, interval, exponent: float) -> "VarianceFunction":
        """(t - a)**exponent, with rho(b) = (b - a)**exponent a positive finite double."""
        iv = Interval.coerce(interval)
        exponent = _finite("exponent", exponent)
        try:
            mass = iv.length ** exponent if exponent >= 1.0 else math.nan
        except OverflowError:
            mass = math.inf
        if not 0.0 < mass < math.inf:
            raise ValueError(f"exponent: must be >= 1 with (b - a)**exponent a positive "
                             f"finite double, got {exponent}")
        return cls("power", iv, exponent=exponent)

    @classmethod
    def piecewise(cls, knots, values) -> "VarianceFunction":
        knots, values = _knots_values(knots, values)
        values = tuple(v - values[0] for v in values)
        if not (all(v1 < v2 for v1, v2 in zip(values, values[1:])) and values[-1] < math.inf):
            raise ValueError("values: variance function must be strictly increasing and finite")
        return cls("piecewise", Interval(knots[0], knots[-1]), knots=knots, values=values)

    def __call__(self, t):
        arr = self.interval.clip(t)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if self.kind == "power":
            out = (arr - self.interval.a) ** self.exponent
        else:
            out = np.interp(arr, self.knots, self.values)
        return float(out[0]) if scalar else out

    @property
    def total_mass(self) -> float:
        return self(self.interval.b)


def _eval_function(f, x: np.ndarray) -> np.ndarray:
    """Evaluate an integrand on an array, falling back to a scalar loop when
    f takes no array; a YehError that f raises passes through.  A non-finite
    value raises a YehError naming the integrand, with no numpy float warning
    before it.  Every callable integrand is evaluated here."""
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(f(x), dtype=float)
            if out.shape != x.shape:
                raise TypeError
        except YehError:
            raise
        except (TypeError, ValueError):
            out = np.array([float(f(xi)) for xi in x])
    if not np.all(np.isfinite(out)):
        raise YehError("integrand: returned a non-finite value")
    return out


def midpoint_rule(s: float, t: float, cells: int, mu=None):
    """(edges, mids, masses) of the uniform `cells`-cell partition of [s, t]:
    mids 0.5 * p + 0.5 * q (finite near the largest float), masses the cells'
    d(mu) measures diff(mu(edges)), or None without mu."""
    edges = np.linspace(s, t, cells + 1)
    mids = 0.5 * edges[:-1] + 0.5 * edges[1:]
    return edges, mids, None if mu is None else np.diff(mu(edges))


def rho_inverse(rho: VarianceFunction, v) -> float | np.ndarray:
    """Exact inverse of a variance function, elementwise over v.

    power: a + v**(1/p), which is a + v for the identity (p = 1); piecewise:
    linear interpolation of the knots against the values.  Targets within
    1e-12 * max(1, rho(b)) of [0, rho(b)] are accepted; results are clamped to
    [a, b], and the ends 0 and rho(b) map to a and b exactly.
    """
    a, b = rho.interval.a, rho.interval.b
    top = rho.total_mass
    tol = 1e-12 * max(1.0, top)
    v = np.asarray(v, dtype=float)
    outside = ~((v >= -tol) & (v <= top + tol))
    if outside.any():
        raise YehError(f"target {np.ravel(v[outside])[0]} outside [0, {top}]")
    x = np.clip(v, 0.0, top)
    if rho.kind == "power":
        t = a + x ** (1.0 / rho.exponent)
    else:
        t = np.interp(x, rho.values, rho.knots)
    t = np.where(x <= 0.0, a, np.where(x >= top, b, np.clip(t, a, b)))
    return float(t) if t.ndim == 0 else t
