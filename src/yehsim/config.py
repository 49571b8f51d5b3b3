"""JSON run configuration: parsing, validation, and the run manifest.

Schema (all sections optional, defaults shown):

    {
      "interval": [0.0, 1.0],
      "lambda":   {"kind": "zero"},
      "rho":      {"kind": "identity"},
      "integrand": {"kind": "indicator", "lo": a, "hi": midpoint},
      "mc":       {"paths": 2000, "seed": 12345},
      "grid":     {"points": 1025, "scale": "t"},
      "series":   {"N": 256, "family": "cosine"},
      "quadrature": {"resolution": 16384}
    }

Eight function kinds map onto two representations per family: lambda zero,
linear(slope, intercept), piecewise/table(knots, values) -> piecewise drift,
cantor(depth) -> Cantor drift; rho identity, power(exponent) -> power
variance, piecewise/table(knots, values) -> piecewise variance.  The
integrand kinds: step(partition, values) | indicator(lo, hi) | poly(coeffs)
| basis(index); step and indicator give the StepFunction itself, whose
partition lies in the interval and which is 0 outside it, and poly and
basis a function of t.  Ranges (README
"Config schema"): finite numbers, knots strictly increasing over the
interval, exponent >= 1, depth in [1, 1074], basis index in [0, 2**20].
A value out of range, a key a section does not have (SECTIONS), a count,
seed or index that is not a JSON integer, or a section other than interval
that is not an object, raises ConfigError naming the field; the CLI exits 2.

The manifest's sha256 is CPython's built-in SHA-256 (_sha2, or _sha256
before Python 3.12), as random.py takes its _sha512, not hashlib's: hashlib
loads _hashlib, which maps OpenSSL's libcrypto, about 3.5 MB of resident
memory per command (BENCH_no_openssl.json).  The digests are the same.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import ConfigError
from .funcspace import BasisFamily, StepFunction
from .process import DEFAULT_GRID_POINTS, DEFAULT_TRUNCATION
from .stieltjes import (DEFAULT_CANTOR_DEPTH, DEFAULT_RESOLUTION, Interval,
                        MeanFunction, VarianceFunction)

TOOL_VERSION = "0.14.0"

#: The verification suites, in the order `verify --suite all` runs them.
#: They are named here, not in verify, so that the CLI can list them
#: without loading the batteries.
SUITE_NAMES = ("moments", "gaussian", "series", "martingale", "counterexample")

#: Each section's keys (README "Config schema"); interval is a pair [a, b].
SECTIONS = {
    "interval": (),
    "lambda": ("kind", "slope", "intercept", "knots", "values", "depth"),
    "rho": ("kind", "exponent", "knots", "values"),
    "integrand": ("kind", "partition", "values", "lo", "hi", "coeffs", "index"),
    "mc": ("paths", "seed"),
    "grid": ("points", "scale"),
    "series": ("N", "family"),
    "quadrature": ("resolution",),
}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _require(cond: bool, field: str, message: str):
    if not cond:
        raise ConfigError(f"{field}: {message}")


def _int_field(value, field: str) -> int:
    """value if it is an integer: a bool, a string or a float is refused,
    however integral its value."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field}: must be an integer, got {value!r}")
    return value


def _build(section: str, constructor, *args):
    """constructor(*args), naming a parameter error under `section`."""
    try:
        return constructor(*args)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def mean_function_from_spec(spec: dict, interval) -> MeanFunction:
    """zero and linear map onto two-knot piecewise drifts, table onto piecewise."""
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return _build("lambda", MeanFunction.zero, interval)
    if kind == "linear":
        return _build("lambda", MeanFunction.linear, interval,
                      spec.get("slope", 1.0), spec.get("intercept", 0.0))
    if kind in ("piecewise", "table"):
        return _build("lambda", MeanFunction.piecewise,
                      spec.get("knots", ()), spec.get("values", ()))
    if kind == "cantor":
        depth = _int_field(spec.get("depth", DEFAULT_CANTOR_DEPTH), "lambda.depth")
        return _build("lambda", MeanFunction.cantor, interval, depth)
    raise ConfigError(f"lambda: unknown kind {kind!r}")


def variance_function_from_spec(spec: dict, interval) -> VarianceFunction:
    """identity maps onto power with exponent 1, table onto piecewise."""
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return _build("rho", VarianceFunction.identity, interval)
    if kind == "power":
        return _build("rho", VarianceFunction.power, interval, spec.get("exponent", 2.0))
    if kind in ("piecewise", "table"):
        return _build("rho", VarianceFunction.piecewise,
                      spec.get("knots", ()), spec.get("values", ()))
    raise ConfigError(f"rho: unknown kind {kind!r}")


def integrand_from_spec(spec: dict, interval, basis: BasisFamily) -> StepFunction | Callable:
    kind = spec.get("kind", "indicator")
    iv = Interval.coerce(interval)
    try:
        if kind == "step":
            _require("partition" in spec and "values" in spec, "integrand",
                     "step integrand needs partition and values")
            step = StepFunction(tuple(spec["partition"]), tuple(spec["values"]))
            _require(iv.a <= step.partition[0] and step.partition[-1] <= iv.b, "integrand",
                     f"partition must lie in [{iv.a}, {iv.b}]")
            return step
        if kind == "indicator":
            lo = float(spec.get("lo", iv.a))
            hi = float(spec.get("hi", 0.5 * iv.a + 0.5 * iv.b))
            return StepFunction.indicator(lo, hi, iv)
        if kind == "poly":
            coeffs = [float(c) for c in spec.get("coeffs", [0.0, 1.0])]
            _require(all(map(math.isfinite, coeffs)), "integrand", "coeffs must be finite")
            return np.polynomial.Polynomial(coeffs)
        if kind == "basis":
            index = _int_field(spec.get("index", 0), "integrand.index")
            # the range README "Config schema" documents for the index
            _require(0 <= index <= 2**20, "integrand.index", "must be in [0, 2**20]")
            return basis.member(index)
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"integrand: {exc}") from exc
    raise ConfigError(f"integrand: unknown kind {kind!r}")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run configuration with defaults applied."""

    interval: Interval
    lam: MeanFunction
    rho: VarianceFunction
    integrand: StepFunction | Callable
    paths: int
    seed: int
    grid_points: int
    grid_scale: str
    truncation: int
    family: str
    resolution: int
    normalized: dict

    @property
    def basis(self) -> BasisFamily:
        return BasisFamily(self.rho, self.family)

    def config_hash(self) -> str:
        return sha256(canonical_json(self.normalized).encode()).hexdigest()

    def manifest(self) -> "RunManifest":
        return RunManifest(
            config_hash=self.config_hash(),
            seed=self.seed,
            paths=self.paths,
            grid_points=self.grid_points,
            truncation=self.truncation,
            resolution=self.resolution,
            version=TOOL_VERSION,
        )


def parse_config(raw: dict, overrides: dict | None = None) -> RunConfig:
    """Validate a config dict, apply defaults and CLI/env overrides."""
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    for key, value in raw.items():
        _require(key in SECTIONS, key, "unknown configuration section")
        if key != "interval":
            _require(isinstance(value, dict), key, "must be a JSON object")
            for field in value:
                _require(field in SECTIONS[key], f"{key}.{field}", "unknown field")
    overrides = overrides or {}

    interval_spec = raw.get("interval", [0.0, 1.0])
    _require(isinstance(interval_spec, (list, tuple)) and len(interval_spec) == 2,
             "interval", "must be a pair [a, b]")
    try:
        interval = Interval(float(interval_spec[0]), float(interval_spec[1]))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"interval: {exc}") from exc

    lam = mean_function_from_spec(raw.get("lambda", {}), interval)
    rho = variance_function_from_spec(raw.get("rho", {}), interval)
    for name, fn in (("lambda", lam), ("rho", rho)):
        _require(fn.interval == interval, f"{name}.knots",
                 f"must span the interval [{interval.a}, {interval.b}]")

    mc = raw.get("mc", {})
    paths = _int_field(overrides.get("paths", mc.get("paths", 2000)), "mc.paths")
    _require(paths >= 2, "mc.paths", "must be at least 2")
    seed = _int_field(overrides.get("seed", mc.get("seed", 12345)), "mc.seed")
    _require(0 <= seed < 2**64, "mc.seed", "must fit in 64 bits")

    grid = raw.get("grid", {})
    grid_points = _int_field(
        overrides.get("grid", grid.get("points", DEFAULT_GRID_POINTS)), "grid.points")
    _require(grid_points >= 2, "grid.points", "must be at least 2")
    # The commands cut the interval into the grid.points t-grid and into
    # quarters (the Gaussian and series suites' steps), by np.linspace.  A
    # cut that is a normal double above 8 ulps of the larger end keeps the
    # rounded points strictly increasing; a narrower one is refused.
    floor = max(8 * math.ulp(max(abs(interval.a), abs(interval.b))), sys.float_info.min)
    for points, field in ((5, "interval"), (grid_points, "grid.points")):
        _require(interval.length / floor > points - 1, field,
                 f"[{interval.a}, {interval.b}] is too narrow for {points} uniform "
                 f"points: each cut must exceed {floor!r}")
    grid_scale = grid.get("scale", "t")
    _require(grid_scale in ("t", "rho"), "grid.scale", "must be 't' or 'rho'")

    series = raw.get("series", {})
    truncation = _int_field(
        overrides.get("truncation", series.get("N", DEFAULT_TRUNCATION)), "series.N")
    _require(truncation >= 1, "series.N", "truncation must be >= 1")
    family = series.get("family", "cosine")
    _require(family in ("cosine", "haar"), "series.family",
             "must be 'cosine' or 'haar'")

    resolution = _int_field(
        raw.get("quadrature", {}).get("resolution", DEFAULT_RESOLUTION),
        "quadrature.resolution")
    _require(resolution >= 1, "quadrature.resolution", "must be >= 1")

    basis = BasisFamily(rho, family)
    integrand = integrand_from_spec(raw.get("integrand", {}), interval, basis)

    normalized = {
        "interval": [interval.a, interval.b],
        "lambda": raw.get("lambda", {"kind": "zero"}),
        "rho": raw.get("rho", {"kind": "identity"}),
        "integrand": raw.get("integrand", {"kind": "indicator"}),
        "mc": {"paths": paths, "seed": seed},
        "grid": {"points": grid_points, "scale": grid_scale},
        "series": {"N": truncation, "family": family},
        "quadrature": {"resolution": resolution},
    }
    return RunConfig(
        interval=interval, lam=lam, rho=rho, integrand=integrand,
        paths=paths, seed=seed, grid_points=grid_points, grid_scale=grid_scale,
        truncation=truncation, family=family, resolution=resolution,
        normalized=normalized,
    )


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run byte for byte."""

    config_hash: str
    seed: int
    paths: int
    grid_points: int
    truncation: int
    resolution: int
    version: str

    def hash(self) -> str:
        return sha256(canonical_json(asdict(self)).encode()).hexdigest()
