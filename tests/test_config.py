"""Config parsing: robustness under arbitrary JSON values, the version
string, and the manifest's hashes."""

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import yehsim
from yehsim.config import SECTIONS, TOOL_VERSION, canonical_json, parse_config
from yehsim.errors import ConfigError

#: Section -> (names its string fields take, its keys), after the schema in
#: yehsim.config.
SCHEMA = {
    "lambda": (("zero", "linear", "piecewise", "table", "cantor"),
               ("kind", "slope", "intercept", "knots", "values", "depth")),
    "rho": (("identity", "power", "piecewise", "table"),
            ("kind", "exponent", "knots", "values")),
    "integrand": (("step", "indicator", "poly", "basis"),
                  ("kind", "partition", "values", "lo", "hi", "coeffs", "index")),
    "mc": ((), ("paths", "seed")),
    "grid": (("t", "rho"), ("points", "scale")),
    "series": (("cosine", "haar"), ("N", "family")),
    "quadrature": ((), ("resolution",)),
}
WORD_KEYS = ("kind", "scale", "family")

numbers = st.one_of(st.floats(), st.integers(), st.sampled_from((0.0, 0.5, 1.0, 2, 64)))
scalars = st.one_of(numbers, st.none(), st.text(max_size=6))
leaves = st.one_of(scalars, st.lists(scalars, max_size=4), st.lists(numbers, max_size=4))


def section(name):
    """Any leaf value, or an object with the section's keys whose values are
    the section's names or leaves."""
    if name == "interval":
        return st.one_of(st.lists(numbers, min_size=2, max_size=2), leaves)
    names, keys = SCHEMA[name]
    word = st.one_of(st.sampled_from(names + ("",)), leaves)
    return st.one_of(leaves, st.fixed_dictionaries({}, optional={
        key: word if key in WORD_KEYS else leaves for key in keys}))


def function_spec(name):
    """A drift or variance object of a known kind with numeric parameters."""
    names, keys = SCHEMA[name]
    return st.fixed_dictionaries({"kind": st.sampled_from(names)}, optional={
        key: st.one_of(numbers, st.lists(numbers, max_size=4)) for key in keys[1:]})


# Arbitrary configs mostly end in a ConfigError; the second kind of config
# parses often, so the finiteness check sees many functions.
configs = st.one_of(
    st.fixed_dictionaries({}, optional={name: section(name) for name in ("interval", *SCHEMA)}),
    st.fixed_dictionaries({
        "interval": st.lists(numbers, min_size=2, max_size=2).map(sorted),
        "lambda": function_spec("lambda"), "rho": function_spec("rho")}),
)


@settings(derandomize=True, deadline=None, max_examples=500, database=None)
@given(configs)
def test_parse_config_gives_finite_functions_or_config_error(raw):
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    grid = np.linspace(cfg.interval.a, cfg.interval.b, 9)
    assert np.all(np.isfinite(cfg.lam(grid)))
    assert np.all(np.isfinite(cfg.rho(grid)))


def test_schema_keys_are_the_parsers():
    # the keys fuzzed here are the keys parse_config accepts, no more
    assert SECTIONS == {"interval": (), **{name: keys for name, (_, keys) in SCHEMA.items()}}


def test_one_version_string():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = tomllib.loads(pyproject.read_text())["project"]["version"]
    assert yehsim.__version__ == TOOL_VERSION == version


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("raw", [{}, *(json.loads(path.read_text()) for path in CONFIGS)],
                         ids=["defaults", *(path.stem for path in CONFIGS)])
def test_hashes_are_hashlib_sha256(raw):
    # the package hashes with CPython's built-in SHA-256, not hashlib's
    cfg = parse_config(raw)
    manifest = cfg.manifest()
    for got, obj in ((cfg.config_hash(), cfg.normalized), (manifest.hash(), asdict(manifest))):
        assert got == hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def test_grid_too_fine_for_the_interval_names_the_grid():
    # the interval is 2**10 ulps wide: cuts of 8 ulps are refused, 16 taken
    narrow = [1.0, 1.0 + 2.0**-42]
    for points in (2**7 + 1, 2**20, 10**400):
        with pytest.raises(ConfigError, match="^grid.points: .*too narrow"):
            parse_config({"interval": narrow, "grid": {"points": points}})
    assert parse_config({"interval": narrow, "grid": {"points": 2**6 + 1}}).grid_points == 65


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(min_value=0.0, exclude_min=True, max_value=64.0),
       st.integers(2, 4097))
def test_accepted_grids_are_strictly_increasing(a, ulps, points):
    # an interval some ulps wide, from subnormal to huge magnitudes: each
    # uniform cut the commands make of an accepted one keeps its points apart
    b = a + ulps * (points - 1) * math.ulp(a)
    try:
        cfg = parse_config({"interval": [a, b], "grid": {"points": points}})
    except ConfigError:
        return
    for n in (5, cfg.grid_points):
        cuts = np.linspace(a, b, n)
        assert np.all(cuts[1:] > cuts[:-1])
