"""Config parsing: robustness under arbitrary JSON values, and the version string."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import yehsim
from yehsim.config import TOOL_VERSION, parse_config
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


def test_one_version_string():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = tomllib.loads(pyproject.read_text())["project"]["version"]
    assert yehsim.__version__ == TOOL_VERSION == version
