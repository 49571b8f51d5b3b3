"""Every function of the package runs under some command or battery.

One process runs `simulate`, `verify --suite all` and `expand` on small
configs that between them take every config kind, with its stream ranges
split over forked parts as `split_over` (tests/test_process.py) forces them,
draws rows longer than streams.CROSSOVER_DRAWS once, which load the C
Philox, makes one tiny call of each battery that no suite runs, and enters
once through the script entry.  A profile hook
records every function of the package that starts.  A function that never
runs is dead code unless UNREACHED names it with its reason; a name on that
list that does run belongs off it.
"""

import gc
import inspect
import json
import os
import sys
from pathlib import Path

from yehsim import BasisFamily, VarianceFunction, YehSpec, cli, process, streams
from yehsim.verify import basis_battery, integral_battery

SRC = Path(process.__file__).resolve().parent
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: Qualified name -> why no command or battery runs it.
UNREACHED = {
    "increment_value_matrix": "the reference bench/run.py checks simulate's values against",
    "cantor_eval": "the exact rational oracle that _cantor_array is tested against",
    "_portable": "error handler: an exception raised in a forked part",
}

SMALL = {"mc": {"paths": 24, "seed": 3}, "grid": {"points": 17}, "series": {"N": 8}}
CASES = {
    "brownian": json.loads((CONFIGS / "brownian.json").read_text()),
    "cantor": json.loads((CONFIGS / "cantor.json").read_text()),
    "piecewise_poly_rho_grid": {
        "interval": [0.0, 2.0],
        "lambda": {"kind": "table", "knots": [0.0, 0.5, 2.0], "values": [0.0, 1.0, -0.5]},
        "rho": {"kind": "piecewise", "knots": [0.0, 1.0, 2.0], "values": [0.0, 0.4, 1.5]},
        "integrand": {"kind": "poly", "coeffs": [0.5, -1.0, 0.75]},
        "grid": {"points": 17, "scale": "rho"}, "series": {"N": 8, "family": "haar"}},
    "power2_basis": {
        "lambda": {"kind": "linear", "slope": -0.5}, "rho": {"kind": "power", "exponent": 2.0},
        "integrand": {"kind": "basis", "index": 3}},
    "partial_step": {
        "rho": {"kind": "identity"},
        "integrand": {"kind": "step", "partition": [0.25, 0.5, 0.625], "values": [2.0, -1.0]}},
    "haar_basis": {
        "lambda": {"kind": "zero"}, "series": {"N": 8, "family": "haar"},
        "integrand": {"kind": "basis", "index": 5}},
}


def package_functions() -> dict:
    """(file name, first line) -> qualified name of every function and lambda
    in the package's source; class bodies run on import, and comprehensions
    belong to their function."""
    found = {}

    def walk(code):
        for const in code.co_consts:
            if inspect.iscode(const):
                if const.co_flags & inspect.CO_OPTIMIZED and (
                        not const.co_name.startswith("<") or const.co_name == "<lambda>"):
                    found[(const.co_filename, const.co_firstlineno)] = const.co_qualname
                walk(const)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"))
    return found


def test_every_function_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(process, "FORK_DRAWS", 1)
    ran = set()

    def record(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(record)
    try:
        for name, raw in CASES.items():
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({**raw, **{k: {**raw.get(k, {}), **v}
                                                    for k, v in SMALL.items()}}))
            for command in (["simulate"], ["verify", "--suite", "all"], ["expand"]):
                code = cli.main([*command, "--config", str(config), "--out",
                                 str(tmp_path / name)])
                assert code in (0, 1), (name, command, code)
        # the C Philox class loads once per process, at its first long row
        streams._philox_class.cache_clear()
        assert cli.main(["expand", "--grid", "129", "--out", str(tmp_path / "long")]) == 0
        unit = (0.0, 1.0)
        basis_battery({"square": BasisFamily(VarianceFunction.power(unit, 2.0))}, 4, 64,
                      [(1, 2)])
        integral_battery(YehSpec.brownian(unit), lambda t: t, 4, 7007, 8)
        # the script entry, with its freeze, which would pin this process's heap, stubbed
        monkeypatch.setattr(gc, "freeze", lambda: None)
        monkeypatch.setattr(sys, "argv", ["yehsim", "verify", "--suite", "counterexample",
                                          "--out", str(tmp_path / "entry")])
        assert cli.entry() == 0
    finally:
        sys.setprofile(None)

    functions = package_functions()
    names = set(functions.values())
    assert set(UNREACHED) <= names, set(UNREACHED) - names
    never = sorted(name for key, name in functions.items() if key not in ran)
    assert [name for name in never if name not in UNREACHED] == []
    assert sorted(UNREACHED) == [name for name in never if name in UNREACHED]
