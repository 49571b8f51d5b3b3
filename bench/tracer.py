"""Run one `yehsim` CLI command with spans around the calls into each module.

Usage: python3 bench/tracer.py SPANS_JSON -- <yehsim arguments>

The wrappers live here, not in the package: each public function of a layer
is replaced, in the namespace of every `yehsim` module that holds it, by a
wrapper that records a span (name, start, end, parent id) plus work counts.
Spans stay in memory and are written to SPANS_JSON once, after the command.
Per-value calls such as `MeanFunction.__call__` are never wrapped.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder; one stack, since the CLI is single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": sid, "name": name, "parent": parent,
                           "start": _clock(), "end": None})
        self._stack.append(sid)
        return sid

    def end(self, sid: int):
        self.spans[sid]["end"] = _clock()
        self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        """fn inside a span; counts(result, *args) adds work counts to it."""
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if counts:
                self.spans[sid].update(counts(result, *args))
            return result

        wrapper.__wrapped__ = fn
        return wrapper


# Counts come from results where they can, so they survive signature changes.

def _draw_counts(result, *args):
    return {"rows": len(result) if result.ndim == 2 else 1, "draws": int(result.size)}


def _step_batch_counts(result, f=None, *args):
    step = getattr(f, "step", None) or f
    cells = max(len(getattr(step, "partition", ())) - 1, 0)
    return {"madds": len(result) * cells}


def _ks_counts(result, *args):
    return {"samples": int(getattr(result, "count", 0))}


#: (module, function name, span name, count function) for module functions.
FUNCTIONS = (
    ("streams", "normal_matrix", "streams", _draw_counts),
    ("process", "increment_value_matrix", "process.increments", None),
    ("process", "sample_increments", "process.increments", None),
    ("process", "series_value_matrix", "process.series", None),
    ("process", "make_grid", "process.make_grid", None),
    ("stieltjes", "rho_inverse", "stieltjes.rho_inverse", None),
    ("integral", "integrate_step_batch", "integral.step_batch", _step_batch_counts),
    ("integral", "integrate_l2", "integral.l2", None),
    ("funcspace", "project_to_steps", "funcspace.project", None),
    ("funcspace", "fourier_coeffs", "funcspace.coeffs", None),
    ("series", "expand_integral", "series.expand", None),
    ("series", "series_variance_defect", "series.variance_defect", None),
    ("stats", "ks_test", "stats.ks", _ks_counts),
    ("martingale", "classify", "martingale.classify", None),
    ("config", "parse_config", "config.parse", None),
    ("verify", "moments_suite", "verify.moments", None),
    ("verify", "gaussian_suite", "verify.gaussian", None),
    ("verify", "series_suite", "verify.series", None),
    ("verify", "martingale_suite", "verify.martingale", None),
    ("verify", "counterexample_suite", "verify.counterexample", None),
)

#: (module, class, method, span name, count function) for methods.
METHODS = (
    ("streams", "GaussianStream", "normals", "streams", _draw_counts),
    ("funcspace", "BasisFamily", "antiderivative", "funcspace.antideriv", None),
    ("funcspace", "BasisFamily", "antiderivative_matrix", "funcspace.antideriv", None),
)


def install(tracer: Tracer):
    """Wrap every listed name wherever a `yehsim` module binds it.  A name the
    package no longer has is skipped, and its metrics read zero."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "yehsim" or name.startswith("yehsim.")]
    for mod_name, fn_name, span, counts in FUNCTIONS:
        fn = getattr(sys.modules.get(f"yehsim.{mod_name}"), fn_name, None)
        if fn is None:
            continue
        wrapper = tracer.wrap(span, fn, counts)
        for module in modules:
            if getattr(module, fn_name, None) is fn:
                setattr(module, fn_name, wrapper)
    for mod_name, cls_name, meth, span, counts in METHODS:
        cls = getattr(sys.modules.get(f"yehsim.{mod_name}"), cls_name, None)
        if getattr(cls, meth, None) is not None:
            setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), counts))


def main(argv: list[str]) -> int:
    out, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- <yehsim arguments>")
    tracer = Tracer()
    root = tracer.begin("run")
    sid = tracer.begin("import")
    import yehsim.cli

    tracer.end(sid)
    install(tracer)
    sid = tracer.begin("cli")
    try:
        code = yehsim.cli.main(cli_args)
    finally:
        tracer.end(sid)
        tracer.end(root)
        Path(out).write_text(json.dumps({"module": yehsim.cli.__file__,
                                         "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
