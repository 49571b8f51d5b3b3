"""Time what a `yehsim` run pays before its first draw.

Usage: python3 bench/setup_probe.py CONFIG_JSON

Imports the package, parses the config, and builds its grid and basis, then
prints the elapsed seconds and the imported module's path as one JSON line.
Interpreter start-up is outside the timed region.
"""

import json
import sys
import time

t0 = time.perf_counter()
import yehsim  # noqa: E402
from yehsim.config import parse_config  # noqa: E402
from yehsim.process import make_grid  # noqa: E402

with open(sys.argv[1]) as fh:
    cfg = parse_config(json.load(fh))
grid = make_grid(cfg.interval, cfg.grid_points, cfg.grid_scale, rho=cfg.rho)
basis = cfg.basis
basis.mass
elapsed = time.perf_counter() - t0
print(json.dumps({"setup_s": elapsed, "module": yehsim.__file__}))
