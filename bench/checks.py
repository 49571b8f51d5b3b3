"""Correctness checks on the files a `yehsim` command wrote.

The checks compare against the library and against the run's own earlier
iterations, never against frozen golden bytes: a deliberate change of the
verify CSVs at the last-digit level must not read as breakage.  Each check
returns (name, ok, detail).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

#: Verify rows decided by Monte Carlo.  KS rows have a 1% false-alarm rate,
#: the others sit at 4 standard errors; any other row is an exact identity.
STOCHASTIC_PREFIXES = ("gaussian_ks_", "moments_", "series_cov_",
                       "series_expansion_gap_", "martingale_mc_",
                       "counterexample_mc_")

#: A KS p-value below this, or a 4-SE row off by more than twice its
#: tolerance (8 SE), is not chance: the sampler or the formula is broken.
KS_BREAKAGE_P = 1e-6
SE_BREAKAGE_FACTOR = 2.0


def digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def parse_verify_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if len(lines) < 2 or lines[1] != "check,expected,observed,tolerance,pass":
        raise ValueError("verify CSV lacks its header")
    rows = []
    for line in lines[2:]:
        check, expected, observed, tolerance, passed = line.split(",")
        rows.append({"check": check, "expected": float(expected),
                     "observed": float(observed), "tolerance": float(tolerance),
                     "pass": passed == "true"})
    return rows


def failure_kind(row: dict) -> str:
    """'chance' for a failed Monte Carlo row within its false-alarm budget,
    'breakage' for anything else."""
    check = row["check"]
    if check.startswith("gaussian_ks_"):
        return "chance" if row["observed"] >= KS_BREAKAGE_P else "breakage"
    if check.startswith(STOCHASTIC_PREFIXES):
        off = abs(row["observed"] - row["expected"])
        return "chance" if off <= SE_BREAKAGE_FACTOR * row["tolerance"] else "breakage"
    return "breakage"


def _first_line_hash(path: Path) -> str | None:
    with path.open() as fh:
        first = fh.readline().strip()
    return first.split("=", 1)[1] if first.startswith("# manifest=") else None


def manifest_checks(out_dir: Path, expected_hash: str) -> list[tuple]:
    """Every output file carries the manifest hash of the generated config."""
    results = []
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv":
            found = _first_line_hash(path)
        else:
            found = json.loads(path.read_text()).get("manifest_hash")
        results.append((f"manifest:{path.name}", found == expected_hash,
                        f"found {found}"))
    return results


def simulate_checks(out_dir: Path, grid: np.ndarray, values: np.ndarray) -> list[tuple]:
    """paths.csv and bundle.json equal the library's value matrix bit for bit."""
    bundle = json.loads((out_dir / "bundle.json").read_text())
    b_grid = np.array(bundle["grid"], dtype=float)
    b_paths = np.array(bundle["paths"], dtype=float)
    bundle_ok = (np.array_equal(b_grid, grid) and b_paths.shape == values.shape
                 and np.array_equal(b_paths, values))

    body = (out_dir / "paths.csv").read_text().split("\n", 2)
    fields = body[2].replace("\n", ",").split(",")[:-1]
    csv_ok = body[1] == "path,t,value" and len(fields) == 3 * values.size
    if csv_ok:
        table = np.array(list(map(float, fields))).reshape(-1, 3)
        paths, points = values.shape
        csv_ok = (np.array_equal(table[:, 0], np.repeat(np.arange(paths), points))
                  and np.array_equal(table[:, 1], np.tile(grid, paths))
                  and np.array_equal(table[:, 2], values.ravel()))
    return [("values:bundle.json", bool(bundle_ok), "all paths against the library"),
            ("values:paths.csv", bool(csv_ok), "all paths against the library")]


def expansion_checks(out_dir: Path) -> list[tuple]:
    """Expansion defects never increase with the truncation."""
    lines = (out_dir / "expansion.csv").read_text().splitlines()
    defects = np.array([float(line.split(",")[2]) for line in lines[3:]])
    ok = lines[2] == "n,partial_sum,defect" and len(defects) > 0 \
        and bool(np.all(np.diff(defects) <= 0))
    return [("defects_nonincreasing", ok, f"{len(defects)} rows")]
