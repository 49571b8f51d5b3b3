"""Batch command line: simulate paths, run verification suites, expand integrals.

Exit codes: 0 success, 1 verification failure, 2 configuration error (the
message names the offending field), 3 I/O failure.  The master seed resolves
as --seed flag > YEH_SEED environment variable > config file > default.
Outputs embed the run manifest hash and are byte-identical across reruns of
the same manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .config import RunConfig, canonical_json, parse_config
from .errors import ConfigError, YehError
from .process import YehSpec, _value_chunks, center, make_grid, sample_increments
from .series import expand_integral
from .streams import GaussianStream
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_config(args) -> RunConfig:
    raw = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config: file {path} does not exist")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
    overrides = {}
    env_seed = os.environ.get("YEH_SEED")
    if env_seed is not None:
        try:
            overrides["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"YEH_SEED: not an integer ({env_seed!r})") from exc
    for key in ("seed", "paths", "grid", "truncation"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return parse_config(raw, overrides)


@contextmanager
def _writer(path: Path):
    """Yield write(text) for a new text file at path.  An OSError in opening,
    writing or closing it becomes an _IOFailure that names path."""
    def failure(exc: OSError) -> _IOFailure:
        return _IOFailure(f"cannot write {path}: {exc}")

    def write(text: str):
        try:
            fh.write(text)
        except OSError as exc:
            raise failure(exc) from exc

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            yield write
    except OSError as exc:
        raise failure(exc) from exc


def _write_text(path: Path, text: str):
    with _writer(path) as write:
        write(text)


class _IOFailure(Exception):
    pass


def _manifest_json(cfg: RunConfig) -> str:
    manifest = cfg.manifest()
    return canonical_json({"manifest": manifest.to_dict(),
                           "manifest_hash": manifest.hash()}) + "\n"


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    """Sample paths per the config; write bundle.json, paths.csv, manifest.json.

    Paths are sampled, formatted and written in the samplers' row chunks of
    about process.CHUNK_DRAWS normals, so memory does not grow with the path
    count.  Row k is stream k whichever chunk holds it, so the bytes do not
    depend on the chunk height."""
    spec = YehSpec(cfg.lam, cfg.rho)
    grid = make_grid(cfg.interval, cfg.grid_points, cfg.grid_scale, rho=cfg.rho)
    manifest = cfg.manifest()
    mhash = manifest.hash()
    # Path k's CSV lines are str(k).join(pieces) % row: the grid is formatted once.
    pieces = [""] + [f",{_fmt(t)},%.17g\n" for t in grid]
    # "paths" sorts last, so its empty list is the last "[]" of the document.
    head, tail = canonical_json({
        "manifest": manifest.to_dict(),
        "manifest_hash": mhash,
        "grid": grid.tolist(),
        "paths": [],
    }).rsplit("[]", 1)
    chunks = _value_chunks(spec, grid, cfg.seed, cfg.paths)
    with _writer(out_dir / "paths.csv") as csv, \
            _writer(out_dir / "bundle.json") as bundle:
        csv(f"# manifest={mhash}\npath,t,value\n")
        bundle(head + "[")
        for k0, values in chunks:
            rows = values.tolist()
            del values  # not held while the next chunk is drawn
            for k, row in enumerate(rows, k0):
                csv(str(k).join(pieces) % tuple(row))
            if k0:
                bundle(",")
            bundle(json.dumps(rows, separators=(",", ":"))[1:-1])
        bundle("]" + tail + "\n")
    _write_text(out_dir / "manifest.json", _manifest_json(cfg))
    return EXIT_OK


def cmd_verify(suite: str, cfg: RunConfig, out_dir: Path) -> int:
    """Run the named battery; write its CSV; exit 0 iff every check passed."""
    rows = run_suite(suite, cfg)
    mhash = cfg.manifest().hash()
    lines = [f"# manifest={mhash}", "check,expected,observed,tolerance,pass"]
    for row in rows:
        lines.append(
            f"{row.check},{_fmt(row.expected)},{_fmt(row.observed)},"
            f"{_fmt(row.tolerance)},{'true' if row.passed else 'false'}"
        )
    _write_text(out_dir / f"verify_{suite}.csv", "\n".join(lines) + "\n")
    _write_text(out_dir / "manifest.json", _manifest_json(cfg))
    failed = [row for row in rows if not row.passed]
    for row in failed:
        print(f"FAIL {row.check}: expected {row.expected}, observed "
              f"{row.observed}, tolerance {row.tolerance}", file=sys.stderr)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_expand(cfg: RunConfig, out_dir: Path) -> int:
    """Expand the configured integrand over one centered path; write the report."""
    spec = YehSpec(cfg.lam, cfg.rho)
    grid = make_grid(cfg.interval, cfg.grid_points, "t")
    raw_path = sample_increments(spec, grid, GaussianStream(cfg.seed, 0))
    path = center(raw_path, cfg.lam)
    report = expand_integral(cfg.integrand, cfg.basis, cfg.truncation, path,
                             cells=cfg.grid_points - 1, resolution=cfg.resolution)
    mhash = cfg.manifest().hash()
    lines = [f"# manifest={mhash}", f"# target={_fmt(report.target)}",
             "n,partial_sum,defect"]
    for n, partial, defect in report.rows():
        lines.append(f"{n},{_fmt(partial)},{_fmt(defect)}")
    _write_text(out_dir / "expansion.csv", "\n".join(lines) + "\n")
    _write_text(out_dir / "manifest.json", _manifest_json(cfg))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yehsim",
        description="Simulate Gaussian additive processes, compute Wiener "
                    "integrals, and verify their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "sample paths and write a path bundle"),
        ("verify", "run a verification suite and write its report"),
        ("expand", "expand a Wiener integral into its random series"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file (defaults apply if omitted)")
        p.add_argument("--out", type=str, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed override")
        p.add_argument("--paths", type=int, default=None,
                       help="Monte Carlo path count override")
        p.add_argument("--grid", type=int, default=None,
                       help="grid point count override")
        p.add_argument("--truncation", type=int, default=None,
                       help="series truncation override")
        if name == "verify":
            p.add_argument("--suite", type=str, default="all",
                           choices=SUITE_NAMES + ("all",),
                           help="which battery to run")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(args.suite, cfg, out_dir)
        return cmd_expand(cfg, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except YehError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
