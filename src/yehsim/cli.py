"""Batch command line: simulate paths, run verification suites, expand integrals.

`simulate` writes value paths, encoding each value once as its %.17g text
(yehsim.encode, in numpy, with Python's "%.17g" as the fallback outside
1e-4 <= |x| < 2**51): the same bytes fill the value column of paths.csv and
the path rows of bundle.json.  Only simulate loads that module, so the
other commands neither compile nor hold it.  Its stream range is split over
the cores by process.fork_ranges, as the functional samplers split theirs.
`verify` and `expand` reduce each path to a few linear functionals drawn
straight from the normals, `expand` the step integrals of the integrand and
basis members under the centered law, from stream (seed, 0).

Exit codes: 0 success, 1 verification failure, 2 configuration error (the
message names the offending field, or the size fields when a size does not
fit in memory), 3 I/O failure.  The master seed resolves as --seed flag >
YEH_SEED environment variable > config file > default.  Outputs embed the
run manifest hash and are byte-identical across reruns of the same
manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

from .config import RunConfig, canonical_json, parse_config
from .errors import ConfigError, YehError
from .process import YehSpec, _value_chunks, fork_ranges, make_grid, stream_ranges
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


def _io_failure(path: Path, exc: OSError) -> _IOFailure:
    return _IOFailure(f"cannot write {path}: {exc}")


def _guarded(path: Path, call):
    """call, with an OSError it raises turned into an _IOFailure that names
    path."""
    def guarded(*args):
        try:
            return call(*args)
        except OSError as exc:
            raise _io_failure(path, exc) from exc
    return guarded


@contextmanager
def _writer(path: Path):
    """Yield a new binary file at path.  An OSError in opening or closing it,
    or raised in the with block, becomes an _IOFailure that names path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            yield fh
    except OSError as exc:
        raise _io_failure(path, exc) from exc


def _write_text(path: Path, text: str):
    with _writer(path) as fh:
        fh.write(text.encode())


class _IOFailure(Exception):
    pass


def _manifest_json(cfg: RunConfig) -> str:
    manifest = cfg.manifest()
    return canonical_json({"manifest": manifest.to_dict(),
                           "manifest_hash": manifest.hash()}) + "\n"


def _temp_file(path: Path):
    """An anonymous temporary file beside path."""
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryFile("w+b", dir=path.parent)


def _append(path: Path, fh, out):
    """Copy the temporary file fh onto out, the open file of output path, in
    1 MiB blocks, and close fh, which frees its disk space now, not at the
    end of the run."""
    try:
        fh.seek(0)
        shutil.copyfileobj(fh, out, 1 << 20)
    except OSError as exc:
        raise _io_failure(path, exc) from exc
    fh.close()


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    """Sample paths per the config; write bundle.json, paths.csv, manifest.json.

    The path range is split into process.stream_ranges, one contiguous,
    near-equal range of stream indices per core this process may run on.
    The first range is encoded by this process straight into the outputs;
    each other one by a part that process.fork_ranges forks, into two
    anonymous temporary files beside the outputs, which are appended in
    order once the part has exited.  A part's _IOFailure names the output
    its file belongs to and is raised again here.  Every process samples,
    encodes and writes in the samplers' row chunks of about
    process.CHUNK_DRAWS normals, so the memory of each does not grow with
    the path count.  Row k is stream k whichever process and chunk hold it,
    so the bytes depend on neither the core count nor the chunk height."""
    spec = YehSpec(cfg.lam, cfg.rho)
    grid = make_grid(cfg.interval, cfg.grid_points, cfg.grid_scale, rho=cfg.rho)
    manifest = cfg.manifest()
    mhash = manifest.hash()
    # The grid is formatted once, into the pieces of every path's CSV lines.
    pieces = [b""] + [f",{_fmt(t)},%s\n".encode() for t in grid]
    # "paths" sorts last, so its empty list is the last "[]" of the document.
    head, tail = canonical_json({
        "manifest": manifest.to_dict(),
        "manifest_hash": mhash,
        "grid": grid.tolist(),
        "paths": [],
    }).rsplit("[]", 1)
    # The chunk loop is made and the encoder loaded here, before any fork,
    # so that the drift and variance are evaluated, and the encoder
    # compiled, in this process only.
    chunks = _value_chunks(spec, grid, cfg.seed)
    from .encode import write_rows
    ranges = stream_ranges(cfg.paths)
    outputs = (out_dir / "paths.csv", out_dir / "bundle.json")
    temps = {}
    sinks = {}

    def run(lo: int, hi: int) -> int:
        write_rows(lo, chunks(hi - lo, lo), pieces, *sinks[lo])
        for path, fh in zip(outputs, temps.get(lo, ())):
            _guarded(path, fh.flush)()
        return lo

    try:
        for lo, _ in ranges[1:]:
            temps[lo] = [_guarded(path, _temp_file)(path) for path in outputs]
            sinks[lo] = [_guarded(path, fh.write) for path, fh in zip(outputs, temps[lo])]
        with fork_ranges(run, ranges) as done, \
                _writer(outputs[0]) as csv_fh, _writer(outputs[1]) as bundle_fh:
            out_files = (csv_fh, bundle_fh)
            csv, bundle = sinks[0] = [_guarded(path, fh.write)
                                      for path, fh in zip(outputs, out_files)]
            csv(f"# manifest={mhash}\npath,t,value\n".encode())
            bundle(head.encode() + b"[")
            for lo in done:
                for path, fh, out in zip(outputs, temps.get(lo, ()), out_files):
                    _append(path, fh, out)
            bundle(b"]" + tail.encode() + b"\n")
    finally:
        for files in temps.values():
            for fh in files:
                fh.close()
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
    """Expand the configured integrand over the centered path of stream
    (seed, 0), on grid.points - 1 uniform cells; write the report."""
    report = expand_integral(cfg.integrand, cfg.basis, cfg.truncation,
                             cfg.grid_points - 1, GaussianStream(cfg.seed, 0),
                             cfg.resolution)
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
    out_dir = Path(args.out)
    try:
        cfg = _load_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(args.suite, cfg, out_dir)
        return cmd_expand(cfg, out_dir)
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except YehError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("error: out of memory; lower mc.paths, grid.points or series.N",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
