"""Batch command line: simulate paths, run verification suites, expand integrals.

`simulate` writes value paths, encoding each value once as its %.17g text
(yehsim.encode, in numpy, with Python's "%.17g" as the fallback outside
1e-4 <= |x| < 2**51) into both the value column of paths.csv and the path
rows of bundle.json; process.fork_ranges splits its stream range over the
cores, as the Wiener-integral kernel splits its own.  `verify` and `expand`
reduce each path to a few linear functionals drawn straight from the
normals, `expand` the step integrals of the integrand and basis members
under the centered law, from stream (seed, 0).  Each command loads only its
own modules (simulate the encoder, verify the batteries in yehsim.verify).

Every file a command writes is an _Output, which turns each OSError on it
into an _IOFailure naming the file; _write_reports writes the CSV reports
and manifest.json.  Exit codes: 0 success, 1 verification failure, 2 a
YehError (the message starts with the offending field; a forked part that
died names its stream range), an unreadable config or a size that does not
fit in memory (the message names the size fields), 3 an _IOFailure.  The
master seed resolves as --seed flag > YEH_SEED environment variable >
config file > default.  Outputs embed the run manifest hash and are
byte-identical across reruns of the same manifest.

Run as the `yehsim` script or as `python -m yehsim.cli`, the command line
enters at entry(), which freezes the import heap (gc.freeze) before main()
runs.  Those objects live until exit anyway; frozen, they sit in the
permanent generation, which no collection walks (at shutdown or in a forked
part).  main() itself never freezes, so a caller keeps its heap collectable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from contextlib import AbstractContextManager, ExitStack, contextmanager
from dataclasses import asdict
from pathlib import Path

from .config import SUITE_NAMES, RunConfig, canonical_json, parse_config
from .errors import ConfigError, YehError
from .process import YehSpec, _value_chunks, fork_ranges, make_grid, stream_ranges
from .series import expand_integral

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
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config: file {path} does not exist") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config: cannot read {path} ({exc})") from exc
        except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
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


class _IOFailure(Exception):
    pass


class _Output(AbstractContextManager):
    """A binary output file: path itself, or with temp an anonymous temporary
    file beside it, to be appended to path's own.  Every OSError in making,
    writing, appending to or closing it becomes an _IOFailure that names
    path."""

    def __init__(self, path: Path, temp: bool = False):
        self.path = path
        with self._naming():
            path.parent.mkdir(parents=True, exist_ok=True)
            if temp:
                import tempfile  # only a forking simulate makes one
                self.fh = tempfile.TemporaryFile("w+b", dir=path.parent)
            else:
                self.fh = path.open("wb")

    @contextmanager
    def _naming(self):
        try:
            yield
        except OSError as exc:
            raise _IOFailure(f"cannot write {self.path}: {exc}") from exc

    def write(self, data: bytes):
        with self._naming():
            self.fh.write(data)

    def append(self, part: _Output):
        """Copy the temporary output part onto this one in 1 MiB blocks and
        close it, which frees its disk space now, not at the end of the run."""
        with self._naming():
            part.fh.seek(0)
            shutil.copyfileobj(part.fh, self.fh, 1 << 20)
        part.close()

    def close(self):
        with self._naming():
            self.fh.close()

    def __exit__(self, *exc):
        self.close()


def _write_reports(cfg: RunConfig, out_dir: Path, name: str | None = None, lines=()):
    """Write the CSV report `name`, its lines under a "# manifest=" line, if
    a name is given, then manifest.json, both for cfg's run manifest."""
    manifest = cfg.manifest()
    mhash = manifest.hash()
    texts = {name: "\n".join([f"# manifest={mhash}", *lines]) + "\n"} if name else {}
    texts["manifest.json"] = canonical_json({"manifest": asdict(manifest),
                                             "manifest_hash": mhash}) + "\n"
    for name, text in texts.items():
        with _Output(out_dir / name) as out:
            out.write(text.encode())


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    """Sample paths per the config; write bundle.json, paths.csv, manifest.json.

    The path range is split into process.stream_ranges, one contiguous,
    near-equal range of stream indices per core this process may run on.
    The CSV header and the bundle's head are written first.  This process
    encodes the first range straight into the outputs; a part that
    process.fork_ranges forks encodes each other one into two temporary
    _Outputs, made before the fork and appended in order once fork_ranges
    returns (a part's _IOFailure names the output and is raised again here).
    A part inherits the frames in the unflushed buffers but never flushes
    them: it ends with os._exit and writes only its own files.  Every process
    samples, encodes and writes in the samplers' row chunks of about
    process.CHUNK_DRAWS normals, each one value matrix drawn and summed in
    place, so no chunk grows with the path count, and neither does the
    process's peak RSS: the encoder makes no Python object per value (README).
    Row k is stream k whichever process and chunk hold it, so the bytes
    depend on neither the core count nor the chunk height."""
    spec = YehSpec(cfg.lam, cfg.rho)
    grid = make_grid(cfg.interval, cfg.grid_points, cfg.grid_scale, rho=cfg.rho)
    manifest = cfg.manifest()
    mhash = manifest.hash()
    # The grid is formatted once, into the ",t," of every path's CSV lines.
    times = [f",{_fmt(t)},".encode() for t in grid]
    # "paths" sorts last, so its empty list is the last "[]" of the document.
    head, tail = canonical_json({
        "manifest": asdict(manifest),
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
    paths = (out_dir / "paths.csv", out_dir / "bundle.json")
    with ExitStack() as stack:
        parts = {lo: [stack.enter_context(_Output(path, temp=True)) for path in paths]
                 for lo, _ in ranges[1:]}
        csv, bundle = outs = [stack.enter_context(_Output(path)) for path in paths]
        csv.write(f"# manifest={mhash}\npath,t,value\n".encode())
        bundle.write(head.encode() + b"[")

        def run(lo: int, hi: int):
            files = parts.get(lo, outs)
            write_rows(lo, chunks(hi - lo, lo), times, *(out.write for out in files))
            # a part ends with os._exit, so it closes, and so flushes, its own
            for part in parts.get(lo, ()):
                part.close()

        fork_ranges(run, ranges)
        for lo, _ in ranges[1:]:
            for out, part in zip(outs, parts[lo]):
                out.append(part)
        bundle.write(b"]" + tail.encode() + b"\n")
    _write_reports(cfg, out_dir)
    return EXIT_OK


def cmd_verify(suite: str, cfg: RunConfig, out_dir: Path) -> int:
    """Run the named battery; write its CSV; exit 0 iff every check passed."""
    from .verify import run_suite
    rows = run_suite(suite, cfg)
    lines = ["check,expected,observed,tolerance,pass"] + [
        f"{row.check},{_fmt(row.expected)},{_fmt(row.observed)},"
        f"{_fmt(row.tolerance)},{'true' if row.passed else 'false'}" for row in rows]
    _write_reports(cfg, out_dir, f"verify_{suite}.csv", lines)
    failed = [row for row in rows if not row.passed]
    for row in failed:
        print(f"FAIL {row.check}: expected {row.expected}, observed "
              f"{row.observed}, tolerance {row.tolerance}", file=sys.stderr)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_expand(cfg: RunConfig, out_dir: Path) -> int:
    """Expand the configured integrand over the centered path of stream
    (seed, 0), on grid.points - 1 uniform cells; write the report."""
    report = expand_integral(cfg.integrand, cfg.basis, cfg.truncation,
                             cfg.grid_points - 1, cfg.seed, 0, cfg.resolution)
    lines = [f"# target={_fmt(report.target)}", "n,partial_sum,defect"] + [
        f"{n},{_fmt(partial)},{_fmt(defect)}" for n, partial, defect in report.rows()]
    _write_reports(cfg, out_dir, "expansion.csv", lines)
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


def entry() -> int:
    """The command line's entry, for the `yehsim` script and `python -m
    yehsim.cli`: main() after freezing the import heap."""
    import gc

    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
