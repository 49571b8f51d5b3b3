"""Batch command line: simulate paths, run verification suites, expand integrals.

`simulate` writes value paths; `verify` and `expand` reduce each path to a
few linear functionals drawn straight from the normals, `expand` the step
integrals of the integrand and basis members under the centered law, from
stream (seed, 0).

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
import sys
from contextlib import contextmanager
from pathlib import Path

from .config import RunConfig, canonical_json, parse_config
from .errors import ConfigError, YehError
from .process import YehSpec, _value_chunks, make_grid
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
    """Yield write(text) for a new text file at path.  An OSError in opening,
    writing or closing it becomes an _IOFailure that names path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            yield _guarded(path, fh.write)
    except OSError as exc:
        raise _io_failure(path, exc) from exc


def _write_text(path: Path, text: str):
    with _writer(path) as write:
        write(text)


class _IOFailure(Exception):
    pass


def _manifest_json(cfg: RunConfig) -> str:
    manifest = cfg.manifest()
    return canonical_json({"manifest": manifest.to_dict(),
                           "manifest_hash": manifest.hash()}) + "\n"


def _write_rows(first: int, chunks, pieces, csv, bundle):
    """Format the (k0, values) chunks of the paths from stream index `first`
    on: CSV lines through csv(text), and JSON rows through bundle(text), each
    chunk after a "," unless it starts at path 0."""
    for k0, values in chunks:
        rows = values.tolist()
        del values  # not held while the next chunk is drawn
        for k, row in enumerate(rows, first + k0):
            csv(str(k).join(pieces) % tuple(row))
        if first + k0:
            bundle(",")
        bundle(json.dumps(rows, separators=(",", ":"))[1:-1])


class _Part:
    """A forked child that formats the paths from stream index `first` on
    into two anonymous temporary files beside the outputs, for the parent to
    append once the child has exited.

    The child never returns into its caller's stack: it ends with os._exit,
    so no exit handler or caller's cleanup runs in it.  It stops before its
    next chunk if its parent has died.  An _IOFailure in it names the output
    its file belongs to; the child sends the message through a pipe and exits
    with EXIT_IO, and join raises it again in the parent."""

    def __init__(self, first: int, chunks, pieces, outputs):
        import itertools
        import tempfile

        def temp_file(path: Path):
            path.parent.mkdir(parents=True, exist_ok=True)
            return tempfile.TemporaryFile("w+", dir=path.parent)

        self.first, self.outputs = first, outputs
        self.files = [_guarded(path, temp_file)(path) for path in outputs]
        self.pipe, report = os.pipe()
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid:
            os.close(report)
            return
        code = 1
        try:
            os.close(self.pipe)
            csv, bundle = (_guarded(path, fh.write)
                           for path, fh in zip(outputs, self.files))
            live = itertools.takewhile(lambda _: os.getppid() == parent, chunks)
            _write_rows(first, live, pieces, csv, bundle)
            for path, fh in zip(outputs, self.files):
                _guarded(path, fh.flush)()
            code = EXIT_OK
        except _IOFailure as exc:
            code = EXIT_IO
            os.write(report, str(exc).encode())
        except BaseException:
            import traceback

            traceback.print_exc()
            raise
        finally:
            os._exit(code)

    def join(self, *writes):
        """Wait for the child; append its files through the output writes."""
        with os.fdopen(self.pipe, "rb") as pipe:
            self.pipe = None
            message = pipe.read().decode()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code == EXIT_IO:
            raise _IOFailure(message)
        if code != EXIT_OK:
            raise RuntimeError(f"the process writing paths from {self.first} on "
                               f"ended with exit code {code}")
        for path, fh, write in zip(self.outputs, self.files, writes):
            _guarded(path, fh.seek)(0)
            read = _guarded(path, fh.read)
            while block := read(1 << 13):
                write(block)
            fh.close()  # frees its disk space now, not at the end of the run

    def close(self):
        """Kill and reap the child if join has not, and release its files."""
        import signal

        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self.pipe is not None:
            os.close(self.pipe)
            self.pipe = None
        for fh in self.files:
            fh.close()


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    """Sample paths per the config; write bundle.json, paths.csv, manifest.json.

    The path range is split into one contiguous, near-equal range of stream
    indices per core this process may run on.  The first range is formatted
    by this process straight into the outputs; each other one by a forked
    child into temporary files, which are appended in order.  Every process
    samples, formats and writes in the samplers' row chunks of about
    process.CHUNK_DRAWS normals, so the memory of each does not grow with the
    path count.  Row k is stream k whichever process and chunk hold it, so
    the bytes depend on neither the core count nor the chunk height."""
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
    count = min(len(os.sched_getaffinity(0)), cfg.paths)
    firsts = [cfg.paths * i // count for i in range(count + 1)]
    # Each range's chunk loop is made here, before any fork, so that the
    # drift and variance are evaluated in this process.
    ranges = [(lo, _value_chunks(spec, grid, cfg.seed, hi - lo, lo))
              for lo, hi in zip(firsts, firsts[1:])]
    outputs = (out_dir / "paths.csv", out_dir / "bundle.json")
    parts = []
    try:
        for first, chunks in ranges[1:]:
            parts.append(_Part(first, chunks, pieces, outputs))
        with _writer(outputs[0]) as csv, _writer(outputs[1]) as bundle:
            csv(f"# manifest={mhash}\npath,t,value\n")
            bundle(head + "[")
            _write_rows(*ranges[0], pieces, csv, bundle)
            for part in parts:
                part.join(csv, bundle)
            bundle("]" + tail + "\n")
    finally:
        for part in parts:
            part.close()
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
