"""Command-line front end: exit codes, outputs, reproducibility."""

import errno
import gc
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yehsim import cli, encode, process
from yehsim.cli import main
from yehsim.config import parse_config
from yehsim.encode import encode_17g, write_rows
from yehsim.process import YehSpec, make_grid
from yehsim.verify import SUITE_NAMES

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv):
    return main(list(argv))


def force_parts(monkeypatch, parts: int):
    """Make simulate split its paths into `parts` ranges, whatever the cores:
    the count is read from the CPU affinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def read_rows(csv_path):
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# manifest=")
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    return [dict(zip(header, line.split(","))) for line in body[1:]]


@pytest.fixture()
def brownian_config(tmp_path):
    cfg = {
        "interval": [0.0, 1.0],
        "lambda": {"kind": "zero"},
        "rho": {"kind": "identity"},
        "mc": {"paths": 10, "seed": 12345},
        "grid": {"points": 33},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_brownian_paths_start_at_zero(self, tmp_path, brownian_config):
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(brownian_config),
                       "--out", str(out)) == 0
        bundle = json.loads((out / "bundle.json").read_text())
        assert len(bundle["paths"]) == 10
        assert all(row[0] == 0.0 for row in bundle["paths"])
        assert bundle["manifest"]["paths"] == 10
        csv_lines = (out / "paths.csv").read_text().splitlines()
        assert csv_lines[0] == f"# manifest={bundle['manifest_hash']}"
        assert csv_lines[1] == "path,t,value"
        assert len(csv_lines) == 2 + 10 * 33

    def test_cantor_drift_tracked_in_mean(self, tmp_path):
        cfg = {
            "lambda": {"kind": "cantor"},
            "mc": {"paths": 4000, "seed": 5},
            "grid": {"points": 17},
        }
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
        bundle = json.loads((out / "bundle.json").read_text())
        paths = np.array(bundle["paths"])
        grid = np.array(bundle["grid"])
        from yehsim import MeanFunction

        lam = MeanFunction.cantor((0.0, 1.0))
        for j in (4, 8, 12, 16):
            se = paths[:, j].std(ddof=1) / np.sqrt(len(paths))
            assert abs(paths[:, j].mean() - lam(grid[j])) <= 4 * se

    def test_rho_scale_grid(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "rho": {"kind": "power", "exponent": 2.0},
            "mc": {"paths": 3, "seed": 1},
            "grid": {"points": 9, "scale": "rho"},
        }))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
        bundle = json.loads((out / "bundle.json").read_text())
        grid = np.array(bundle["grid"])
        drho = np.diff(grid**2)
        assert np.allclose(drho, drho[0], rtol=1e-6)

    def test_malformed_rho_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({
            "rho": {"kind": "table", "knots": [0.0, 0.5, 1.0],
                    "values": [0.0, 0.7, 0.6]},
        }))
        code = run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert "variance function must be strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["abc", None, 2000.5, "300", True])
    @pytest.mark.parametrize("section,key", [
        ("mc", "paths"), ("mc", "seed"), ("grid", "points"), ("series", "N"),
        ("quadrature", "resolution"),
    ])
    def test_non_integer_field_named(self, tmp_path, capsys, section, key, bad):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({section: {key: bad}}))
        code = run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert f"{section}.{key}: must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key", [
        ("lambda", "slpoe"), ("rho", "exponant"), ("integrand", "value"),
        ("mc", "path"), ("grid", "point"), ("series", "n"), ("quadrature", "resolutions"),
    ])
    def test_unknown_field_named(self, tmp_path, capsys, section, key):
        # a misspelled key is refused, not run with the key's default
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({section: {key: 5}}))
        code = run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == f"error: {section}.{key}: unknown field\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", [5, [], "x", None])
    @pytest.mark.parametrize("section", [
        "lambda", "rho", "integrand", "mc", "grid", "series", "quadrature",
    ])
    def test_non_object_section_named(self, tmp_path, capsys, section, bad):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({section: bad}))
        code = run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert f"{section}: must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [5, [], "x", None, {"reuse_streams": True}])
    def test_debug_section_rejected(self, tmp_path, capsys, bad):
        # fault injection lives in the tests (see test_corrupted_seed_reuse_fails)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"debug": bad}))
        code = run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert "debug: unknown configuration section" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,field", [
        ({"lambda": {"kind": "linear", "slope": float("nan")}}, "lambda.slope"),
        ({"lambda": {"kind": "piecewise", "knots": [0.0, 0.5, 1.0],
                     "values": [0.0, float("nan"), 1.0]}}, "lambda.values"),
        ({"rho": {"kind": "power", "exponent": float("inf")}}, "rho.exponent"),
        ({"lambda": {"kind": "cantor", "depth": 0}}, "lambda.depth"),
        ({"lambda": {"kind": "cantor", "depth": 10_000_000}}, "lambda.depth"),
        ({"interval": [0.0, 1e308], "rho": {"kind": "power", "exponent": 1.5}},
         "rho.exponent"),
    ])
    def test_bad_function_parameter_named(self, tmp_path, capsys, spec, field):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**spec, "mc": {"paths": 2}, "grid": {"points": 5}}))
        code = run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert f"error: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("partition,values,field", [
        ([0.0, float("nan"), 1.0], [1.0, 2.0], "partition"),
        ([0.0, 0.5, float("inf")], [1.0, 2.0], "partition"),
        ([0.0, 0.5, 1.0], [float("nan"), 1.0], "values"),
        ([0.0, 0.5, 1.0], [1.0, float("-inf")], "values"),
        ([-1.0, 0.5], [1.0], "partition"),
    ])
    def test_non_finite_step_integrand_named(self, tmp_path, capsys, partition,
                                             values, field):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"integrand": {
            "kind": "step", "partition": partition, "values": values}}))
        finite = np.all(np.isfinite(partition + values))
        problem = "must lie in [0.0, 1.0]" if finite else "must be finite"
        for command in ("expand", "verify"):
            code = run_cli(command, "--config", str(cfg_path),
                           "--out", str(tmp_path / "out"))
            assert code == 2
            assert f"error: integrand: {field} {problem}" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        # a missing file, a directory, a file that is not UTF-8 and, where
        # Python limits the digits of an integer it converts, one too long
        (tmp_path / "dir.json").mkdir()
        (tmp_path / "latin1.json").write_bytes('{"mc": {"seed": "\u00e9"}}'.encode("latin-1"))
        (tmp_path / "long.json").write_text('{"mc": {"seed": %s}}' % ("1" * 5000))
        cases = [("nope.json", "does not exist"), ("dir.json", "Is a directory"),
                 ("latin1.json", "can't decode byte 0xe9")]
        if hasattr(sys, "get_int_max_str_digits"):
            cases.append(("long.json", "invalid JSON (Exceeds the limit"))
        for name, problem in cases:
            code = run_cli("simulate", "--config", str(tmp_path / name),
                           "--out", str(tmp_path / "out"))
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: config: ") and err.count("\n") == 1, err
            assert problem in err and "Traceback" not in err

    def test_unwritable_output_gives_io_exit(self, tmp_path, brownian_config,
                                             capsys, monkeypatch):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where a directory must go")
        for argv, first in ((["simulate"], "paths.csv"), (["expand"], "expansion.csv"),
                            (["verify", "--suite", "counterexample"],
                             "verify_counterexample.csv")):
            for parts in (1, 3):
                force_parts(monkeypatch, parts)
                code = run_cli(*argv, "--config", str(brownian_config),
                               "--out", str(blocker / "sub"))
                assert code == 3
                err = capsys.readouterr().err
                assert err.startswith(f"error: cannot write {blocker / 'sub' / first}: ")
                assert "Traceback" not in err
                assert_no_child_left()
                assert sorted(os.listdir(tmp_path)) == ["blocked", "config.json"]

    def test_unopenable_output_file_gives_io_exit(self, tmp_path, brownian_config,
                                                 capsys, monkeypatch):
        out = tmp_path / "out"
        (out / "bundle.json").mkdir(parents=True)
        for parts in (1, 3):
            force_parts(monkeypatch, parts)
            code = run_cli("simulate", "--config", str(brownian_config), "--out", str(out))
            assert code == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write {out / 'bundle.json'}: ")
            assert "Traceback" not in err
            assert_no_child_left()
            assert sorted(os.listdir(out)) == ["bundle.json", "paths.csv"]

    def test_child_write_failure_gives_io_exit(self, tmp_path, brownian_config,
                                               capsys, monkeypatch):
        # the disk fills as a part writes its temporary files (only the
        # parts make them), as the parent writes paths.csv (/dev/full),
        # alone or while a part is drawing, and as the parent appends a
        # part's files
        def full_disk(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        real = tempfile.TemporaryFile

        def full_temp(*args, **kwargs):
            fh = real(*args, **kwargs)
            fh.write = full_disk
            return fh

        for case, parts in (("part", 2), ("parent", 1), ("parent", 2), ("append", 2)):
            out = tmp_path / f"{case}-{parts}"
            out.mkdir()
            with monkeypatch.context() as patch:
                if case == "part":
                    patch.setattr(tempfile, "TemporaryFile", full_temp)
                elif case == "parent":
                    (out / "paths.csv").symlink_to("/dev/full")
                else:
                    patch.setattr(shutil, "copyfileobj", full_disk)
                force_parts(patch, parts)
                code = run_cli("simulate", "--config", str(brownian_config),
                               "--out", str(out))
            assert code == 3, case
            err = capsys.readouterr().err
            assert err == (f"error: cannot write {out / 'paths.csv'}: "
                           f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"), case
            assert_no_child_left()
            assert sorted(os.listdir(out)) == ["bundle.json", "paths.csv"]

    def test_killed_run_leaves_no_child(self, tmp_path):
        # the children of a SIGKILLed parent stop before their next chunk
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"mc": {"paths": 20000}, "grid": {"points": 513}}))
        script = ("import os, sys\n"
                  "real_fork = os.fork\n"
                  "def fork():\n"
                  "    pid = real_fork()\n"
                  "    if pid:\n"
                  "        print(pid, flush=True)\n"
                  "    return pid\n"
                  "os.fork = fork\n"
                  "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
                  "from yehsim.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = [sys.executable, "-c", script, "simulate", "--config", str(cfg_path),
                "--out", str(tmp_path / "out")]
        children = []
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env) as proc:
            try:
                children = [int(proc.stdout.readline()) for _ in range(2)]
                time.sleep(0.5)
                assert proc.poll() is None, "the run ended before it was killed"
                proc.kill()
                proc.wait(timeout=10)
                deadline = time.monotonic() + 2.0
                while any(map(running, children)) and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert not any(map(running, children))
            finally:
                proc.kill()
                for pid in filter(running, children):
                    os.kill(pid, signal.SIGKILL)


def running(pid: int) -> bool:
    """Whether the process exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


#: SHA-256 of paths.csv and bundle.json.  At the default chunk height (128
#: and 64 paths) the first two configs span 9 and 10 chunks in one process
#: and 3 to 5 in each range of two or three parts, the last one partial; the
#: third has fewer paths than the cores the test forces, so each of its
#: ranges holds one path.  The test pins version 0.3.0 in the manifest, so a
#: version bump alone does not move the digests, and neither did chunks of
#: 2**16 draws.  They were first written by the one-shot writer that preceded
#: chunked output, and re-taken at 0.5.0, when the config lost its debug
#: section; the outputs at 0.4.0 and 0.5.0 match at 1 and 2 BLAS threads once
#: config_hash and manifest_hash are masked.  The third was taken from the
#: one-process writer that preceded the split into stream ranges.  The bundle
#: digests were re-taken at 0.11.0, when bundle.json's path values became the
#: CSV's %.17g strings instead of the shortest round-trip repr: every CSV
#: digest was kept, and each config's bundle parses to the same float64 bits
#: as at 0.10.0, with every key but "paths" byte-identical.
STREAMED_GOLDEN = {
    "cantor_rho": (
        {"interval": [0.0, 1.0], "lambda": {"kind": "cantor", "depth": 64},
         "rho": {"kind": "power", "exponent": 2.0},
         "mc": {"paths": 1100, "seed": 20261018},
         "grid": {"points": 513, "scale": "rho"}},
        "912373f4a68735f9add55d911d3ef2b12875fb7396b0620a3b9eb84a183cb558",
        "8274216fc9c4c30abf5e74c3d33188dcc029345883d4203eb66463af474264ec",
    ),
    "brownian_t": (
        {"interval": [0.0, 1.0], "lambda": {"kind": "zero"}, "rho": {"kind": "identity"},
         "mc": {"paths": 600, "seed": 20261018},
         "grid": {"points": 1025, "scale": "t"}},
        "dae034fe54251687f03d056546e300cb8f2bf73e7edb63ceb46b6b8d87a3debf",
        "77d819e04cca5000d7dbb28403134ac5af88d5e39055db7f9946f063db41c25d",
    ),
    "three_paths": (
        {"interval": [0.0, 1.0], "lambda": {"kind": "zero"}, "rho": {"kind": "identity"},
         "mc": {"paths": 3, "seed": 20261018},
         "grid": {"points": 1025, "scale": "t"}},
        "44d3122e92deca36871a2722d35a14106bf987c0086f710491c6ff0ae2e01ca5",
        "bbf6d317482a815ead1c63dd6a7fe4051e49dd1d680ca261fb697df7f5408427",
    ),
}

#: (config, CHUNK_DRAWS or None for the default, forced core count).
STREAMED_CASES = [
    ("cantor_rho", None, 1), ("cantor_rho", None, 2), ("cantor_rho", None, 3),
    ("brownian_t", None, 1), ("brownian_t", None, 2), ("brownian_t", None, 3),
    ("brownian_t", 1, 1), ("brownian_t", 1, 3),                # one path per chunk
    ("brownian_t", 2**40, 1), ("brownian_t", 2**40, 2),        # one chunk per range
    ("three_paths", None, 4),                                  # fewer paths than cores
]


def assert_golden(tmp_path, name: str):
    """Run simulate on STREAMED_GOLDEN's config `name`; its outputs must
    have the golden digests."""
    config, csv_digest, bundle_digest = STREAMED_GOLDEN[name]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
    assert hashlib.sha256((out / "paths.csv").read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256((out / "bundle.json").read_bytes()).hexdigest() == bundle_digest
    assert sorted(os.listdir(out)) == ["bundle.json", "manifest.json", "paths.csv"]
    assert_no_child_left()


class TestStreamedSimulate:
    @pytest.mark.parametrize(
        "name,chunk_draws,parts", STREAMED_CASES,
        ids=[f"{name}-{draws}" + (f"-parts{parts}" if parts > 1 else "")
             for name, draws, parts in STREAMED_CASES])
    def test_bytes_match_golden(self, tmp_path, monkeypatch, name, chunk_draws, parts):
        config = STREAMED_GOLDEN[name][0]
        monkeypatch.setattr("yehsim.config.TOOL_VERSION", "0.3.0")
        force_parts(monkeypatch, parts)
        points, paths = config["grid"]["points"], config["mc"]["paths"]
        if chunk_draws is None:
            # each range spans several default chunks, the last one partial
            rows = process.CHUNK_DRAWS // (points - 1)
            sizes = [hi - lo for lo, hi in process.stream_ranges(paths)]
            assert all(size > 2 * rows and size % rows for size in sizes) or paths < parts
        else:
            monkeypatch.setattr(process, "CHUNK_DRAWS", chunk_draws)
        assert_golden(tmp_path, name)

    @pytest.mark.parametrize("name", sorted(STREAMED_GOLDEN))
    @pytest.mark.parametrize("block", ["path", "odd"])
    def test_bytes_match_golden_at_any_block(self, tmp_path, monkeypatch, name, block):
        # blocks of one path, and of 7 paths, which divide neither default
        # chunk height (128 and 64 paths) nor the ranges of two parts
        config = STREAMED_GOLDEN[name][0]
        points = config["grid"]["points"]
        monkeypatch.setattr("yehsim.config.TOOL_VERSION", "0.3.0")
        monkeypatch.setattr(encode, "_BLOCK_VALUES", points if block == "path" else 7 * points + 5)
        force_parts(monkeypatch, 2)
        assert_golden(tmp_path, name)

    def test_drift_evaluated_once_per_run(self, tmp_path, monkeypatch):
        # every part's chunk loop is made before the fork, so the drift is
        # evaluated in the parent only; a call in a child is counted too
        from yehsim.stieltjes import MeanFunction

        calls = tmp_path / "calls"
        original = MeanFunction.__call__

        def counting(self, t):
            with calls.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return original(self, t)

        monkeypatch.setattr(process, "CHUNK_DRAWS", 1)  # one path per chunk
        monkeypatch.setattr(MeanFunction, "__call__", counting)
        force_parts(monkeypatch, 3)
        counts = []
        for paths in (3, 30):
            cfg = parse_config({"lambda": {"kind": "cantor"}, "mc": {"paths": paths},
                                "grid": {"points": 17}}, {})
            calls.write_text("")
            cli.cmd_simulate(cfg, tmp_path / str(paths))
            pids = calls.read_text().split()
            assert set(pids) == {str(os.getpid())}
            counts.append(len(pids))
        assert counts[0] == counts[1], counts

    def test_peak_memory_flat_in_path_count(self, tmp_path, monkeypatch):
        # the peak of each part: the forked child reports its own as it exits
        monkeypatch.setattr(process, "CHUNK_DRAWS", 64 * 10)  # 10 paths per chunk
        force_parts(monkeypatch, 2)
        child_peaks = tmp_path / "child_peaks"
        real_exit = os._exit

        def exit_reporting_peak(code):
            with child_peaks.open("a") as fh:
                fh.write(f"{tracemalloc.get_traced_memory()[1]}\n")
            real_exit(code)

        monkeypatch.setattr(os, "_exit", exit_reporting_peak)
        peaks = []
        for paths in (50, 500):
            cfg = parse_config({"mc": {"paths": paths}, "grid": {"points": 65}}, {})
            child_peaks.write_text("")
            tracemalloc.start()
            try:
                cli.cmd_simulate(cfg, tmp_path / str(paths))
                parent = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            children = [int(peak) for peak in child_peaks.read_text().split()]
            assert len(children) == 1
            peaks.append([parent, *children])
        for small, large in zip(*peaks):
            assert large < 1.5 * small, peaks


#: A drift with lambda(a) = -0.0, so that every path starts at -0.0.
NEGATIVE_ZERO_START = {
    "lambda": {"kind": "piecewise", "knots": [0.0, 0.5, 1.0], "values": [-0.0, 0.3, -0.2]},
    "rho": {"kind": "power", "exponent": 2.0},
    "mc": {"paths": 7, "seed": 99}, "grid": {"points": 17, "scale": "rho"},
}

#: A steep drift on a Brownian rho: every path starts at 0 and ends above
#: 2**51, so its values cross both edges of the encoder's fast range.
MIXED_RANGE = {
    "lambda": {"kind": "linear", "slope": 3e15},
    "rho": {"kind": "identity"},
    "mc": {"paths": 7, "seed": 99}, "grid": {"points": 17},
}


def simulate_split(tmp_path, monkeypatch, parts: int, config: dict,
                   path_blocks: bool = False) -> Path:
    """Run simulate on config, of 17 grid points, in `parts` ranges of
    3-path chunks, encoded in blocks of one path if path_blocks."""
    monkeypatch.setattr(process, "CHUNK_DRAWS", 16 * 3)
    if path_blocks:
        monkeypatch.setattr(encode, "_BLOCK_VALUES", 17)
    force_parts(monkeypatch, parts)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / f"out{parts}"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
    assert_no_child_left()
    return out


#: TestFormatOnce's (config, forced core count, blocks of one path) cases;
#: NEGATIVE_ZERO_START's ids are the bare core counts.
FORMAT_CASES = [pytest.param(config, parts, path_blocks,
                             id=f"{name}{parts}" + ("-path_blocks" if path_blocks else ""))
                for path_blocks in (False, True)
                for name, config in (("", NEGATIVE_ZERO_START), ("mixed_range-", MIXED_RANGE))
                for parts in ((1, 2, 3) if not path_blocks else (1, 2))]


class TestFormatOnce:
    @pytest.mark.parametrize("config, parts, path_blocks", FORMAT_CASES)
    def test_bundle_rows_are_the_csv_value_strings(self, tmp_path, monkeypatch,
                                                   config, parts, path_blocks):
        out = simulate_split(tmp_path, monkeypatch, parts, config, path_blocks)
        text = (out / "bundle.json").read_text()
        body = text[text.rindex('"paths":[[') + len('"paths":[['):text.rindex("]]")]
        rows = body.split("],[")
        column = [line.split(",")[2] for line in
                  (out / "paths.csv").read_text().splitlines()[2:]]
        points = config["grid"]["points"]
        cfg = parse_config(config, {})
        assert len(rows) == config["mc"]["paths"]
        for k, row in enumerate(rows):
            assert row.split(",") == column[k * points:(k + 1) * points]
            assert row.startswith(cli._fmt(cfg.lam(cfg.interval.a)) + ",")

    @pytest.mark.parametrize("config, parts, path_blocks", FORMAT_CASES)
    def test_bundle_values_are_the_value_matrix(self, tmp_path, monkeypatch,
                                                config, parts, path_blocks):
        out = simulate_split(tmp_path, monkeypatch, parts, config, path_blocks)
        # json reads a whole number as an int; as a float "-0" keeps its sign
        bundle = json.loads((out / "bundle.json").read_text(), parse_int=float)
        cfg = parse_config(config, {})
        grid = make_grid(cfg.interval, cfg.grid_points, cfg.grid_scale, rho=cfg.rho)
        want = process.increment_value_matrix(YehSpec(cfg.lam, cfg.rho), grid,
                                              cfg.seed, cfg.paths)
        got = np.array(bundle["paths"], dtype=float)
        assert np.array_equal(np.array(bundle["grid"], dtype=float), grid)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        if config is MIXED_RANGE:
            fast = (np.abs(want) >= 1e-4) & (np.abs(want) < 2.0**51)
            assert fast.any() and (want == 0).any() and (want >= 2.0**51).any()


def percent_17g(values) -> list[bytes]:
    return [b"%.17g" % v for v in np.asarray(values, dtype=float).ravel().tolist()]


def texts_17g(values) -> list[bytes]:
    """encode_17g's texts of values: its cells without their NULs."""
    cells = encode_17g(np.asarray(values, dtype=float))
    assert cells.shape == (np.size(values), encode._CELL) and cells.dtype == np.uint8
    return [row[row != 0].tobytes() for row in cells]


class TestEncode:
    """encode_17g gives Python's %.17g text of every double, bit for bit."""

    EDGES = [
        0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
        1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1),
        2.0**51, np.nextafter(2.0**51, 0), np.nextafter(2.0**51, np.inf),
        *np.nextafter(10.0 ** np.arange(-4, 17), 0), *10.0 ** np.arange(-4, 17),
        # ties at the 17th digit, rounded half to even
        1234567890123456.25, 1234567890123456.75, -1234567890123456.25,
    ]

    def test_edges(self):
        values = np.array(self.EDGES)
        assert texts_17g(values) == percent_17g(values)
        assert texts_17g([-0.0, 0.0]) == [b"-0", b"0"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=40))
    def test_any_finite_double(self, values):
        assert texts_17g(values) == percent_17g(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=1e-4, max_value=2.0**51, exclude_max=True),
                    min_size=1, max_size=40),
           st.booleans())
    def test_any_double_in_the_fast_range(self, values, negate):
        values = -np.array(values) if negate else np.array(values)
        assert texts_17g(values) == percent_17g(values)

    def test_drawn_doubles(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([
            bits[np.isfinite(bits)],
            # from 2**49 to 2**51 the ulp is 1/16 to 1/4: many 17th digits tie
            rng.integers(2**51, 2**53, 20000) / 4.0 * rng.choice([-1.0, 1.0], 20000),
            rng.standard_normal((20, 513)).cumsum(axis=1).ravel(),
            rng.standard_normal(20000) * 10.0 ** rng.integers(-6, 18, 20000)])
        assert texts_17g(values) == percent_17g(values)

    def test_working_set_bounded_by_the_block(self):
        # write_rows holds one block's temporaries at a time: 1.12 MB over a
        # chunk of the default height, 128 paths of 513 points, with numpy
        # 2.4 (3.6 MB when each text was a Python bytes object; 15 MB in
        # blocks of 2**15 values), bounded here at 1.3 MB, and no more over
        # four such chunks.  The chunks, paths of the benchmark's simulate
        # workload, are drawn, and the sinks discard, outside the traced peak.
        cfg = parse_config({"lambda": {"kind": "cantor", "depth": 64},
                            "rho": {"kind": "power", "exponent": 2.0},
                            "mc": {"paths": 128, "seed": 7},
                            "grid": {"points": 513, "scale": "rho"}}, {})
        grid = make_grid(cfg.interval, cfg.grid_points, cfg.grid_scale, rho=cfg.rho)
        values = process.increment_value_matrix(YehSpec(cfg.lam, cfg.rho), grid,
                                                cfg.seed, cfg.paths)
        times = [f",{cli._fmt(t)},".encode() for t in grid]
        peaks = []
        for chunks in ([(0, values)], [(k0, values) for k0 in range(0, 512, 128)]):
            tracemalloc.start()
            try:
                write_rows(0, chunks, times, len, len)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 1.3e6, peaks
        assert abs(peaks[1] - peaks[0]) < 0.02 * peaks[0], peaks

    def test_no_python_object_per_value(self):
        # the live Python objects while a block's bytes are in hand: a block
        # of 15 paths of 513 points (2**13 values) holds as many as a block
        # of one path, give or take a few, not one or more per value.  Each
        # path starts at an exact zero and reaches both ends of the fast
        # range.  The sink keeps a running max, so it allocates nothing.
        rng = np.random.default_rng(11)
        values = rng.standard_normal((15, 513)).cumsum(axis=1) * 10.0 ** rng.integers(-6, 17, 513)
        values[:, 0] = 0.0
        times = [b",%d," % j for j in range(513)]
        peaks = []
        for paths in (1, 15):
            peak = [0]

            def sink(data, peak=peak):
                peak[0] = max(peak[0], sys.getallocatedblocks())

            write_rows(0, [(0, values[:paths])], times, sink, sink)
            peaks.append(peak[0])
        assert abs(peaks[1] - peaks[0]) < 100, peaks


def test_memory_error_in_a_part_exits_2(tmp_path, brownian_config, monkeypatch, capsys):
    parent = os.getpid()
    real = process.normal_matrix

    def exhausted(*args, **kwargs):
        if os.getpid() != parent:
            raise MemoryError
        return real(*args, **kwargs)

    monkeypatch.setattr(process, "normal_matrix", exhausted)
    monkeypatch.setattr(process, "FORK_DRAWS", 1)
    force_parts(monkeypatch, 2)
    for argv in (["simulate"], ["verify", "--suite", "moments"]):
        code = run_cli(*argv, "--config", str(brownian_config), "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory;"), err
        assert "Traceback" not in err
        assert_no_child_left()


def test_killed_part_exits_2(tmp_path, brownian_config, monkeypatch, capsys):
    # a part that a signal ends, as the OOM killer ends one, sends no reply
    parent = os.getpid()
    real = process.normal_matrix

    def killed(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(process, "normal_matrix", killed)
    monkeypatch.setattr(process, "FORK_DRAWS", 1)
    force_parts(monkeypatch, 2)
    for argv in (["simulate"], ["verify", "--suite", "moments"]):
        code = run_cli(*argv, "--config", str(brownian_config), "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == ("error: the process drawing streams [5, 10) "
                                           f"was killed by signal {int(signal.SIGKILL)}\n")
        assert_no_child_left()


# The digests below were first taken at version 0.4.0, as each comment says,
# and re-taken at 0.5.0, when the config lost its debug section: every output
# at 0.4.0 and 0.5.0 matches at 1 and 2 BLAS threads once config_hash,
# manifest_hash and version are masked.  They were re-taken at 0.6.0, when the
# Monte Carlo rows moved to the integrands' own partition and the exact law of
# what they drew: there only those verify rows moved and the series_truncation
# rows were added, and expand matches 0.5.0 once the hashes and version are
# masked.  They were re-taken at 0.7.0, when a step function became 0 outside
# its partition, at 0.8.0, when the series suite stopped taking a pair at
# grid index 0, and at 0.9.0, when the single-term defect row moved midway
# between the two middle grid points (only even grids move; every grid here
# is odd): each time every golden output matched the previous version at 1
# and 2 BLAS threads once the hashes and version were masked.  They were
# re-taken at 0.10.0, when expand began to draw its family from the normals
# of the centered stream and the counterexample_mc_drift rows began to expect
# the exact mean of the drawn restricted step: with the hashes and version
# masked, only those two verify rows' expected values and expansion.csv's
# target and partial_sum columns moved (by at most 2.3e-15; its defect
# column kept its bits), at 1 and 2 BLAS threads.
# Since 0.11.0 they are taken with version 0.10.0 pinned in the manifest
# (GOLDEN_VERSION), so they were kept, not re-taken, when the version moved.
# VERIFY_GOLDEN and CANTOR_VERIFY_GOLDEN were re-taken at 0.12.0, which drops
# the three gaussian_ks_half rows: with GOLDEN_VERSION pinned, the parent's
# verify_all.csv gave the old digests and lost exactly those three lines, at
# 1 and 2 BLAS threads.  VERIFY_GOLDEN, CANTOR_VERIFY_GOLDEN and
# HAAR_MASS_GOLDEN["verify"] were re-taken at 0.13.0, which keys every suite
# draw by the manifest seed and gives each Monte Carlo check family its own
# block of streams: with GOLDEN_VERSION pinned, only the rows of the families
# that left streams [0, paths) of their old seeds moved (the gaussian_ks,
# series_cov, series_expansion_gap, martingale_mc_centered_drift and
# counterexample_mc_drift rows), at 1 and 2 BLAS threads; the moments rows,
# on block 0, the truth-table rows, whose bytes hold only a verdict, and every
# exact row kept their bytes.  VERIFY_GOLDEN and CANTOR_VERIFY_GOLDEN were
# re-taken at 0.14.0, where the kernel draws the centered integrals and
# returns their mean once, and a truth-table row observes its instance's
# total drift and expects the sign its verdict requires: with GOLDEN_VERSION
# pinned, at 1 and 2 BLAS threads, the eight truth-table rows moved in both,
# and counterexample_mc_drift rows in their last bits (quarter_half in
# VERIFY_GOLDEN, both in the Cantor-drift digest, where moments_mean_f moved
# in its last bits too and the moments_second_* rows became covariance rows).  HAAR_MASS_GOLDEN, whose
# series rows draw under zero drift, and every expand digest kept their
# bytes.

#: SHA-256 of verify_all.csv for acceptance criterion 9's config, first taken
#: when the suites moved onto the functional sampler.
VERIFY_GOLDEN = (
    {"mc": {"paths": 2000, "seed": 12345}, "grid": {"points": 257}, "series": {"N": 64}},
    "d5f03823b38d641266742e58b6d13cb7ff9935841e8a6f2415b43412a5b05d6f",
)

#: SHA-256 of verify_all.csv for configs/cantor.json cut down to 500 paths,
#: 129 points and N = 32, and of expansion.csv for each shipped config, first
#: taken before the suites were split into batteries and adapters.
CANTOR_VERIFY_GOLDEN = "4ef52c6c9cc288258dde6ae912d0026b19ee2eab89122dfb5e25cca4a3f9687f"
EXPAND_GOLDEN = {
    "brownian": "49deaa7c69990c95d3c4baaef81f226d139edebb6bd4b2904841091c7d6da0c7",
    "cantor": "949b32f0d86722da3d9bf75f38b4bb4be9a7dd165fde487a654126be91b9b497",
    "poly": "eb7fde5ce6fbf64120e80e449d58cd0646444192f40bddf2c73240ea8b9bf430",
    "basis": "2dbea97cd59113e8278c87472e4cf4cb878373fe162bff649570c6462deabdd6",
}
#: Configs of EXPAND_GOLDEN that are not shipped: a poly integrand and a basis
#: member, whose coefficients and rho-norm take the quadrature route of
#: funcspace.stieltjes_integral.  Their digests were first taken at 0.11.0,
#: before the integrand wrapper class was removed, with GOLDEN_VERSION pinned.
EXPAND_CONFIGS = {
    "poly": {"rho": {"kind": "piecewise", "knots": [0, 0.5, 1], "values": [0, 0.3, 1]},
             "integrand": {"kind": "poly", "coeffs": [0.2, -1, 3]},
             "mc": {"paths": 100, "seed": 5}, "grid": {"points": 257},
             "series": {"N": 64, "family": "haar"}},
    "basis": {"rho": {"kind": "power", "exponent": 2.0},
              "integrand": {"kind": "basis", "index": 3},
              "mc": {"seed": 5}, "grid": {"points": 129}, "series": {"N": 16}},
}

#: A Haar basis on a piecewise rho of mass 1.3 over [0, 2] (every config
#: above has rho mass 1), and the SHA-256 of verify_series.csv and of
#: expansion.csv for it, first taken before the basis evaluators were
#: broadcast over the member index.
HAAR_MASS_CONFIG = {
    "interval": [0.0, 2.0], "lambda": {"kind": "linear", "slope": -0.5},
    "rho": {"kind": "piecewise", "knots": [0.0, 0.3, 1.0, 2.0],
            "values": [0.0, 0.2, 0.9, 1.3]},
    "integrand": {"kind": "step", "partition": [0.0, 0.5, 1.25, 2.0],
                  "values": [0.7, -1.3, 2.1]},
    "mc": {"paths": 400, "seed": 2024}, "grid": {"points": 257},
    "series": {"N": 48, "family": "haar"},
}
HAAR_MASS_GOLDEN = {
    "verify": ("verify_series.csv",
               "1b35b3ec6028b7586586b55382e0f4283089c04bcb3220a450621c85cd619ce5"),
    "expand": ("expansion.csv",
               "4a03d84a2e7d3ec201cd15edb13b0f0b3f2cc398a5e13d0b33d8a53d8f2ddd3c"),
}


#: The version the digests below pin in the manifest, so that a version bump
#: alone does not move them.
GOLDEN_VERSION = "0.10.0"
PINNED_CLI = ("import sys, yehsim.config\n"
              f"yehsim.config.TOOL_VERSION = {GOLDEN_VERSION!r}\n"
              "from yehsim.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")


def cli_digest(tmp_path, threads: str, output: str, *argv) -> str:
    """SHA-256 of `output` from the yehsim CLI run with ARGV --out DIR at the
    given BLAS thread count, with GOLDEN_VERSION in the manifest."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("YEH_SEED", None)
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", PINNED_CLI, *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256((out / output).read_bytes()).hexdigest()


class TestVerify:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bytes_match_golden_at_blas_threads(self, tmp_path, threads):
        config, digest = VERIFY_GOLDEN
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        assert cli_digest(tmp_path, threads, "verify_all.csv", "verify", "--suite", "all",
                          "--config", str(cfg_path)) == digest

    @pytest.mark.parametrize("parts", [2, 3])
    def test_bytes_match_golden_at_forced_parts(self, tmp_path, monkeypatch, parts):
        # every sampler call forks, whatever its size
        monkeypatch.setattr("yehsim.config.TOOL_VERSION", GOLDEN_VERSION)
        monkeypatch.setattr(process, "FORK_DRAWS", 1)
        force_parts(monkeypatch, parts)
        config, digest = VERIFY_GOLDEN
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("verify", "--suite", "all", "--config", str(cfg_path),
                       "--out", str(out)) == 0
        assert hashlib.sha256((out / "verify_all.csv").read_bytes()).hexdigest() == digest
        assert_no_child_left()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_cantor_bytes_match_golden_at_blas_threads(self, tmp_path, threads):
        assert cli_digest(tmp_path, threads, "verify_all.csv", "verify", "--suite", "all",
                          "--config", str(CONFIGS / "cantor.json"), "--paths", "500",
                          "--grid", "129", "--truncation", "32") == CANTOR_VERIFY_GOLDEN

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command", sorted(HAAR_MASS_GOLDEN))
    def test_haar_rho_mass_bytes_match_golden(self, tmp_path, command, threads):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(HAAR_MASS_CONFIG))
        suite = ["--suite", "series"] if command == "verify" else []
        output, digest = HAAR_MASS_GOLDEN[command]
        assert cli_digest(tmp_path, threads, output, command, *suite,
                          "--config", str(cfg_path)) == digest

    @pytest.mark.parametrize("points", [17, 3, 2, 4])
    def test_coarse_grid_haar_config_passes(self, tmp_path, points):
        # the expansion gap drawn on a coarse grid is not the exact members'
        # gap: its rows must expect the mean square of what was drawn, not the
        # Parseval defect, or this config fails with nothing wrong
        cfg_path = tmp_path / "coarse.json"
        cfg_path.write_text(json.dumps({
            "grid": {"points": points}, "series": {"N": 8, "family": "haar"},
            "rho": {"kind": "piecewise", "knots": [0, 0.5, 1], "values": [0, 0.3, 1]},
            "lambda": {"kind": "linear", "slope": -2}, "mc": {"paths": 150, "seed": 7}}))
        out = tmp_path / "out"
        assert run_cli("verify", "--suite", "all", "--config", str(cfg_path),
                       "--out", str(out)) == 0
        rows = read_rows(out / "verify_all.csv")
        assert all(r["pass"] == "true" for r in rows)
        names = [r["check"] for r in rows]
        assert len(set(names)) == len(names)
        # a covariance pair at s = a has tolerance 0 and checks nothing
        cov = [r for r in rows if r["check"].startswith("series_cov_")]
        assert cov and all(float(r["tolerance"]) > 0 for r in cov)
        # the single-term defect sits midway between the two middle grid
        # points: t = 0.5 on 2 and 4 points, where rho = 0.3; at b it is 0
        single, = [r for r in rows if r["check"] == "series_defect_single_term_midpoint"]
        assert float(single["expected"]) > 0
        if points % 2 == 0:
            assert float(single["expected"]) == pytest.approx(0.3 * 0.7, abs=1e-15)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_tolerance_fails(self, tmp_path):
        # on [0, 1e200] the second moments are about 1e200: their 4-SE
        # tolerances overflow to inf, which bounds nothing
        cfg_path = tmp_path / "huge.json"
        cfg_path.write_text(json.dumps({"interval": [0.0, 1e200], "mc": {"paths": 200},
                                        "grid": {"points": 33}, "series": {"N": 16}}))
        out = tmp_path / "out"
        assert run_cli("verify", "--config", str(cfg_path), "--out", str(out)) == 1
        named = [r for r in read_rows(out / "verify_all.csv") if r["check"].startswith(
            ("moments_second_", "series_cov_", "series_expansion_gap_"))]
        assert len(named) == 8
        assert all(r["tolerance"] == "inf" and r["pass"] == "false" for r in named)

    def test_counterexample_suite_rows(self, tmp_path, brownian_config):
        out = tmp_path / "out"
        assert run_cli("verify", "--suite", "counterexample",
                       "--config", str(brownian_config), "--out", str(out)) == 0
        rows = read_rows(out / "verify_counterexample.csv")
        by_name = {r["check"]: r for r in rows}
        drift1 = by_name["counterexample_drift_quarter_half"]
        drift2 = by_name["counterexample_drift_quarter_threequarter"]
        assert float(drift1["expected"]) == pytest.approx(-1 / 24, abs=1e-16)
        assert float(drift2["expected"]) == pytest.approx(1 / 24, abs=1e-16)
        # the Monte Carlo rows expect the exact mean of the restricted step drawn
        from yehsim import Interval, MeanFunction, stieltjes_integral
        from yehsim.verify import MIXED_SIGN_STEP

        lam = MeanFunction.linear(Interval(0.0, 1.0), 1.0)
        for name, t in (("quarter_half", 0.5), ("quarter_threequarter", 0.75)):
            assert float(by_name[f"counterexample_mc_drift_{name}"]["expected"]) == \
                stieltjes_integral(MIXED_SIGN_STEP.restrict(0.25, t), lam)
        assert all(r["pass"] == "true" for r in rows)

    def test_moments_suite_brownian(self, tmp_path, brownian_config):
        out = tmp_path / "out"
        assert run_cli("verify", "--suite", "moments", "--config",
                       str(brownian_config), "--out", str(out),
                       "--paths", "2000") == 0
        rows = read_rows(out / "verify_moments.csv")
        assert all(r["pass"] == "true" for r in rows)

    def test_corrupted_seed_reuse_fails(self, tmp_path, monkeypatch):
        # every sampler draws through process.normal_matrix: make each chunk
        # repeat its first stream, and every stochastic suite must notice
        original = process.normal_matrix

        def reused(seed, n_streams, n_draws, first_index=0, out=None):
            out[:] = original(seed, 1, n_draws, first_index)
            return out

        monkeypatch.setattr(process, "normal_matrix", reused)
        cfg_path = tmp_path / "corrupt.json"
        cfg_path.write_text(json.dumps({
            "mc": {"paths": 500, "seed": 12345},
            "grid": {"points": 33},
            "series": {"N": 32},
        }))
        out = tmp_path / "out"
        code = run_cli("verify", "--suite", "all", "--config", str(cfg_path),
                       "--out", str(out))
        assert code == 1
        failed = {r["check"].split("_")[0] for r in read_rows(out / "verify_all.csv")
                  if r["pass"] == "false"}
        assert failed == set(SUITE_NAMES)

    def test_all_suites_round_trip_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "mc": {"paths": 500, "seed": 12345},
            "grid": {"points": 65},
            "series": {"N": 32},
        }))
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert run_cli("verify", "--suite", "all", "--config",
                           str(cfg_path), "--out", str(out)) == 0
            outs.append(out)
        for fname in ("verify_all.csv", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_env_seed_override(self, tmp_path, brownian_config, monkeypatch):
        out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
        run_cli("verify", "--suite", "counterexample", "--config",
                str(brownian_config), "--out", str(out1))
        monkeypatch.setenv("YEH_SEED", "999")
        run_cli("verify", "--suite", "counterexample", "--config",
                str(brownian_config), "--out", str(out2))
        # the flag beats the environment
        run_cli("verify", "--suite", "counterexample", "--config",
                str(brownian_config), "--out", str(out3), "--seed", "12345")
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m3 = json.loads((out3 / "manifest.json").read_text())
        assert m1["manifest"]["seed"] == 12345
        assert m2["manifest"]["seed"] == 999
        assert m3["manifest"]["seed"] == 12345

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_top_seed_runs_every_suite(self, tmp_path, capsys, suite):
        cfg_path = tmp_path / "top.json"
        cfg_path.write_text(json.dumps({"mc": {"paths": 100, "seed": 2**64 - 1},
                                        "grid": {"points": 9}}))
        out = tmp_path / "out"
        code = run_cli("verify", "--suite", suite, "--config", str(cfg_path),
                       "--out", str(out))
        assert code in (0, 1)
        assert "Traceback" not in capsys.readouterr().err
        assert read_rows(out / f"verify_{suite}.csv")

    def test_suite_looked_up_at_call_time(self, monkeypatch):
        # a wrapper set on the module attribute, as a tracer sets it, is the
        # function that runs
        from yehsim import verify

        calls = []

        def wrapper(cfg):
            calls.append(cfg)
            return original(cfg)

        original = verify.moments_suite
        monkeypatch.setattr(verify, "moments_suite", wrapper)
        cfg = parse_config({"mc": {"paths": 20}, "grid": {"points": 9}}, {})
        assert verify.run_suite("moments", cfg) == original(cfg)
        assert calls == [cfg]

    def test_every_row_passes_when_the_drift_dwarfs_the_variance(self):
        # the CI's sim-mixed config, lambda(t) = 3e15 t on rho(t) = t: the
        # drift enters each row once, as the kernel's drawn mean, so it
        # neither quantizes the KS rows' samples nor swamps the covariance
        from yehsim import verify

        cfg = parse_config({"lambda": {"kind": "linear", "slope": 3e15},
                            "rho": {"kind": "identity"}, "mc": {"paths": 2600, "seed": 3},
                            "grid": {"points": 513}}, {})
        rows = verify.run_suite("all", cfg)
        assert [(r.check, r.observed) for r in rows if not r.passed] == []

    def test_gaussian_suite_rows(self):
        # no half-indicator rows: drawn alone, each repeated the full row's KS
        from yehsim import verify

        cfg = parse_config({"mc": {"paths": 20}, "grid": {"points": 9}}, {})
        assert [r.check for r in verify.gaussian_suite(cfg)] == [
            f"gaussian_ks_{name}_seed{k}" for name in ("full", "mixed") for k in range(3)]

    def test_check_families_share_no_stream(self, monkeypatch):
        # every draw of every suite at two adjacent seeds, recorded as (key,
        # first stream, end stream, suite): no stream of a key may be drawn
        # twice, by two check families of one run or by the runs of two seeds
        from yehsim import verify

        draws = []

        def recorder(real):
            def record(seed, n_streams, n_draws, first_index=0, out=None):
                draws.append((seed, first_index, first_index + n_streams, suite))
                return real(seed, n_streams, n_draws, first_index, out)
            return record

        monkeypatch.setattr(process, "normal_matrix", recorder(process.normal_matrix))
        monkeypatch.setattr(verify, "_uniform_matrix", recorder(verify._uniform_matrix))
        monkeypatch.setattr(process, "FORK_DRAWS", 2**62)  # every draw in this process
        for seed in (41, 42):
            cfg = parse_config({"mc": {"paths": 50, "seed": seed}, "grid": {"points": 9},
                                "series": {"N": 8}}, {})
            for suite in SUITE_NAMES:
                verify.run_suite(suite, cfg)
        assert {where for *_, where in draws} == set(SUITE_NAMES)
        overlaps, reach = [], {}
        for key, lo, hi, where in sorted(draws):
            end, last = reach.get(key, (0, None))
            if lo < end:
                overlaps.append((key, lo, where, last))
            if hi > end:
                reach[key] = (hi, where)
        assert not overlaps, overlaps

    def test_bad_env_seed(self, tmp_path, brownian_config, monkeypatch, capsys):
        monkeypatch.setenv("YEH_SEED", "not-a-number")
        code = run_cli("verify", "--suite", "counterexample", "--config",
                       str(brownian_config), "--out", str(tmp_path / "out"))
        assert code == 2


class TestExpand:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(EXPAND_GOLDEN))
    def test_bytes_match_golden_at_blas_threads(self, tmp_path, name, threads):
        cfg_path = CONFIGS / f"{name}.json"
        if name in EXPAND_CONFIGS:
            cfg_path = tmp_path / "c.json"
            cfg_path.write_text(json.dumps(EXPAND_CONFIGS[name]))
        assert cli_digest(tmp_path, threads, "expansion.csv", "expand",
                          "--config", str(cfg_path)) == EXPAND_GOLDEN[name]

    def test_quadrature_bytes_same_at_blas_threads(self, tmp_path):
        # a poly integrand takes the quadrature branch of the coefficients
        # and of the rho-norm
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "rho": {"kind": "piecewise", "knots": [0, 0.5, 1], "values": [0, 0.3, 1]},
            "integrand": {"kind": "poly", "coeffs": [0.2, -1, 3]},
            "mc": {"paths": 100, "seed": 5}, "grid": {"points": 257},
            "series": {"N": 64, "family": "haar"},
        }))
        digests = {cli_digest(tmp_path / threads, threads, "expansion.csv", "expand",
                              "--config", str(cfg_path)) for threads in ("1", "2")}
        assert len(digests) == 1

    def test_zero_truncation_rejected(self, tmp_path, brownian_config, capsys):
        code = run_cli("expand", "--config", str(brownian_config),
                       "--out", str(tmp_path / "out"), "--truncation", "0")
        assert code == 2
        assert "truncation must be >= 1" in capsys.readouterr().err

    def test_basis_member_defect_collapses(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "integrand": {"kind": "basis", "index": 3},
            "grid": {"points": 129},
            "series": {"N": 8},
            "mc": {"seed": 12345},
        }))
        out = tmp_path / "out"
        assert run_cli("expand", "--config", str(cfg_path), "--out", str(out)) == 0
        rows = read_rows(out / "expansion.csv")
        defects = [float(r["defect"]) for r in rows]
        assert defects[2] > 0.9  # before the member's own index
        assert abs(defects[3]) <= 1e-8  # exhausted at n = 4
        assert abs(defects[-1]) <= 1e-8

    def test_half_indicator_defects_match_closed_forms(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "integrand": {"kind": "indicator", "lo": 0.0, "hi": 0.5},
            "grid": {"points": 129},
            "series": {"N": 8},
        }))
        out = tmp_path / "out"
        assert run_cli("expand", "--config", str(cfg_path), "--out", str(out)) == 0
        rows = read_rows(out / "expansion.csv")
        from yehsim import BasisFamily, StepFunction, VarianceFunction, fourier_coeffs

        basis = BasisFamily(VarianceFunction.identity((0.0, 1.0)))
        half = StepFunction.indicator(0.0, 0.5, (0.0, 1.0))
        for row in rows:
            # the Parseval defect: ||f||_rho^2 = 1/2 less the squared coefficients
            coeffs = fourier_coeffs(half, basis, int(row["n"]))
            want = 0.5 - float(np.sum(coeffs**2))
            assert float(row["defect"]) == pytest.approx(want, abs=1e-12)

    def test_poly_integrand_accepted(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "integrand": {"kind": "poly", "coeffs": [0.0, 1.0]},
            "grid": {"points": 65},
            "series": {"N": 4},
        }))
        out = tmp_path / "out"
        assert run_cli("expand", "--config", str(cfg_path), "--out", str(out)) == 0
        rows = read_rows(out / "expansion.csv")
        assert len(rows) == 4

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_poly_coefficient_named(self, tmp_path, capsys, bad):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"integrand": {"kind": "poly",
                                                      "coeffs": [0.0, bad]}}))
        code = run_cli("expand", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "error: integrand: coeffs must be finite" in capsys.readouterr().err

    def test_partial_span_step_is_zero_outside(self, tmp_path):
        # a step partition need not span the interval: outside it the step is 0
        written = {}
        for name, partition, values in (("partial", [0.25, 0.5], [1.0]),
                                        ("full", [0.0, 0.25, 0.5, 1.0], [0.0, 1.0, 0.0])):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps({
                "integrand": {"kind": "step", "partition": partition, "values": values},
                "grid": {"points": 129}, "series": {"N": 8}}))
            out = tmp_path / name
            assert run_cli("expand", "--config", str(cfg_path), "--out", str(out)) == 0
            written[name] = (out / "expansion.csv").read_text().splitlines()[1:]
        assert written["partial"] == written["full"]
        assert written["full"][0].startswith("# target=")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", [["simulate"], ["verify", "--suite", "all"], ["expand"]])
@pytest.mark.parametrize("length", [1e200, 1e308])
def test_huge_interval_ends_without_traceback(tmp_path, capsys, command, length):
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps({"interval": [0.0, length], "mc": {"paths": 100},
                                    "grid": {"points": 17}, "series": {"N": 8}}))
    code = run_cli(*command, "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["verify", "--suite", "all"], ["expand"]])
@pytest.mark.parametrize("interval, points", [([1.0, 1.0000000000000002], 3),
                                              ([1.0, 1.0000000000000004], 2)])
def test_narrow_interval_names_the_interval(tmp_path, capsys, command, interval, points):
    # one and two ulps wide: the 3-point grid and the quarter points that
    # the suites cut the interval into both collapse
    cfg_path = tmp_path / "narrow.json"
    cfg_path.write_text(json.dumps({"interval": interval, "grid": {"points": points},
                                    "integrand": {"kind": "poly", "coeffs": [1.0]}}))
    code = run_cli(*command, "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: interval: ")


@pytest.mark.parametrize("argv", [["verify", "--suite", "moments", "--paths", "100000000000000"],
                                  ["expand", "--truncation", "100000000000000"]])
def test_size_beyond_memory_names_the_size_fields(tmp_path, argv):
    # the first array of either size (1.4 PiB of samples, 728 TiB of member
    # indices) exceeds the 128 TiB user address space, so its allocation
    # fails at once and commits no memory
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-m", "yehsim.cli", *argv,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    line, = proc.stderr.splitlines()
    assert line.startswith("error: ")
    assert all(field in line for field in ("mc.paths", "grid.points", "series.N"))


@pytest.mark.parametrize("command, code", [(["expand"], 2), (["verify", "--suite", "series"], 2),
                                           (["simulate"], 0), (["verify", "--suite", "all"], 2)])
def test_cosine_overflow_names_the_family(tmp_path, command, code):
    # on [0, 1e308] the cosine closed forms overflow (2 * rho(b) is not
    # finite): the basis commands end with the field and the rho mass named
    # and without a numpy warning, the moments suite that `verify --suite
    # all` runs first included; simulate uses no basis
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps({"interval": [0.0, 1e308]}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "yehsim.cli", *command,
                           "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                           "--paths", "20", "--grid", "17", "--truncation", "8"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    assert "Warning" not in proc.stderr
    if code:
        assert "series.family" in proc.stderr and "1e+308" in proc.stderr, proc.stderr


ALL_COMMANDS = (["simulate"], ["verify", "--suite", "all"], ["expand"])
#: (name, config, field the message starts with, commands it reaches): a
#: valid steep rho whose increments underflow to 0 on the grid, a polynomial
#: that overflows, a finite polynomial whose square, in the rho inner product
#: of two callables, overflows, the cosine basis on [0, 1e308] (simulate uses no basis;
#: test_cosine_overflow_names_the_family runs `verify --suite all` on it)
#: and an interval too narrow for its grid.
LIBRARY_ERRORS = [
    ("steep_rho", {"rho": {"kind": "power", "exponent": 200}, "grid": {"points": 1025}},
     "rho", ALL_COMMANDS),
    ("poly_overflow", {"integrand": {"kind": "poly", "coeffs": [1e308, 1e308]}},
     "integrand", (["expand"],)),
    ("poly_square_overflow", {"integrand": {"kind": "poly", "coeffs": [1e200]}},
     "integrand", (["expand"],)),
    ("cosine_overflow", {"interval": [0.0, 1e308], "grid": {"points": 17}},
     "series.family", (["verify", "--suite", "series"], ["expand"])),
    ("narrow", {"interval": [1.0, 1.0000000000000002], "grid": {"points": 3}},
     "interval", ALL_COMMANDS),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config, field, command", [
    pytest.param(config, field, command, id=f"{name}-{command[0]}")
    for name, config, field, commands in LIBRARY_ERRORS for command in commands])
def test_library_error_names_its_field(tmp_path, capsys, config, field, command):
    # every error a valid-looking config can reach ends with exit 2 and one
    # line that starts with the field, and no float warning before it
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code = run_cli(*command, "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--paths", "20", "--truncation", "8")
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1, err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path, brownian_config):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "yehsim.cli", "verify", "--suite",
             "counterexample", "--config", str(brownian_config),
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (out / "verify_counterexample.csv").exists()

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("verify", "--suite", "bogus", "--out", "x")
        assert excinfo.value.code == 2

    def test_entry_freezes_the_import_heap(self, tmp_path, brownian_config):
        # numpy's, scipy's and the package's objects, some 24,000, are
        # frozen before main() runs
        code, frozen, _ = run_entry("verify", "--suite", "counterexample", "--config",
                                    str(brownian_config), "--out", str(tmp_path / "out"))
        assert code == 0
        assert frozen >= 10_000

    @pytest.mark.parametrize("command", ["simulate", "expand"])
    def test_only_verify_loads_the_batteries(self, tmp_path, brownian_config, command):
        code, _, modules = run_entry(command, "--config", str(brownian_config),
                                     "--out", str(tmp_path / "out"))
        assert code == 0
        assert "yehsim.verify" not in modules

    def test_console_script_freezes_the_import_heap(self, tmp_path, brownian_config):
        # the `yehsim` script calls the function that pyproject.toml names
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["yehsim"]
        code, frozen, _ = run_entry("verify", "--suite", "counterexample", "--config",
                                    str(brownian_config), "--out", str(tmp_path / "out"),
                                    target=target)
        assert code == 0
        assert frozen >= 10_000

    def test_main_never_freezes(self, tmp_path, brownian_config):
        before = gc.get_freeze_count()
        assert run_cli("verify", "--suite", "counterexample", "--config",
                       str(brownian_config), "--out", str(tmp_path / "out")) == 0
        assert gc.get_freeze_count() == before


def run_entry(*argv, target=None):
    """Run the CLI in a new interpreter through its module entry, as `python
    -m yehsim.cli` does, or through a console script's target "module:function"
    if one is given: (exit code, gc freeze count, yehsim modules loaded)."""
    if target is None:
        call = "    runpy.run_module('yehsim.cli', run_name='__main__')\n    code = 0\n"
    else:
        module, function = target.split(":")
        call = f"    code = importlib.import_module({module!r}).{function}()\n"
    script = ("import gc, importlib, json, runpy, sys\n"
              "try:\n"
              f"{call}"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              "print(json.dumps([code, gc.get_freeze_count(),\n"
              "                  sorted(m for m in sys.modules if m.startswith('yehsim'))]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, frozen, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, frozen, modules
