"""Command-line front end: exit codes, outputs, reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from yehsim import cli, process
from yehsim.cli import main
from yehsim.config import parse_config
from yehsim.verify import SUITE_NAMES

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv):
    return main(list(argv))


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

    @pytest.mark.parametrize("bad", ["abc", None])
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
        code = run_cli("simulate", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unwritable_output_gives_io_exit(self, tmp_path, brownian_config,
                                             capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where a directory must go")
        code = run_cli("simulate", "--config", str(brownian_config),
                       "--out", str(blocker / "sub"))
        assert code == 3

    def test_unopenable_output_file_gives_io_exit(self, tmp_path, brownian_config,
                                                 capsys):
        out = tmp_path / "out"
        (out / "bundle.json").mkdir(parents=True)
        code = run_cli("simulate", "--config", str(brownian_config), "--out", str(out))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / 'bundle.json'}: ")
        assert "Traceback" not in err


#: SHA-256 of paths.csv and bundle.json.  Each config spans three chunks, the
#: last partial.  The test pins version 0.3.0 in the manifest, so a version
#: bump alone does not move the digests.  They were first written by the
#: one-shot writer that preceded chunked output, and re-taken at 0.5.0, when the
#: config lost its debug section; the outputs at 0.4.0 and 0.5.0 match at 1 and 2
#: BLAS threads once config_hash and manifest_hash are masked.
STREAMED_GOLDEN = {
    "cantor_rho": (
        {"interval": [0.0, 1.0], "lambda": {"kind": "cantor", "depth": 64},
         "rho": {"kind": "power", "exponent": 2.0},
         "mc": {"paths": 1100, "seed": 20261018},
         "grid": {"points": 513, "scale": "rho"}},
        "912373f4a68735f9add55d911d3ef2b12875fb7396b0620a3b9eb84a183cb558",
        "82e9f440453b114cf1f3c0acee1d2eb0e8ae0d680b0e1de82d63860177d42cdd",
    ),
    "brownian_t": (
        {"interval": [0.0, 1.0], "lambda": {"kind": "zero"}, "rho": {"kind": "identity"},
         "mc": {"paths": 600, "seed": 20261018},
         "grid": {"points": 1025, "scale": "t"}},
        "dae034fe54251687f03d056546e300cb8f2bf73e7edb63ceb46b6b8d87a3debf",
        "0553b7462b0ee29fb4c18678b6fa8508501292f299ad653270cc10ba8e1e97f8",
    ),
}


class TestStreamedSimulate:
    @pytest.mark.parametrize("name,chunk_draws", [
        ("cantor_rho", None),
        ("brownian_t", None),
        ("brownian_t", 1),          # one path per chunk
        ("brownian_t", 2**40),      # every path in one chunk
    ])
    def test_bytes_match_golden(self, tmp_path, monkeypatch, name, chunk_draws):
        config, csv_digest, bundle_digest = STREAMED_GOLDEN[name]
        monkeypatch.setattr("yehsim.config.TOOL_VERSION", "0.3.0")
        points, paths = config["grid"]["points"], config["mc"]["paths"]
        if chunk_draws is None:
            rows = process.CHUNK_DRAWS // (points - 1)
            assert 2 * rows < paths < 3 * rows
        else:
            monkeypatch.setattr(process, "CHUNK_DRAWS", chunk_draws)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
        assert hashlib.sha256((out / "paths.csv").read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256((out / "bundle.json").read_bytes()).hexdigest() == bundle_digest

    def test_drift_evaluated_once_per_run(self, tmp_path, monkeypatch):
        from yehsim.stieltjes import MeanFunction

        calls = []
        original = MeanFunction.__call__

        def counting(self, t):
            calls.append(t)
            return original(self, t)

        monkeypatch.setattr(process, "CHUNK_DRAWS", 1)  # one path per chunk
        monkeypatch.setattr(MeanFunction, "__call__", counting)
        counts = []
        for paths in (3, 30):
            cfg = parse_config({"lambda": {"kind": "cantor"}, "mc": {"paths": paths},
                                "grid": {"points": 17}}, {})
            calls.clear()
            cli.cmd_simulate(cfg, tmp_path / str(paths))
            counts.append(len(calls))
        assert counts[0] == counts[1], counts

    def test_peak_memory_flat_in_path_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(process, "CHUNK_DRAWS", 64 * 10)  # 10 paths per chunk
        peaks = []
        for paths in (50, 500):
            cfg = parse_config({"mc": {"paths": paths}, "grid": {"points": 65}}, {})
            tracemalloc.start()
            try:
                cli.cmd_simulate(cfg, tmp_path / str(paths))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


# The digests below were first taken at version 0.4.0, as each comment says,
# and re-taken at 0.5.0, when the config lost its debug section: every output
# at 0.4.0 and 0.5.0 matches at 1 and 2 BLAS threads once config_hash,
# manifest_hash and version are masked.  They were re-taken at 0.6.0, when the
# Monte Carlo rows moved to the integrands' own partition and the exact law of
# what they drew: there only those verify rows moved and the series_truncation
# rows were added, and expand matches 0.5.0 once the hashes and version are
# masked.  They were re-taken at 0.7.0, when a step function became 0 outside
# its partition: every golden output matches 0.6.0 at 1 and 2 BLAS threads
# once the hashes and version are masked.

#: SHA-256 of verify_all.csv for acceptance criterion 9's config, first taken
#: when the suites moved onto the functional sampler.
VERIFY_GOLDEN = (
    {"mc": {"paths": 2000, "seed": 12345}, "grid": {"points": 257}, "series": {"N": 64}},
    "e6e0dd19e2fcd7c61bd6c3b8a0f53ab430492c16a3a3d8d016d67d7cc430ac72",
)

#: SHA-256 of verify_all.csv for configs/cantor.json cut down to 500 paths,
#: 129 points and N = 32, and of expansion.csv for each shipped config, first
#: taken before the suites were split into batteries and adapters.
CANTOR_VERIFY_GOLDEN = "948b3da17f5a628ba657d101f1dbaf60a5559ab48d6b82d4b1973dd835d283d8"
EXPAND_GOLDEN = {
    "brownian": "87512b0cabf2a2a0642ca9fab7a8fa1a901ae6532e804cc1cf20c6e215cb36bb",
    "cantor": "a155c28a0a9ba68cd320c5f445257b68da96b1024757e74bac50ec1588770aba",
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
               "46def550df06b62e70336456d2ed6fc0b787f90dd9e60c175d4a91b4fc9ce921"),
    "expand": ("expansion.csv",
               "fddeca52efb467d60132530fd16e239bde82274d9712515295aa0806b47dadd4"),
}


def cli_digest(tmp_path, threads: str, output: str, *argv) -> str:
    """SHA-256 of `output` from `python -m yehsim.cli ARGV --out DIR` run at
    the given BLAS thread count."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("YEH_SEED", None)
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "yehsim.cli", *argv, "--out", str(out)],
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

    @pytest.mark.parametrize("points", [17, 2])
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

        def reused(seed, n_streams, n_draws, first_index=0):
            return np.tile(original(seed, 1, n_draws, first_index), (n_streams, 1))

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

    def test_bad_env_seed(self, tmp_path, brownian_config, monkeypatch, capsys):
        monkeypatch.setenv("YEH_SEED", "not-a-number")
        code = run_cli("verify", "--suite", "counterexample", "--config",
                       str(brownian_config), "--out", str(tmp_path / "out"))
        assert code == 2


class TestExpand:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(EXPAND_GOLDEN))
    def test_bytes_match_golden_at_blas_threads(self, tmp_path, name, threads):
        assert cli_digest(tmp_path, threads, "expansion.csv", "expand",
                          "--config", str(CONFIGS / f"{name}.json")) == EXPAND_GOLDEN[name]

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
        from yehsim import BasisFamily, StepFunction, VarianceFunction, parseval_defect

        basis = BasisFamily(VarianceFunction.identity((0.0, 1.0)))
        half = StepFunction.indicator(0.0, 0.5, (0.0, 1.0))
        for row in rows:
            want = parseval_defect(half, basis, int(row["n"]))
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


@pytest.mark.parametrize("command, code", [(["expand"], 2), (["verify", "--suite", "series"], 2),
                                           (["simulate"], 0)])
def test_cosine_overflow_names_the_family(tmp_path, command, code):
    # on [0, 1e308] the cosine closed forms overflow (2 * rho(b) is not
    # finite): the basis commands end with the field and the rho mass named
    # and without a numpy warning; simulate uses no basis
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
