"""Command-line front end: exit codes, outputs, reproducibility."""

import hashlib
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from yehsim import cli
from yehsim.cli import main
from yehsim.config import parse_config
from yehsim.verify import SUITE_NAMES


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
        "lambda", "rho", "integrand", "mc", "grid", "series", "quadrature", "debug",
    ])
    def test_non_object_section_named(self, tmp_path, capsys, section, bad):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({section: bad}))
        code = run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert f"{section}: must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,field", [
        ({"lambda": {"kind": "linear", "slope": float("nan")}}, "lambda.slope"),
        ({"lambda": {"kind": "piecewise", "knots": [0.0, 0.5, 1.0],
                     "values": [0.0, float("nan"), 1.0]}}, "lambda.values"),
        ({"rho": {"kind": "power", "exponent": float("inf")}}, "rho.exponent"),
        ({"lambda": {"kind": "cantor", "depth": 0}}, "lambda.depth"),
        ({"lambda": {"kind": "cantor", "depth": 10_000_000}}, "lambda.depth"),
        ({"interval": [0.0, 1e308]}, "rho.exponent"),
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
    ])
    def test_non_finite_step_integrand_named(self, tmp_path, capsys, partition,
                                             values, field):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"integrand": {
            "kind": "step", "partition": partition, "values": values}}))
        code = run_cli("expand", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert f"error: integrand: {field} must be finite" in capsys.readouterr().err

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


#: SHA-256 of paths.csv and bundle.json, written by the one-shot writer that
#: preceded chunked output.  Each config spans three chunks, the last partial.
STREAMED_GOLDEN = {
    "cantor_rho": (
        {"interval": [0.0, 1.0], "lambda": {"kind": "cantor", "depth": 64},
         "rho": {"kind": "power", "exponent": 2.0},
         "mc": {"paths": 1100, "seed": 20261018},
         "grid": {"points": 513, "scale": "rho"}},
        "d89eb5450ed21d0e977e3665782a99f934a999856b63e003d924b4dd6fae5ec7",
        "8db9cca01eefd5084f56f808893a6af4cf9c227137347e910262461d4070d802",
    ),
    "brownian_t": (
        {"interval": [0.0, 1.0], "lambda": {"kind": "zero"}, "rho": {"kind": "identity"},
         "mc": {"paths": 600, "seed": 20261018},
         "grid": {"points": 1025, "scale": "t"}},
        "404b76069e58da9165bae53c80f3c2b28e4891a69dd5925acc5b384d1e117798",
        "14b7776141723c720d4f8435d2d7c37713c48e8d277d265a871149299b6dc934",
    ),
}


class TestStreamedSimulate:
    @pytest.mark.parametrize("name,chunk_values", [
        ("cantor_rho", None),
        ("brownian_t", None),
        ("brownian_t", 1),          # one path per chunk
        ("brownian_t", 2**40),      # every path in one chunk
    ])
    def test_bytes_match_golden(self, tmp_path, monkeypatch, name, chunk_values):
        config, csv_digest, bundle_digest = STREAMED_GOLDEN[name]
        points, paths = config["grid"]["points"], config["mc"]["paths"]
        if chunk_values is None:
            rows = cli.CHUNK_VALUES // points
            assert 2 * rows < paths < 3 * rows
        else:
            monkeypatch.setattr(cli, "CHUNK_VALUES", chunk_values)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
        assert hashlib.sha256((out / "paths.csv").read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256((out / "bundle.json").read_bytes()).hexdigest() == bundle_digest

    def test_peak_memory_flat_in_path_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CHUNK_VALUES", 65 * 10)
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


class TestVerify:
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

    def test_corrupted_seed_reuse_fails(self, tmp_path):
        cfg_path = tmp_path / "corrupt.json"
        cfg_path.write_text(json.dumps({
            "mc": {"paths": 500, "seed": 12345},
            "grid": {"points": 33},
            "series": {"N": 32},
            "debug": {"reuse_streams": True},
        }))
        out = tmp_path / "out"
        code = run_cli("verify", "--suite", "all", "--config", str(cfg_path),
                       "--out", str(out))
        assert code == 1

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
