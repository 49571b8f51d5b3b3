"""Self-test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_one_command_prints_every_metric_for_every_workload(trace, section):
    done = _bench("--workload", "all", "--seed", "7", "--seconds", "0",
                  "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    for workload in run.WORKLOADS:
        assert f"# {workload}: fail_ratio=" in done.stdout
        for metric in CONTRACT[section]:
            got = result["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))


def test_benchmark_json_matches_the_metrics_the_runner_reports():
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)


def test_driver_arguments_print_the_contract_result():
    done = _bench("--workload", "gauss-short", "--seed", "3", "--seconds", "0",
                  "--trace", "0", "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "simulate", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


@pytest.fixture
def simulated(tmp_path):
    """A tiny `simulate` output directory and the library's values for it."""
    lib = run.load_library()
    config = run.make_config("simulate", 11, "tiny")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    wall, _, code = run.spawn([sys.executable, "-m", "yehsim.cli", "simulate",
                               "--config", str(config_path), "--out", str(out)],
                              tmp_path / "cli.log")
    assert code == 0 and wall > 0
    cfg = lib.config.parse_config(config)
    grid = lib.process.make_grid(cfg.interval, cfg.grid_points, cfg.grid_scale,
                                 rho=cfg.rho)
    values = lib.process.increment_value_matrix(
        lib.process.YehSpec(cfg.lam, cfg.rho), grid, cfg.seed, cfg.paths)
    return out, grid, values, cfg.manifest().hash()


def _failed(results) -> set:
    return {name for name, ok, _ in results if not ok}


def test_simulate_checks_pass_on_true_output(simulated):
    out, grid, values, mhash = simulated
    assert not _failed(checks.simulate_checks(out, grid, values))
    assert not _failed(checks.manifest_checks(out, mhash))


def test_simulate_checks_catch_a_changed_value(simulated):
    out, grid, values, _ = simulated
    path = out / "paths.csv"
    lines = path.read_text().splitlines()
    k, t, v = lines[-1].split(",")
    lines[-1] = f"{k},{t},{float(v) + 1e-9!r}"
    path.write_text("\n".join(lines) + "\n")
    assert _failed(checks.simulate_checks(out, grid, values)) == {"values:paths.csv"}

    bundle = json.loads((out / "bundle.json").read_text())
    bundle["paths"][0][1] = bundle["paths"][0][1] + 1e-9
    (out / "bundle.json").write_text(json.dumps(bundle))
    assert "values:bundle.json" in _failed(checks.simulate_checks(out, grid, values))


def test_manifest_check_catches_a_foreign_hash(simulated):
    out, _, _, mhash = simulated
    path = out / "paths.csv"
    path.write_text(path.read_text().replace(mhash, "0" * 64, 1))
    assert _failed(checks.manifest_checks(out, mhash)) == {"manifest:paths.csv"}


def test_expansion_check_catches_a_rising_defect(tmp_path):
    rows = ["# manifest=x", "# target=0.5", "n,partial_sum,defect",
            "1,0.1,0.3", "2,0.2,0.2", "3,0.3,0.25"]
    (tmp_path / "expansion.csv").write_text("\n".join(rows) + "\n")
    assert _failed(checks.expansion_checks(tmp_path)) == {"defects_nonincreasing"}
    rows[-1] = "3,0.3,0.1"
    (tmp_path / "expansion.csv").write_text("\n".join(rows) + "\n")
    assert not _failed(checks.expansion_checks(tmp_path))


def test_failure_kind_tells_chance_from_breakage():
    ks = {"check": "gaussian_ks_full_seed0", "expected": 0.01, "tolerance": 0.0}
    assert checks.failure_kind({**ks, "observed": 0.0079}) == "chance"
    assert checks.failure_kind({**ks, "observed": 1e-12}) == "breakage"
    se_row = {"check": "moments_mean_f", "expected": 0.0, "tolerance": 0.04}
    assert checks.failure_kind({**se_row, "observed": 0.05}) == "chance"
    assert checks.failure_kind({**se_row, "observed": 0.5}) == "breakage"
    exact = {"check": "counterexample_mean", "expected": 2 / 3,
             "observed": 0.6, "tolerance": 1e-15}
    assert checks.failure_kind(exact) == "breakage"


def test_span_table_self_times_add_up_to_the_root():
    spans = [
        {"id": 0, "name": "run", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "streams", "parent": 0, "start": 1.0, "end": 5.0,
         "rows": 2, "draws": 8},
        {"id": 2, "name": "funcspace.antideriv", "parent": 1, "start": 2.0, "end": 4.0},
        {"id": 3, "name": "funcspace.antideriv", "parent": 2, "start": 2.5, "end": 3.0},
    ]
    table = run.span_table(spans)
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0)
    assert table["streams"]["self_s"] == pytest.approx(2.0)
    assert table["funcspace.antideriv"]["s"] == pytest.approx(2.0)
    assert table["funcspace.antideriv"]["calls"] == 2
    assert table["streams"]["draws"] == 8


def test_run_flags_changed_and_missing_outputs():
    bench_run = run.Run(run.load_library(), "gauss-short", 5, "tiny")
    bench_run.iterate(0, traced=False)
    bench_run.iterate(1, traced=False)
    assert all(o["ok"] for o in bench_run.ops if not o["op"].startswith("row:"))
    assert any(o["op"] == "bytes_identical" for o in bench_run.ops)

    csv = bench_run.out / "verify_gaussian.csv"
    csv.write_text(csv.read_text().replace("# manifest=", "# manifest= ", 1))
    bench_run.check_outputs(2, {"verify": 0})
    assert [o["op"] for o in bench_run.ops if o["iteration"] == 2 and not o["ok"]] \
        == ["bytes_identical"]

    csv.unlink()
    bench_run.check_outputs(3, {"verify": 0})
    assert [o["op"] for o in bench_run.ops if o["iteration"] == 3 and not o["ok"]] \
        == ["outputs_present"]
