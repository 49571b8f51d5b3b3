"""yehsim benchmark: end-to-end and per-layer metrics of the `yehsim` CLI.

Usage (from the repository root):

    python3 bench/run.py --workload {simulate,analyze,gauss-short,all} \
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Each workload is a closed loop: one client, one CLI process at a time.  The
benchmark writes a config generated from --seed (it sets `mc.seed`; sizes
and functions are fixed, so the work does not depend on the seed), then
runs the workload's commands again and again for about --seconds seconds.

--trace 0 reports the end-to-end metrics: the median `wall_s` (spawn to
exit, summed over the workload's commands), the median `setup_s` (import,
config parse, grid and basis, timed in a separate probe process), and the
median `peak_rss_mb` of the command processes.  --trace 1 alternates untraced
iterations with iterations run under bench/tracer.py and reports per-layer
metrics from the spans.  A run record with the environment fingerprint is
written under .bench_work/.

Operations are CLI commands, verify CSV rows and output checks.  The summary
prints fail_ratio = failed operations / attempted.  A failed Monte Carlo row
within its false-alarm budget (KS p-values have a 1% floor) is chance: it is
named and counted, and repeats exactly for a seed.  Anything else is
breakage.  The last stdout line is one JSON object {correct, attempted,
failed, metrics}; there `failed` counts breakage and `correct` means none.

The workloads:
  simulate     output-bound: per-value formatting and writes in `cli`, plus
               rho-scale grid bisection in set-up; sampling is a few percent.
  analyze      compute-bound with long stream rows (1024 draws): every verify
               suite, then `expand` with 256 cosine members.
  gauss-short  the same streams layer on rows of 1-3 draws, where per-row
               Philox rekeying dominates; contrasts with analyze.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Set-up probes per untraced run (after one discarded warm-up probe).
SETUP_PROBES = 5
#: A workload run must end within 180 s: no iteration starts that would end
#: later than RUN_LIMIT_S after the run began, and commands still running
#: then are killed and count as failed.
RUN_LIMIT_S = 150.0
#: BLAS threads per process: the workloads were sized for 2 cores.
BLAS_THREADS = str(min(2, os.cpu_count() or 1))

CANTOR_POWER2 = {
    "interval": [0.0, 1.0],
    "lambda": {"kind": "cantor", "depth": 64},
    "rho": {"kind": "power", "exponent": 2.0},
    "integrand": {"kind": "step", "partition": [0.0, 0.25, 0.75, 1.0],
                  "values": [0.5, -0.5, 2.0]},
}

#: name -> (commands, config sections by size, output files).  Commands
#: omit --config/--out.
WORKLOADS = {
    "simulate": (
        [["simulate"]],
        {"full": {**CANTOR_POWER2, "mc": {"paths": 2000},
                  "grid": {"points": 513, "scale": "rho"}},
         "tiny": {**CANTOR_POWER2, "mc": {"paths": 20},
                  "grid": {"points": 33, "scale": "rho"}}},
        {"paths.csv", "bundle.json", "manifest.json"},
    ),
    "analyze": (
        [["verify", "--suite", "all"], ["expand"]],
        {"full": {**CANTOR_POWER2, "mc": {"paths": 10000},
                  "grid": {"points": 1025, "scale": "t"},
                  "series": {"N": 256, "family": "cosine"}},
         "tiny": {**CANTOR_POWER2, "mc": {"paths": 200},
                  "grid": {"points": 65, "scale": "t"},
                  "series": {"N": 16, "family": "cosine"}}},
        {"verify_all.csv", "expansion.csv", "manifest.json"},
    ),
    "gauss-short": (
        [["verify", "--suite", "gaussian"]],
        {"full": {"lambda": {"kind": "linear", "slope": 1.0},
                  "rho": {"kind": "identity"}, "mc": {"paths": 30000}},
         "tiny": {"lambda": {"kind": "linear", "slope": 1.0},
                  "rho": {"kind": "identity"}, "mc": {"paths": 1000}}},
        {"verify_gaussian.csv", "manifest.json"},
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metric -> (span name, field, unit).  Fields: s = inclusive time
#: of outermost spans, self_s = span time minus contained child spans.
LAYER_SPANS = {
    "streams.self_s": ("streams", "self_s", "s"),
    "streams.rows": ("streams", "rows", "count"),
    "streams.draws": ("streams", "draws", "count"),
    "process.increments.self_s": ("process.increments", "self_s", "s"),
    "process.series.self_s": ("process.series", "self_s", "s"),
    "process.make_grid.s": ("process.make_grid", "s", "s"),
    "stieltjes.rho_inverse.s": ("stieltjes.rho_inverse", "s", "s"),
    "stieltjes.rho_inverse.calls": ("stieltjes.rho_inverse", "calls", "count"),
    "integral.step_batch.self_s": ("integral.step_batch", "self_s", "s"),
    "integral.step_batch.calls": ("integral.step_batch", "calls", "count"),
    "integral.step_batch.madds": ("integral.step_batch", "madds", "count"),
    "integral.l2.s": ("integral.l2", "s", "s"),
    "integral.l2.calls": ("integral.l2", "calls", "count"),
    "funcspace.project.s": ("funcspace.project", "s", "s"),
    "funcspace.project.calls": ("funcspace.project", "calls", "count"),
    "funcspace.coeffs.s": ("funcspace.coeffs", "s", "s"),
    "funcspace.antideriv.s": ("funcspace.antideriv", "s", "s"),
    "series.expand.self_s": ("series.expand", "self_s", "s"),
    "series.variance_defect.s": ("series.variance_defect", "s", "s"),
    "stats.ks.s": ("stats.ks", "s", "s"),
    "stats.ks.samples": ("stats.ks", "samples", "count"),
    "martingale.classify.s": ("martingale.classify", "s", "s"),
    "verify.moments.self_s": ("verify.moments", "self_s", "s"),
    "verify.gaussian.self_s": ("verify.gaussian", "self_s", "s"),
    "verify.series.self_s": ("verify.series", "self_s", "s"),
    "verify.martingale.self_s": ("verify.martingale", "self_s", "s"),
    "verify.counterexample.self_s": ("verify.counterexample", "self_s", "s"),
    "cli.self_s": ("cli", "self_s", "s"),
    "config.parse.s": ("config.parse", "s", "s"),
    "import.s": ("import", "s", "s"),
}
#: Per-layer metrics computed from other measurements.
LAYER_DERIVED = {"streams.us_per_row": "us", "streams.ns_per_draw": "ns",
                 "cli.out_mb": "MB", "trace.wall_s": "s",
                 "trace.overhead_s": "s"}
LAYER_UNITS = {name: unit for name, (_, _, unit) in LAYER_SPANS.items()}
LAYER_UNITS.update(LAYER_DERIVED)

#: Modules whose summed self time the workload design predicts to be at
#: least this share of the traced wall time.
DOMINANT = {
    "simulate": (("cli",), 0.70),
    "analyze": (("streams", "integral", "process"), 0.70),
    "gauss-short": (("streams",), 0.90),
}

_NO_SPANS = {"s": 0.0, "self_s": 0.0, "calls": 0, "rows": 0, "draws": 0,
             "madds": 0, "samples": 0}

#: The self times must cover the traced wall time up to interpreter start-up
#: and teardown, which the spans cannot see.
UNATTRIBUTED_MAX_S = 0.5


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "YEH_SEED"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(argv: list[str], log: Path, timeout: float = RUN_LIMIT_S
          ) -> tuple[float, float, int]:
    """Run one process to exit through bench/launch.py:
    (wall seconds, peak RSS MB, exit code)."""
    timeout = max(timeout, 1.0)
    done = subprocess.run([sys.executable, str(BENCH_DIR / "launch.py"),
                           str(timeout), str(log), "--", *argv],
                          capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=timeout + 10)
    if done.returncode != 0:
        raise BenchError(f"launcher failed: {done.stderr.strip()}")
    record = json.loads(done.stdout)
    return record["wall_s"], record["peak_rss_mb"], record["exit"]


def load_library():
    """Import yehsim from this checkout's src/, refusing any other copy."""
    if not (SRC / "yehsim" / "__init__.py").is_file():
        raise BenchError(f"no yehsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import yehsim
    import yehsim.config

    if Path(yehsim.__file__).resolve().parent != (SRC / "yehsim").resolve():
        raise BenchError(f"imported yehsim from {yehsim.__file__}, not {SRC}")
    return yehsim


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def make_config(workload: str, seed: int, size: str) -> dict:
    config = copy.deepcopy(WORKLOADS[workload][1][size])
    config["mc"]["seed"] = seed
    return config


def measure_setup(run: "Run") -> list[float]:
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(run.config_path)]
    log = run.dir / "setup.log"
    samples = []
    for i in range(SETUP_PROBES + 1):
        _, _, code = spawn(probe, log, run.time_left())
        if code != 0:
            raise BenchError(f"setup probe exited {code}; see {log}")
        record = json.loads(log.read_text().splitlines()[-1])
        if Path(record["module"]).resolve().parent != (SRC / "yehsim").resolve():
            raise BenchError(f"probe imported {record['module']}")
        if i:  # the first probe only warms caches
            samples.append(record["setup_s"])
    return samples


def span_table(spans: list[dict]) -> dict:
    """Aggregate spans by name: s, self_s, calls and summed work counts."""
    by_id = {s["id"]: s for s in spans}
    child = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    table: dict[str, dict] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        row = table.setdefault(s["name"], dict(_NO_SPANS))
        row["self_s"] += dur - child[s["id"]]
        row["calls"] += 1
        for key in ("rows", "draws", "madds", "samples"):
            row[key] += s.get(key, 0)
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != s["name"]:
            parent = by_id[parent]["parent"]
        if parent is None:
            row["s"] += dur
    return table


def layer_metrics(table: dict, wall: float, out_mb: float) -> dict:
    out = {name: table.get(span, _NO_SPANS)[field]
           for name, (span, field, _) in LAYER_SPANS.items()}
    rows, draws = out["streams.rows"], out["streams.draws"]
    out["streams.us_per_row"] = out["streams.self_s"] / rows * 1e6 if rows else 0.0
    out["streams.ns_per_draw"] = out["streams.self_s"] / draws * 1e9 if draws else 0.0
    out["cli.out_mb"] = out_mb
    out["trace.wall_s"] = wall
    return out


def dominant(workload: str, traced: list[dict]) -> dict:
    """Median share of the predicted modules' self time in the traced wall
    time, and in the wall time less the package import."""
    modules, floor = DOMINANT[workload]
    busy = [sum(r["module_self_s"].get(m, 0.0) for m in modules) for r in traced]
    share = median([b / r["wall_s"] for b, r in zip(busy, traced)])
    after_import = median([b / (r["wall_s"] - r["layers"]["import.s"])
                           for b, r in zip(busy, traced)])
    return {"modules": modules, "floor": floor, "share": share,
            "share_after_import": after_import, "holds": share >= floor}


class Run:
    """One run of one workload: repeated iterations, their checks and metrics."""

    def __init__(self, lib, workload: str, seed: int, size: str):
        self.started = time.perf_counter()
        self.lib, self.workload = lib, workload
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.out = self.dir / "out"
        self.config = make_config(workload, seed, size)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1))
        self.cfg = lib.config.parse_config(self.config)
        self.expected_hash = self.cfg.manifest().hash()
        self.ops: list[dict] = []
        self.first_digests = None

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def op(self, it: int, name: str, ok: bool, detail: str = "",
           kind: str = "breakage"):
        self.ops.append({"iteration": it, "op": name, "ok": bool(ok),
                         "kind": None if ok else kind, "detail": detail})

    def iterate(self, it: int, traced: bool) -> dict:
        """Run the workload's commands once, check outputs, return timings."""
        shutil.rmtree(self.out, ignore_errors=True)
        spans_path = self.dir / "spans.json"
        base = ([sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), "--"]
                if traced else [sys.executable, "-m", "yehsim.cli"])
        walls, rss, tables, exit_codes = [], [], [], {}
        for c, cmd in enumerate(WORKLOADS[self.workload][0]):
            spans_path.unlink(missing_ok=True)
            argv = base + cmd + ["--config", str(self.config_path), "--out", str(self.out)]
            wall, peak, code = spawn(argv, self.dir / f"cmd{c}.log", self.time_left())
            walls.append(wall)
            rss.append(peak)
            exit_codes[cmd[0]] = code
            # verify exits 1 when a row fails; the rows are counted below
            ok = code == 0 or (code == 1 and cmd[0] == "verify")
            self.op(it, f"command:{cmd[0]}", ok, f"exit {code}")
            if traced and spans_path.exists():
                tables.append((wall, span_table(
                    json.loads(spans_path.read_text())["spans"])))
        self.check_outputs(it, exit_codes)
        out_mb = sum(p.stat().st_size for p in self.out.iterdir()) / 1e6 \
            if self.out.is_dir() else 0.0
        record = {"traced": traced, "wall_s": sum(walls), "command_wall_s": walls,
                  "peak_rss_mb": max(rss), "out_mb": out_mb}
        if traced:
            merged = self.merge_spans(it, tables)
            record["layers"] = layer_metrics(merged, sum(walls), out_mb)
            record["module_self_s"] = {}
            for name, row in merged.items():
                module = name.split(".")[0]
                record["module_self_s"][module] = (
                    record["module_self_s"].get(module, 0.0) + row["self_s"])
        return record

    def check_outputs(self, it: int, exit_codes: dict):
        found = {p.name for p in self.out.iterdir()} if self.out.is_dir() else set()
        expected = WORKLOADS[self.workload][2]
        self.op(it, "outputs_present", found == expected, f"found {sorted(found)}")
        if found != expected:
            return
        for path in sorted(self.out.glob("verify_*.csv")):
            try:
                rows = checks.parse_verify_csv(path.read_text())
            except ValueError as exc:
                self.op(it, f"parse:{path.name}", False, str(exc))
                continue
            for row in rows:
                self.op(it, f"row:{row['check']}", row["pass"],
                        f"observed {row['observed']!r} expected {row['expected']!r} "
                        f"tolerance {row['tolerance']!r}", checks.failure_kind(row))
            any_failed = not all(row["pass"] for row in rows)
            self.op(it, "verify_exit_matches_rows",
                    (exit_codes.get("verify") == 1) == any_failed,
                    f"exit {exit_codes.get('verify')}")
        digests = checks.digests(self.out)
        if self.first_digests is not None:
            self.op(it, "bytes_identical", digests == self.first_digests,
                    "outputs equal the first iteration's")
            return
        self.first_digests = digests
        try:
            results = checks.manifest_checks(self.out, self.expected_hash)
            if self.workload == "simulate":
                results += checks.simulate_checks(self.out, *self.library_paths())
            if "expansion.csv" in digests:
                results += checks.expansion_checks(self.out)
        except (ValueError, KeyError, IndexError) as exc:  # malformed output
            results = [("outputs_parse", False, repr(exc))]
        for name, ok, detail in results:
            self.op(it, name, ok, detail)

    def library_paths(self):
        cfg, process = self.cfg, self.lib.process
        grid = process.make_grid(cfg.interval, cfg.grid_points, cfg.grid_scale,
                                 rho=cfg.rho)
        spec = process.YehSpec(cfg.lam, cfg.rho)
        return grid, process.increment_value_matrix(spec, grid, cfg.seed, cfg.paths)

    def merge_spans(self, it: int, tables: list) -> dict:
        """Merge the commands' span tables; check self times cover wall time."""
        merged: dict[str, dict] = {}
        for cmd_wall, table in tables:
            attributed = sum(row["self_s"] for row in table.values())
            self.op(it, "trace_self_sum",
                    0.0 <= cmd_wall - attributed <= UNATTRIBUTED_MAX_S,
                    f"wall {cmd_wall:.4f} s, self times {attributed:.4f} s")
            for name, row in table.items():
                into = merged.setdefault(name, dict.fromkeys(row, 0))
                for key, value in row.items():
                    into[key] += value
        return merged


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def run_workload(lib, workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    run = Run(lib, workload, seed, size)
    setup = [] if trace else measure_setup(run)
    iterations, durations = [], []
    start = time.perf_counter()

    def room(since: float, budget: float) -> bool:
        return time.perf_counter() - since + median(durations) <= budget

    # a second iteration lets outputs be compared across iterations, if it
    # still fits in the run's time limit
    while (not iterations or room(start, seconds)
           or (len(iterations) < 2 and room(run.started, RUN_LIMIT_S))):
        t0 = time.perf_counter()
        traced = trace and len(iterations) % 2 == 1
        iterations.append(run.iterate(len(iterations), traced))
        durations.append(time.perf_counter() - t0)
    shutil.rmtree(run.out, ignore_errors=True)

    plain = [r for r in iterations if not r["traced"]]
    if trace:
        traced_its = [r for r in iterations if r["traced"]]
        # counts repeat exactly (checked below), so any iteration's will do
        metrics = {name: (traced_its[0]["layers"][name] if unit == "count" else
                          median([r["layers"][name] for r in traced_its]))
                   for name, unit in LAYER_UNITS.items()
                   if name != "trace.overhead_s"}
        # traced iteration minus the untraced one just before it, so that
        # slow drift in machine speed cancels within each pair
        metrics["trace.overhead_s"] = median(
            [b["wall_s"] - a["wall_s"] for a, b in zip(iterations[::2], iterations[1::2])])
        for name, unit in LAYER_UNITS.items():
            if unit == "count" and len(traced_its) > 1:
                values = {r["layers"][name] for r in traced_its}
                run.op(len(iterations) - 1, f"count_repeats:{name}",
                       len(values) == 1, f"values {sorted(values)}")
        units = LAYER_UNITS
    else:
        metrics = {"wall_s": median([r["wall_s"] for r in plain]),
                   "setup_s": median(setup),
                   "peak_rss_mb": median([r["peak_rss_mb"] for r in plain])}
        units = END_TO_END

    failed = [o for o in run.ops if not o["ok"]]
    broken = [o for o in failed if o["kind"] == "breakage"]
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "config": run.config,
        "correct": not broken, "attempted": len(run.ops),
        "failed": len(broken), "failed_by_chance": len(failed) - len(broken),
        "failed_ops": sorted({(o["op"], o["kind"], o["detail"]) for o in failed}),
        "ops": run.ops,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "samples": {"iterations": len(iterations), "untraced": len(plain),
                    "setup_probes": len(setup)},
        "iterations": iterations, "setup_s": setup,
    }
    if trace:
        result["dominant"] = dominant(workload, traced_its)
    return result


def report(result: dict):
    """Human-readable summary lines for one workload (not the final line)."""
    m = result["metrics"]
    samples = result["samples"]
    failed = result["failed"] + result["failed_by_chance"]
    print(f"# {result['workload']}: fail_ratio={failed}/{result['attempted']} "
          f"({failed / result['attempted']:.4f}; breakage {result['failed']}, "
          f"chance {result['failed_by_chance']}) correct={result['correct']} "
          f"iterations={samples['iterations']} "
          f"setup_probes={samples['setup_probes']}")
    for op, kind, detail in result["failed_ops"]:
        print(f"#   failed {op} [{kind}] {detail}")
    for name, metric in m.items():
        print(f"#   {name} = {metric['value']:.6g} {metric['unit']}")
    if "dominant" in result:
        d = result["dominant"]
        print(f"#   dominant {'+'.join(d['modules'])}: {d['share']:.1%} of traced "
              f"wall, {d['share_after_import']:.1%} of it after import "
              f"(predicted >= {d['floor']:.0%} of wall): "
              f"{'holds' if d['holds'] else 'does not hold'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for the benchmark's own test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    try:
        lib = load_library()
        env = fingerprint()
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(lib, name, args.seed, args.seconds,
                                bool(args.trace), args.size) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    for result in results:
        result["env"] = env
        report(result)
        (WORK / f"record-{result['workload']}-trace{int(args.trace)}.json"
         ).write_text(json.dumps(result, indent=1, default=list))
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
