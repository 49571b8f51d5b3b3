"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Stochastic criteria use fixed seeds (failures are deterministic) and the
4-standard-error convention; exact criteria carry the stated absolute
tolerances.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np

from yehsim import (
    BasisFamily,
    GaussianStream,
    Integrand,
    Interval,
    MeanFunction,
    StepFunction,
    VarianceFunction,
    YehSpec,
    classify,
    conditional_increment_mean,
    fourier_coeffs,
    gram_matrix,
    inner_rho,
    integral_covariance,
    integral_distribution,
    integral_mean,
    integrate_l2,
    integrate_pathwise_rs,
    ks_test,
    make_grid,
    norm_sq_rho,
    project_to_steps,
    sample_increments,
    series_variance_defect,
)
from yehsim.cli import main as cli_main
from yehsim.integral import integrate_step_batch
from yehsim.process import increment_value_matrix, series_value_matrix

UNIT = Interval(0.0, 1.0)
MIXED_SIGN_STEP = StepFunction((0.0, 1 / 3, 2 / 3, 1.0), (0.5, -0.5, 2.0))


def _report(number: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {description}")
    assert not failures, f"criterion {number}: {failures}"


def test_criterion_1_counterexample_exactness():
    lam = MeanFunction.linear(UNIT, 1.0)
    failures = []
    d1 = conditional_increment_mean(MIXED_SIGN_STEP, lam, 0.25, 0.5)
    d2 = conditional_increment_mean(MIXED_SIGN_STEP, lam, 0.25, 0.75)
    if abs(d1 - (-1 / 24)) > 1e-15:
        failures.append(f"drift over (1/4, 1/2) = {d1}, want -1/24")
    if abs(d2 - 1 / 24) > 1e-15:
        failures.append(f"drift over (1/4, 3/4) = {d2}, want +1/24")
    best = math.inf
    for _ in range(7):
        t0 = time.perf_counter()
        conditional_increment_mean(MIXED_SIGN_STEP, lam, 0.25, 0.5)
        conditional_increment_mean(MIXED_SIGN_STEP, lam, 0.25, 0.75)
        best = min(best, time.perf_counter() - t0)
    if best >= 1e-3:
        failures.append(f"runtime {best * 1e3:.3f} ms >= 1 ms")
    _report(1, "conditional drifts are exactly -1/24 and +1/24 "
               f"(<= 1e-15), runtime {best * 1e6:.0f} us", failures)


def test_criterion_2_moment_identities():
    m = 100_000
    grid = make_grid(UNIT, 1025)
    ensembles = [
        ("brownian", YehSpec.brownian(UNIT), 1001,
         [(StepFunction.indicator(0.0, 1.0, UNIT),
           StepFunction.indicator(0.0, 0.5, UNIT)),
          (StepFunction.indicator(0.25, 0.75, UNIT),
           StepFunction.indicator(0.5, 1.0, UNIT))]),
        ("linear_drift_square_rho",
         YehSpec(MeanFunction.linear(UNIT, 1.0), VarianceFunction.power(UNIT, 2.0)),
         2002,
         [(StepFunction.indicator(0.0, 1.0, UNIT),
           StepFunction.indicator(0.0, 0.5, UNIT)),
          (StepFunction.indicator(0.125, 0.625, UNIT),
           StepFunction.indicator(0.5, 1.0, UNIT))]),
        ("cantor_drift", YehSpec(MeanFunction.cantor(UNIT),
                                 VarianceFunction.identity(UNIT)), 3003,
         [(StepFunction.indicator(0.0, 1.0, UNIT),
           StepFunction.indicator(0.0, 0.5, UNIT)),
          (StepFunction.indicator(0.25, 0.5, UNIT),
           StepFunction.indicator(0.5, 0.75, UNIT))]),
    ]
    t_start = time.perf_counter()
    failures = []
    cases = 0
    chunk = 8192
    for name, spec, seed, pairs in ensembles:
        integrands = sorted({f for pair in pairs for f in pair},
                            key=lambda sf: sf.partition)
        samples = {f: np.empty(m) for f in integrands}
        idx_s, idx_t = 256, 768  # s = 0.25, t = 0.75
        xs, xt = np.empty(m), np.empty(m)
        done = 0
        while done < m:
            n = min(chunk, m - done)
            vals = increment_value_matrix(spec, grid, seed, n, first_index=done)
            for f in integrands:
                samples[f][done:done + n] = integrate_step_batch(f, vals, grid)
            xs[done:done + n] = vals[:, idx_s]
            xt[done:done + n] = vals[:, idx_t]
            done += n
        for f, g in pairs:
            cases += 1
            checks = [
                (f"{name} mean I(f)", samples[f], integral_mean(f, spec.lam)),
                (f"{name} mean I(g)", samples[g], integral_mean(g, spec.lam)),
                (f"{name} E[I(f)I(g)]", samples[f] * samples[g],
                 integral_covariance(f, g, spec.lam, spec.rho)),
            ]
            for label, data, want in checks:
                se = data.std(ddof=1) / math.sqrt(m)
                if abs(data.mean() - want) > 4 * se:
                    failures.append(f"{label}: got {data.mean()}, want {want}, "
                                    f"4SE={4 * se}")
        # process-level first and second moments at s=0.25, t=0.75
        s_t = (grid[idx_s], grid[idx_t])
        for label, data, want in (
            (f"{name} E[X(s)]", xs, spec.lam(s_t[0])),
            (f"{name} E[X(s)X(t)]", xs * xt,
             spec.rho(s_t[0]) + spec.lam(s_t[0]) * spec.lam(s_t[1])),
        ):
            se = data.std(ddof=1) / math.sqrt(m)
            if abs(data.mean() - want) > 4 * se:
                failures.append(f"{label}: got {data.mean()}, want {want}, "
                                f"4SE={4 * se}")
    elapsed = time.perf_counter() - t_start
    if cases < 6:
        failures.append(f"battery too small: {cases} cases")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f} s >= 60 s")
    _report(2, f"moment identities over {cases} cases, 1e5 paths each, "
               f"4 SE, {elapsed:.1f} s", failures)


def test_criterion_3_gaussianity():
    lam = MeanFunction.linear(UNIT, 1.0)
    spec = YehSpec(lam, VarianceFunction.identity(UNIT))
    staircase = project_to_steps(lambda t: t, 256, UNIT)
    integrands = {
        "full_indicator": StepFunction.indicator(0.0, 1.0, UNIT),
        "mixed_step": StepFunction((0.0, 0.25, 0.75, 1.0), (0.5, -0.5, 2.0)),
        "staircase_of_t": staircase,
    }
    m = 100_000
    failures = []
    for fname, f in integrands.items():
        grid = np.asarray(f.partition)
        mean, var = integral_distribution(f, spec.lam, spec.rho)
        for k, seed in enumerate((911, 922, 933)):
            vals = increment_value_matrix(spec, grid, seed, m)
            draws = integrate_step_batch(f, vals, grid)
            report = ks_test(draws, mean, var)
            if report.p_value <= 0.01:
                failures.append(f"{fname} seed {seed}: p={report.p_value}")
    _report(3, "KS of 1e5 Wiener-integral draws vs the analytic Gaussian, "
               "p > 0.01 for 3 integrands x 3 seeds", failures)


def test_criterion_4_orthonormality():
    rhos = {
        "identity": VarianceFunction.identity(UNIT),
        "square": VarianceFunction.power(UNIT, 2.0),
        "piecewise": VarianceFunction.piecewise((0.0, 0.5, 1.0),
                                                (0.0, 0.475, 1.0)),
    }
    failures = []
    worst = 0.0
    for name, rho in rhos.items():
        basis = BasisFamily(rho)
        gram = gram_matrix(basis, 16, resolution=2**14)
        dev = float(np.abs(gram - np.eye(16)).max())
        worst = max(worst, dev)
        if dev > 1e-8:
            failures.append(f"{name}: max |G - I| = {dev}")
        # cross-check two entries through the generic inner product route
        for i, j in ((3, 3), (2, 5)):
            direct = inner_rho(basis.member(i, certificate=False),
                               basis.member(j, certificate=False),
                               rho, resolution=2**14)
            if abs(direct - gram[i, j]) > 1e-12:
                failures.append(f"{name}: gram[{i},{j}] disagrees with inner_rho")
    _report(4, f"16x16 cosine-pullback Gram within 1e-8 of identity for 3 "
               f"variance functions (worst {worst:.2e})", failures)


def test_criterion_5_series_representation():
    rho = VarianceFunction.identity(UNIT)
    spec = YehSpec(MeanFunction.zero(UNIT), rho)
    basis = BasisFamily(rho)
    truncation = 256
    m = 10_000
    grid = make_grid(UNIT, 1025)
    failures = []

    closed_form = series_variance_defect(basis, 1, 0.5)
    if abs(closed_form - 0.25) > 1e-12:
        failures.append(f"defect(N=1, t=1/2) = {closed_form}, want 0.25")
    if series_variance_defect(basis, 7, 1.0) > 1e-12:
        failures.append("defect at the endpoint did not vanish")

    sv = series_value_matrix(spec, basis, truncation, grid, 5005, m)
    pairs = [(256, 512), (512, 512), (256, 768), (768, 1024), (128, 896)]
    for i, j in pairs:
        s, t = float(grid[i]), float(grid[j])
        prod = sv[:, i] * sv[:, j]
        se = prod.std(ddof=1) / math.sqrt(m)
        bound = math.sqrt(series_variance_defect(basis, truncation, s)
                          * series_variance_defect(basis, truncation, t))
        want = rho(min(s, t))
        if abs(prod.mean() - want) > bound + 4 * se:
            failures.append(f"cov at ({s},{t}): got {prod.mean()}, want {want}, "
                            f"tol {bound + 4 * se}")
    _report(5, "series-sampled covariance matches rho(min(s,t)) at 5 grid "
               "pairs within truncation defect + 4 SE; defect closed forms "
               "exact to 1e-12", failures)


def test_criterion_6_expansion_convergence():
    rho = VarianceFunction.identity(UNIT)
    spec = YehSpec(MeanFunction.zero(UNIT), rho)
    basis = BasisFamily(rho)
    m = 10_000
    cells = 1024
    grid = make_grid(UNIT, cells + 1)
    integrands = [
        StepFunction.indicator(0.0, 0.5, UNIT),
        StepFunction.indicator(0.25, 0.625, UNIT),
        StepFunction((0.0, 0.25, 0.625, 1.0), (0.5, -0.5, 2.0)),
    ]
    max_terms = 64
    members = [project_to_steps(basis.member(n, certificate=False), cells, UNIT)
               for n in range(max_terms)]
    failures = []
    for block, f in enumerate(integrands):
        vals = increment_value_matrix(spec, grid, 6006, m,
                                      first_index=block * m)
        integrals = integrate_step_batch(
            [project_to_steps(f, cells, UNIT), *members], vals, grid)
        targets, member_integrals = integrals[:, 0], integrals[:, 1:]
        coeffs = fourier_coeffs(f, basis, max_terms)  # exact for steps
        norm_sq = norm_sq_rho(f, rho)
        for n_terms in (1, 4, 16, 64):
            partial = member_integrals[:, :n_terms] @ coeffs[:n_terms]
            gaps_sq = (targets - partial) ** 2
            defect = norm_sq - float(np.sum(coeffs[:n_terms] ** 2))
            se = gaps_sq.std(ddof=1) / math.sqrt(m)
            if abs(gaps_sq.mean() - defect) > 4 * se:
                failures.append(
                    f"integrand {block}, N={n_terms}: mean-square gap "
                    f"{gaps_sq.mean()} vs defect {defect}, 4SE={4 * se}"
                )
    _report(6, "Monte Carlo mean-square expansion gap matches the Parseval "
               "defect within 4 SE for N in {1,4,16,64}, 1e4 paths, "
               "3 integrands", failures)


def test_criterion_7_pathwise_rs():
    spec = YehSpec.brownian(UNIT)
    grid = make_grid(UNIT, 513)
    f = Integrand.from_function(lambda t: np.asarray(t, dtype=float),
                                bv_breaks=(0.0, 1.0))
    failures = []
    gaps = {128: [], 256: []}
    for k in range(100):
        path = sample_increments(spec, grid, GaussianStream(7007, k))
        for cells in (128, 256):
            rs = integrate_pathwise_rs(f, path, cells)
            l2 = integrate_l2(f, path, cells)
            gap = abs(rs.value - l2.value)
            gaps[cells].append(gap)
            if gap > rs.refinement + l2.refinement:
                failures.append(f"path {k}, cells {cells}: gap {gap} exceeds "
                                f"refinement sum {rs.refinement + l2.refinement}")
    ratio = float(np.median(gaps[256]) / np.median(gaps[128]))
    if not 0.375 <= ratio <= 0.625:
        failures.append(f"median gap ratio after doubling = {ratio}, "
                        "want 0.5 +- 25%")
    _report(7, "pathwise RS vs L2 projection within combined refinement "
               f"estimates on 100 paths; doubling cells scales the median gap "
               f"by {ratio:.3f}", failures)


def test_criterion_8_martingale_classification():
    rng = np.random.default_rng(8008)
    table = {(1, 1): "submartingale", (1, -1): "supermartingale",
             (-1, 1): "supermartingale", (-1, -1): "submartingale"}
    failures = []
    for i in range(20):
        lam_dir = 1 if i % 2 == 0 else -1
        f_sign = 1 if (i // 2) % 2 == 0 else -1
        knots = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 3)), [1.0]])
        increments = rng.uniform(0.1, 1.0, 4)
        lam = MeanFunction.piecewise(
            tuple(knots),
            tuple(lam_dir * np.concatenate([[0.0], np.cumsum(increments)])),
        )
        cuts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 2)), [1.0]])
        f = StepFunction(tuple(cuts), tuple(f_sign * rng.uniform(0.1, 2.0, 3)))
        probes = [tuple(np.sort(rng.uniform(0, 1, 2))) for _ in range(3)]
        verdict = classify(f, lam, probes)
        want = table[(lam_dir, f_sign)]
        if verdict.verdict != want:
            failures.append(f"instance {i}: got {verdict.verdict}, want {want}")
    neither = classify(MIXED_SIGN_STEP, MeanFunction.linear(UNIT, 1.0),
                       [(0.25, 0.5), (0.25, 0.75)])
    if neither.verdict != "neither":
        failures.append(f"mixed-sign example classified {neither.verdict}")
    _report(8, "drift-sign truth table reproduced on 20 randomized instances "
               "with exact drifts; mixed-sign example is neither", failures)


def test_criterion_9_reproducibility(tmp_path):
    import json

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "mc": {"paths": 2000, "seed": 12345},
        "grid": {"points": 257},
        "series": {"N": 64},
    }))
    failures = []
    outputs = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        code = cli_main(["verify", "--suite", "all", "--config", str(cfg_path),
                         "--out", str(out)])
        if code != 0:
            failures.append(f"{run}: verify all exited {code}")
        outputs.append(out)
    for fname in ("verify_all.csv", "manifest.json"):
        b1 = (outputs[0] / fname).read_bytes()
        b2 = (outputs[1] / fname).read_bytes()
        if b1 != b2:
            failures.append(f"{fname} differs between reruns")
    _report(9, "cmd_verify all twice with one manifest: exit 0 and "
               "byte-identical outputs", failures)
