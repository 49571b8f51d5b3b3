"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All nine criteria call `verify` batteries (criterion 9 through the CLI) at
gate scale: each calls them with its own sizes, seeds and integrands and
turns failed rows into its failure list.  One deterministic test beside
criterion 2
checks that drawing on the integrands' own partition keeps their law.
Stochastic criteria use fixed seeds (failures are deterministic) and the
batteries' 4-standard-error convention.  Run with
`pytest tests/test_acceptance.py -v -s`.
"""

import time
import timeit
from functools import partial

import numpy as np

from yehsim import (BasisFamily, Interval, MeanFunction, StepFunction, VarianceFunction,
                    YehSpec, make_grid, project_family, step_cells)
from yehsim.cli import main as cli_main
from yehsim.verify import (basis_battery, counterexample_battery, counterexample_drifts,
                           expansion_battery, gaussian_battery, integral_battery,
                           moments_battery, series_battery, truth_table_battery)

UNIT = Interval(0.0, 1.0)


def _report(number: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {description}")
    assert not failures, f"criterion {number}: {failures}"


def _failures(rows, prefix: str = "") -> list:
    return [f"{prefix}{r.check}: got {r.observed}, want {r.expected}, tol {r.tolerance}"
            for r in rows if not r.passed]


def test_criterion_1_counterexample_exactness():
    failures = _failures(counterexample_drifts())
    best = min(timeit.repeat(counterexample_drifts, number=1, repeat=7))
    if best >= 1e-3:
        failures.append(f"runtime {best * 1e3:.3f} ms >= 1 ms")
    _report(1, "conditional drifts are exactly -1/24 and +1/24 "
               f"(<= 1e-15), runtime {best * 1e6:.0f} us", failures)


def _criterion_2_ensembles():
    """(name, spec, seed, pair count, moments_battery checks) per ensemble."""
    ind = partial(StepFunction.indicator, interval=UNIT)
    ensembles = [
        ("brownian", YehSpec.brownian(UNIT), 1001,
         [(ind(0.0, 1.0), ind(0.0, 0.5)), (ind(0.25, 0.75), ind(0.5, 1.0))]),
        ("linear_drift_square_rho",
         YehSpec(MeanFunction.linear(UNIT, 1.0), VarianceFunction.power(UNIT, 2.0)), 2002,
         [(ind(0.0, 1.0), ind(0.0, 0.5)), (ind(0.125, 0.625), ind(0.5, 1.0))]),
        ("cantor_drift", YehSpec(MeanFunction.cantor(UNIT), VarianceFunction.identity(UNIT)),
         3003, [(ind(0.0, 1.0), ind(0.0, 0.5)), (ind(0.25, 0.5), ind(0.5, 0.75))]),
    ]
    # X(s) - lambda(0) is the Wiener integral of 1_[0, s): process moments at
    # s = 1/4, t = 3/4 are the pair (1_[0, 1/4), 1_[0, 3/4)); lambda(0) = 0 here.
    # A pair's row checks the paper's covariance identity, the mean product
    # of the centered draws against inner_rho(f, g); the names are kept.
    process = (ind(0.0, 0.25), ind(0.0, 0.75))
    for name, spec, seed, pairs in ensembles:
        checks = {}
        for k, (f, g) in enumerate(pairs):
            checks.update({f"mean_I(f{k})": f, f"mean_I(g{k})": g,
                           f"E[I(f{k})I(g{k})]": (f, g)})
        checks.update({"E[X(s)]": process[0], "E[X(s)X(t)]": process})
        yield name, spec, seed, len(pairs), checks


def test_criterion_2_moment_identities():
    t_start = time.perf_counter()
    failures = []
    cases = 0
    for name, spec, seed, pair_count, checks in _criterion_2_ensembles():
        cases += pair_count
        failures += _failures(moments_battery(spec, checks, seed, 100_000), f"{name} ")
    elapsed = time.perf_counter() - t_start
    if cases < 6:
        failures.append(f"battery too small: {cases} cases")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f} s >= 60 s")
    _report(2, f"moment identities over {cases} cases, 1e5 paths each, "
               f"4 SE, {elapsed:.1f} s", failures)


def test_criterion_2_draw_grid_keeps_the_law():
    # moments_battery draws on the integrands' own partition (step_cells); the
    # drawn functionals' exact mean W dlambda and covariance W diag(drho) W^T
    # equal those on the 1025-point grid the criterion used to draw on
    fine = make_grid(UNIT, 1025)
    for name, spec, _, _, checks in _criterion_2_ensembles():
        family = list(dict.fromkeys(f for c in checks.values()
                                    for f in (c if isinstance(c, tuple) else (c,))))
        cells = step_cells(family, UNIT)
        assert len(cells[0]) <= 8, name
        zero = StepFunction(tuple(fine), (0.0,) * (len(fine) - 1))  # the union is fine
        fine_cells, fine_weights = step_cells(family + [zero], UNIT)
        assert np.array_equal(fine_cells, fine), name
        laws = []
        for grid, weights in (cells, (fine, fine_weights[:-1])):
            dlam, drho = np.diff(spec.lam(grid)), np.diff(spec.rho(grid))
            laws.append((weights @ dlam, (weights * drho) @ weights.T))
        (mean, cov), (fine_mean, fine_cov) = laws
        assert np.abs(mean - fine_mean).max() <= 1e-14, name
        assert np.abs(cov - fine_cov).max() <= 1e-14, name


def test_criterion_3_gaussianity():
    spec = YehSpec(MeanFunction.linear(UNIT, 1.0), VarianceFunction.identity(UNIT))
    edges, (staircase,) = project_family([lambda t: t], 256, UNIT)
    integrands = {
        "full_indicator": StepFunction.indicator(0.0, 1.0, UNIT),
        "mixed_step": StepFunction((0.0, 0.25, 0.75, 1.0), (0.5, -0.5, 2.0)),
        "staircase_of_t": StepFunction(edges, staircase),
    }
    rows = gaussian_battery(spec, integrands, [(911, 0), (922, 0), (933, 0)], 100_000)
    _report(3, "KS of 1e5 Wiener-integral draws vs the analytic Gaussian, "
               "p > 0.01 for 3 integrands x 3 seeds", _failures(rows))


def test_criterion_4_orthonormality():
    bases = {
        "identity": BasisFamily(VarianceFunction.identity(UNIT)),
        "square": BasisFamily(VarianceFunction.power(UNIT, 2.0)),
        "piecewise": BasisFamily(VarianceFunction.piecewise((0.0, 0.5, 1.0),
                                                            (0.0, 0.475, 1.0))),
    }
    # each Gram matrix, and two of its entries cross-checked through inner_rho
    rows = basis_battery(bases, 16, 2**14, ((3, 3), (2, 5)))
    worst = max(r.observed for r in rows if "cross" not in r.check)
    _report(4, f"16x16 cosine-pullback Gram within 1e-8 of identity for 3 "
               f"variance functions (worst {worst:.2e})", _failures(rows))


def test_criterion_5_series_representation():
    basis = BasisFamily(VarianceFunction.identity(UNIT))
    pairs = [(256, 512), (512, 512), (256, 768), (768, 1024), (128, 896)]
    rows = series_battery(basis, make_grid(UNIT, 1025), pairs, truncation=256,
                          endpoint_terms=7, seed=5005, paths=10_000)
    _report(5, "series-sampled covariance matches the truncated kernel K_N(s,t) "
               "at 5 grid pairs within 4 SE; K_N within sqrt(D_N(s) D_N(t)) of "
               "rho(min(s,t)); defect closed forms exact to 1e-12", _failures(rows))


def test_criterion_6_expansion_convergence():
    basis = BasisFamily(VarianceFunction.identity(UNIT))
    integrands = {
        "half_indicator": StepFunction.indicator(0.0, 0.5, UNIT),
        "inner_indicator": StepFunction.indicator(0.25, 0.625, UNIT),
        "mixed_step": StepFunction((0.0, 0.25, 0.625, 1.0), (0.5, -0.5, 2.0)),
    }
    rows = expansion_battery(basis, 1024, integrands, 64, (1, 4, 16, 64),
                             seed=6006, paths=10_000)
    _report(6, "Monte Carlo mean-square expansion gap matches the exact mean "
               "square of the drawn gap within 4 SE for N in {1,4,16,64}, "
               "1e4 paths, 3 integrands", _failures(rows))


def test_criterion_7_pathwise_rs():
    rows = integral_battery(YehSpec.brownian(UNIT), lambda t: t, 128, seed=7007, paths=100)
    ratio = next(r.observed for r in rows if r.check == "integral_gap_ratio")
    _report(7, "pathwise RS vs L2 projection within combined refinement "
               f"estimates on 100 paths; doubling cells scales the median gap "
               f"by {ratio:.3f}", _failures(rows))


def test_criterion_8_martingale_classification():
    rows = truth_table_battery(UNIT, 20, seed=8008)
    rows += [r for r in counterexample_battery()
             if r.check == "counterexample_verdict_neither"]
    _report(8, "drift-sign truth table reproduced on 20 randomized instances "
               "with exact drifts; mixed-sign example is neither", _failures(rows))


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
