"""Verification batteries behind the command line's `verify` subcommand.

Each identity family has a battery: its scale is explicit (spec or basis,
grid, named integrands or pairs, seeds, path count, truncation) and it
returns (check, expected, observed, tolerance, pass) rows.  The integrands
are step functions, so their means, rho-norms and coefficients are exact.
A suite is a thin adapter from a RunConfig to battery arguments; the
acceptance tests call the same batteries at their own scale.  Monte Carlo
rows draw step integrals on the integrands' own partition
(funcspace.step_cells; the expansion gap on its projection's partition,
project_family's edges) and check the exact law of what was drawn,
within 4 standard errors; truncation and projection errors get exact rows
of their own.  Exact identities carry absolute tolerances.  Suite draws
derive from the manifest seed through fixed seed offsets (taken modulo
2**64) and stream indices, so reruns give identical rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import ConfigError
from .funcspace import (BasisFamily, StepFunction, fourier_coeffs, norm_sq_rho,
                        project_family, step_cells)
from .integral import integral_covariance, integral_mean
from .martingale import _restrict_step, classify, conditional_increment_mean
from .process import YehSpec, increment_functionals, make_grid, series_point_values
from .series import series_variance_defect
from .stats import ks_test
from .stieltjes import Interval, MeanFunction, VarianceFunction

#: The mixed-sign step integrand defeating sub/supermartingale classification:
#: 1/2 on [0, 1/3), -1/2 on [1/3, 2/3), 2 on [2/3, 1], with drift lambda(t) = t.
MIXED_SIGN_STEP = StepFunction((0.0, 1 / 3, 2 / 3, 1.0), (0.5, -0.5, 2.0))


@dataclass(frozen=True)
class CheckRow:
    check: str
    expected: float
    observed: float
    tolerance: float
    passed: bool


def _within(check: str, expected: float, observed: float, tol: float) -> CheckRow:
    """|observed - expected| <= tol; a tolerance that overflowed to inf or nan
    bounds nothing, so the check fails."""
    return CheckRow(check, expected, observed, tol,
                    math.isfinite(tol) and abs(observed - expected) <= tol)


def _mean_within(check: str, expected: float, samples: np.ndarray) -> CheckRow:
    """The sample mean against `expected` within 4 standard errors."""
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    return _within(check, expected, float(samples.mean()), 4.0 * se)


def _suite_seed(cfg: RunConfig, offset: int) -> int:
    """The manifest seed shifted by a suite's fixed offset, wrapped to 64 bits."""
    return (cfg.seed + offset) % 2**64


def moments_battery(spec: YehSpec, checks: dict, seed: int, paths: int) -> list[CheckRow]:
    """Sample moments of Wiener integrals against the analytic formulas.

    checks maps a check name to a step integrand f, for the mean E[I(f)] (the
    integral of f against d(lambda)), or to a pair (f, g), for E[I(f) I(g)]
    (the rho inner product plus the product of the means).  All integrals of
    a path come from one stream, drawn on the integrands' own partition; the
    paths are streams 0 .. paths - 1.
    """
    pairs = {name: c if isinstance(c, tuple) else (c,) for name, c in checks.items()}
    integrands = list(dict.fromkeys(f for pair in pairs.values() for f in pair))
    samples = dict(zip(integrands, increment_functionals(
        spec, *step_cells(integrands, spec.interval), seed, paths).T))
    return [_mean_within(name, integral_covariance(f, g[0], spec.lam, spec.rho),
                         samples[f] * samples[g[0]]) if g else
            _mean_within(name, integral_mean(f, spec.lam), samples[f])
            for name, (f, *g) in pairs.items()]


def gaussian_battery(spec: YehSpec, integrands: dict, seeds, paths: int) -> list[CheckRow]:
    """KS tests of the Wiener integral law against its analytic Gaussian:
    check f"{name}_seed{k}" draws `paths` integrals of the named step
    integrand from the k-th of `seeds`, and passes when the p-value exceeds
    0.01."""
    rows = []
    for name, f in integrands.items():
        cells = step_cells([f], spec.interval)
        mean = integral_mean(f, spec.lam)
        var = norm_sq_rho(f, spec.rho)
        for k, seed in enumerate(seeds):
            samples = increment_functionals(spec, *cells, seed, paths)[:, 0]
            p_value = ks_test(samples, mean, var).p_value
            rows.append(CheckRow(f"{name}_seed{k}", 0.01, p_value, 0.0, p_value > 0.01))
    return rows


def series_battery(basis: BasisFamily, grid, pairs, truncation: int,
                   endpoint_terms: int, seed: int, paths: int) -> list[CheckRow]:
    """Closed-form truncation defects and the series-sampled covariance.

    The defects are the single-term one at the grid midpoint and the one
    after endpoint_terms terms at the right end, which vanishes.  For each
    distinct index pair (i, j), at s, t = grid[i], grid[j], `paths` centered
    series paths of `truncation` terms give E[X(s) X(t)], which must be the
    truncated series' covariance K(s, t) = sum over k < truncation of
    A_k(s) A_k(t), the A_k being the running integrals of the members, within
    4 SE.  An exact row bounds the truncation: K(s, t) lies within
    sqrt(D(s) D(t)) of rho(min(s, t)), D being the truncation defect, by
    Cauchy-Schwarz on the tail and Parseval's sum of A_k(t)**2 = rho(t).
    """
    rho = basis.rho
    t_mid = float(grid[len(grid) // 2])
    rows = [
        _within("series_defect_single_term_midpoint",
                rho(t_mid) * (1.0 - rho(t_mid) / rho.total_mass),
                series_variance_defect(basis, 1, t_mid), 1e-12),
        _within("series_defect_endpoint", 0.0,
                series_variance_defect(basis, endpoint_terms, rho.interval.b), 1e-12),
    ]
    spec = YehSpec(MeanFunction.zero(rho.interval), rho)
    cols = sorted({i for pair in pairs for i in pair})
    times = grid[cols]
    sv = series_point_values(spec, basis, truncation, times, seed, paths)
    amatrix = basis.antiderivative(np.arange(truncation), times)
    defects = series_variance_defect(basis, truncation, times)
    for i, j in dict.fromkeys(pairs):
        ci, cj = cols.index(i), cols.index(j)
        kernel = float(np.sum(amatrix[:, ci] * amatrix[:, cj]))
        rows += [_mean_within(f"series_cov_{i}_{j}", kernel, sv[:, ci] * sv[:, cj]),
                 _within(f"series_truncation_{i}_{j}", rho(float(min(grid[i], grid[j]))),
                         kernel, math.sqrt(defects[ci] * defects[cj]) + 1e-12)]
    return rows


def expansion_battery(basis: BasisFamily, cells: int, integrands: dict, max_terms: int,
                      term_counts, seed: int, paths: int) -> list[CheckRow]:
    """Mean-square gap of the truncated expansion against its exact law.

    Each named step integrand f and the first max_terms basis members are
    projected onto `cells` uniform cells (project_family), a step family
    with piece rows w_f and w_k drawn on its own partition.  The gap after
    n terms, I(f) - sum over k < n of c_k I(phi_k), has the piece row
    g = w_f - sum over k < n of c_k w_k, so its exact mean square under the
    centered spec is the sum of g**2 drho over the cells.  The i-th
    integrand's `paths` centered paths are streams [i * paths,
    (i + 1) * paths); check f"{name}_N{n}" compares their mean squared gap
    with that value within 4 SE, for n in term_counts.
    """
    rho = basis.rho
    iv = rho.interval
    spec = YehSpec(MeanFunction.zero(iv), rho)
    rows = []
    for i, (name, f) in enumerate(integrands.items()):
        edges, pieces = project_family([f], cells, iv, basis, max_terms)
        drho = np.diff(rho(np.asarray(edges)))
        coeffs = fourier_coeffs(f, basis, max_terms)
        gaps = np.array([pieces[0] - np.sum(coeffs[:n, None] * pieces[1:n + 1], axis=0)
                         for n in term_counts])
        samples = increment_functionals(spec, edges, gaps, seed, paths, i * paths)
        rows += [_mean_within(f"{name}_N{n}", float(np.sum(g * g * drho)), gap ** 2)
                 for n, g, gap in zip(term_counts, gaps, samples.T)]
    return rows


def truth_table_battery(interval, instances: int, seed: int) -> list[CheckRow]:
    """The drift-sign truth table on random instances drawn from RNG `seed`:
    instance i has an increasing (even i) or decreasing piecewise-linear drift
    and a positive or negative (by the parity of i // 2) step integrand, and
    classify, probing three random pairs, must say submartingale when the
    signs agree and supermartingale when they differ."""
    rng = np.random.default_rng(seed)
    iv = Interval.coerce(interval)
    rows = []
    for i in range(instances):
        lam_dir, f_sign = (-1) ** i, (-1) ** (i // 2)
        want = "submartingale" if lam_dir == f_sign else "supermartingale"
        knots = np.concatenate([[iv.a], np.sort(rng.uniform(iv.a, iv.b, 3)), [iv.b]])
        increments = rng.uniform(0.1, 1.0, 4)
        lam = MeanFunction.piecewise(
            tuple(knots), tuple(lam_dir * np.concatenate([[0.0], np.cumsum(increments)])))
        cuts = np.concatenate([[iv.a], np.sort(rng.uniform(iv.a, iv.b, 2)), [iv.b]])
        f = StepFunction(tuple(cuts), tuple(f_sign * rng.uniform(0.1, 2.0, 3)))
        probes = [tuple(np.sort(rng.uniform(iv.a, iv.b, 2))) for _ in range(3)]
        passed = classify(f, lam, probes).verdict == want
        rows.append(CheckRow(f"martingale_table_{i}_{want}", 1.0, float(passed), 0.0, passed))
    return rows


#: (name, t, drift): the drift of the mixed-sign step over (1/4, t).
_COUNTEREXAMPLE_DRIFTS = (("quarter_half", 0.5, -1 / 24),
                          ("quarter_threequarter", 0.75, 1 / 24))


def counterexample_drifts() -> list[CheckRow]:
    """The exact -1/24 and +1/24 drifts of the mixed-sign step under
    lambda(t) = t over (1/4, 1/2) and (1/4, 3/4)."""
    lam = MeanFunction.linear(Interval(0.0, 1.0), 1.0)
    return [_within(f"counterexample_drift_{name}", want,
                    conditional_increment_mean(MIXED_SIGN_STEP, lam, 0.25, t), 1e-15)
            for name, t, want in _COUNTEREXAMPLE_DRIFTS]


def counterexample_battery(seed: int = 0, paths: int = 0) -> list[CheckRow]:
    """The exact drifts and mean of the mixed-sign step, its 'neither'
    verdict and, when paths > 0, a Monte Carlo cross-check of the drifts."""
    unit = Interval(0.0, 1.0)
    lam = MeanFunction.linear(unit, 1.0)
    neither = classify(MIXED_SIGN_STEP, lam, [(0.25, 0.5), (0.25, 0.75)]).verdict == "neither"
    rows = [*counterexample_drifts(),
            _within("counterexample_mean", 2 / 3, integral_mean(MIXED_SIGN_STEP, lam), 1e-15),
            CheckRow("counterexample_verdict_neither", 1.0, float(neither), 0.0, neither)]
    if paths:
        spec = YehSpec(lam, VarianceFunction.identity(unit))
        cells = step_cells([_restrict_step(MIXED_SIGN_STEP, 0.25, t)
                            for _, t, _ in _COUNTEREXAMPLE_DRIFTS], unit)
        drifts = increment_functionals(spec, *cells, seed, paths)
        rows += [_mean_within(f"counterexample_mc_drift_{name}", want, samples)
                 for (name, _, want), samples in zip(_COUNTEREXAMPLE_DRIFTS, drifts.T)]
    return rows


def moments_suite(cfg: RunConfig) -> list[CheckRow]:
    """The full indicator f and the indicator g up to the grid midpoint."""
    iv = cfg.interval
    grid = make_grid(iv, cfg.grid_points, "t")
    f = StepFunction.indicator(iv.a, iv.b, iv)
    g = StepFunction.indicator(iv.a, float(grid[len(grid) // 2]), iv)
    checks = {"moments_mean_f": f, "moments_mean_g": g,
              "moments_second_fg": (f, g), "moments_second_ff": (f, f)}
    return moments_battery(YehSpec(cfg.lam, cfg.rho), checks, cfg.seed, cfg.paths)


def gaussian_suite(cfg: RunConfig) -> list[CheckRow]:
    """Full, half and mixed-sign step integrands, 3 seeds, at least 1000 paths."""
    iv = cfg.interval
    q = iv.length / 4.0
    integrands = {
        "gaussian_ks_full": StepFunction.indicator(iv.a, iv.b, iv),
        "gaussian_ks_half": StepFunction.indicator(iv.a, iv.a + 2 * q, iv),
        "gaussian_ks_mixed": StepFunction((iv.a, iv.a + q, iv.a + 3 * q, iv.b),
                                          (0.5, -0.5, 2.0)),
    }
    return gaussian_battery(YehSpec(cfg.lam, cfg.rho), integrands,
                            [_suite_seed(cfg, k) for k in range(3)], max(cfg.paths, 1000))


def series_suite(cfg: RunConfig) -> list[CheckRow]:
    """Defects, covariance at three grid pairs, and the expansion gap of the
    half indicator for N in {1, 4, 16}."""
    iv = cfg.interval
    grid = make_grid(iv, cfg.grid_points, "t")
    n = len(grid)
    half = StepFunction.indicator(iv.a, iv.a + iv.length / 2, iv)
    return [*series_battery(cfg.basis, grid, [(n // 4, n // 2), (n // 2, n // 2),
                                              (n // 4, 3 * n // 4)],
                            cfg.truncation, max(1, cfg.truncation), cfg.seed, cfg.paths),
            *expansion_battery(cfg.basis, n - 1, {"series_expansion_gap": half}, 16,
                               (1, 4, 16), _suite_seed(cfg, 7), cfg.paths)]


def martingale_suite(cfg: RunConfig) -> list[CheckRow]:
    """Eight truth-table instances, and the centered process as a
    martingale: zero drift within 4 SE."""
    iv = cfg.interval
    cells = step_cells([StepFunction.indicator(iv.a, iv.b, iv)], iv)
    samples = increment_functionals(YehSpec(MeanFunction.zero(iv), cfg.rho), *cells,
                                    _suite_seed(cfg, 3), max(cfg.paths, 100))[:, 0]
    return [*truth_table_battery(iv, 8, cfg.seed),
            _mean_within("martingale_mc_centered_drift", 0.0, samples)]


def counterexample_suite(cfg: RunConfig) -> list[CheckRow]:
    return counterexample_battery(_suite_seed(cfg, 11), max(cfg.paths, 100))


SUITES = {"moments": moments_suite, "gaussian": gaussian_suite, "series": series_suite,
          "martingale": martingale_suite, "counterexample": counterexample_suite}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, cfg: RunConfig) -> list[CheckRow]:
    if name == "all":
        return [row for suite in SUITE_NAMES for row in run_suite(suite, cfg)]
    if name not in SUITES:
        raise ConfigError(f"suite: unknown suite {name!r}")
    return SUITES[name](cfg)
