"""Verification batteries behind the command line's `verify` subcommand.

Each identity family has a battery: its scale is explicit (spec or basis,
grid, named integrands or pairs, seeds, path count, truncation) and it
returns (check, expected, observed, tolerance, pass) rows.  The suites'
integrands are step functions, so their means, rho-norms and coefficients
are exact.
A suite is a thin adapter from a RunConfig to battery arguments; the
acceptance tests call the same batteries at their own scale, and call
basis_battery and integral_battery, which no suite runs yet.  Monte Carlo
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

from .config import SUITE_NAMES, RunConfig
from .errors import ConfigError
from .funcspace import (BasisFamily, StepFunction, fourier_coeffs, inner_rho, project_family,
                        step_cells, stieltjes_integral)
from .martingale import classify
from .process import YehSpec, increment_functionals, make_grid, series_point_values
from .series import series_variance_defect
from .stats import ks_test, mean_se
from .stieltjes import Interval, MeanFunction, VarianceFunction, _eval_function, midpoint_rule
from .streams import _uniform_matrix

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
    """The sample mean against `expected` within 4 standard errors; a
    non-finite sample makes the row fail, not raise."""
    mean, se = mean_se(samples)
    return _within(check, expected, mean, 4.0 * se)


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
    means = {f: stieltjes_integral(f, spec.lam) for f in integrands}
    with np.errstate(over="ignore"):  # an overflowed product fails its row
        return [_mean_within(name, inner_rho(f, g[0], spec.rho) + means[f] * means[g[0]],
                             samples[f] * samples[g[0]]) if g else
                _mean_within(name, means[f], samples[f])
                for name, (f, *g) in pairs.items()]


def gaussian_battery(spec: YehSpec, integrands: dict, seeds, paths: int) -> list[CheckRow]:
    """KS tests of the Wiener integral law against its analytic Gaussian:
    check f"{name}_seed{k}" draws `paths` integrals of the named step
    integrand from the k-th of `seeds`, and passes when the p-value exceeds
    0.01."""
    rows = []
    for name, f in integrands.items():
        cells = step_cells([f], spec.interval)
        mean = stieltjes_integral(f, spec.lam)
        var = inner_rho(f, f, spec.rho)
        for k, seed in enumerate(seeds):
            samples = increment_functionals(spec, *cells, seed, paths)[:, 0]
            p_value = ks_test(samples, mean, var).p_value
            rows.append(CheckRow(f"{name}_seed{k}", 0.01, p_value, 0.0, p_value > 0.01))
    return rows


def series_battery(basis: BasisFamily, grid, pairs, truncation: int,
                   endpoint_terms: int, seed: int, paths: int) -> list[CheckRow]:
    """Closed-form truncation defects and the series-sampled covariance.

    The defects are the single-term one midway between the two middle grid
    points, and the one after endpoint_terms terms at the right end, which
    vanishes.  The first is closed form, so it may sit off the grid, as it
    does on an even grid: a 2-point grid's middle point would be b, where it
    vanishes too.  For each distinct index pair (i, j), at s, t = grid[i],
    grid[j], `paths` centered series paths of `truncation` terms give
    E[X(s) X(t)], which must be the truncated series' covariance K(s, t) =
    sum over k < truncation of A_k(s) A_k(t), the A_k being the running
    integrals of the members, within 4 SE.  An exact row bounds the
    truncation: K(s, t) lies within sqrt(D(s) D(t)) of rho(min(s, t)), D
    being the truncation defect, by Cauchy-Schwarz on the tail and Parseval's
    sum of A_k(t)**2 = rho(t).
    """
    rho = basis.rho
    t_mid = float(grid[(len(grid) - 1) // 2] + grid[len(grid) // 2]) / 2
    rows = [
        _within("series_defect_single_term_midpoint",
                rho(t_mid) * (1.0 - rho(t_mid) / rho.total_mass),
                series_variance_defect(basis, 1, t_mid), 1e-12),
        _within("series_defect_endpoint", 0.0,
                series_variance_defect(basis, endpoint_terms, rho.interval.b), 1e-12),
    ]
    cols = sorted({i for pair in pairs for i in pair})
    times = grid[cols]
    sv = series_point_values(basis, truncation, times, seed, paths)
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
    spec = YehSpec.centered(rho)
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


def basis_battery(bases: dict, count: int, resolution: int, pairs) -> list[CheckRow]:
    """Orthonormality of each named basis under the rho inner product.

    The Gram matrix G of the first `count` members is the midpoint rule at
    `resolution` cells; row f"basis_gram_{name}" holds max |G - I| within
    1e-8, and for each index pair (i, j), row
    f"basis_gram_cross_{name}_{i}_{j}" checks G[i, j] against inner_rho of
    the members phi_i and phi_j within 1e-12.
    """
    rows = []
    for name, basis in bases.items():
        rho = basis.rho
        _, mids, masses = midpoint_rule(rho.interval.a, rho.interval.b, resolution, rho)
        members = basis.values(np.arange(count), mids)
        gram = (members * masses) @ members.T
        rows.append(_within(f"basis_gram_{name}", 0.0,
                            float(np.abs(gram - np.eye(count)).max()), 1e-8))
        rows += [_within(f"basis_gram_cross_{name}_{i}_{j}", float(gram[i, j]),
                         inner_rho(basis.member(i), basis.member(j), rho, resolution), 1e-12)
                 for i, j in pairs]
    return rows


def integral_battery(spec: YehSpec, f, cells: int, seed: int, paths: int) -> list[CheckRow]:
    """The pathwise Riemann-Stieltjes sum of f against the L2 limit of its
    step projections, on c = cells and c = 2 * cells uniform cells.

    On c cells the left-tag sum has the pieces f(left), its tag spread the
    pieces f(right) - f(left), and the projection (project_family) f at the
    midpoints, on c and on c // 2 cells.  All are linear in the increments,
    so each of `paths` streams draws them as one step family on its
    step_cells partition.  The gap is the sum minus the c-cell projection.
    Row f"integral_bound_c{c}" counts the paths whose |gap| exceeds the sum
    of the two refinement estimates, |spread| and the projection's change
    from c // 2 cells, and must be 0.  That bound is an identity only for
    affine f (for f(t) = t the gap is -(h/2) X(1) and the spread h X(1));
    for other f a path can exceed it, so no suite may run this battery on a
    `poly` or `basis` integrand until a row that holds in law replaces
    it.  Row f"integral_gap_variance_c{c}"
    checks the gap's exact variance, the sum of (f(mid) - f(left))**2 drho,
    within 4 SE.  Row "integral_gap_ratio" holds the ratio of the median
    |gap| on 2 * cells to that on cells, which must be 0.5 within 25%
    (f is continuous and not constant).
    """
    iv = spec.interval
    counts = (cells, 2 * cells)
    steps, exact = [], []
    for c in counts:
        edges, (mid,) = project_family([f], c, iv)
        half_edges, (half,) = project_family([f], c // 2, iv)
        ends = _eval_function(f, np.asarray(edges))
        gap = ends[:-1] - mid
        steps += [StepFunction(edges, ends[:-1]), StepFunction(edges, ends[1:] - ends[:-1]),
                  StepFunction(edges, mid), StepFunction(half_edges, half)]
        exact.append((np.sum(gap * np.diff(spec.lam(edges))),
                      np.sum(gap * gap * np.diff(spec.rho(edges)))))
    draws = increment_functionals(spec, *step_cells(steps, iv), seed, paths)
    rows, medians = [], []
    for c, block, (mean, variance) in zip(counts, np.split(draws, len(counts), axis=1), exact):
        rs, spread, l2, coarse = block.T
        gap = rs - l2
        over = int(np.sum(np.abs(gap) > np.abs(spread) + np.abs(l2 - coarse)))
        rows += [CheckRow(f"integral_bound_c{c}", 0.0, float(over), 0.0, over == 0),
                 _mean_within(f"integral_gap_variance_c{c}", float(variance),
                              (gap - mean) ** 2)]
        medians.append(np.median(np.abs(gap)))
    with np.errstate(divide="ignore", invalid="ignore"):  # a constant f has no gap
        ratio = float(medians[1] / medians[0])
    return rows + [_within("integral_gap_ratio", 0.5, ratio, 0.125)]


def truth_table_battery(interval, instances: int, seed: int) -> list[CheckRow]:
    """The drift-sign truth table on random instances, instance i drawn from
    the 18 uniforms of stream (seed, i): it has an increasing (even i) or
    decreasing piecewise-linear drift and a positive or negative (by the
    parity of i // 2) step integrand, and classify, probing three random
    pairs, must say submartingale when the signs agree and supermartingale
    when they differ."""
    iv = Interval.coerce(interval)

    def scaled(lo, hi, u):
        return lo + (hi - lo) * u

    rows = []
    for i, u in enumerate(_uniform_matrix(seed, instances, 18, 0)):
        lam_dir, f_sign = (-1) ** i, (-1) ** (i // 2)
        want = "submartingale" if lam_dir == f_sign else "supermartingale"
        knots, increments, cuts, values, probes = np.split(u, [3, 7, 9, 12])
        knots = np.concatenate([[iv.a], np.sort(scaled(iv.a, iv.b, knots)), [iv.b]])
        lam = MeanFunction.piecewise(tuple(knots), tuple(
            lam_dir * np.concatenate([[0.0], np.cumsum(scaled(0.1, 1.0, increments))])))
        cuts = np.concatenate([[iv.a], np.sort(scaled(iv.a, iv.b, cuts)), [iv.b]])
        f = StepFunction(tuple(cuts), tuple(f_sign * scaled(0.1, 2.0, values)))
        probes = np.sort(scaled(iv.a, iv.b, probes).reshape(3, 2), axis=1)
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
                    stieltjes_integral(MIXED_SIGN_STEP, lam, 0.25, t), 1e-15)
            for name, t, want in _COUNTEREXAMPLE_DRIFTS]


def counterexample_battery(seed: int = 0, paths: int = 0) -> list[CheckRow]:
    """The exact drifts and mean of the mixed-sign step, its 'neither'
    verdict and, when paths > 0, the drifts by Monte Carlo: moments_battery
    mean rows of the step restricted to each drift's interval."""
    unit = Interval(0.0, 1.0)
    lam = MeanFunction.linear(unit, 1.0)
    neither = classify(MIXED_SIGN_STEP, lam, [(0.25, 0.5), (0.25, 0.75)]).verdict == "neither"
    rows = [*counterexample_drifts(),
            _within("counterexample_mean", 2 / 3, stieltjes_integral(MIXED_SIGN_STEP, lam),
                    1e-15),
            CheckRow("counterexample_verdict_neither", 1.0, float(neither), 0.0, neither)]
    if paths:
        rows += moments_battery(
            YehSpec(lam, VarianceFunction.identity(unit)),
            {f"counterexample_mc_drift_{name}": MIXED_SIGN_STEP.restrict(0.25, t)
             for name, t, _ in _COUNTEREXAMPLE_DRIFTS}, seed, paths)
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
    half indicator for N in {1, 4, 16}; no pair index is below 1, since at
    s = a every series term is 0."""
    iv = cfg.interval
    grid = make_grid(iv, cfg.grid_points, "t")
    n = len(grid)
    quarter = max(1, n // 4)
    half = StepFunction.indicator(iv.a, iv.a + iv.length / 2, iv)
    return [*series_battery(cfg.basis, grid, [(quarter, n // 2), (n // 2, n // 2),
                                              (quarter, 3 * n // 4)],
                            cfg.truncation, max(1, cfg.truncation), cfg.seed, cfg.paths),
            *expansion_battery(cfg.basis, n - 1, {"series_expansion_gap": half}, 16,
                               (1, 4, 16), _suite_seed(cfg, 7), cfg.paths)]


def martingale_suite(cfg: RunConfig) -> list[CheckRow]:
    """Eight truth-table instances, and the centered process as a
    martingale: zero drift within 4 SE."""
    iv = cfg.interval
    return [*truth_table_battery(iv, 8, cfg.seed),
            *moments_battery(YehSpec.centered(cfg.rho),
                             {"martingale_mc_centered_drift":
                              StepFunction.indicator(iv.a, iv.b, iv)},
                             _suite_seed(cfg, 3), max(cfg.paths, 100))]


def counterexample_suite(cfg: RunConfig) -> list[CheckRow]:
    return counterexample_battery(_suite_seed(cfg, 11), max(cfg.paths, 100))


def run_suite(name: str, cfg: RunConfig) -> list[CheckRow]:
    """Run the named suite, or all of them in SUITE_NAMES order.  The suite
    is looked up by name at call time, so a wrapper set on the module's
    f"{name}_suite" attribute is the one that runs."""
    if name == "all":
        return [row for suite in SUITE_NAMES for row in run_suite(suite, cfg)]
    if name not in SUITE_NAMES:
        raise ConfigError(f"suite: unknown suite {name!r}")
    return globals()[f"{name}_suite"](cfg)
