"""Verification batteries behind the command line's `verify` subcommand.

Each suite turns one identity family into (check, expected, observed,
tolerance, pass) rows at the configured Monte Carlo scale.  Stochastic checks
use the 4-standard-error convention; exact identities carry absolute
tolerances.  All draws derive from the manifest seed through fixed seed
offsets (taken modulo 2**64) and stream indices, so reruns produce identical
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .funcspace import StepFunction, fourier_coeffs, norm_sq_rho, project_family
from .integral import cell_weights, integral_covariance, integral_mean, step_weights
from .martingale import _restrict_step, classify, conditional_increment_mean
from .process import YehSpec, increment_functionals, make_grid, series_point_values
from .series import series_variance_defect
from .stats import ks_test
from .stieltjes import Interval, MeanFunction, VarianceFunction

SUITE_NAMES = ("moments", "gaussian", "series", "martingale", "counterexample")

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
    return CheckRow(check, expected, observed, tol, abs(observed - expected) <= tol)


def _threshold(check: str, p_value: float, floor: float = 0.01) -> CheckRow:
    return CheckRow(check, floor, p_value, 0.0, p_value > floor)


def _suite_seed(cfg: RunConfig, offset: int) -> int:
    """The manifest seed shifted by a suite's fixed offset, wrapped to 64 bits."""
    return (cfg.seed + offset) % 2**64


def _sample(cfg: RunConfig, sampler, *args, count: int) -> np.ndarray:
    """sampler(*args, count) rows; the reuse_streams fault-injection fixture
    makes every row a copy of stream 0's."""
    if cfg.reuse_streams:
        return np.tile(sampler(*args, 1), (count, 1))
    return sampler(*args, count)


def moments_suite(cfg: RunConfig) -> list[CheckRow]:
    """Sample means and second moments of Wiener integrals vs the analytic
    formulas (mean = integral against d(lambda); covariance adds the rho
    inner product)."""
    spec = YehSpec(cfg.lam, cfg.rho)
    grid = make_grid(cfg.interval, cfg.grid_points, "t")
    iv = cfg.interval
    f = StepFunction.indicator(iv.a, iv.b, iv)
    g = StepFunction.indicator(iv.a, float(grid[len(grid) // 2]), iv)
    m = cfg.paths
    sf, sg = _sample(cfg, increment_functionals, spec, grid, step_weights([f, g], grid),
                     cfg.seed, count=m).T
    rows = []
    for name, samples, expected in (
        ("moments_mean_f", sf, integral_mean(f, cfg.lam, cfg.resolution)),
        ("moments_mean_g", sg, integral_mean(g, cfg.lam, cfg.resolution)),
        ("moments_second_fg", sf * sg,
         integral_covariance(f, g, cfg.lam, cfg.rho, cfg.resolution)),
        ("moments_second_ff", sf * sf,
         integral_covariance(f, f, cfg.lam, cfg.rho, cfg.resolution)),
    ):
        se = samples.std(ddof=1) / math.sqrt(m)
        rows.append(_within(name, expected, float(samples.mean()), 4.0 * se))
    return rows


def gaussian_suite(cfg: RunConfig) -> list[CheckRow]:
    """KS tests of the Wiener integral law against its analytic Gaussian."""
    spec = YehSpec(cfg.lam, cfg.rho)
    iv = cfg.interval
    quarter = iv.length / 4.0
    integrands = {
        "full": StepFunction.indicator(iv.a, iv.b, iv),
        "half": StepFunction.indicator(iv.a, iv.a + 2 * quarter, iv),
        "mixed": StepFunction(
            (iv.a, iv.a + quarter, iv.a + 3 * quarter, iv.b), (0.5, -0.5, 2.0)
        ),
    }
    m = max(cfg.paths, 1000)
    rows = []
    for fname, f in integrands.items():
        grid = np.asarray(f.partition)
        mean = integral_mean(f, cfg.lam, cfg.resolution)
        var = norm_sq_rho(f, cfg.rho, cfg.resolution)
        for k in range(3):
            seed = _suite_seed(cfg, k)
            samples = _sample(cfg, increment_functionals, spec, grid,
                              step_weights([f], grid), seed, count=m)[:, 0]
            report = ks_test(samples, mean, var)
            rows.append(_threshold(f"gaussian_ks_{fname}_seed{k}", report.p_value))
    return rows


def series_suite(cfg: RunConfig) -> list[CheckRow]:
    """Series-sampled covariance, closed-form truncation defects, and the
    mean-square expansion gap against the Parseval defect."""
    basis = cfg.basis
    rho = cfg.rho
    iv = cfg.interval
    spec = YehSpec(MeanFunction.zero(iv), rho)
    grid = make_grid(iv, cfg.grid_points, "t")
    rows = []

    # closed-form variance defects
    t_mid = float(grid[len(grid) // 2])
    T = rho.total_mass
    rows.append(_within(
        "series_defect_single_term_midpoint",
        rho(t_mid) * (1.0 - rho(t_mid) / T),
        series_variance_defect(basis, 1, t_mid),
        1e-12,
    ))
    rows.append(_within(
        "series_defect_endpoint",
        0.0,
        series_variance_defect(basis, max(1, cfg.truncation), iv.b),
        1e-12,
    ))

    # covariance of series-sampled centered paths at grid pairs
    m = cfg.paths
    n_terms = cfg.truncation
    npts = len(grid)
    pairs = [(npts // 4, npts // 2), (npts // 2, npts // 2),
             (npts // 4, 3 * npts // 4)]
    cols = sorted({i for pair in pairs for i in pair})
    sv = _sample(cfg, series_point_values, spec, basis, n_terms, grid[cols],
                 cfg.seed, count=m)
    for i, j in pairs:
        s_t = (float(grid[i]), float(grid[j]))
        prod = sv[:, cols.index(i)] * sv[:, cols.index(j)]
        se = prod.std(ddof=1) / math.sqrt(m)
        d_i = series_variance_defect(basis, n_terms, s_t[0])
        d_j = series_variance_defect(basis, n_terms, s_t[1])
        rows.append(_within(
            f"series_cov_{i}_{j}",
            rho(min(s_t)),
            float(prod.mean()),
            math.sqrt(d_i * d_j) + 4.0 * se,
        ))

    # expansion mean-square gap vs analytic Parseval defect
    half = StepFunction.indicator(iv.a, iv.a + iv.length / 2, iv)
    cells = cfg.grid_points - 1
    max_terms = 16
    edges, values = project_family(
        [half, *(basis.member(n, certificate=False) for n in range(max_terms))], cells, iv)
    integrals = _sample(cfg, increment_functionals, spec, grid,
                        cell_weights(edges, values, grid), _suite_seed(cfg, 7), count=m)
    targets, members = integrals[:, 0], integrals[:, 1:]
    coeffs = fourier_coeffs(half, basis, max_terms, cfg.resolution)
    norm_sq = norm_sq_rho(half, rho, cfg.resolution)
    for n_terms in (1, 4, 16):
        partial = members[:, :n_terms] @ coeffs[:n_terms]
        gaps_sq = (targets - partial) ** 2
        defect = norm_sq - float(np.sum(coeffs[:n_terms] ** 2))
        se = gaps_sq.std(ddof=1) / math.sqrt(m)
        rows.append(_within(f"series_expansion_gap_N{n_terms}", defect,
                            float(gaps_sq.mean()), 4.0 * se))
    return rows


def martingale_suite(cfg: RunConfig) -> list[CheckRow]:
    """Drift classification table plus the exact mixed-sign counterexample."""
    rng = np.random.default_rng(cfg.seed)
    iv = cfg.interval
    rows = []
    table = {(1, 1): "submartingale", (1, -1): "supermartingale",
             (-1, 1): "supermartingale", (-1, -1): "submartingale"}
    for i in range(8):
        lam_dir = 1 if i % 2 == 0 else -1
        f_sign = 1 if (i // 2) % 2 == 0 else -1
        knots = np.concatenate([
            [iv.a], np.sort(rng.uniform(iv.a, iv.b, 3)), [iv.b]
        ])
        increments = rng.uniform(0.1, 1.0, 4)
        lam = MeanFunction.piecewise(
            tuple(knots),
            tuple(lam_dir * np.concatenate([[0.0], np.cumsum(increments)])),
        )
        cuts = np.concatenate([[iv.a], np.sort(rng.uniform(iv.a, iv.b, 2)), [iv.b]])
        f = StepFunction(tuple(cuts), tuple(f_sign * rng.uniform(0.1, 2.0, 3)))
        probes = [tuple(np.sort(rng.uniform(iv.a, iv.b, 2))) for _ in range(3)]
        verdict = classify(f, lam, probes)
        want = table[(lam_dir, f_sign)]
        rows.append(CheckRow(f"martingale_table_{i}_{want}", 1.0,
                             1.0 if verdict.verdict == want else 0.0, 0.0,
                             verdict.verdict == want))

    # the centered process itself is a martingale: zero drift within 4 SE
    spec = YehSpec(MeanFunction.zero(iv), cfg.rho)
    grid = make_grid(iv, 9, "t")
    m = max(cfg.paths, 100)
    f = StepFunction.indicator(iv.a, iv.b, iv)
    samples = _sample(cfg, increment_functionals, spec, grid, step_weights([f], grid),
                      _suite_seed(cfg, 3), count=m)[:, 0]
    se = samples.std(ddof=1) / math.sqrt(m)
    rows.append(_within("martingale_mc_centered_drift", 0.0,
                        float(samples.mean()), 4.0 * se + 1e-15))
    return rows


def counterexample_suite(cfg: RunConfig) -> list[CheckRow]:
    """The exact +-1/24 drifts of the mixed-sign step under lambda(t) = t,
    the 'neither' verdict, and a Monte Carlo cross-check."""
    unit = Interval(0.0, 1.0)
    lam = MeanFunction.linear(unit, 1.0)
    rows = [
        _within("counterexample_drift_quarter_half", -1 / 24,
                conditional_increment_mean(MIXED_SIGN_STEP, lam, 0.25, 0.5), 1e-15),
        _within("counterexample_drift_quarter_threequarter", 1 / 24,
                conditional_increment_mean(MIXED_SIGN_STEP, lam, 0.25, 0.75), 1e-15),
        _within("counterexample_mean", 2 / 3,
                integral_mean(MIXED_SIGN_STEP, lam), 1e-15),
    ]
    verdict = classify(MIXED_SIGN_STEP, lam, [(0.25, 0.5), (0.25, 0.75)])
    rows.append(CheckRow("counterexample_verdict_neither", 1.0,
                         1.0 if verdict.verdict == "neither" else 0.0, 0.0,
                         verdict.verdict == "neither"))
    spec = YehSpec(lam, VarianceFunction.identity(unit))
    m = max(cfg.paths, 100)
    grid = np.array(sorted({0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0}))
    checks = (
        ("counterexample_mc_drift_quarter_half", (0.25, 0.5), -1 / 24),
        ("counterexample_mc_drift_quarter_threequarter", (0.25, 0.75), 1 / 24),
    )
    weights = step_weights([_restrict_step(MIXED_SIGN_STEP, s, t)
                            for _, (s, t), _ in checks], grid)
    drifts = _sample(cfg, increment_functionals, spec, grid, weights,
                     _suite_seed(cfg, 11), count=m)
    for (name, _, want), samples in zip(checks, drifts.T):
        se = samples.std(ddof=1) / math.sqrt(m)
        rows.append(_within(name, want, float(samples.mean()), 4.0 * se))
    return rows


def run_suite(name: str, cfg: RunConfig) -> list[CheckRow]:
    if name == "all":
        rows = []
        for suite in SUITE_NAMES:
            rows.extend(run_suite(suite, cfg))
        return rows
    fn = {
        "moments": moments_suite,
        "gaussian": gaussian_suite,
        "series": series_suite,
        "martingale": martingale_suite,
        "counterexample": counterexample_suite,
    }.get(name)
    if fn is None:
        from .errors import ConfigError

        raise ConfigError(f"suite: unknown suite {name!r}")
    return fn(cfg)
