"""Wiener integrals: exact step sums, L2 projection route, pathwise RS sums."""

import numpy as np
import pytest

from yehsim import (
    GaussianStream,
    Integrand,
    Interval,
    MeanFunction,
    MissingBVCertificateError,
    PartitionNotOnGridError,
    StepFunction,
    VarianceFunction,
    YehSpec,
    integral_covariance,
    integral_distribution,
    integral_mean,
    integrate_l2,
    integrate_pathwise_rs,
    integrate_step,
    inner_lambda_rho,
    make_grid,
    sample_increments,
    step_combine,
)
from yehsim.funcspace import step_cells
from yehsim.integral import integrate_step_batch
from yehsim.process import increment_value_matrix
from yehsim.verify import gaussian_battery, moments_battery

UNIT = Interval(0.0, 1.0)
BROWNIAN = YehSpec.brownian(UNIT)
ONE = StepFunction((0.0, 1.0), (1.0,))
COUNTEREXAMPLE = StepFunction((0.0, 1 / 3, 2 / 3, 1.0), (0.5, -0.5, 2.0))


def brownian_path(seed, points=1025, index=0):
    return sample_increments(BROWNIAN, make_grid(UNIT, points),
                             GaussianStream(seed, index))


class TestIntegrateStep:
    def test_full_indicator_telescopes(self):
        path = brownian_path(1)
        out = integrate_step(ONE, path)
        assert out.value == path.values[-1] - path.values[0]
        assert out.refinement == 0.0

    def test_zero_integrand(self):
        path = brownian_path(2)
        zero = StepFunction((0.0, 1.0), (0.0,))
        assert integrate_step(zero, path).value == 0.0

    def test_refined_partition_same_value(self):
        path = brownian_path(3, points=65)
        f = StepFunction((0.0, 0.25, 1.0), (2.0, -1.0))
        refined = StepFunction((0.0, 0.125, 0.25, 0.5, 1.0), (2.0, 2.0, -1.0, -1.0))
        assert integrate_step(f, path).value == pytest.approx(
            integrate_step(refined, path).value, abs=1e-14
        )

    def test_linearity_exact(self):
        rng = np.random.default_rng(53)
        path = brownian_path(4, points=129)
        grid = path.grid
        for _ in range(20):
            cuts_f = np.sort(rng.choice(grid[1:-1], size=3, replace=False))
            cuts_g = np.sort(rng.choice(grid[1:-1], size=2, replace=False))
            f = StepFunction((0.0, *cuts_f, 1.0), tuple(rng.normal(size=4)))
            g = StepFunction((0.0, *cuts_g, 1.0), tuple(rng.normal(size=3)))
            alpha, beta = rng.normal(size=2)
            combo = step_combine(alpha, f, beta, g)
            lhs = integrate_step(combo, path).value
            rhs = (alpha * integrate_step(f, path).value
                   + beta * integrate_step(g, path).value)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_partition_off_grid_refused(self):
        path = brownian_path(5, points=1025)
        f = StepFunction((0.0, 1 / 3, 1.0), (1.0, 2.0))  # 1/3 is not dyadic
        with pytest.raises(PartitionNotOnGridError):
            integrate_step(f, path)

    def test_non_step_integrand_refused(self):
        path = brownian_path(5, points=33)
        with pytest.raises(TypeError, match="step integrands"):
            integrate_step(lambda t: t, path)

    def test_batch_matches_single(self):
        grid = make_grid(UNIT, 33)
        vals = increment_value_matrix(BROWNIAN, grid, 77, 6)
        f = StepFunction((0.0, 0.25, 0.75, 1.0), (1.0, -2.0, 0.5))
        batch = integrate_step_batch(f.partition, f.values, vals, grid)[:, 0]
        for k in range(6):
            from yehsim import SamplePath

            single = integrate_step(f, SamplePath(grid, vals[k], "increments"))
            assert batch[k] == pytest.approx(single.value, abs=0)


class TestFamilyKernel:
    def test_family_matches_single_members(self):
        grid = make_grid(UNIT, 1025)
        vals = increment_value_matrix(BROWNIAN, grid, 88, 1000)
        rng = np.random.default_rng(89)
        partition = tuple(grid[::4])
        pieces = np.array([rng.normal(size=256) for _ in range(64)])
        batch = integrate_step_batch(partition, pieces, vals, grid)
        assert batch.shape == (1000, 64)
        for j, row in enumerate(pieces):
            single = integrate_step_batch(partition, row, vals, grid)[:, 0]
            assert np.max(np.abs(batch[:, j] - single)) <= 1e-13


class TestStepCells:
    def test_grid_is_partition_union_with_interval_ends(self):
        inner = StepFunction((0.25, 0.5, 0.75), (1.0, -2.0))
        grid, weights = step_cells([inner, COUNTEREXAMPLE], UNIT)
        assert grid.tolist() == [0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0]
        assert weights.tolist() == [[0.0, 1.0, 1.0, -2.0, -2.0, 0.0],
                                    [0.5, 0.5, -0.5, -0.5, 2.0, 2.0]]

    def test_integrals_equal_the_kernel_on_a_finer_grid(self):
        # the kernel on the increments of a 1025-point path, merged per cell
        fine = make_grid(UNIT, 1025)
        family = [StepFunction((0.0, 0.375, 1.0), (2.0, -1.0)), ONE]
        grid, weights = step_cells(family, UNIT)
        vals = increment_value_matrix(BROWNIAN, fine, 90, 5)
        coarse = np.diff(vals[:, np.searchsorted(fine, grid)], axis=1) @ weights.T
        want = np.column_stack([integrate_step_batch(f.partition, f.values, vals, fine)
                                for f in family])
        assert np.max(np.abs(coarse - want)) <= 1e-13

    def test_non_step_integrand_refused(self):
        with pytest.raises(TypeError):
            step_cells([lambda t: t], UNIT)


class TestIntegrateL2:
    def test_aligned_step_equals_exact(self):
        path = brownian_path(6, points=257)
        f = StepFunction((0.0, 0.25, 0.75, 1.0), (1.0, -2.0, 0.5))
        exact = integrate_step(f, path).value
        approx = integrate_l2(f, path, 64)
        assert approx.value == pytest.approx(exact, abs=1e-14)

    def test_partial_span_step_equals_exact(self):
        path = brownian_path(7, points=257)
        h = StepFunction((0.25, 0.5), (1.0,))  # 0 outside [0.25, 0.5]
        exact = integrate_step(h, path).value
        assert exact == path.values[128] - path.values[64]
        assert integrate_l2(h, path, 64).value == pytest.approx(exact, abs=1e-14)

    def test_refinement_estimate_shrinks_with_cells(self):
        # median over 100 seeded paths, three doublings
        f = Integrand.from_function(lambda t: t, bv_breaks=(0.0, 1.0))
        estimates = {cells: [] for cells in (64, 128, 256, 512)}
        for k in range(100):
            path = brownian_path(900, points=513, index=k)
            for cells in estimates:
                estimates[cells].append(integrate_l2(f, path, cells).refinement)
        medians = [np.median(estimates[c]) for c in (64, 128, 256, 512)]
        assert medians[0] > medians[1] > medians[2] > medians[3]

    def test_mc_variance_of_linear_integrand(self):
        # Var I(t) = integral of t^2 dt = 1/3
        m = 100_000
        cells = 512
        grid = make_grid(UNIT, cells + 1)
        vals = increment_value_matrix(BROWNIAN, grid, 2718, m)
        from yehsim import project_to_steps

        proj = project_to_steps(lambda t: t, cells, UNIT)
        samples = integrate_step_batch(proj.partition, proj.values, vals, grid)[:, 0]
        var = samples.var(ddof=1)
        se = var * np.sqrt(2.0 / m)
        assert abs(var - 1 / 3) <= 4 * se

    def test_l2_extension_bound(self):
        # E[(I(f) - I(f_n))^2] <= (1 + TV(lambda)) * ||f - f_n||^2 in the
        # joint norm, for step approximations of f(t) = t
        lam = MeanFunction.linear(UNIT, 1.0)
        spec = YehSpec(lam, VarianceFunction.identity(UNIT))
        m = 20_000
        cells_fine = 256
        grid = make_grid(UNIT, cells_fine + 1)
        vals = increment_value_matrix(spec, grid, 31415, m)
        from yehsim import project_to_steps

        fine = project_to_steps(lambda t: t, cells_fine, UNIT)
        samples_fine = integrate_step_batch(fine.partition, fine.values, vals, grid)[:, 0]
        for n in (4, 16):
            coarse = project_to_steps(lambda t: t, n, UNIT)
            samples_n = integrate_step_batch(coarse.partition, coarse.values, vals,
                                             grid)[:, 0]
            gap_sq = (samples_fine - samples_n) ** 2
            diff = step_combine(1.0, fine, -1.0, coarse)
            bound = (1.0 + 1.0) * inner_lambda_rho(diff, diff, lam, spec.rho)
            se = gap_sq.std(ddof=1) / np.sqrt(m)
            assert gap_sq.mean() <= bound + 4 * se

    def test_cells_must_be_positive(self):
        with pytest.raises(ValueError):
            integrate_l2(ONE, brownian_path(7, points=17), 0)


class TestPathwiseRS:
    def test_constant_integrand_exact(self):
        path = brownian_path(8, points=129)
        f = Integrand.from_function(lambda t: 3.0 * np.ones_like(np.asarray(t)),
                                    bv_breaks=(0.0, 1.0))
        out = integrate_pathwise_rs(f, path, 32)
        assert out.value == pytest.approx(
            3.0 * (path.values[-1] - path.values[0]), abs=1e-13
        )

    def test_aligned_step_telescopes_to_exact(self):
        path = brownian_path(9, points=257)
        f = StepFunction((0.0, 0.25, 0.5, 1.0), (1.0, -1.0, 2.0))
        exact = integrate_step(f, path).value
        rs = integrate_pathwise_rs(f, path, 8)
        assert rs.value == pytest.approx(exact, abs=1e-14)

    def test_missing_certificate_rejected(self):
        path = brownian_path(10, points=17)
        with pytest.raises(MissingBVCertificateError):
            integrate_pathwise_rs(Integrand.from_function(lambda t: t), path, 4)

    def test_cross_method_agreement_100_paths(self):
        f = Integrand.from_function(lambda t: t, bv_breaks=(0.0, 1.0))
        for k in range(100):
            path = brownian_path(1000, points=513, index=k)
            rs = integrate_pathwise_rs(f, path, 256)
            l2 = integrate_l2(f, path, 256)
            assert abs(rs.value - l2.value) <= rs.refinement + l2.refinement


class TestAnalyticMoments:
    def test_mean_zero_drift(self):
        lam = MeanFunction.zero(UNIT)
        assert integral_mean(COUNTEREXAMPLE, lam) == 0.0
        assert integral_mean(lambda t: np.cos(t), lam, resolution=128) == 0.0

    def test_mean_constant_integrand(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        assert integral_mean(ONE, lam) == 1.0

    def test_mean_counterexample_integrand(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        assert integral_mean(COUNTEREXAMPLE, lam) == pytest.approx(2 / 3, abs=1e-15)

    def test_covariance_centered_indicator(self):
        lam = MeanFunction.zero(UNIT)
        rho = VarianceFunction.identity(UNIT)
        assert integral_covariance(ONE, ONE, lam, rho) == 1.0

    def test_disjoint_supports_give_independence(self):
        lam = MeanFunction.zero(UNIT)
        rho = VarianceFunction.power(UNIT, 2.0)
        f = StepFunction.indicator(0.0, 0.5, UNIT)
        g = StepFunction.indicator(0.5, 1.0, UNIT)
        assert integral_covariance(f, g, lam, rho) == 0.0

    def test_covariance_with_drift(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        rho = VarianceFunction.identity(UNIT)
        assert integral_covariance(ONE, ONE, lam, rho) == 2.0

    def test_distribution_plug_in(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        rho = VarianceFunction.identity(UNIT)
        assert integral_distribution(ONE, lam, rho) == (1.0, 1.0)

    def test_distribution_degenerate(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        rho = VarianceFunction.identity(UNIT)
        zero = StepFunction((0.0, 1.0), (0.0,))
        assert integral_distribution(zero, lam, rho) == (0.0, 0.0)

    def test_integral_law_by_ks_three_seeds(self):
        spec = YehSpec(MeanFunction.linear(UNIT, 1.0), VarianceFunction.power(UNIT, 2.0))
        f = StepFunction((0.0, 0.25, 0.75, 1.0), (1.0, -0.5, 2.0))
        rows = gaussian_battery(spec, {"ks": f}, (7001, 7002, 7003), 50_000)
        assert len(rows) == 3 and all(row.passed for row in rows), rows

    def test_centered_relation_exact_per_path(self):
        # integrating against the centered path removes exactly the drift term
        lam = MeanFunction.piecewise((0.0, 0.25, 1.0), (0.0, 1.5, -0.5))
        spec = YehSpec(lam, VarianceFunction.identity(UNIT))
        from yehsim import center

        f = StepFunction((0.0, 0.25, 0.5, 1.0), (1.0, -2.0, 0.5))
        from yehsim import stieltjes_step

        for k in range(5):
            raw = sample_increments(spec, make_grid(UNIT, 129),
                                    GaussianStream(606, k))
            raw_val = integrate_step(f, raw).value
            centered_val = integrate_step(f, center(raw, lam)).value
            assert raw_val - centered_val == pytest.approx(
                stieltjes_step(f, lam), abs=1e-13
            )

    def test_moment_identities_small_battery(self):
        # sample mean and covariance against the analytic formulas, 4 SE
        cases = [
            (MeanFunction.cantor(UNIT), VarianceFunction.identity(UNIT)),
            (MeanFunction.linear(UNIT, -1.0), VarianceFunction.power(UNIT, 2.0)),
        ]
        f = StepFunction.indicator(0.0, 0.5, UNIT)
        g = StepFunction((0.0, 0.5, 1.0), (1.0, -1.0))
        for seed, (lam, rho) in enumerate(cases, start=40):
            rows = moments_battery(YehSpec(lam, rho), {"f": f, "g": g, "fg": (f, g)},
                                   seed, 50_000)
            assert len(rows) == 3 and all(row.passed for row in rows), rows
