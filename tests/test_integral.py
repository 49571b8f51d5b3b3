"""Wiener integrals: the step-family kernel, the L2 projection route,
pathwise Riemann-Stieltjes sums and the analytic moments, which are
Stieltjes integrals: the mean against d(lambda), the covariance against
d(rho)."""

import numpy as np
import pytest

from yehsim import (
    Interval,
    MeanFunction,
    StepFunction,
    VarianceFunction,
    YehSpec,
    increment_functionals,
    inner_rho,
    make_grid,
    project_family,
    step_cells,
    stieltjes_integral,
)
from yehsim.process import increment_value_matrix
from yehsim import verify
from yehsim.verify import gaussian_battery, integral_battery, moments_battery

UNIT = Interval(0.0, 1.0)
BROWNIAN = YehSpec.brownian(UNIT)
ONE = StepFunction((0.0, 1.0), (1.0,))
COUNTEREXAMPLE = StepFunction((0.0, 1 / 3, 2 / 3, 1.0), (0.5, -0.5, 2.0))


def on_grid(family, grid):
    """The pieces of step functions whose partitions lie on the grid, one row
    per member and one column per grid cell."""
    zero = StepFunction(tuple(grid), (0.0,) * (len(grid) - 1))  # the union is the grid
    cells, pieces = step_cells(list(family) + [zero], UNIT)
    assert np.array_equal(cells, grid)
    return pieces[:-1]


def telescoped(partition, pieces, values, grid):
    """The defining telescoping sum over paths held as values on the grid:
    the values at the partition points, differenced once and weighted."""
    idx = np.searchsorted(grid, partition)
    assert np.array_equal(grid[idx], partition)
    return np.diff(values[:, idx], axis=1) @ np.atleast_2d(pieces).T


def covariance(f, g, lam, rho):
    """The covariance of I(f) and I(g) that moments_battery checks a pair's
    centered draws against."""
    (row,) = moments_battery(YehSpec(lam, rho), {"fg": (f, g)}, 0, 2)
    return row.expected


def left_tags(f, cells):
    """The step family of the left-tag Riemann-Stieltjes sum on uniform cells."""
    edges = np.linspace(0.0, 1.0, cells + 1)
    return StepFunction(edges, f(edges[:-1]))


class TestIntegrateStep:
    """The step-family kernel, increment_functionals, on step integrands."""

    def test_full_indicator_telescopes(self):
        grid = make_grid(UNIT, 1025)
        got = increment_functionals(BROWNIAN, grid, on_grid([ONE], grid), 1, 4)[0][:, 0]
        vals = increment_value_matrix(BROWNIAN, grid, 1, 4)
        assert np.max(np.abs(got - (vals[:, -1] - vals[:, 0]))) <= 1e-13

    def test_zero_integrand(self):
        zero = StepFunction((0.0, 1.0), (0.0,))
        assert np.all(increment_functionals(BROWNIAN, *step_cells([zero]), 2, 4)[0] == 0.0)

    def test_refined_partition_same_value(self):
        grid = make_grid(UNIT, 65)
        f = StepFunction((0.0, 0.25, 1.0), (2.0, -1.0))
        refined = StepFunction((0.0, 0.125, 0.25, 0.5, 1.0), (2.0, 2.0, -1.0, -1.0))
        got = increment_functionals(BROWNIAN, grid, on_grid([f, refined], grid), 3, 10)[0]
        assert np.max(np.abs(got[:, 0] - got[:, 1])) <= 1e-14

    def test_linearity_exact(self):
        rng = np.random.default_rng(53)
        grid = make_grid(UNIT, 129)
        for _ in range(20):
            cuts_f = np.sort(rng.choice(grid[1:-1], size=3, replace=False))
            cuts_g = np.sort(rng.choice(grid[1:-1], size=2, replace=False))
            f = StepFunction((0.0, *cuts_f, 1.0), tuple(rng.normal(size=4)))
            g = StepFunction((0.0, *cuts_g, 1.0), tuple(rng.normal(size=3)))
            alpha, beta = rng.normal(size=2)
            x, y = on_grid([f, g], grid)
            got = increment_functionals(BROWNIAN, grid, [x, y, alpha * x + beta * y], 4, 5)[0]
            assert np.max(np.abs(got[:, 2] - (alpha * got[:, 0] + beta * got[:, 1]))) <= 1e-12

    def test_non_step_integrand_refused(self):
        # the kernel takes integrands only as a step family: a function
        # handle reaches it through its projection (project_family)
        with pytest.raises(TypeError, match="step integrands"):
            step_cells([lambda t: t], UNIT)

    def test_batch_matches_single(self):
        f = StepFunction((0.0, 0.25, 0.75, 1.0), (1.0, -2.0, 0.5))
        cells = step_cells([f])
        batch = increment_functionals(BROWNIAN, *cells, 77, 6)[0]
        for k in range(6):
            single = increment_functionals(BROWNIAN, *cells, 77, 1, first_index=k)[0]
            assert np.array_equal(batch[k], single[0])


class TestFamilyKernel:
    def test_family_matches_single_members(self):
        grid = make_grid(UNIT, 1025)
        rng = np.random.default_rng(89)
        partition = grid[::4]
        pieces = np.array([rng.normal(size=256) for _ in range(64)])
        batch = increment_functionals(BROWNIAN, partition, pieces, 88, 1000)[0]
        assert batch.shape == (1000, 64)
        for j, row in enumerate(pieces):
            single = increment_functionals(BROWNIAN, partition, row[None], 88, 1000)[0][:, 0]
            assert np.max(np.abs(batch[:, j] - single)) <= 1e-13


class TestStepCells:
    def test_grid_is_partition_union_with_interval_ends(self):
        inner = StepFunction((0.25, 0.5, 0.75), (1.0, -2.0))
        grid, weights = step_cells([inner, COUNTEREXAMPLE], UNIT)
        assert grid.tolist() == [0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0]
        assert weights.tolist() == [[0.0, 1.0, 1.0, -2.0, -2.0, 0.0],
                                    [0.5, 0.5, -0.5, -0.5, 2.0, 2.0]]

    def test_integrals_equal_the_kernel_on_a_finer_grid(self):
        # the telescoping sum on the values of a 1025-point path, merged per cell
        fine = make_grid(UNIT, 1025)
        family = [StepFunction((0.0, 0.375, 1.0), (2.0, -1.0)), ONE]
        grid, weights = step_cells(family, UNIT)
        vals = increment_value_matrix(BROWNIAN, fine, 90, 5)
        coarse = np.diff(vals[:, np.searchsorted(fine, grid)], axis=1) @ weights.T
        want = np.column_stack([telescoped(f.partition, f.values, vals, fine)
                                for f in family])
        assert np.max(np.abs(coarse - want)) <= 1e-13

    def test_non_step_integrand_refused(self):
        with pytest.raises(TypeError):
            step_cells([lambda t: t], UNIT)

    def test_members_are_cut_to_the_interval(self):
        wide = StepFunction((-1.0, 0.5, 2.0), (1.0, 2.0))
        grid, weights = step_cells([wide, COUNTEREXAMPLE], UNIT)
        assert grid.tolist() == [0.0, 1 / 3, 0.5, 2 / 3, 1.0]
        assert weights.tolist() == [[1.0, 1.0, 2.0, 2.0], [0.5, -0.5, -0.5, 2.0]]


class TestIntegrateL2:
    """Integrands reach the kernel as their midpoint projections
    (project_family), the L2 route to the Wiener integral."""

    def test_aligned_step_equals_exact(self):
        grid = make_grid(UNIT, 257)
        f = StepFunction((0.0, 0.25, 0.75, 1.0), (1.0, -2.0, 0.5))
        edges, (proj,) = project_family([f], 64, UNIT)
        got = increment_functionals(BROWNIAN, grid,
                                    on_grid([f, StepFunction(edges, proj)], grid), 6, 10)[0]
        assert np.max(np.abs(got[:, 0] - got[:, 1])) <= 1e-14

    def test_partial_span_step_equals_exact(self):
        grid = make_grid(UNIT, 257)
        h = StepFunction((0.25, 0.5), (1.0,))  # 0 outside [0.25, 0.5]
        edges, (proj,) = project_family([h], 64, UNIT)
        got = increment_functionals(BROWNIAN, grid, on_grid([StepFunction(edges, proj)], grid),
                                    7, 10, first_index=3)[0]
        vals = increment_value_matrix(BROWNIAN, grid, 7, 10, first_index=3)
        assert np.max(np.abs(got[:, 0] - (vals[:, 128] - vals[:, 64]))) <= 1e-14

    def test_refinement_estimate_shrinks_with_cells(self):
        # |I(f_c) - I(f_{c/2})| for the midpoint projections f_c of f(t) = t:
        # its median over 100 streams shrinks with every doubling
        counts = (32, 64, 128, 256, 512)
        family = [StepFunction(edges, proj) for edges, (proj,) in
                  (project_family([lambda t: t], c, UNIT) for c in counts)]
        draws = increment_functionals(BROWNIAN, *step_cells(family, UNIT), 900, 100)[0]
        medians = np.median(np.abs(np.diff(draws, axis=1)), axis=0)
        assert medians[0] > medians[1] > medians[2] > medians[3]

    def test_mc_variance_of_linear_integrand(self):
        # Var I(t) = integral of t^2 dt = 1/3
        m = 100_000
        edges, pieces = project_family([lambda t: t], 512, UNIT)
        samples = increment_functionals(BROWNIAN, edges, pieces, 2718, m)[0][:, 0]
        var = samples.var(ddof=1)
        se = var * np.sqrt(2.0 / m)
        assert abs(var - 1 / 3) <= 4 * se

    def test_l2_extension_bound(self):
        # E[(I(f) - I(f_n))^2] <= (1 + TV(lambda)) * ||f - f_n||^2 in the
        # joint norm of d(rho) + d|lambda|, for step approximations of f(t) = t
        lam = MeanFunction.linear(UNIT, 1.0)
        spec = YehSpec(lam, VarianceFunction.identity(UNIT))
        m = 20_000

        def projection(n):
            edges, (pieces,) = project_family([lambda t: t], n, UNIT)
            return StepFunction(edges, pieces)

        for n in (4, 16):
            cells, (x, y) = step_cells([projection(256), projection(n)], UNIT)
            gap = x - y
            samples, (mean,) = increment_functionals(spec, cells, gap[None], 31415, m)
            joint = np.diff(spec.rho(cells)) + np.abs(np.diff(lam(cells)))
            bound = (1.0 + 1.0) * float(np.sum(gap * gap * joint))
            gap_sq = (samples[:, 0] + mean) ** 2
            se = gap_sq.std(ddof=1) / np.sqrt(m)
            assert gap_sq.mean() <= bound + 4 * se

    def test_cells_must_be_positive(self):
        with pytest.raises(ValueError):
            project_family([ONE], 0, UNIT)


class TestPathwiseRS:
    """Pathwise Riemann-Stieltjes sums against the L2 route
    (verify.integral_battery)."""

    def test_constant_integrand_exact(self):
        grid = make_grid(UNIT, 129)
        rs = left_tags(lambda t: 3.0 * np.ones_like(t), 32)
        got = increment_functionals(BROWNIAN, grid, on_grid([rs], grid), 8, 5)[0][:, 0]
        vals = increment_value_matrix(BROWNIAN, grid, 8, 5)
        assert np.max(np.abs(got - 3.0 * (vals[:, -1] - vals[:, 0]))) <= 1e-13

    def test_aligned_step_telescopes_to_exact(self):
        grid = make_grid(UNIT, 257)
        f = StepFunction((0.0, 0.25, 0.5, 1.0), (1.0, -1.0, 2.0))
        got = increment_functionals(BROWNIAN, grid, on_grid([f, left_tags(f, 8)], grid),
                                    9, 10)[0]
        assert np.max(np.abs(got[:, 0] - got[:, 1])) <= 1e-14

    @pytest.mark.parametrize("cells", [4, 256])
    def test_partial_span_step_equals_exact(self, cells):
        # a left tag on the partition's end 0.5 must read 0, not the last
        # value, which a StepFunction keeps at its own right end: the sum
        # tags the step cut to the interval
        grid = make_grid(UNIT, 257)
        h = StepFunction((0.25, 0.5), (1.0,))
        rs = left_tags(h.restrict(0.0, 1.0), cells)
        got = increment_functionals(BROWNIAN, grid, on_grid([h, rs], grid), 7, 10)[0]
        assert np.max(np.abs(got[:, 0] - got[:, 1])) <= 1e-14

    def test_cross_method_agreement_100_paths(self):
        rows = integral_battery(BROWNIAN, lambda t: t, 256, 1000, 100)
        assert all(row.passed for row in rows), rows

    def test_battery_fails_a_broken_kernel(self, monkeypatch):
        # for f(t) = t the bound and the ratio hold on any draws (the gap is
        # -(h/2) X(1)); the exact variance rows are the ones that see draws
        # of the wrong scale
        real = verify.increment_functionals

        def doubled(*args):
            samples, means = real(*args)
            return 2.0 * samples, means

        monkeypatch.setattr(verify, "increment_functionals", doubled)
        rows = {row.check: row.passed
                for row in integral_battery(BROWNIAN, lambda t: t, 128, 7007, 100)}
        assert rows == {"integral_bound_c128": True, "integral_gap_variance_c128": False,
                        "integral_bound_c256": True, "integral_gap_variance_c256": False,
                        "integral_gap_ratio": True}


class TestAnalyticMoments:
    def test_mean_zero_drift(self):
        lam = MeanFunction.zero(UNIT)
        assert stieltjes_integral(COUNTEREXAMPLE, lam) == 0.0
        assert stieltjes_integral(lambda t: np.cos(t), lam, resolution=128) == 0.0

    def test_mean_constant_integrand(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        assert stieltjes_integral(ONE, lam) == 1.0

    def test_mean_counterexample_integrand(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        assert stieltjes_integral(COUNTEREXAMPLE, lam) == pytest.approx(2 / 3, abs=1e-15)

    def test_covariance_centered_indicator(self):
        lam = MeanFunction.zero(UNIT)
        rho = VarianceFunction.identity(UNIT)
        assert covariance(ONE, ONE, lam, rho) == 1.0

    def test_disjoint_supports_give_independence(self):
        lam = MeanFunction.zero(UNIT)
        rho = VarianceFunction.power(UNIT, 2.0)
        f = StepFunction.indicator(0.0, 0.5, UNIT)
        g = StepFunction.indicator(0.5, 1.0, UNIT)
        assert covariance(f, g, lam, rho) == 0.0

    def test_covariance_with_drift(self):
        # the drift moves the mean, not the covariance
        lam = MeanFunction.linear(UNIT, 1.0)
        rho = VarianceFunction.identity(UNIT)
        assert covariance(ONE, ONE, lam, rho) == 1.0

    def test_distribution_plug_in(self):
        # the Gaussian law of I(f): mean integral of f dlambda, variance ||f||_rho^2
        lam = MeanFunction.linear(UNIT, 1.0)
        rho = VarianceFunction.identity(UNIT)
        assert (stieltjes_integral(ONE, lam), inner_rho(ONE, ONE, rho)) == (1.0, 1.0)

    def test_distribution_degenerate(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        rho = VarianceFunction.identity(UNIT)
        zero = StepFunction((0.0, 1.0), (0.0,))
        assert (stieltjes_integral(zero, lam), inner_rho(zero, zero, rho)) == (0.0, 0.0)

    def test_integral_law_by_ks_three_seeds(self):
        spec = YehSpec(MeanFunction.linear(UNIT, 1.0), VarianceFunction.power(UNIT, 2.0))
        f = StepFunction((0.0, 0.25, 0.75, 1.0), (1.0, -0.5, 2.0))
        rows = gaussian_battery(spec, {"ks": f}, [(7001, 0), (7002, 0), (7003, 0)], 50_000)
        assert len(rows) == 3 and all(row.passed for row in rows), rows

    def test_kernel_means_are_the_drift_integrals(self):
        # the kernel's drawn mean pieces @ dlambda is the exact mean of I(f)
        lam = MeanFunction.piecewise((0.0, 0.25, 1.0), (0.0, 1.5, -0.5))
        spec = YehSpec(lam, VarianceFunction.identity(UNIT))
        family = [StepFunction((0.0, 0.25, 0.5, 1.0), (1.0, -2.0, 0.5)), COUNTEREXAMPLE,
                  StepFunction((0.25, 0.5), (3.0,))]
        _, means = increment_functionals(spec, *step_cells(family, UNIT), 606, 5)
        want = [stieltjes_integral(f, lam) for f in family]
        assert np.max(np.abs(means - want)) <= 1e-13

    def test_non_finite_sample_fails_its_row(self, monkeypatch):
        def sampler(spec, partition, pieces, seed, count, first_index=0):
            samples = np.ones((count, len(pieces)))
            samples[3] = np.nan
            return samples, np.zeros(len(pieces))

        monkeypatch.setattr(verify, "increment_functionals", sampler)
        rows = moments_battery(BROWNIAN, {"mean": ONE}, 1, 100)
        assert [row.passed for row in rows] == [False]

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
