"""Random-series expansion of Wiener integrals and truncation defects."""

import math

import numpy as np
import pytest

from yehsim import (
    BasisFamily,
    GaussianStream,
    Interval,
    StepFunction,
    VarianceFunction,
    YehSpec,
    expand_integral,
    fourier_coeffs,
    integrate_l2,
    make_grid,
    norm_sq_rho,
    parseval_defect,
    sample_increments,
    series_variance_defect,
)
from yehsim.funcspace import project_family, project_to_steps
from yehsim.integral import integrate_step_batch
from yehsim.process import increment_value_matrix

UNIT = Interval(0.0, 1.0)
BROWNIAN = YehSpec.brownian(UNIT)
BASIS = BasisFamily(BROWNIAN.rho)
HALF = StepFunction.indicator(0.0, 0.5, UNIT)


def centered_path(stream, cells, rho=BROWNIAN.rho):
    """The centered path that expand_integral draws from `stream` on `cells`
    uniform cells, held as values."""
    return sample_increments(YehSpec.centered(rho), make_grid(rho.interval, cells + 1),
                             stream)


class TestExpandIntegral:
    def test_matches_value_kernel_on_the_same_stream(self):
        # the family drawn from the normals is the value kernel on the
        # centered path of the same stream
        rho = VarianceFunction.power(UNIT, 2.0)
        basis = BasisFamily(rho)
        f = StepFunction((0.0, 0.25, 0.75, 1.0), (0.5, -0.5, 2.0))
        stream = GaussianStream(17, 3)
        report = expand_integral(f, basis, 12, 128, stream)
        path = centered_path(stream, 128, rho)
        edges, values = project_family([f], 128, UNIT, basis, 12)
        integrals = integrate_step_batch(edges, values, path.values, path.grid)
        assert report.target == pytest.approx(integrals[0], abs=1e-12)
        assert np.allclose(report.partial_sums,
                           np.cumsum(report.coefficients * integrals[1:]),
                           rtol=0, atol=1e-12)

    def test_basis_member_stabilizes_after_its_index(self):
        stream = GaussianStream(2)
        report = expand_integral(BASIS.member(2), BASIS, 6, 256, stream)
        direct = integrate_l2(BASIS.member(2), centered_path(stream, 256), 256).value
        for n in range(2, 6):
            assert report.partial_sums[n] == pytest.approx(direct, abs=1e-6)
        assert abs(report.defects[5]) <= 1e-8

    def test_constant_integrand_single_coefficient(self):
        stream = GaussianStream(3)
        one = StepFunction((0.0, 1.0), (1.0,))
        report = expand_integral(one, BASIS, 4, 64, stream)
        assert report.coefficients[0] == pytest.approx(1.0, abs=1e-15)
        assert report.partial_sums[0] == pytest.approx(report.target, abs=1e-12)
        # the single term already is X(1) - X(0)
        path = centered_path(stream, 64)
        assert report.target == pytest.approx(
            path.values[-1] - path.values[0], abs=1e-12
        )

    def test_half_indicator_defect_small_by_large_truncation(self):
        coeffs_defects = expand_integral(HALF, BASIS, 2000, 16, GaussianStream(4)).defects
        assert np.all(np.diff(coeffs_defects) <= 1e-15)
        assert coeffs_defects[-1] < 1e-3
        assert coeffs_defects[0] == pytest.approx(0.25, abs=1e-13)

    def test_mc_mean_square_gap_matches_defect(self):
        # lighter version of the acceptance battery, including the continuous
        # and basis-member integrands; zero-defect rows get a dust floor
        m = 2000
        cells = 1024
        grid = make_grid(UNIT, cells + 1)
        vals = increment_value_matrix(BROWNIAN, grid, 6001, m)
        integrands = [
            HALF,
            lambda t: np.asarray(t),
            BASIS.member(3),
        ]
        members = [BASIS.member(n) for n in range(16)]
        family = [project_to_steps(g, cells, UNIT) for g in (*integrands, *members)]
        integrals = integrate_step_batch(family[0].partition, [g.values for g in family],
                                         vals, grid)
        member_integrals = integrals[:, len(integrands):]
        for k, f in enumerate(integrands):
            targets = integrals[:, k]
            coeffs = fourier_coeffs(f, BASIS, 16)
            norm_sq = norm_sq_rho(f, BROWNIAN.rho)
            for n_terms in (1, 4, 16):
                partial = member_integrals[:, :n_terms] @ coeffs[:n_terms]
                gaps_sq = (targets - partial) ** 2
                defect = norm_sq - float(np.sum(coeffs[:n_terms] ** 2))
                se = gaps_sq.std(ddof=1) / math.sqrt(m)
                assert abs(gaps_sq.mean() - defect) <= 4 * se + 1e-7

    def test_almost_sure_convergence_proxy(self):
        # |target - partial sum| eventually below 10 * sqrt(analytic defect)
        for index in range(10):
            report = expand_integral(HALF, BASIS, 256, 512, GaussianStream(8100, index))
            gap = abs(report.target - report.partial_sums[-1])
            assert gap <= 10.0 * math.sqrt(report.defects[-1])

    def test_rows_export(self):
        report = expand_integral(HALF, BASIS, 3, 16, GaussianStream(9))
        rows = list(report.rows())
        assert [r[0] for r in rows] == [1, 2, 3]
        assert rows[0][2] == pytest.approx(0.25, abs=1e-13)


class TestParsevalDefect:
    def test_basis_member_exhausted(self):
        assert abs(parseval_defect(BASIS.member(5), BASIS, 6,
                                   resolution=2**13)) <= 1e-8

    def test_constant_exhausted_immediately(self):
        one = StepFunction((0.0, 1.0), (1.0,))
        assert parseval_defect(one, BASIS, 1) == pytest.approx(0.0, abs=1e-14)

    def test_half_indicator_single_term(self):
        assert parseval_defect(HALF, BASIS, 1) == pytest.approx(0.25, abs=1e-14)

    def test_monotone_in_truncation(self):
        prev = math.inf
        for n in (1, 2, 4, 8, 16, 32):
            d = parseval_defect(HALF, BASIS, n)
            assert d <= prev + 1e-12
            prev = d


class TestSeriesVarianceDefect:
    def test_zero_at_endpoint_for_every_truncation(self):
        for rho in (VarianceFunction.identity(UNIT), VarianceFunction.power(UNIT, 2.0)):
            basis = BasisFamily(rho)
            for n in (1, 2, 16, 301):
                assert series_variance_defect(basis, n, 1.0) <= 1e-12

    def test_half_time_single_term(self):
        assert series_variance_defect(BASIS, 1, 0.5) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_large_truncation_small_defect(self):
        assert series_variance_defect(BASIS, 1024, 0.5) < 1e-3

    def test_within_bounds(self):
        rng = np.random.default_rng(61)
        for t in rng.uniform(0, 1, 32):
            d = series_variance_defect(BASIS, 8, float(t))
            assert 0.0 <= d <= BROWNIAN.rho(float(t)) + 1e-15
