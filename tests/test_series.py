"""Random-series expansion of Wiener integrals and truncation defects."""

import math

import numpy as np
import pytest

from yehsim import (
    BasisFamily,
    GaussianStream,
    Interval,
    NotCenteredError,
    StepFunction,
    VarianceFunction,
    YehSpec,
    center,
    expand_integral,
    fourier_coeffs,
    integrate_l2,
    make_grid,
    norm_sq_rho,
    parseval_defect,
    sample_increments,
    series_variance_defect,
)
from yehsim.funcspace import project_to_steps
from yehsim.integral import integrate_step_batch
from yehsim.process import increment_value_matrix

UNIT = Interval(0.0, 1.0)
BROWNIAN = YehSpec.brownian(UNIT)
BASIS = BasisFamily(BROWNIAN.rho)
HALF = StepFunction.indicator(0.0, 0.5, UNIT)


def centered_path(seed, points=257, index=0):
    raw = sample_increments(BROWNIAN, make_grid(UNIT, points),
                            GaussianStream(seed, index))
    return center(raw, BROWNIAN.lam)


class TestExpandIntegral:
    def test_requires_centered_path(self):
        raw = sample_increments(BROWNIAN, make_grid(UNIT, 17), GaussianStream(1))
        with pytest.raises(NotCenteredError):
            expand_integral(HALF, BASIS, 4, raw, 16)

    def test_basis_member_stabilizes_after_its_index(self):
        path = centered_path(2)
        report = expand_integral(BASIS.member(2), BASIS, 6, path, 256)
        direct = integrate_l2(BASIS.member(2), path, 256).value
        for n in range(2, 6):
            assert report.partial_sums[n] == pytest.approx(direct, abs=1e-6)
        assert abs(report.defects[5]) <= 1e-8

    def test_constant_integrand_single_coefficient(self):
        path = centered_path(3)
        one = StepFunction((0.0, 1.0), (1.0,))
        report = expand_integral(one, BASIS, 4, path, 64)
        assert report.coefficients[0] == pytest.approx(1.0, abs=1e-15)
        assert report.partial_sums[0] == pytest.approx(report.target, abs=1e-12)
        # the single term already is X(1) - X(0)
        assert report.target == pytest.approx(
            path.values[-1] - path.values[0], abs=1e-12
        )

    def test_half_indicator_defect_small_by_large_truncation(self):
        coeffs_defects = expand_integral(
            HALF, BASIS, 2000, centered_path(4, points=17), 16
        ).defects
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
            path = centered_path(8100, points=513, index=index)
            report = expand_integral(HALF, BASIS, 256, path, 512)
            gap = abs(report.target - report.partial_sums[-1])
            assert gap <= 10.0 * math.sqrt(report.defects[-1])

    def test_rows_export(self):
        report = expand_integral(HALF, BASIS, 3, centered_path(9, points=17), 16)
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
