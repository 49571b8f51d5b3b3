"""Random-series expansion of Wiener integrals and truncation defects."""

import math
import os

import numpy as np
import pytest

from yehsim import (
    BasisFamily,
    Interval,
    StepFunction,
    VarianceFunction,
    YehSpec,
    expand_integral,
    fourier_coeffs,
    increment_functionals,
    inner_rho,
    make_grid,
    project_family,
    series_variance_defect,
)
from yehsim import verify
from yehsim.process import increment_value_matrix

from test_process import count_calls

UNIT = Interval(0.0, 1.0)
BROWNIAN = YehSpec.brownian(UNIT)
BASIS = BasisFamily(BROWNIAN.rho)
HALF = StepFunction.indicator(0.0, 0.5, UNIT)


def centered_integrals(seed, index, cells, pieces, rho=BROWNIAN.rho):
    """Step integrals over the centered path that expand_integral draws from
    stream (seed, index) on `cells` uniform cells, by the telescoping sum
    over the path held as values."""
    values = increment_value_matrix(YehSpec.centered(rho), make_grid(rho.interval, cells + 1),
                                    seed, 1, index)[0]
    return np.diff(values) @ np.atleast_2d(pieces).T


def parseval_defect(f, truncation, resolution=2**14):
    """||f||^2_rho minus the first `truncation` squared coefficients, as
    expand_integral reports it."""
    return expand_integral(f, BASIS, truncation, 16, 0, 0, resolution).defects[-1]


class TestExpandIntegral:
    def test_matches_value_kernel_on_the_same_stream(self):
        # the family drawn from the normals is the value kernel on the
        # centered path of the same stream
        rho = VarianceFunction.power(UNIT, 2.0)
        basis = BasisFamily(rho)
        f = StepFunction((0.0, 0.25, 0.75, 1.0), (0.5, -0.5, 2.0))
        report = expand_integral(f, basis, 12, 128, 17, 3)
        edges, values = project_family([f], 128, UNIT, basis, 12)
        integrals = centered_integrals(17, 3, 128, values, rho)
        assert report.target == pytest.approx(integrals[0], abs=1e-12)
        assert np.allclose(report.partial_sums,
                           np.cumsum(report.coefficients * integrals[1:]),
                           rtol=0, atol=1e-12)

    def test_basis_member_stabilizes_after_its_index(self):
        report = expand_integral(BASIS.member(2), BASIS, 6, 256, 2, 0)
        _, projection = project_family([BASIS.member(2)], 256, UNIT)
        direct = centered_integrals(2, 0, 256, projection)[0]
        for n in range(2, 6):
            assert report.partial_sums[n] == pytest.approx(direct, abs=1e-6)
        assert abs(report.defects[5]) <= 1e-8

    def test_constant_integrand_single_coefficient(self):
        one = StepFunction((0.0, 1.0), (1.0,))
        report = expand_integral(one, BASIS, 4, 64, 3, 0)
        assert report.coefficients[0] == pytest.approx(1.0, abs=1e-15)
        assert report.partial_sums[0] == pytest.approx(report.target, abs=1e-12)
        # the single term already is X(1) - X(0)
        assert report.target == pytest.approx(centered_integrals(3, 0, 64, np.ones(64))[0],
                                              abs=1e-12)

    def test_half_indicator_defect_small_by_large_truncation(self):
        coeffs_defects = expand_integral(HALF, BASIS, 2000, 16, 4, 0).defects
        assert np.all(np.diff(coeffs_defects) <= 1e-15)
        assert coeffs_defects[-1] < 1e-3
        assert coeffs_defects[0] == pytest.approx(0.25, abs=1e-13)

    def test_mc_mean_square_gap_matches_defect(self):
        # lighter version of the acceptance battery, including the continuous
        # and basis-member integrands; zero-defect rows get a dust floor
        m = 2000
        cells = 1024
        integrands = [
            HALF,
            lambda t: np.asarray(t),
            BASIS.member(3),
        ]
        integrals = increment_functionals(
            BROWNIAN, *project_family(integrands, cells, UNIT, BASIS, 16), 6001, m)[0]
        member_integrals = integrals[:, len(integrands):]
        for k, f in enumerate(integrands):
            targets = integrals[:, k]
            coeffs = fourier_coeffs(f, BASIS, 16)
            norm_sq = inner_rho(f, f, BROWNIAN.rho)
            for n_terms in (1, 4, 16):
                partial = member_integrals[:, :n_terms] @ coeffs[:n_terms]
                gaps_sq = (targets - partial) ** 2
                defect = norm_sq - float(np.sum(coeffs[:n_terms] ** 2))
                se = gaps_sq.std(ddof=1) / math.sqrt(m)
                assert abs(gaps_sq.mean() - defect) <= 4 * se + 1e-7

    def test_almost_sure_convergence_proxy(self):
        # |target - partial sum| eventually below 10 * sqrt(analytic defect)
        for index in range(10):
            report = expand_integral(HALF, BASIS, 256, 512, 8100, index)
            gap = abs(report.target - report.partial_sums[-1])
            assert gap <= 10.0 * math.sqrt(report.defects[-1])

    def test_rows_export(self):
        report = expand_integral(HALF, BASIS, 3, 16, 9, 0)
        rows = list(report.rows())
        assert [r[0] for r in rows] == [1, 2, 3]
        assert rows[0][2] == pytest.approx(0.25, abs=1e-13)


class TestParsevalDefect:
    def test_basis_member_exhausted(self):
        assert abs(parseval_defect(BASIS.member(5), 6, resolution=2**13)) <= 1e-8

    def test_constant_exhausted_immediately(self):
        one = StepFunction((0.0, 1.0), (1.0,))
        assert parseval_defect(one, 1) == pytest.approx(0.0, abs=1e-14)

    def test_half_indicator_single_term(self):
        assert parseval_defect(HALF, 1) == pytest.approx(0.25, abs=1e-14)

    def test_monotone_in_truncation(self):
        prev = math.inf
        for n in (1, 2, 4, 8, 16, 32):
            d = parseval_defect(HALF, n)
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


class TestExpansionBattery:
    def test_draws_the_integrands_as_one_family(self, monkeypatch, tmp_path):
        # criterion 6's three integrands take one projection and one kernel
        # call, from streams [0, paths): each integrand's rows are the ones
        # it gets alone, in the same order
        integrands = {"half": HALF, "inner": StepFunction.indicator(0.25, 0.625, UNIT),
                      "mixed": StepFunction((0.0, 0.25, 0.625, 1.0), (0.5, -0.5, 2.0))}
        alone = [row for name, f in integrands.items()
                 for row in verify.expansion_battery(BASIS, 64, {name: f}, 16, (1, 4, 16),
                                                     6006, 200)]
        calls = {name: tmp_path / name for name in ("project_family", "increment_functionals")}
        for name, path in calls.items():
            count_calls(monkeypatch, verify, name, path)
        rows = verify.expansion_battery(BASIS, 64, integrands, 16, (1, 4, 16), 6006, 200)
        for path in calls.values():
            assert path.read_text().split() == [str(os.getpid())]
        assert [r.check for r in rows] == [r.check for r in alone]
        assert [r.expected for r in rows] == [r.expected for r in alone]
        assert [r.observed for r in rows] == pytest.approx([r.observed for r in alone],
                                                           rel=1e-12)
