"""The Monte Carlo estimator and the one-sample KS test."""

import numpy as np
import pytest

from yehsim import (
    DegenerateReferenceError,
    GaussianStream,
    NonFiniteDrawError,
    ks_test,
)
from yehsim.stats import mc_from_samples, mean_se


class TestMCEstimate:
    def test_constant_sampler(self):
        est = mc_from_samples(np.full(100, 2.5))
        assert est.mean == 2.5
        assert est.variance == 0.0
        assert est.se == 0.0
        assert est.count == 100

    def test_standard_normal_mean_within_four_se(self):
        m = 100_000
        est = mc_from_samples(GaussianStream(5150).normals(m), seed=5150)
        assert abs(est.mean) <= 4.0 / np.sqrt(m)
        assert est.variance == pytest.approx(1.0, abs=0.05)

    def test_welford_matches_numpy(self):
        draws = GaussianStream(31).normals(1000)
        est = mc_from_samples(draws)
        assert est.mean == pytest.approx(draws.mean(), abs=1e-13)
        assert est.variance == pytest.approx(draws.var(ddof=1), abs=1e-13)

    def test_estimate_is_the_sample_estimate_of_its_draws(self):
        draws = GaussianStream(77, 10).normals(500)
        est = mc_from_samples(draws, seed=77, first_index=10)
        assert (est.seed, est.first_index, est.count) == (77, 10, 500)
        assert est.mean == draws.mean()
        assert est.se == draws.std(ddof=1) / np.sqrt(500)

    def test_se_is_mean_se(self):
        rng = np.random.default_rng(140)
        for _ in range(140):
            draws = rng.standard_normal(rng.integers(2, 300)) * rng.uniform(0.1, 10.0)
            est = mc_from_samples(draws)
            assert (est.mean, est.se) == mean_se(draws)
            assert est.se == draws.std(ddof=1) / np.sqrt(draws.size)
            assert est.variance == float(np.sum((draws - est.mean) ** 2)) / (draws.size - 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mean_se_does_not_raise_on_non_finite(self, bad):
        mean, se = mean_se(np.array([1.0, bad, 2.0]))
        assert not np.isfinite(mean) and np.isnan(se)

    def test_non_finite_draw_rejected(self):
        with pytest.raises(NonFiniteDrawError):
            mc_from_samples(np.array([1.0, np.nan, 2.0]))

    def test_needs_two_draws(self):
        with pytest.raises(ValueError):
            mc_from_samples(np.array([1.0]))


class TestKSTest:
    def test_self_consistency_three_seeds(self):
        for seed in (11, 12, 13):
            samples = 1.5 + 2.0 * GaussianStream(seed).normals(20_000)
            assert ks_test(samples, 1.5, 4.0).p_value > 0.01

    def test_gross_misfit_rejected(self):
        samples = 5.0 + GaussianStream(21).normals(500)  # mean off by 5 sigma
        report = ks_test(samples, 0.0, 1.0)
        assert report.p_value < 1e-6

    def test_point_mass_statistic(self):
        report = ks_test(np.zeros(100), 0.0, 1.0)
        assert report.statistic >= 0.5

    def test_statistic_matches_brute_force(self):
        from scipy.stats import norm

        samples = GaussianStream(23).normals(200)
        report = ks_test(samples, 0.0, 1.0)
        xs = np.sort(samples)
        brute = 0.0
        for i, x in enumerate(xs):
            c = norm.cdf(x)
            brute = max(brute, abs((i + 1) / 200 - c), abs(i / 200 - c))
        assert report.statistic == pytest.approx(brute, abs=1e-12)

    def test_p_value_matches_scipy_asymptotic(self):
        from scipy.stats import kstwobign

        samples = GaussianStream(29).normals(5000)
        report = ks_test(samples, 0.0, 1.0)
        want = float(kstwobign.sf(np.sqrt(5000) * report.statistic))
        assert report.p_value == pytest.approx(want, abs=1e-9)

    def test_degenerate_reference(self):
        with pytest.raises(DegenerateReferenceError):
            ks_test(np.arange(100, dtype=float), 0.0, 0.0)

    def test_sample_size_floor(self):
        with pytest.raises(ValueError):
            ks_test(np.arange(10, dtype=float), 0.0, 1.0)
