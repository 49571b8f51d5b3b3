"""The Monte Carlo standard error and the one-sample KS test."""

import numpy as np
import pytest

from yehsim import ConfigError, YehError, ks_test, normal_matrix
from yehsim.config import parse_config
from yehsim.stats import mean_se
from yehsim.verify import _mean_within


class TestMCEstimate:
    def test_constant_sampler(self):
        assert mean_se(np.full(100, 2.5)) == (2.5, 0.0)

    def test_standard_normal_mean_within_four_se(self):
        m = 100_000
        mean, se = mean_se(normal_matrix(5150, 1, m)[0])
        assert abs(mean) <= 4.0 / np.sqrt(m)
        assert se * np.sqrt(m) == pytest.approx(1.0, abs=0.05)

    def test_welford_matches_numpy(self):
        draws = normal_matrix(31, 1, 1000)[0]
        mean, se = mean_se(draws)
        assert mean == pytest.approx(draws.mean(), abs=1e-13)
        assert se**2 * draws.size == pytest.approx(draws.var(ddof=1), abs=1e-13)

    def test_estimate_is_the_sample_estimate_of_its_draws(self):
        draws = normal_matrix(77, 1, 500, 10)[0]
        assert mean_se(draws) == (draws.mean(), draws.std(ddof=1) / np.sqrt(500))

    def test_se_is_mean_se(self):
        rng = np.random.default_rng(140)
        for _ in range(140):
            draws = rng.standard_normal(rng.integers(2, 300)) * rng.uniform(0.1, 10.0)
            mean, se = mean_se(draws)
            assert mean == draws.mean()
            assert se == draws.std(ddof=1) / np.sqrt(draws.size)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mean_se_does_not_raise_on_non_finite(self, bad):
        mean, se = mean_se(np.array([1.0, bad, 2.0]))
        assert not np.isfinite(mean) and np.isnan(se)

    def test_non_finite_draw_rejected(self):
        # a non-finite draw fails its Monte Carlo row instead of passing it
        row = _mean_within("mean", 1.5, np.array([1.0, np.nan, 2.0]))
        assert not row.passed

    def test_needs_two_draws(self):
        # the SE needs two draws: a run with fewer paths is refused up front
        with pytest.raises(ConfigError, match="mc.paths"):
            parse_config({"mc": {"paths": 1}})


class TestKSTest:
    def test_self_consistency_three_seeds(self):
        for seed in (11, 12, 13):
            samples = 1.5 + 2.0 * normal_matrix(seed, 1, 20_000)[0]
            assert ks_test(samples, 1.5, 4.0).p_value > 0.01

    def test_gross_misfit_rejected(self):
        samples = 5.0 + normal_matrix(21, 1, 500)[0]  # mean off by 5 sigma
        report = ks_test(samples, 0.0, 1.0)
        assert report.p_value < 1e-6

    def test_point_mass_statistic(self):
        report = ks_test(np.zeros(100), 0.0, 1.0)
        assert report.statistic >= 0.5

    def test_statistic_matches_brute_force(self):
        from scipy.stats import norm

        samples = normal_matrix(23, 1, 200)[0]
        report = ks_test(samples, 0.0, 1.0)
        xs = np.sort(samples)
        brute = 0.0
        for i, x in enumerate(xs):
            c = norm.cdf(x)
            brute = max(brute, abs((i + 1) / 200 - c), abs(i / 200 - c))
        assert report.statistic == pytest.approx(brute, abs=1e-12)

    def test_p_value_matches_scipy_asymptotic(self):
        from scipy.stats import kstwobign

        samples = normal_matrix(29, 1, 5000)[0]
        report = ks_test(samples, 0.0, 1.0)
        want = float(kstwobign.sf(np.sqrt(5000) * report.statistic))
        assert report.p_value == pytest.approx(want, abs=1e-9)

    def test_degenerate_reference(self):
        with pytest.raises(YehError, match="reference variance must be positive"):
            ks_test(np.arange(100, dtype=float), 0.0, 0.0)

    def test_sample_size_floor(self):
        with pytest.raises(ValueError):
            ks_test(np.arange(10, dtype=float), 0.0, 1.0)
