"""Drift classification: the conditional-expectation identity and verdicts."""

import numpy as np
import pytest

from yehsim import (
    Interval,
    MeanFunction,
    StepFunction,
    VarianceFunction,
    YehError,
    YehSpec,
    classify,
    stieltjes_integral,
)
from yehsim import verify
from yehsim.config import parse_config
from yehsim.verify import moments_battery, truth_table_battery

UNIT = Interval(0.0, 1.0)
LAM_UP = MeanFunction.linear(UNIT, 1.0)
COUNTEREXAMPLE = StepFunction((0.0, 1 / 3, 2 / 3, 1.0), (0.5, -0.5, 2.0))
PROBES = [(0.25, 0.5), (0.25, 0.75)]
ONE = StepFunction((0.0, 1.0), (1.0,))


class TestConditionalIncrementMean:
    """E[M(t) | F_s] - M(s) is the integral of f against d(lambda) over
    [s, t]: stieltjes_integral(f, lam, s, t)."""

    def test_counterexample_values_exact(self):
        assert stieltjes_integral(COUNTEREXAMPLE, LAM_UP, 0.25, 0.5) \
            == pytest.approx(-1 / 24, abs=1e-15)
        assert stieltjes_integral(COUNTEREXAMPLE, LAM_UP, 0.25, 0.75) \
            == pytest.approx(1 / 24, abs=1e-15)

    def test_constant_integrand_gives_drift_increment(self):
        lam = MeanFunction.piecewise((0.0, 0.4, 1.0), (0.0, 1.2, 0.7))
        for s, t in [(0.0, 1.0), (0.1, 0.9), (0.5, 0.5)]:
            assert stieltjes_integral(ONE, lam, s, t) == pytest.approx(
                lam(t) - lam(s), abs=1e-15
            )

    def test_additivity(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            s, u, t = np.sort(rng.uniform(0, 1, 3))
            whole = stieltjes_integral(COUNTEREXAMPLE, LAM_UP, s, t)
            split = (stieltjes_integral(COUNTEREXAMPLE, LAM_UP, s, u)
                     + stieltjes_integral(COUNTEREXAMPLE, LAM_UP, u, t))
            assert whole == pytest.approx(split, abs=1e-14)

    def test_quadrature_for_continuous_integrand(self):
        got = stieltjes_integral(lambda t: t, LAM_UP, 0.0, 1.0, resolution=2**10)
        assert got == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("f", [COUNTEREXAMPLE, lambda t: t])
    @pytest.mark.parametrize("s, t", [(-0.5, 0.5), (-1e-13, 0.5), (0.75, 0.25), (0.5, 1.5)])
    def test_probe_outside_the_interval_refused(self, f, s, t):
        # the same strict domain check for step and quadrature integrands
        with pytest.raises(YehError, match="<= s <= t <="):
            classify(f, LAM_UP, [(s, t)])


class TestClassify:
    def test_increasing_drift_nonnegative_integrand(self):
        assert classify(ONE, LAM_UP, PROBES).verdict == "submartingale"

    def test_decreasing_drift_nonnegative_integrand(self):
        lam = MeanFunction.linear(UNIT, -1.0)
        assert classify(ONE, lam, PROBES).verdict == "supermartingale"

    def test_increasing_drift_nonpositive_integrand(self):
        f = StepFunction((0.0, 1.0), (-2.0,))
        assert classify(f, LAM_UP, PROBES).verdict == "supermartingale"

    def test_decreasing_drift_nonpositive_integrand(self):
        lam = MeanFunction.linear(UNIT, -1.0)
        f = StepFunction((0.0, 0.5, 1.0), (-2.0, -0.5))
        assert classify(f, lam, PROBES).verdict == "submartingale"

    def test_counterexample_is_neither_with_witnesses(self):
        verdict = classify(COUNTEREXAMPLE, LAM_UP, PROBES)
        assert verdict.verdict == "neither"
        drifts = sorted(w[2] for w in verdict.witnesses)
        assert drifts[0] == pytest.approx(-1 / 24, abs=1e-15)
        assert drifts[1] == pytest.approx(1 / 24, abs=1e-15)

    def test_zero_drift_gives_martingale(self):
        lam = MeanFunction.zero(UNIT)
        assert classify(ONE, lam, PROBES).verdict == "martingale"

    def test_zero_integrand_gives_martingale(self):
        f = StepFunction((0.0, 1.0), (0.0,))
        assert classify(f, LAM_UP, PROBES).verdict == "martingale"

    def test_mixed_sign_without_conflicting_probes_undetermined(self):
        # probes see only the positive side of the mixed-sign integrand
        verdict = classify(COUNTEREXAMPLE, LAM_UP, [(0.7, 0.9)])
        assert verdict.verdict == "undetermined"

    def test_missing_certificate_undetermined(self):
        # only a StepFunction carries a sign: a callable has none, even one
        # with a sign attribute
        def f(t):
            return np.ones_like(np.asarray(t))

        f.sign = 1
        assert classify(f, LAM_UP, PROBES).verdict == "undetermined"

    def test_non_monotone_drift_undetermined(self):
        lam = MeanFunction.piecewise((0.0, 0.5, 1.0), (0.0, 1.0, 0.5))
        assert lam.monotone_direction is None
        assert classify(ONE, lam, [(0.0, 0.4)]).verdict == "undetermined"

    def test_truth_table_twenty_randomized_instances(self):
        rows = truth_table_battery(UNIT, 20, seed=83)
        assert len(rows) == 20
        assert all(row.passed for row in rows), [row.check for row in rows if not row.passed]
        # a row shows its instance: the total drift, of the sign its verdict requires
        for row in rows:
            want = 1.0 if row.check.endswith("_submartingale") else -1.0
            assert row.expected == want and np.sign(row.observed) == want, row
        assert len({row.observed for row in rows}) == 20


def mc_drift(spec, f, s, t, paths, seed):
    """The Monte Carlo row of E[M(t) - M(s)]: the moments_battery mean row
    of f cut to [s, t].  Later increments are independent of the past, so
    this unconditional mean must agree with the drift formula, the integral
    of f against d(lambda) over [s, t] (stieltjes_integral)."""
    (row,) = moments_battery(spec, {"drift": f.restrict(s, t)}, seed, paths)
    return row


class TestMCMartingaleTest:
    def test_centered_case_has_zero_drift(self):
        row = mc_drift(YehSpec.brownian(UNIT), COUNTEREXAMPLE, 0.25, 0.75, 20_000, seed=901)
        assert row.expected == 0.0 and row.passed, row

    def test_counterexample_drifts_recovered(self):
        spec = YehSpec(LAM_UP, VarianceFunction.identity(UNIT))
        for t, want, seed in ((0.5, -1 / 24, 902), (0.75, 1 / 24, 903)):
            row = mc_drift(spec, COUNTEREXAMPLE, 0.25, t, 100_000, seed)
            assert row.expected == pytest.approx(want, abs=1e-15) and row.passed, row

    def test_agrees_with_conditional_mean_formula(self):
        lam = MeanFunction.piecewise((0.0, 0.5, 1.0), (0.0, -1.0, 0.5))
        spec = YehSpec(lam, VarianceFunction.identity(UNIT))
        f = StepFunction((0.0, 0.5, 1.0), (1.0, 2.0))
        row = mc_drift(spec, f, 0.25, 0.875, 50_000, seed=904)
        want = stieltjes_integral(f, lam, 0.25, 0.875)
        assert row.expected == pytest.approx(want, abs=1e-15) and row.passed, row

    def test_partial_span_step_agrees_with_conditional_mean(self):
        spec = YehSpec(LAM_UP, VarianceFunction.identity(UNIT))
        h = StepFunction((0.25, 0.5), (1.0,))  # 0 outside [0.25, 0.5]
        row = mc_drift(spec, h, 0.0, 1.0, 20_000, seed=906)
        want = stieltjes_integral(h, LAM_UP, 0.0, 1.0)
        assert want == 0.25
        assert row.expected == want and row.passed, row

    def test_requires_enough_paths(self, monkeypatch):
        # the martingale suite's Monte Carlo row draws at least 100 paths
        counts = []
        real = verify.increment_functionals

        def counting(spec, partition, pieces, seed, count, first_index=0):
            counts.append(count)
            return real(spec, partition, pieces, seed, count, first_index)

        monkeypatch.setattr(verify, "increment_functionals", counting)
        rows = verify.martingale_suite(parse_config({"mc": {"paths": 2}}))
        assert counts == [100] and rows[-1].check == "martingale_mc_centered_drift"
