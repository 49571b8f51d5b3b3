"""Mean/variance function evaluation and Stieltjes integration."""

import math
from fractions import Fraction

import numpy as np
import pytest

from yehsim import (
    Interval,
    MeanFunction,
    StepFunction,
    VarianceFunction,
    YehError,
    cantor_eval,
    rho_inverse,
    stieltjes_integral,
)

UNIT = Interval(0.0, 1.0)


def cantor_oracle(x: Fraction, depth: int = 60) -> Fraction:
    """Independent Cantor oracle via the self-similar functional equation:
    C(x) = C(3x)/2 on [0, 1/3], C = 1/2 on [1/3, 2/3], C(x) = 1/2 + C(3x-2)/2."""
    if depth == 0:
        return Fraction(1, 2)
    if x <= Fraction(1, 3):
        return cantor_oracle(3 * x, depth - 1) / 2
    if x < Fraction(2, 3):
        return Fraction(1, 2)
    return Fraction(1, 2) + cantor_oracle(3 * x - 2, depth - 1) / 2


COUNTEREXAMPLE = StepFunction((0.0, 1 / 3, 2 / 3, 1.0), (0.5, -0.5, 2.0))


class TestEval:
    def test_linear_identity_value(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        assert lam(0.5) == 0.5

    def test_identity_rho_normalized_at_origin(self):
        rho = VarianceFunction.identity(UNIT)
        assert rho(0.0) == 0.0

    def test_cantor_quarter(self):
        lam = MeanFunction.cantor(UNIT)
        assert lam(0.25) == pytest.approx(float(cantor_oracle(Fraction(1, 4))), abs=1e-15)
        assert lam(0.25) == pytest.approx(1 / 3, abs=1e-15)

    def test_out_of_domain(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        with pytest.raises(YehError, match=r"time 1\.5 outside \[0\.0, 1\.0\]"):
            lam(1.5)

    def test_rho_shift_normalization(self):
        rho = VarianceFunction.piecewise((0.0, 1.0), (3.0, 5.0))
        assert rho(0.0) == 0.0
        assert rho(1.0) == 2.0

    def test_non_increasing_table_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            VarianceFunction.piecewise((0.0, 0.5, 1.0), (0.0, 0.7, 0.6))

    def test_two_kinds_per_family(self):
        assert MeanFunction.zero(UNIT).kind == "piecewise"
        assert MeanFunction.linear(UNIT, 2.0, 0.5).values == (0.5, 2.5)
        assert VarianceFunction.identity(UNIT) == VarianceFunction.power(UNIT, 1.0)
        for kind in ("zero", "linear", "table"):
            with pytest.raises(ValueError, match="unknown mean function kind"):
                MeanFunction(kind, UNIT)
        for kind in ("identity", "table"):
            with pytest.raises(ValueError, match="unknown variance function kind"):
                VarianceFunction(kind, UNIT)

    @pytest.mark.parametrize("build,field", [
        (lambda: MeanFunction.linear(UNIT, math.nan), "slope"),
        (lambda: MeanFunction.linear(UNIT, 1.0, math.inf), "intercept"),
        (lambda: MeanFunction.piecewise((0.0, 1.0), (0.0, math.nan)), "values"),
        (lambda: MeanFunction.piecewise((0.0, 1e-300, 1.0), (0.0, 1e10, 0.0)), "values"),
        (lambda: MeanFunction.piecewise((0.0, math.inf), (0.0, 1.0)), "knots"),
        (lambda: MeanFunction.piecewise((-1e308, 1e308), (0.0, 1.0)), "knots"),
        (lambda: MeanFunction.cantor(UNIT, 0), "depth"),
        (lambda: MeanFunction.cantor(UNIT, 1075), "depth"),
        (lambda: MeanFunction.cantor(UNIT, 2.0), "depth"),
        (lambda: VarianceFunction.power(UNIT, math.inf), "exponent"),
        (lambda: VarianceFunction.power(UNIT, 0.5), "exponent"),
        (lambda: VarianceFunction.power((0.0, 1e10), 1e3), "exponent"),
        (lambda: VarianceFunction.power((0.0, 1e-200), 2.0), "exponent"),
        (lambda: VarianceFunction.piecewise((0.0, 0.5, 1.0), (-1e308, 0.0, 1e308)),
         "values"),
    ])
    def test_bad_parameter_named(self, build, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            build()

    def test_power_accepts_any_finite_mass(self):
        assert VarianceFunction.power((0.0, 1e308), 1.0).total_mass == 1e308
        assert VarianceFunction.power((0.0, 1e200), 1.5).total_mass == 1e200**1.5
        with pytest.raises(ValueError, match="^exponent: "):
            VarianceFunction.power((0.0, 1e308), 1.5)

    def test_vectorized_matches_scalar(self):
        lam = MeanFunction.piecewise((0.0, 0.5, 1.0), (0.0, 1.0, 0.0))
        ts = np.linspace(0, 1, 17)
        assert np.allclose(lam(ts), [lam(float(t)) for t in ts], atol=0)


class TestCantorEval:
    def test_endpoints(self):
        assert cantor_eval(0.0) == 0.0
        assert cantor_eval(1.0) == 1.0

    def test_one_third(self):
        # exact rational input; float(1/3) rounds and only gets within ~1e-10
        assert cantor_eval(Fraction(1, 3)) == 0.5
        assert cantor_eval(1 / 3) == pytest.approx(0.5, abs=1e-9)

    def test_one_quarter(self):
        assert cantor_eval(0.25) == pytest.approx(1 / 3, abs=1e-15)

    def test_against_recursion_oracle(self):
        for num, den in [(1, 9), (2, 9), (5, 27), (7, 8), (13, 64), (3, 5)]:
            x = Fraction(num, den)
            assert cantor_eval(x, depth=60) == pytest.approx(
                float(cantor_oracle(x)), abs=2**-58
            )

    def test_monotone_on_sampled_grid(self):
        rng = np.random.default_rng(4321)
        ts = np.sort(rng.uniform(0, 1, 500))
        vals = [cantor_eval(t) for t in ts]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_self_similarity_and_reflection(self):
        # Fraction inputs avoid argument rounding; depth 48 keeps 2**-depth
        # above the double-rounding floor of the float return value.
        depth = 48
        rng = np.random.default_rng(99)
        for _ in range(50):
            x = Fraction(int(rng.integers(0, 10**6)), 10**6)
            lhs = cantor_eval(x / 3, depth=depth)
            rhs = cantor_eval(x, depth=depth) / 2
            assert abs(lhs - rhs) <= 2**-depth
            assert abs(cantor_eval(1 - x, depth=depth)
                       - (1 - cantor_eval(x, depth=depth))) <= 2**-depth

    def test_domain(self):
        with pytest.raises(YehError, match="cantor_eval requires t in"):
            cantor_eval(-0.1)

    def test_array_form_equals_scalar_scan_bit_for_bit(self):
        # tiny and subnormal inputs have more mantissa bits below 2**-53
        from yehsim.stieltjes import _cantor_array

        rng = np.random.default_rng(2028)
        ts = np.concatenate([rng.uniform(0, 1, 1000), rng.uniform(0, 1e-9, 100),
                             [0.0, 1e-20, 2.0**-60, 5e-324, 0.25, 1.0]])
        assert np.array_equal(_cantor_array(ts), [cantor_eval(t) for t in ts])


class TestStieltjesStep:
    def test_single_step_closed_form(self):
        f = StepFunction.indicator(0.0, 0.5, UNIT)
        mu = VarianceFunction.power(UNIT, 2.0)
        assert stieltjes_integral(f, mu) == 0.25

    def test_counterexample_drifts(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        assert stieltjes_integral(COUNTEREXAMPLE, lam, 0.25, 0.5) == pytest.approx(
            -1 / 24, abs=1e-15
        )
        assert stieltjes_integral(COUNTEREXAMPLE, lam, 0.25, 0.75) == pytest.approx(
            1 / 24, abs=1e-15
        )

    def test_refinement_invariance(self):
        lam = MeanFunction.piecewise((0.0, 0.4, 1.0), (0.0, 2.0, -1.0))
        f = StepFunction((0.0, 0.5, 1.0), (1.0, -2.0))
        refined = StepFunction((0.0, 0.2, 0.5, 0.7, 1.0), (1.0, 1.0, -2.0, -2.0))
        assert stieltjes_integral(f, lam) == pytest.approx(
            stieltjes_integral(refined, lam), abs=1e-15
        )

    def test_additivity_over_splits(self):
        rng = np.random.default_rng(11)
        lam = MeanFunction.piecewise((0.0, 0.3, 0.8, 1.0), (0.0, -1.0, 0.5, 0.2))
        for _ in range(25):
            cuts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 4)), [1.0]])
            f = StepFunction(tuple(cuts), tuple(rng.normal(size=5)))
            s, u, t = np.sort(rng.uniform(0, 1, 3))
            whole = stieltjes_integral(f, lam, s, t)
            split = stieltjes_integral(f, lam, s, u) + stieltjes_integral(f, lam, u, t)
            assert whole == pytest.approx(split, abs=1e-13)

    def test_bounded_by_total_variation(self):
        rng = np.random.default_rng(13)
        lam = MeanFunction.piecewise((0.0, 0.25, 0.6, 1.0), (0.0, 1.5, -0.5, 1.0))
        tv = float(np.sum(np.abs(np.diff(lam.values))))  # exact over the linear pieces
        for _ in range(25):
            cuts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 3)), [1.0]])
            f = StepFunction(tuple(cuts), tuple(rng.normal(size=4)))
            assert abs(stieltjes_integral(f, lam)) <= max(map(abs, f.values)) * tv + 1e-12

    def test_jordan_consistency(self):
        rng = np.random.default_rng(17)
        lam = MeanFunction.piecewise(
            (0.0, 0.2, 0.5, 0.7, 1.0), (0.3, -0.4, 1.2, 0.1, 0.8)
        )
        # the Jordan decomposition over the linear pieces: pos - neg = lam
        deltas = np.diff(lam.values)
        pos = MeanFunction.piecewise(lam.knots, lam.values[0] + np.concatenate(
            [[0.0], np.cumsum(np.maximum(deltas, 0.0))]))
        neg = MeanFunction.piecewise(lam.knots, np.concatenate(
            [[0.0], np.cumsum(np.maximum(-deltas, 0.0))]))
        ts = np.linspace(0, 1, 101)
        assert np.allclose(pos(ts) - neg(ts), lam(ts), atol=1e-14)
        assert np.all(np.diff(pos(ts)) >= -1e-15)
        assert np.all(np.diff(neg(ts)) >= -1e-15)
        for _ in range(20):
            cuts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 3)), [1.0]])
            f = StepFunction(tuple(cuts), tuple(rng.normal(size=4)))
            direct = stieltjes_integral(f, lam)
            decomposed = stieltjes_integral(f, pos) - stieltjes_integral(f, neg)
            assert direct == pytest.approx(decomposed, abs=1e-13)

    def test_equals_piecewise_loop_bit_for_bit(self):
        def loop(f, mu, s, t):
            total = 0.0
            for ci, l, r in zip(f.values, np.maximum(f.partition[:-1], s),
                                np.minimum(f.partition[1:], t)):
                if r > l:
                    total += ci * (mu(r) - mu(l))
            return total

        rng = np.random.default_rng(19)
        mus = (MeanFunction.piecewise((0.0, 0.3, 0.8, 1.0), (0.0, -1.0, 0.5, 0.2)),
               MeanFunction.cantor(UNIT), VarianceFunction.power(UNIT, 2.5))
        for mu in mus:
            for pieces in (1, 3, 9, 40):
                cuts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, pieces - 1)), [1.0]])
                f = StepFunction(tuple(cuts), tuple(rng.normal(size=pieces)))
                s, t = np.sort(rng.uniform(0, 1, 2))
                for lo, hi in ((0.0, 1.0), (s, t), (s, s)):
                    assert stieltjes_integral(f, mu, lo, hi) == loop(f, mu, lo, hi)

    def test_partition_out_of_domain(self):
        lam = MeanFunction.linear(Interval(0.0, 0.5), 1.0)
        with pytest.raises(YehError, match=r"partition \[0\.0, 1\.0\] outside \[0\.0, 0\.5\]"):
            stieltjes_integral(StepFunction((0.0, 1.0), (1.0,)), lam)


class TestStieltjesQuad:
    def test_total_mass_exact(self):
        rho = VarianceFunction.identity(UNIT)
        for res in (1, 3, 7, 64):
            assert stieltjes_integral(lambda t: np.ones_like(t), rho, 0, 1, res) == 1.0

    def test_midpoint_exact_linear_vs_linear(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        assert stieltjes_integral(lambda t: t, lam, 0.0, 1.0, 2) == pytest.approx(0.5, abs=1e-15)

    def test_cantor_symmetry(self):
        # the Cantor measure is symmetric about 1/2, so the mean is 1/2
        lam = MeanFunction.cantor(UNIT)
        fine = stieltjes_integral(lambda t: t, lam, 0.0, 1.0, 2**12)
        coarse = stieltjes_integral(lambda t: t, lam, 0.0, 1.0, 2**11)
        assert fine == pytest.approx(0.5, abs=1e-6)
        assert abs(fine - 0.5) <= 10 * max(abs(fine - coarse), 1e-9)

    def test_refinement_shrinks(self):
        # the change from half the resolution, |I(res) - I(res // 2)|
        rho = VarianceFunction.power(UNIT, 2.0)

        def refinement(res):
            return abs(stieltjes_integral(np.cos, rho, 0.0, 1.0, res)
                       - stieltjes_integral(np.cos, rho, 0.0, 1.0, res // 2))

        assert refinement(256) < refinement(64)

    def test_non_finite_integrand(self):
        rho = VarianceFunction.identity(UNIT)
        with pytest.raises(YehError, match="^integrand: returned a non-finite value$"):
            stieltjes_integral(lambda t: np.where(t > 0.4, np.nan, 1.0), rho, 0, 1, 8)

    def test_integrand_must_map_arrays(self):
        # a function integrand is called once, on the array of midpoints
        lam = MeanFunction.linear(UNIT, 1.0)
        with pytest.raises(YehError, match=r"^integrand: must map an array of times to an "
                                           r"array of shape \(16384,\), got \(\)$"):
            stieltjes_integral(lambda t: 1.0, lam)


class TestRhoInverse:
    def test_identity(self):
        rho = VarianceFunction.identity(UNIT)
        assert rho_inverse(rho, 0.25) == pytest.approx(0.25, abs=1e-12)

    def test_square_root_closed_form(self):
        rho = VarianceFunction.power(UNIT, 2.0)
        assert rho_inverse(rho, 0.25) == pytest.approx(0.5, abs=1e-10)

    def test_endpoint(self):
        rho = VarianceFunction.power(UNIT, 3.0)
        assert rho_inverse(rho, rho.total_mass) == 1.0

    def test_roundtrip_100_random_points(self):
        rng = np.random.default_rng(23)
        rho = VarianceFunction.piecewise((0.0, 0.4, 1.0), (0.0, 0.2, 1.3))
        for t in rng.uniform(0, 1, 100):
            v = rho(float(t))
            back = rho_inverse(rho, v)
            assert abs(rho(back) - v) <= 1e-12 * max(1.0, rho.total_mass)

    def test_monotone_in_target(self):
        rho = VarianceFunction.power(UNIT, 2.0)
        targets = np.linspace(0, rho.total_mass, 64)
        ts = [rho_inverse(rho, v) for v in targets]
        assert all(t2 >= t1 - 1e-10 for t1, t2 in zip(ts, ts[1:]))

    def test_out_of_range(self):
        rho = VarianceFunction.identity(UNIT)
        with pytest.raises(YehError, match=r"target 2\.0 outside \[0, 1\.0\]"):
            rho_inverse(rho, 2.0)


class TestInterval:
    def test_requires_strict_order(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)

    def test_requires_finite(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)

    def test_requires_finite_length(self):
        # linspace over an interval of infinite length yields NaN grid times
        with pytest.raises(ValueError, match="length must be finite"):
            Interval(-1e308, 1e308)
