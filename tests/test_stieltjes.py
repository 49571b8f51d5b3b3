"""Mean/variance function evaluation and Stieltjes integration."""

import math
from fractions import Fraction

import numpy as np
import pytest

from yehsim import (
    Interval,
    MeanFunction,
    OutOfDomainError,
    OutOfRangeError,
    PartitionOutOfDomainError,
    StepFunction,
    VarianceFunction,
    cantor_eval,
    rho_inverse,
    stieltjes_quad,
    stieltjes_step,
    total_variation,
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
        with pytest.raises(OutOfDomainError):
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
        with pytest.raises(OutOfDomainError):
            cantor_eval(-0.1)

    def test_array_form_equals_scalar_scan_bit_for_bit(self):
        # tiny and subnormal inputs have more mantissa bits below 2**-53
        from yehsim.stieltjes import _cantor_array

        rng = np.random.default_rng(2028)
        ts = np.concatenate([rng.uniform(0, 1, 1000), rng.uniform(0, 1e-9, 100),
                             [0.0, 1e-20, 2.0**-60, 5e-324, 0.25, 1.0]])
        assert np.array_equal(_cantor_array(ts), [cantor_eval(t) for t in ts])


class TestTotalVariation:
    def test_monotone_increasing(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        assert total_variation(lam, 0.0, 1.0) == 1.0

    def test_sign_invariance(self):
        lam = MeanFunction.linear(UNIT, -1.0)
        assert total_variation(lam, 0.0, 1.0) == 1.0

    def test_tent(self):
        lam = MeanFunction.piecewise((0.0, 0.5, 1.0), (0.0, 1.0, 0.0))
        assert total_variation(lam, 0.0, 1.0) == 2.0

    def test_additive_over_adjacent_intervals(self):
        rng = np.random.default_rng(7)
        knots = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 6)), [1.0]])
        lam = MeanFunction.piecewise(tuple(knots), tuple(rng.normal(size=8)))
        for _ in range(25):
            s, u, t = np.sort(rng.uniform(0, 1, 3))
            whole = total_variation(lam, s, t)
            split = total_variation(lam, s, u) + total_variation(lam, u, t)
            assert whole == pytest.approx(split, abs=1e-14)

    def test_cantor_total_variation_is_one(self):
        lam = MeanFunction.cantor(UNIT)
        assert total_variation(lam, 0.0, 1.0) == 1.0


class TestStieltjesStep:
    def test_single_step_closed_form(self):
        f = StepFunction.indicator(0.0, 0.5, UNIT)
        mu = VarianceFunction.power(UNIT, 2.0)
        assert stieltjes_step(f, mu) == 0.25

    def test_counterexample_drifts(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        assert stieltjes_step(COUNTEREXAMPLE, lam, 0.25, 0.5) == pytest.approx(
            -1 / 24, abs=1e-15
        )
        assert stieltjes_step(COUNTEREXAMPLE, lam, 0.25, 0.75) == pytest.approx(
            1 / 24, abs=1e-15
        )

    def test_refinement_invariance(self):
        lam = MeanFunction.piecewise((0.0, 0.4, 1.0), (0.0, 2.0, -1.0))
        f = StepFunction((0.0, 0.5, 1.0), (1.0, -2.0))
        refined = StepFunction((0.0, 0.2, 0.5, 0.7, 1.0), (1.0, 1.0, -2.0, -2.0))
        assert stieltjes_step(f, lam) == pytest.approx(
            stieltjes_step(refined, lam), abs=1e-15
        )

    def test_additivity_over_splits(self):
        rng = np.random.default_rng(11)
        lam = MeanFunction.piecewise((0.0, 0.3, 0.8, 1.0), (0.0, -1.0, 0.5, 0.2))
        for _ in range(25):
            cuts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 4)), [1.0]])
            f = StepFunction(tuple(cuts), tuple(rng.normal(size=5)))
            s, u, t = np.sort(rng.uniform(0, 1, 3))
            whole = stieltjes_step(f, lam, s, t)
            split = stieltjes_step(f, lam, s, u) + stieltjes_step(f, lam, u, t)
            assert whole == pytest.approx(split, abs=1e-13)

    def test_bounded_by_total_variation(self):
        rng = np.random.default_rng(13)
        lam = MeanFunction.piecewise((0.0, 0.25, 0.6, 1.0), (0.0, 1.5, -0.5, 1.0))
        tv = total_variation(lam, 0.0, 1.0)
        for _ in range(25):
            cuts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 3)), [1.0]])
            f = StepFunction(tuple(cuts), tuple(rng.normal(size=4)))
            assert abs(stieltjes_step(f, lam)) <= f.max_abs() * tv + 1e-12

    def test_jordan_consistency(self):
        rng = np.random.default_rng(17)
        lam = MeanFunction.piecewise(
            (0.0, 0.2, 0.5, 0.7, 1.0), (0.3, -0.4, 1.2, 0.1, 0.8)
        )
        pos, neg = lam.jordan()
        ts = np.linspace(0, 1, 101)
        assert np.allclose(pos(ts) - neg(ts), lam(ts), atol=1e-14)
        assert np.all(np.diff(pos(ts)) >= -1e-15)
        assert np.all(np.diff(neg(ts)) >= -1e-15)
        for _ in range(20):
            cuts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 3)), [1.0]])
            f = StepFunction(tuple(cuts), tuple(rng.normal(size=4)))
            direct = stieltjes_step(f, lam)
            decomposed = stieltjes_step(f, pos) - stieltjes_step(f, neg)
            assert direct == pytest.approx(decomposed, abs=1e-13)

    def test_partition_out_of_domain(self):
        lam = MeanFunction.linear(Interval(0.0, 0.5), 1.0)
        with pytest.raises(PartitionOutOfDomainError):
            stieltjes_step(StepFunction((0.0, 1.0), (1.0,)), lam)


class TestStieltjesQuad:
    def test_total_mass_exact(self):
        rho = VarianceFunction.identity(UNIT)
        for res in (1, 3, 7, 64):
            assert stieltjes_quad(lambda t: np.ones_like(t), rho, 0, 1, res).value == 1.0

    def test_midpoint_exact_linear_vs_linear(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        out = stieltjes_quad(lambda t: t, lam, 0.0, 1.0, 2)
        assert out.value == pytest.approx(0.5, abs=1e-15)

    def test_cantor_symmetry(self):
        # the Cantor measure is symmetric about 1/2, so the mean is 1/2
        lam = MeanFunction.cantor(UNIT)
        out = stieltjes_quad(lambda t: t, lam, 0.0, 1.0, 2**12)
        assert out.value == pytest.approx(0.5, abs=1e-6)
        assert abs(out.value - 0.5) <= 10 * max(out.refinement, 1e-9)

    def test_refinement_shrinks(self):
        rho = VarianceFunction.power(UNIT, 2.0)
        coarse = stieltjes_quad(np.cos, rho, 0.0, 1.0, 64)
        fine = stieltjes_quad(np.cos, rho, 0.0, 1.0, 256)
        assert fine.refinement < coarse.refinement

    def test_non_finite_integrand(self):
        rho = VarianceFunction.identity(UNIT)
        from yehsim import NonFiniteValueError

        with pytest.raises(NonFiniteValueError):
            stieltjes_quad(lambda t: np.where(t > 0.4, np.nan, 1.0), rho, 0, 1, 8)


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
        with pytest.raises(OutOfRangeError):
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
