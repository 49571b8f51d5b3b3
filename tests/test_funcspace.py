"""Weighted L2 machinery: inner products, projections, orthonormal bases."""

import math

import numpy as np
import pytest

from yehsim import (
    BasisFamily,
    Interval,
    MeanFunction,
    StepFunction,
    VarianceFunction,
    fourier_coeffs,
    gram_matrix,
    inner_lambda_rho,
    inner_rho,
    norm_sq_rho,
    project_to_steps,
    step_combine,
)

UNIT = Interval(0.0, 1.0)
RHO_ID = VarianceFunction.identity(UNIT)
RHO_SQ = VarianceFunction.power(UNIT, 2.0)
ONE = StepFunction((0.0, 1.0), (1.0,))


class TestInnerProducts:
    def test_total_mass(self):
        assert inner_rho(ONE, ONE, RHO_ID) == 1.0

    def test_disjoint_supports(self):
        f = StepFunction.indicator(0.0, 0.5, UNIT)
        g = StepFunction.indicator(0.5, 1.0, UNIT)
        for rho in (RHO_ID, RHO_SQ):
            assert inner_rho(f, g, rho) == 0.0

    def test_half_indicator_against_square_rho(self):
        f = StepFunction.indicator(0.0, 0.5, UNIT)
        assert inner_rho(f, f, RHO_SQ) == 0.25

    def test_symmetry_and_bilinearity_on_steps(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            cuts_f = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 3)), [1.0]])
            cuts_g = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 2)), [1.0]])
            f = StepFunction(tuple(cuts_f), tuple(rng.normal(size=4)))
            g = StepFunction(tuple(cuts_g), tuple(rng.normal(size=3)))
            h = StepFunction((0.0, 0.5, 1.0), tuple(rng.normal(size=2)))
            alpha, beta = rng.normal(size=2)
            assert inner_rho(f, g, RHO_SQ) == pytest.approx(
                inner_rho(g, f, RHO_SQ), abs=1e-15
            )
            combo = step_combine(alpha, f, beta, g)
            assert inner_rho(combo, h, RHO_SQ) == pytest.approx(
                alpha * inner_rho(f, h, RHO_SQ) + beta * inner_rho(g, h, RHO_SQ),
                abs=1e-12,
            )

    def test_quadrature_agrees_with_exact_on_steps(self):
        f = StepFunction.indicator(0.0, 0.5, UNIT)
        exact = inner_rho(f, f, RHO_SQ)
        quad = inner_rho(f, lambda t: f(t), RHO_SQ, resolution=2**12)
        assert quad == pytest.approx(exact, abs=1e-6)

    def test_mass_plus_variation(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        assert inner_lambda_rho(ONE, ONE, lam, RHO_ID) == 2.0

    def test_zero_mean_reduces_to_rho(self):
        lam = MeanFunction.zero(UNIT)
        rng = np.random.default_rng(37)
        for _ in range(10):
            cuts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 3)), [1.0]])
            f = StepFunction(tuple(cuts), tuple(rng.normal(size=4)))
            assert inner_lambda_rho(f, f, lam, RHO_SQ) == inner_rho(f, f, RHO_SQ)

    def test_cantor_variation_mass(self):
        lam = MeanFunction.cantor(UNIT)
        assert inner_lambda_rho(ONE, ONE, lam, RHO_ID) == 2.0

    def test_norm_split_exact_on_steps(self):
        lam = MeanFunction.piecewise((0.0, 0.5, 1.0), (0.0, 1.0, 0.25))
        var = lam.variation_function()
        rng = np.random.default_rng(41)
        for _ in range(10):
            cuts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 3)), [1.0]])
            f = StepFunction(tuple(cuts), tuple(rng.normal(size=4)))
            lhs = inner_lambda_rho(f, f, lam, RHO_SQ)
            rhs = inner_rho(f, f, RHO_SQ) + inner_rho(f, f, var)
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_norm_equivalence_on_steps(self):
        # rho with slopes in [0.5, 2]: 0.5 ||f||_2^2 <= ||f||_rho^2 <= 2 ||f||_2^2
        rho = VarianceFunction.piecewise((0.0, 0.5, 1.0), (0.0, 0.25, 1.25))
        rng = np.random.default_rng(43)
        for _ in range(20):
            cuts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 3)), [1.0]])
            f = StepFunction(tuple(cuts), tuple(rng.normal(size=4)))
            l2 = inner_rho(f, f, RHO_ID)
            weighted = inner_rho(f, f, rho)
            assert 0.5 * l2 - 1e-12 <= weighted <= 2.0 * l2 + 1e-12


class TestStepFunction:
    @pytest.mark.parametrize("partition,values,field", [
        ((0.0, math.nan, 1.0), (1.0, 2.0), "partition"),
        ((-math.inf, 0.5, 1.0), (1.0, 2.0), "partition"),
        ((0.0, 0.5, 1.0), (1.0, math.nan), "values"),
        ((0.0, 0.5, 1.0), (math.inf, 2.0), "values"),
    ])
    def test_non_finite_rejected(self, partition, values, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            StepFunction(partition, values)


class TestProjection:
    def test_idempotent_on_aligned_steps(self):
        f = StepFunction((0.0, 0.25, 0.75, 1.0), (1.0, -2.0, 0.5))
        proj = project_to_steps(f, 8, UNIT)
        diff = step_combine(1.0, f, -1.0, proj)
        assert inner_rho(diff, diff, RHO_ID) == 0.0

    def test_single_cell_is_midpoint(self):
        proj = project_to_steps(lambda t: t, 1, UNIT)
        assert proj.values == (0.5,)

    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    def test_projection_error_closed_form(self, n):
        # || t - proj(t, n) ||^2 against identity rho is exactly 1/(12 n^2):
        # each cell contributes integral of (t - mid)^2 = h^3 / 12
        proj = project_to_steps(lambda t: t, n, UNIT)
        diff = lambda t: t - proj(t)
        got = inner_rho(diff, diff, RHO_ID, resolution=2**14)
        assert got == pytest.approx(1.0 / (12 * n * n), rel=1e-6)

    def test_l2_error_decreases_for_continuous_f(self):
        f = lambda t: np.sin(3 * t) + t**2
        errs = []
        for n in (4, 16, 64):
            proj = project_to_steps(f, n, UNIT)
            diff = lambda t, p=proj: f(t) - p(t)
            errs.append(inner_rho(diff, diff, RHO_SQ, resolution=2**13))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3


class TestBasis:
    def test_constant_member_antiderivative_is_rho(self):
        basis = BasisFamily(RHO_ID)
        ts = np.linspace(0, 1, 9)
        assert np.allclose(basis.antiderivative(0, ts), ts, atol=1e-15)

    def test_first_mode_antiderivative_closed_form(self):
        basis = BasisFamily(RHO_ID)
        assert basis.antiderivative(1, 0.5) == pytest.approx(
            math.sqrt(2.0) / math.pi, abs=1e-15
        )

    @pytest.mark.parametrize("family", ["cosine", "haar"])
    def test_antiderivative_vanishes_at_endpoint(self, family):
        for rho in (RHO_ID, RHO_SQ):
            basis = BasisFamily(rho, family)
            for n in (1, 2, 5, 11):
                assert abs(basis.antiderivative(n, 1.0)) <= 1e-13

    def test_antiderivative_matches_quadrature(self):
        basis = BasisFamily(RHO_SQ)
        from yehsim import stieltjes_quad

        member = basis.member(3)
        got = stieltjes_quad(member, RHO_SQ, 0.0, 0.7, 2**12).value
        want = basis.antiderivative(3, 0.7)
        assert got == pytest.approx(want, abs=1e-6)

    def test_gram_near_identity(self):
        for rho, tol in ((RHO_ID, 1e-12), (RHO_SQ, 1e-7)):
            g = gram_matrix(BasisFamily(rho), 8, resolution=2**12)
            assert np.abs(g - np.eye(8)).max() <= tol

    def test_haar_gram_exact_for_identity(self):
        g = gram_matrix(BasisFamily(RHO_ID, "haar"), 8, resolution=2**12)
        assert np.abs(g - np.eye(8)).max() <= 1e-12

    def test_member_carries_monotone_certificate(self):
        basis = BasisFamily(RHO_SQ)
        member = basis.member(4)
        assert member.bv_breaks is not None
        assert len(member.bv_breaks) == 5
        assert member.bv_breaks[0] == 0.0 and member.bv_breaks[-1] == 1.0


class TestFourierCoeffs:
    def test_constant_is_member_zero(self):
        coeffs = fourier_coeffs(ONE, BasisFamily(RHO_ID), 6)
        assert coeffs[0] == pytest.approx(1.0, abs=1e-15)
        assert np.abs(coeffs[1:]).max() <= 1e-13

    def test_member_maps_to_unit_vector(self):
        basis = BasisFamily(RHO_ID)
        coeffs = fourier_coeffs(basis.member(3), basis, 6, resolution=2**13)
        want = np.zeros(6)
        want[3] = 1.0
        assert np.abs(coeffs - want).max() <= 1e-8

    def test_half_indicator_closed_forms(self):
        f = StepFunction.indicator(0.0, 0.5, UNIT)
        coeffs = fourier_coeffs(f, BasisFamily(RHO_ID), 2)
        assert coeffs[0] == pytest.approx(0.5, abs=1e-15)
        assert coeffs[1] == pytest.approx(math.sqrt(2.0) / math.pi, abs=1e-15)

    def test_parseval_inequality_and_shrinking_defect(self):
        f = StepFunction.indicator(0.0, 0.5, UNIT)
        basis = BasisFamily(RHO_ID)
        norm_sq = norm_sq_rho(f, RHO_ID)
        prev = norm_sq
        for count in (1, 4, 16, 64):
            defect = norm_sq - float(np.sum(fourier_coeffs(f, basis, count) ** 2))
            assert defect >= -1e-12
            assert defect <= prev + 1e-12
            prev = defect
        assert prev < 0.01
