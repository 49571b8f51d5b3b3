"""Weighted L2 machinery: inner products, projections, orthonormal bases."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from yehsim import (
    BasisFamily,
    Interval,
    MeanFunction,
    StepFunction,
    VarianceFunction,
    YehError,
    YehSpec,
    fourier_coeffs,
    increment_functionals,
    inner_rho,
    rho_inverse,
    series_variance_defect,
    step_cells,
    stieltjes_integral,
)
from yehsim.funcspace import BLOCK_VALUES, project_family
from yehsim.stieltjes import midpoint_rule
from yehsim.verify import basis_battery

UNIT = Interval(0.0, 1.0)
RHO_ID = VarianceFunction.identity(UNIT)
RHO_SQ = VarianceFunction.power(UNIT, 2.0)
ONE = StepFunction((0.0, 1.0), (1.0,))


def projection(f, n: int) -> StepFunction:
    """The midpoint projection of f onto n uniform cells of the unit interval."""
    edges, (pieces,) = project_family([f], n, UNIT)
    return StepFunction(edges, pieces)


def combine(alpha: float, f: StepFunction, beta: float, g: StepFunction) -> StepFunction:
    """alpha * f + beta * g on the merged partition."""
    partition, (x, y) = step_cells([f, g])
    return StepFunction(partition, alpha * x + beta * y)


class TestInnerProducts:
    def test_total_mass(self):
        assert inner_rho(ONE, ONE, RHO_ID) == 1.0

    def test_disjoint_supports(self):
        f = StepFunction.indicator(0.0, 0.5, UNIT)
        g = StepFunction.indicator(0.5, 1.0, UNIT)
        for rho in (RHO_ID, RHO_SQ):
            assert inner_rho(f, g, rho) == 0.0

    def test_partial_span_steps_are_zero_outside(self):
        # 1_[0, .5) and 1_[.5, 1] written on their own partitions
        f = StepFunction((0.0, 0.5), (1.0,))
        g = StepFunction((0.5, 1.0), (1.0,))
        assert f(0.75) == 0.0 and g(0.25) == 0.0 and g(1.0) == 1.0
        assert inner_rho(f, g, RHO_ID) == 0.0
        assert combine(1.0, f, 1.0, g).values == (1.0, 1.0)

    def test_steps_merge_over_their_hull_not_the_measure(self):
        # a step that leaves rho's interval is refused, not cut to it
        f = StepFunction((-0.5, 0.5), (1.0,))
        combined = combine(2.0, f, -1.0, ONE)
        assert combined.partition == (-0.5, 0.0, 0.5, 1.0)
        assert combined.values == (2.0, 1.0, -1.0)
        with pytest.raises(YehError, match=r"partition \[-0\.5, 1\.0\] outside \[0\.0, 1\.0\]"):
            inner_rho(f, ONE, RHO_ID)

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
            combo = combine(alpha, f, beta, g)
            assert inner_rho(combo, h, RHO_SQ) == pytest.approx(
                alpha * inner_rho(f, h, RHO_SQ) + beta * inner_rho(g, h, RHO_SQ),
                abs=1e-12,
            )

    def test_quadrature_agrees_with_exact_on_steps(self):
        f = StepFunction.indicator(0.0, 0.5, UNIT)
        exact = inner_rho(f, f, RHO_SQ)
        quad = inner_rho(f, lambda t: f(t), RHO_SQ, resolution=2**12)
        assert quad == pytest.approx(exact, abs=1e-6)

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

    def test_is_its_own_integrand(self):
        f = StepFunction((0.0, 0.5, 1.0), (2.0, 0.0))
        assert stieltjes_integral(f, RHO_ID) == 1.0  # the closed form, 2.0 * 0.5
        assert (f.sign, StepFunction((0.0, 1.0), (-1.0,)).sign) == (1, -1)
        assert StepFunction((0.0, 1.0), (0.0,)).sign == 0
        assert StepFunction((0.0, 0.5, 1.0), (1.0, -1.0)).sign is None

    def test_restrict_cuts_at_both_ends(self):
        f = StepFunction((0.0, 1 / 3, 2 / 3, 1.0), (0.5, -0.5, 2.0))
        inner = f.restrict(0.25, 0.75)
        assert inner.partition == (0.25, 1 / 3, 2 / 3, 0.75)
        assert inner.values == (0.5, -0.5, 2.0)
        assert inner(0.75) == 2.0 and inner(0.8) == 0.0

    def test_restrict_to_a_wider_interval_ends_the_last_value(self):
        h = StepFunction((0.25, 0.5), (1.0,))
        wide = h.restrict(0.0, 1.0)
        assert wide.partition == (0.0, 0.25, 0.5, 1.0)
        assert wide.values == (0.0, 1.0, 0.0)
        assert (h(0.5), wide(0.5)) == (1.0, 0.0)

    def test_indicator_near_the_largest_float(self):
        # the cell midpoints 0.5 * (p + q) would overflow to inf here
        f = StepFunction.indicator(1e308, 1.5e308, (0.0, 1.7e308))
        assert f.values == (0.0, 1.0, 0.0)


class TestStieltjesIntegral:
    def test_exact_for_steps(self):
        # the closed form equals the sum over the cells cut to [s, t], added
        # in order
        f = StepFunction((0.0, 0.25, 1.0), (3.0, -1.0))
        lam = MeanFunction.cantor(UNIT)
        assert stieltjes_integral(f, lam, 0.1, 0.9) == (
            0.0 + 3.0 * (lam(0.25) - lam(0.1)) - 1.0 * (lam(0.9) - lam(0.25)))
        assert stieltjes_integral(f, RHO_SQ) == (
            0.0 + 3.0 * (RHO_SQ(0.25) - RHO_SQ(0.0)) - 1.0 * (RHO_SQ(1.0) - RHO_SQ(0.25)))

    def test_quadrature_for_functions(self):
        # the midpoint rule: the sum of f at the cell midpoints times the
        # cells' rho masses
        for s, t in ((0.0, 1.0), (0.2, 0.7)):
            edges = np.linspace(s, t, 65)
            mids = 0.5 * edges[:-1] + 0.5 * edges[1:]
            want = float(np.sum(np.cos(mids) * np.diff(RHO_SQ(edges))))
            assert stieltjes_integral(np.cos, RHO_SQ, s, t, 64) == want


class TestProjection:
    def test_idempotent_on_aligned_steps(self):
        f = StepFunction((0.0, 0.25, 0.75, 1.0), (1.0, -2.0, 0.5))
        proj = projection(f, 8)
        diff = combine(1.0, f, -1.0, proj)
        assert inner_rho(diff, diff, RHO_ID) == 0.0

    def test_single_cell_is_midpoint(self):
        proj = projection(lambda t: t, 1)
        assert proj.values == (0.5,)

    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    def test_projection_error_closed_form(self, n):
        # || t - proj(t, n) ||^2 against identity rho is exactly 1/(12 n^2):
        # each cell contributes integral of (t - mid)^2 = h^3 / 12
        proj = projection(lambda t: t, n)
        diff = lambda t: t - proj(t)
        got = inner_rho(diff, diff, RHO_ID, resolution=2**14)
        assert got == pytest.approx(1.0 / (12 * n * n), rel=1e-6)

    def test_family_rows_equal_per_member_projections(self):
        basis = BasisFamily(RHO_SQ)
        fs = [StepFunction((0.0, 0.25, 0.75, 1.0), (1.0, -2.0, 0.5)), lambda t: t**2,
              *(basis.member(n) for n in range(5))]
        edges, values = project_family(fs, 16, UNIT)
        assert values.shape == (len(fs), 16)
        for f, row in zip(fs, values):
            proj = projection(f, 16)
            assert proj.partition == tuple(edges)
            assert proj.values == tuple(row)

    @pytest.mark.parametrize("family", ["cosine", "haar"])
    @pytest.mark.parametrize("integrands", [0, 1, 2])
    def test_blocked_members_equal_one_evaluator_call(self, family, integrands):
        # the members are written in blocks of BLOCK_VALUES // n rows; the
        # rows equal stacking the integrands over one call for every member
        n = 2**12
        block = BLOCK_VALUES // n
        basis = BasisFamily(RHO_SQ, family)
        fs = [lambda t: t**2, StepFunction((0.0, 0.3, 1.0), (1.0, -2.0))][:integrands]
        mids = midpoint_rule(0.0, 1.0, n)[1]
        for terms in (0, 1, block - 1, block, block + 1):
            edges, values = project_family(fs, n, UNIT, basis, terms)
            rows = [np.asarray(f(mids), dtype=float) for f in fs]
            rows.append(basis.values(np.arange(terms), mids))
            assert edges == tuple(midpoint_rule(0.0, 1.0, n)[0])
            assert values.shape == (integrands + terms, n)
            assert values.tobytes() == np.vstack(rows).tobytes()

    def test_family_memory_is_one_matrix_and_one_block(self):
        # expand's family, 1 integrand and 256 members on 1024 cells: the
        # result (2.1 MB) and one block of members, not two copies; a Haar
        # block also holds its two masks
        for family, bound in (("cosine", 2.7), ("haar", 2.85)):
            basis = BasisFamily(RHO_ID, family)
            project_family([lambda t: t], 1024, UNIT, basis, 256)
            tracemalloc.start()
            try:
                project_family([lambda t: t], 1024, UNIT, basis, 256)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * 2**20, (family, peak)

    def test_midpoints_finite_on_huge_interval(self):
        edges, values = project_family([lambda t: t], 16, (0.0, 1e308))
        mids = values[0]
        assert np.all(np.isfinite(mids))
        assert np.all((edges[:-1] < mids) & (mids < edges[1:]))

    def test_collapsed_partition_is_refused_by_the_kernel(self):
        # the 2-cell partition of a one-ulp interval repeats a point:
        # project_family returns it, and the kernel's grid check refuses it
        narrow = Interval(1.0, 1.0 + 2.0**-52)
        edges, pieces = project_family([lambda t: t], 2, narrow)
        assert edges[1] in (narrow.a, narrow.b)
        with pytest.raises(YehError, match="grid must be strictly increasing"):
            increment_functionals(YehSpec.brownian(narrow), edges, pieces, 1, 2)

    def test_l2_error_decreases_for_continuous_f(self):
        f = lambda t: np.sin(3 * t) + t**2
        errs = []
        for n in (4, 16, 64):
            proj = projection(f, n)
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
        member = basis.member(3)
        got = stieltjes_integral(member, RHO_SQ, 0.0, 0.7, 2**12)
        want = basis.antiderivative(3, 0.7)
        assert got == pytest.approx(want, abs=1e-6)

    def test_gram_near_identity(self):
        # basis_battery's gram row holds max |G - I|
        for rho, tol in ((RHO_ID, 1e-12), (RHO_SQ, 1e-7)):
            (row,) = basis_battery({"cosine": BasisFamily(rho)}, 8, 2**12, ())
            assert row.observed <= tol

    def test_haar_gram_exact_for_identity(self):
        rows = basis_battery({"haar": BasisFamily(RHO_ID, "haar")}, 8, 2**12, [(1, 1), (2, 3)])
        assert [row.check for row in rows] == ["basis_gram_haar", "basis_gram_cross_haar_1_1",
                                               "basis_gram_cross_haar_2_3"]
        assert all(row.passed for row in rows) and rows[0].observed <= 1e-12

    def test_battery_fails_a_member_flipped_on_half_the_interval(self, monkeypatch):
        real = BasisFamily.values

        def flipped(self, n, t):
            out = real(self, n, t)
            if np.ndim(n) == 1:  # the Gram matrix's evaluator call
                out[2] *= np.where(np.asarray(t) < 0.5, 1.0, -1.0)
            return out

        monkeypatch.setattr(BasisFamily, "values", flipped)
        gram, cross = basis_battery({"cosine": BasisFamily(RHO_SQ)}, 8, 2**12, [(3, 3)])
        assert not gram.passed and gram.observed > 0.1
        assert cross.passed


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
        norm_sq = inner_rho(f, f, RHO_ID)
        prev = norm_sq
        for count in (1, 4, 16, 64):
            defect = norm_sq - float(np.sum(fourier_coeffs(f, basis, count) ** 2))
            assert defect >= -1e-12
            assert defect <= prev + 1e-12
            prev = defect
        assert prev < 0.01


class TestIndexBroadcast:
    @pytest.mark.parametrize("family", ["cosine", "haar"])
    def test_rows_equal_single_member_calls(self, family):
        basis = BasisFamily(RHO_SQ, family)
        ns, ts = np.arange(40), np.linspace(0.0, 1.0, 33)
        values, running = basis.values(ns, ts), basis.antiderivative(ns, ts)
        assert values.shape == running.shape == (40, 33)
        for n in ns:
            assert np.array_equal(values[n], basis.member(int(n))(ts))
            assert np.array_equal(running[n], basis.antiderivative(int(n), ts))
            assert running[n, 7] == basis.antiderivative(int(n), float(ts[7]))
        assert basis.antiderivative(ns, 0.5).shape == (40,)

    @pytest.mark.parametrize("family", ["cosine", "haar"])
    def test_single_member_memory_independent_of_index(self, family):
        # integrand.index may be 2**20: one member must not cost n + 1 rows
        basis = BasisFamily(RHO_ID, family)
        member = basis.member(2**20)
        tracemalloc.start()
        try:
            basis.antiderivative(2**20, 0.5)
            member(np.linspace(0.0, 1.0, 9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16, peak

    @pytest.mark.parametrize("family", ["cosine", "haar"])
    def test_quadrature_coefficients_memory_flat_in_count(self, family):
        basis = BasisFamily(RHO_SQ, family)
        f = lambda t: np.sin(3 * np.asarray(t))
        peaks = []
        for count in (64, 512):
            tracemalloc.start()
            try:
                fourier_coeffs(f, basis, count, resolution=2**12)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_cosine_overflow_names_the_family(self):
        huge = BasisFamily(VarianceFunction.identity((0.0, 1e308)))
        for call in (lambda: huge.antiderivative(3, 1.0), lambda: huge.values(0, 1.0),
                     lambda: fourier_coeffs(StepFunction((0.0, 1e308), (1.0,)), huge, 2)):
            with pytest.raises(YehError, match=r"series\.family.*1e\+308"):
                call()
        assert BasisFamily(huge.rho, "haar").antiderivative(3, 1e308) == 0.0


#: (rho, family) -> SHA-256 of the basis layer (coefficients by closed form
#: and by quadrature, Gram matrix, defects, running integrals, member values
#: and certificate breaks) for rho masses other than 1, first taken at version
#: 0.4.0 before the evaluators were broadcast over the member index, and
#: re-taken at 0.5.0, when the quadrature sums left BLAS: only the quadrature
#: coefficients (by at most 4.5e-16) and Parseval defects (3.6e-15) moved.
BASIS_LAYER_GOLDEN = {
    ("power15", "cosine"): "a28368a12b79f2a90e693391373bbfc3581e647316b58f680a2a47254d13769d",
    ("piecewise13", "cosine"): "89219b4be6516116699ebb2c0210ac5c9e6dad35205a59fb6ff74e5d651cb89d",
    ("power15", "haar"): "23a1f1ce3ca9ed5fbcb518c5f537a4b3473e58eb4586ee893079c5ae2fa61940",
    ("piecewise13", "haar"): "26ef986262f0382fdd87f7c17f183a037514c595a22dfd82be77e1932d30af0d",
}
GOLDEN_RHOS = {
    "power15": VarianceFunction.power(Interval(-3.0, 5.0), 1.5),
    "piecewise13": VarianceFunction.piecewise((0.0, 0.3, 1.0, 2.0), (0.0, 0.2, 0.9, 1.3)),
}


def basis_layer_digest(basis: BasisFamily) -> str:
    rho = basis.rho
    a, b = rho.interval.a, rho.interval.b
    ts = np.linspace(a, b, 65)
    step = StepFunction((a, a + 0.2 * (b - a), a + 0.55 * (b - a), b), (0.7, -1.3, 2.1))
    smooth = lambda t: np.sin(np.asarray(t)) + 0.1 * np.asarray(t) ** 2
    indices = (0, 1, 2, 3, 6, 13, 31)
    # The golden also covers three pieces of deleted helpers, computed here
    # as they were: the Gram matrix, the Parseval defect and the
    # bounded-variation certificate of a member (its monotone pieces).
    _, mids, masses = midpoint_rule(a, b, 2**10, rho)
    members = basis.values(np.arange(12), mids)

    def parseval_defect(f, count, resolution=2**14):
        coeffs = fourier_coeffs(f, basis, count, resolution)
        return inner_rho(f, f, rho, resolution) - float(np.sum(coeffs**2))

    def certificate_breaks(n):
        if n == 0:
            return (a, b)
        if basis.family == "cosine":
            return rho_inverse(rho, np.arange(n + 1) * basis.mass / n)
        shift, width, _ = basis._haar(n)
        cuts = (0.0, shift * width, (shift + 0.5) * width, (shift + 1) * width, basis.mass)
        return np.unique(rho_inverse(rho, cuts))

    pieces = [
        fourier_coeffs(step, basis, 40),
        fourier_coeffs(smooth, basis, 24, resolution=2**10),
        fourier_coeffs(basis.member(3), basis, 8, resolution=2**10),
        (members * masses) @ members.T,  # the Gram matrix of 12 members
        [series_variance_defect(basis, k, t) for k in (1, 3, 8, 33) for t in ts[::8]],
        [parseval_defect(step, 16), parseval_defect(smooth, 8, 2**10)],
        basis.antiderivative(np.arange(40), ts),
        [basis.antiderivative(n, t) for n in (0, 1, 5, 37) for t in ts[::16]],
        *(basis.member(n)(ts) for n in indices),
        [basis.member(n)(float(t)) for n in indices for t in ts[::16]],
        *(certificate_breaks(n) for n in indices),
        [float(np.max(series_variance_defect(basis, k, ts))) for k in (1, 7, 40)],
    ]
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(np.ascontiguousarray(piece, dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("rho_name, family", sorted(BASIS_LAYER_GOLDEN))
def test_basis_layer_matches_golden(rho_name, family):
    basis = BasisFamily(GOLDEN_RHOS[rho_name], family)
    assert basis_layer_digest(basis) == BASIS_LAYER_GOLDEN[rho_name, family]
