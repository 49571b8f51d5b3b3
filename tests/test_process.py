"""Process sampling: streams, increments, series truncation, centering, moments."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from yehsim import (
    BasisFamily,
    Interval,
    MeanFunction,
    VarianceFunction,
    YehError,
    YehSpec,
    ks_test,
    make_grid,
    series_variance_defect,
)
from yehsim import StepFunction, process, streams
from yehsim.funcspace import step_cells
from yehsim.process import (
    increment_functionals,
    increment_value_matrix,
    series_point_values,
)
from yehsim.streams import _CHUNK_BLOCKS, CROSSOVER_DRAWS, _uniform_matrix, normal_matrix

UNIT = Interval(0.0, 1.0)
BROWNIAN = YehSpec.brownian(UNIT)


def split_over(monkeypatch, parts: int):
    """Make the samplers split every stream range into `parts` ranges,
    whatever the cores and size: the count is read from the CPU affinity, and
    the fork floor drops to one draw."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
    monkeypatch.setattr(process, "FORK_DRAWS", 1)


def count_calls(monkeypatch, owner, name: str, path):
    """Wrap owner.name so that each call appends the caller's pid to the file
    at path, in this process or in a forked part."""
    original = getattr(owner, name)

    def counting(*args):
        with path.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(*args)

    monkeypatch.setattr(owner, name, counting)


def count_forks(monkeypatch) -> list:
    """The pids of the children forked from here on, appended as they start."""
    forks, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestStreams:
    def test_identical_stream_identical_draws(self):
        a = normal_matrix(987, 1, 64, first_index=3)
        b = normal_matrix(987, 1, 64, first_index=3)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = normal_matrix(987, 1, 64, first_index=3)
        b = normal_matrix(987, 1, 64, first_index=4)
        assert not np.array_equal(a, b)

    def test_uniforms_strictly_inside_unit_interval(self):
        for rows, draws in ((1, 10_000), (5_000, 3)):  # both implementations
            u = _uniform_matrix(1, rows, draws, 0)
            assert u.min() > 0.0 and u.max() < 1.0

    def test_normals_are_standard(self):
        z = normal_matrix(2024, 1, 100_000)[0]
        assert ks_test(z, 0.0, 1.0).p_value > 0.01


def philox_reference(seed, index, n_draws):
    """Draws of stream (seed, index) straight from numpy's C Philox."""
    key = np.array([seed, index], dtype=np.uint64)
    k = np.random.Generator(np.random.Philox(key=key)).integers(
        0, 2**52, size=n_draws, dtype=np.uint64)
    return ndtri((k.astype(np.float64) + 0.5) * 2.0**-52)


def matrix_sha256(mat):
    return hashlib.sha256(np.ascontiguousarray(mat, dtype="<f8").tobytes()).hexdigest()


class TestStreamBitIdentity:
    """Both row-length paths of normal_matrix reproduce numpy's Philox."""

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("n_draws", [1, 2, 3, 4, 5, 8, CROSSOVER_DRAWS - 1,
                                         CROSSOVER_DRAWS, CROSSOVER_DRAWS + 1, 1024])
    def test_rows_match_numpy_philox_at_top_indices(self, seed, n_draws):
        n_streams = 3
        first = 2**64 - n_streams
        mat = normal_matrix(seed, n_streams, n_draws, first_index=first)
        for i in range(n_streams):
            assert np.array_equal(mat[i], philox_reference(seed, first + i, n_draws))

    def test_matrix_spanning_several_chunks(self):
        n_draws = 5  # two counter blocks per row
        rows_per_chunk = _CHUNK_BLOCKS // 2
        n_streams = 2 * rows_per_chunk + 7
        mat = normal_matrix(2**63 + 5, n_streams, n_draws, first_index=11)
        for i in (0, rows_per_chunk - 1, rows_per_chunk, 2 * rows_per_chunk,
                  n_streams - 1):
            assert np.array_equal(mat[i], philox_reference(2**63 + 5, 11 + i, n_draws))

    @pytest.mark.parametrize("seed,n_streams,n_draws,first", [
        # the same draws on every call, and streams 3 and 4 differ
        pytest.param(987, 2, 64, 3, id="same_and_next"),
        # each row of a stack is its own stream
        pytest.param(555, 8, 32, 2, id="stack"),
        # a lone row at the last seed and index, on both implementations
        pytest.param(2**64 - 1, 1, 3, 2**64 - 1, id="last_short"),
        pytest.param(2**64 - 1, 1, CROSSOVER_DRAWS + 1, 2**64 - 1, id="last_long"),
    ])
    def test_rows_match_numpy_philox(self, seed, n_streams, n_draws, first):
        for _ in range(2):
            mat = normal_matrix(seed, n_streams, n_draws, first)
            for i in range(n_streams):
                assert np.array_equal(mat[i], philox_reference(seed, first + i, n_draws))
        assert len({row.tobytes() for row in mat}) == n_streams

    @pytest.mark.parametrize("n_draws", [3, CROSSOVER_DRAWS + 1])
    def test_out_view_gets_the_same_bits(self, n_draws):
        # both implementations fill a strided view, as _increment_chunks passes
        # columns 1: of a value matrix, and leave the column before it alone
        want = normal_matrix(2024, 5, n_draws, 2**40)
        matrix = np.full((5, n_draws + 1), -1.0)
        view = matrix[:, 1:]
        assert normal_matrix(2024, 5, n_draws, 2**40, out=view) is view
        assert np.array_equal(view.view(np.uint64), want.view(np.uint64))
        assert np.all(matrix[:, 0] == -1.0)

    def test_one_c_philox_per_process(self):
        # the C path builds its generator at its first long row, then reuses it
        streams._c_philox.cache_clear()
        first = normal_matrix(7, 2, CROSSOVER_DRAWS + 1, 5)
        again = normal_matrix(7, 2, CROSSOVER_DRAWS + 1, 5)
        assert streams._c_philox.cache_info().misses == 1
        assert np.array_equal(first.view(np.uint64), again.view(np.uint64))

    @pytest.mark.parametrize("args,digest", [
        ((20261018, 64, 3),
         "60310e472b63a51bfdc7b39c42e866b153948fd8d2b94b2fa84b537f05f61518"),
        ((20261018, 4, 1024),
         "80ff0fcedfc0143c3d37c53dc6a257fae92641c312c7e507b836242dfcfa8653"),
    ])
    def test_golden_digest(self, args, digest):
        assert matrix_sha256(normal_matrix(*args)) == digest

    @pytest.mark.parametrize("seed,n_streams,first,match", [
        (-1, 2, 0, "seed"),
        (2**64, 2, 0, "seed"),
        (1, 2, -1, "stream indices"),
        (1, 2, 2**64 - 1, "stream indices"),
        (1, 1, 2**64, "stream indices"),
    ])
    def test_out_of_range_rejected(self, seed, n_streams, first, match):
        with pytest.raises(ValueError, match=match):
            normal_matrix(seed, n_streams, 3, first_index=first)


class TestGrid:
    def test_uniform_default(self):
        g = make_grid(UNIT, 5)
        assert np.array_equal(g, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rho_scale_equalizes_increment_variances(self):
        rho = VarianceFunction.power(UNIT, 2.0)
        g = make_grid(UNIT, 9, scale="rho", rho=rho)
        drho = np.diff(rho(g))
        assert np.allclose(drho, drho[0], rtol=1e-6)
        assert g[0] == 0.0 and g[-1] == 1.0

    def test_bad_scale(self):
        with pytest.raises(YehError, match="unknown grid scale 'log'"):
            make_grid(UNIT, 5, scale="log")


class TestIncrementSampling:
    def test_starts_at_drift_value(self):
        lam = MeanFunction.linear(UNIT, 2.0, intercept=0.5)
        spec = YehSpec(lam, VarianceFunction.identity(UNIT))
        values = increment_value_matrix(spec, make_grid(UNIT, 33), 1, 3)
        assert np.all(values[:, 0] == 0.5)

    def test_reproducible_and_stream_indexed(self):
        grid = make_grid(UNIT, 65)
        p1 = increment_value_matrix(BROWNIAN, grid, 42, 1, first_index=7)
        p2 = increment_value_matrix(BROWNIAN, grid, 42, 1, first_index=7)
        p3 = increment_value_matrix(BROWNIAN, grid, 42, 1, first_index=8)
        assert np.array_equal(p1, p2)
        assert not np.array_equal(p1, p3)

    def test_batch_matches_per_path_sampling(self):
        grid = make_grid(UNIT, 17)
        batch = increment_value_matrix(BROWNIAN, grid, 42, 5, first_index=3)
        for k in range(5):
            single = increment_value_matrix(BROWNIAN, grid, 42, 1, first_index=3 + k)
            assert np.array_equal(batch[k], single[0])

    def test_two_point_grid_is_single_gaussian(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        spec = YehSpec(lam, VarianceFunction.identity(UNIT))
        vals = increment_value_matrix(spec, np.array([0.0, 1.0]), 7, 50_000)
        # X(b) ~ Normal(lambda(b), rho(b)) = Normal(1, 1)
        assert ks_test(vals[:, 1], 1.0, 1.0).p_value > 0.01

    def test_brownian_marginal_is_gaussian(self):
        grid = make_grid(UNIT, 9)
        vals = increment_value_matrix(BROWNIAN, grid, 11, 60_000)
        t = grid[6]
        assert ks_test(vals[:, 6], 0.0, t).p_value > 0.01

    def test_mc_mean_tracks_drift(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        spec = YehSpec(lam, VarianceFunction.identity(UNIT))
        m = 100_000
        vals = increment_value_matrix(spec, make_grid(UNIT, 33), 13, m)
        assert abs(vals[:, -1].mean() - 1.0) <= 4.0 / np.sqrt(m)

    def test_disjoint_increments_uncorrelated(self):
        grid = make_grid(UNIT, 5)  # 0, .25, .5, .75, 1
        m = 50_000
        vals = increment_value_matrix(BROWNIAN, grid, 17, m)
        inc1 = vals[:, 1] - vals[:, 0]
        inc2 = vals[:, 4] - vals[:, 3]
        cov = np.mean(inc1 * inc2) - inc1.mean() * inc2.mean()
        se = np.std(inc1 * inc2, ddof=1) / np.sqrt(m)
        assert abs(cov) <= 4 * se

    def test_drawing_a_value_chunk_holds_one_matrix(self):
        # the normals are drawn into columns 1: of a chunk's value matrix
        # and summed there, so a chunk is one matrix, not an increment matrix
        # beside a value matrix, and the pipeline holds one chunk at a time
        grid = make_grid(UNIT, 513)
        rows = process.CHUNK_DRAWS // 512
        chunks = process._value_chunks(BROWNIAN, grid, 7)
        list(chunks(1, 0))  # loads the C Philox outside the traced peak
        tracemalloc.start()
        try:
            for _, values in chunks(3 * rows, 0):
                assert values.shape == (rows, 513)
                del values  # as write_rows drops each chunk
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the slack holds the buffers numpy's ufuncs take on a strided view,
        # 8192 values per operand: about 0.2 MB, whatever the chunk height
        assert peak < rows * 513 * 8 + 2**18, (peak, rows)

    def test_grid_must_span_interval(self):
        with pytest.raises(YehError, match="grid must span"):
            increment_value_matrix(BROWNIAN, np.array([0.0, 0.5]), 1, 1)

    def test_grid_must_increase(self):
        with pytest.raises(YehError, match="grid must be strictly increasing"):
            increment_value_matrix(BROWNIAN, np.array([0.0, 0.5, 0.5, 1.0]), 1, 1)


class TestSeriesSampling:
    def test_deterministic_given_stream(self):
        basis = BasisFamily(BROWNIAN.rho)
        grid = make_grid(UNIT, 33)
        p1 = series_point_values(basis, 16, grid, 3, 1, first_index=1)
        p2 = series_point_values(basis, 16, grid, 3, 1, first_index=1)
        assert np.array_equal(p1, p2)

    def test_batch_matches_per_path(self):
        basis = BasisFamily(BROWNIAN.rho)
        grid = make_grid(UNIT, 9)
        batch = series_point_values(basis, 8, grid, 91, 4)
        for k in range(4):
            single = series_point_values(basis, 8, grid, 91, 1, first_index=k)
            assert np.array_equal(batch[k], single[0])

    def test_single_term_variance_closed_form(self):
        # with one term, the centered value is rho(t)/sqrt(T) * xi_0
        basis = BasisFamily(BROWNIAN.rho)
        grid = make_grid(UNIT, 5)
        m = 60_000
        vals = series_point_values(basis, 1, grid, 29, m)
        t = grid[2]
        want = BROWNIAN.rho(t) ** 2 / BROWNIAN.rho.total_mass
        got = vals[:, 2].var(ddof=1)
        se = np.sqrt(2.0 / m) * want
        assert abs(got - want) <= 4 * se + 1e-12

    def test_full_variance_at_endpoint_any_truncation(self):
        basis = BasisFamily(BROWNIAN.rho)
        for n in (1, 2, 7, 33):
            amatrix = basis.antiderivative(np.arange(n), np.array([0.0, 1.0]))
            assert np.sum(amatrix[:, 1] ** 2) == pytest.approx(1.0, abs=1e-14)

    def test_truncated_variance_at_half(self):
        basis = BasisFamily(BROWNIAN.rho)
        a1 = basis.antiderivative(np.arange(1), np.array([0.0, 0.5, 1.0]))
        assert np.sum(a1[:, 1] ** 2) == pytest.approx(0.25, abs=1e-15)
        a_big = basis.antiderivative(np.arange(1024), np.array([0.0, 0.5, 1.0]))
        assert np.sum(a_big[:, 1] ** 2) == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("parts", [1, 3])
    @pytest.mark.parametrize("terms", [8, 128])  # both Philox paths
    @pytest.mark.parametrize("family", ["cosine", "haar"])
    def test_values_are_the_normals_times_the_running_integrals(self, monkeypatch, family,
                                                                terms, parts):
        # drawn as a Wiener integral over unit cells, whose sigma 1.0 and
        # dlambda 0.0 leave the normals' bits as they are
        basis = BasisFamily(VarianceFunction.power(UNIT, 2.0), family)
        times = make_grid(UNIT, 17)[[0, 4, 9, 16]]
        amatrix = basis.antiderivative(np.arange(terms), times)
        want = (normal_matrix(13, 40, terms, 6)[:, None, :] @ amatrix)[:, 0]
        forks = count_forks(monkeypatch)
        if parts > 1:
            split_over(monkeypatch, parts)
        got = series_point_values(basis, terms, times, 13, 40, first_index=6)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert len(forks) == parts - 1
        assert_no_child_left()

    def test_defect_reported(self):
        basis = BasisFamily(BROWNIAN.rho)
        defect = series_variance_defect(basis, 4, make_grid(UNIT, 33))
        assert np.all(0.0 <= defect) and np.all(defect <= 1.0)

    def test_series_covariance_matches_increment_sampling(self):
        # covariances agree within the truncation defect plus MC error
        rho = VarianceFunction.power(UNIT, 2.0)
        spec = YehSpec(MeanFunction.zero(UNIT), rho)
        basis = BasisFamily(rho)
        grid = make_grid(UNIT, 17)
        m = 40_000
        sv = series_point_values(basis, 128, grid, 71, m)
        iv = increment_value_matrix(spec, grid, 72, m)
        for i, j in [(4, 8), (8, 8), (4, 12)]:
            cs = np.mean(sv[:, i] * sv[:, j])
            ci = np.mean(iv[:, i] * iv[:, j])
            se = (np.std(sv[:, i] * sv[:, j], ddof=1)
                  + np.std(iv[:, i] * iv[:, j], ddof=1)) / np.sqrt(m)
            amatrix = basis.antiderivative(np.arange(128), grid[[i, j]])
            defects = rho(grid[[i, j]]) - np.sum(amatrix**2, axis=0)
            assert abs(cs - ci) <= max(defects) + 4 * se


class TestCenter:
    def test_zero_drift_identity(self):
        # a zero-drift law is its own centered law, bit for bit
        grid = make_grid(UNIT, 17)
        spec = YehSpec(MeanFunction.zero(UNIT), VarianceFunction.power(UNIT, 2.0))
        assert np.array_equal(increment_value_matrix(YehSpec.centered(spec.rho), grid, 1, 4),
                              increment_value_matrix(spec, grid, 1, 4))

    def test_constant_drift_path_centers_to_zero(self):
        # X - lambda is the centered law drawn from the same stream: what the
        # drift adds along a path, centering takes away
        lam = MeanFunction.cantor(UNIT)
        spec = YehSpec(lam, VarianceFunction.identity(UNIT))
        grid = make_grid(UNIT, 33)
        drifted = increment_value_matrix(spec, grid, 1, 4)
        centered = increment_value_matrix(YehSpec.centered(spec.rho), grid, 1, 4)
        assert np.max(np.abs(drifted - lam(grid) - centered)) <= 1e-13

    def test_centered_mc_mean_is_zero(self):
        lam = MeanFunction.piecewise((0.0, 0.5, 1.0), (0.0, 2.0, 1.0))
        spec = YehSpec(lam, VarianceFunction.identity(UNIT))
        grid = make_grid(UNIT, 9)
        m = 50_000
        vals = increment_value_matrix(spec, grid, 23, m) - lam(grid)
        for j in range(9):
            se = vals[:, j].std(ddof=1) / np.sqrt(m) if j else 0.0
            assert abs(vals[:, j].mean()) <= 4 * se + 1e-12

    def test_gaussianity_of_centered_marginal_three_seeds(self):
        lam = MeanFunction.linear(UNIT, -0.5)
        spec = YehSpec(lam, VarianceFunction.power(UNIT, 2.0))
        grid = make_grid(UNIT, 5)
        t_idx = 3
        for seed in (101, 202, 303):
            vals = increment_value_matrix(spec, grid, seed, 50_000)
            centered = vals[:, t_idx] - lam(grid[t_idx])
            report = ks_test(centered, 0.0, spec.rho(grid[t_idx]))
            assert report.p_value > 0.01


class TestEmpiricalMoments:
    def test_brownian_second_moment(self):
        grid = make_grid(UNIT, 17)
        m = 50_000
        vals = increment_value_matrix(BROWNIAN, grid, 19, m)
        # E[X(s) X(t)] = rho(min(s, t)) for the centered case
        full = vals[:, 4] * vals[:, 12]
        assert abs(full.mean() - grid[4]) <= 4 * full.std(ddof=1) / np.sqrt(m)

    def test_second_moment_with_drift(self):
        lam = MeanFunction.linear(UNIT, 1.0)
        spec = YehSpec(lam, VarianceFunction.identity(UNIT))
        grid = make_grid(UNIT, 5)
        m = 100_000
        vals = increment_value_matrix(spec, grid, 31, m)
        prod = vals[:, 2] * vals[:, 4]  # s=0.5, t=1.0
        want = 0.5 + 0.5 * 1.0
        assert abs(prod.mean() - want) <= 4 * prod.std(ddof=1) / np.sqrt(m)


CANTOR_POWER2 = YehSpec(MeanFunction.cantor(UNIT), VarianceFunction.power(UNIT, 2.0))


def _random_family(rng, grid, members):
    """`members` step functions sharing a random partition drawn from the grid."""
    inner = np.sort(rng.choice(np.arange(1, len(grid) - 1), 12, replace=False))
    partition = tuple(grid[np.concatenate([[0], inner, [len(grid) - 1]])])
    return [StepFunction(partition, tuple(rng.normal(size=len(partition) - 1)))
            for _ in range(members)]


class TestFunctionalSampler:
    @pytest.mark.parametrize("members", [1, 2, 17, 65])
    def test_matches_kernel_on_value_matrix(self, members):
        rng = np.random.default_rng(members)
        grid = make_grid(UNIT, 257)
        family = _random_family(rng, grid, members)
        zero = StepFunction(tuple(grid), (0.0,) * (len(grid) - 1))  # the union is the grid
        cells, weights = step_cells(family + [zero], UNIT)
        assert np.array_equal(cells, grid)
        got = increment_functionals(CANTOR_POWER2, grid, weights[:-1],
                                    606, 300, first_index=5)
        vals = increment_value_matrix(CANTOR_POWER2, grid, 606, 300, first_index=5)
        # the defining telescoping sum: the values at the partition points,
        # differenced once and weighted by the pieces
        idx = np.searchsorted(grid, family[0].partition)
        want = np.diff(vals[:, idx], axis=1) @ np.array([f.values for f in family]).T
        assert got.shape == (300, members)
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("chunk_draws", [1, 1000, 2**40])
    def test_rows_independent_of_layout(self, monkeypatch, chunk_draws):
        rng = np.random.default_rng(3)
        grid = make_grid(UNIT, 129)
        weights = rng.normal(size=(9, 128))
        full = increment_functionals(CANTOR_POWER2, grid, weights, 77, 40)
        monkeypatch.setattr(process, "CHUNK_DRAWS", chunk_draws)
        assert np.array_equal(
            increment_functionals(CANTOR_POWER2, grid, weights, 77, 40), full)
        for k in (0, 17, 39):
            one = increment_functionals(CANTOR_POWER2, grid, weights, 77, 1, first_index=k)
            assert np.array_equal(one[0], full[k])
        tail = increment_functionals(CANTOR_POWER2, grid, weights, 77, 15, first_index=25)
        assert np.array_equal(tail, full[25:])

    @pytest.mark.parametrize("chunk_draws", [1, 1000, 2**40])
    def test_value_matrix_independent_of_chunking(self, monkeypatch, chunk_draws):
        grid = make_grid(UNIT, 65)
        full = increment_value_matrix(CANTOR_POWER2, grid, 5, 30, first_index=2)
        monkeypatch.setattr(process, "CHUNK_DRAWS", chunk_draws)
        assert np.array_equal(
            increment_value_matrix(CANTOR_POWER2, grid, 5, 30, first_index=2), full)

    def test_drift_evaluated_once_per_call(self, monkeypatch, tmp_path):
        # counted through a file, so that a call in a forked part counts too
        grid = make_grid(UNIT, 65)
        basis = BasisFamily(CANTOR_POWER2.rho)
        calls = tmp_path / "calls"
        monkeypatch.setattr(process, "CHUNK_DRAWS", 1)
        count_calls(monkeypatch, MeanFunction, "__call__", calls)
        for parts in (1, 3):
            split_over(monkeypatch, parts)
            calls.write_text("")
            increment_functionals(CANTOR_POWER2, grid, np.ones((1, 64)), 5, 40)
            assert calls.read_text().split() == [str(os.getpid())]
            calls.write_text("")
            series_point_values(basis, 8, grid[[8, 32]], 5, 40)
            assert calls.read_text().split() == [str(os.getpid())]

    def test_grid_validated_once_per_call(self, monkeypatch, tmp_path):
        grid = make_grid(UNIT, 65)
        calls = tmp_path / "calls"
        count_calls(monkeypatch, process, "validate_grid", calls)
        for parts in (1, 3):
            split_over(monkeypatch, parts)
            calls.write_text("")
            increment_value_matrix(BROWNIAN, grid, 5, 3)
            increment_functionals(BROWNIAN, grid, np.ones((1, 64)), 5, 3)
            assert calls.read_text().split() == [str(os.getpid())] * 2
            # the grid is checked before the weights
            with pytest.raises(YehError, match="grid must span"):
                increment_functionals(BROWNIAN, grid[:-1], np.ones((2, 9)), 1, 4)

    def test_samplers_bit_equal_at_any_part_count(self, monkeypatch):
        grid = make_grid(UNIT, 129)
        weights = np.random.default_rng(5).normal(size=(3, 128))
        basis = BasisFamily(CANTOR_POWER2.rho)
        forks = count_forks(monkeypatch)

        def draw():
            return [increment_functionals(CANTOR_POWER2, grid, weights, 77, 41, first_index=3),
                    series_point_values(basis, 32, grid[[16, 64, 128]], 9, 41, first_index=3)]

        whole = draw()  # below the fork floor: one process
        assert not forks
        monkeypatch.setattr(process, "CHUNK_DRAWS", 1000)  # several chunks per part
        for parts in (1, 2, 3):
            split_over(monkeypatch, parts)
            forks.clear()
            for got, want in zip(draw(), whole):
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert len(forks) == 2 * (parts - 1)
        assert_no_child_left()

    def test_exception_in_a_part_surfaces_in_the_parent(self, monkeypatch):
        parent = os.getpid()
        real = process.normal_matrix

        def failing(seed, n_streams, n_draws, first_index=0, out=None):
            if os.getpid() != parent:
                raise ValueError(f"no draws from stream {first_index}")
            return real(seed, n_streams, n_draws, first_index, out)

        monkeypatch.setattr(process, "normal_matrix", failing)
        split_over(monkeypatch, 3)  # ranges [0, 13), [13, 26), [26, 40)
        with pytest.raises(ValueError, match="^no draws from stream 13$"):
            increment_functionals(BROWNIAN, make_grid(UNIT, 9), np.ones((1, 8)), 1, 40)
        assert_no_child_left()

    def test_unpicklable_exception_in_a_part_keeps_its_message(self, monkeypatch):
        class TwoFieldError(Exception):
            def __init__(self, field, detail):
                super().__init__(f"{field}: {detail}")

        parent = os.getpid()
        real = process.normal_matrix

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                raise TwoFieldError("mc.seed", "no draws")
            return real(*args, **kwargs)

        monkeypatch.setattr(process, "normal_matrix", failing)
        split_over(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="^TwoFieldError: mc.seed: no draws$"):
            increment_functionals(BROWNIAN, make_grid(UNIT, 9), np.ones((1, 8)), 1, 40)
        assert_no_child_left()

    def test_weights_checked(self):
        grid = make_grid(UNIT, 9)
        with pytest.raises(ValueError, match="shape"):
            increment_functionals(BROWNIAN, grid, np.ones((2, 9)), 1, 4)
        with pytest.raises(ValueError, match="shape"):
            increment_functionals(BROWNIAN, grid, np.ones(8), 1, 4)
        with pytest.raises(ValueError, match="finite"):
            increment_functionals(BROWNIAN, grid, np.full((1, 8), np.nan), 1, 4)
        with pytest.raises(YehError, match="grid must span"):
            increment_functionals(BROWNIAN, grid[:-1], np.ones((1, 7)), 1, 4)

    def test_step_cells_zero_outside_partition(self):
        grid = make_grid(UNIT, 9)
        f = StepFunction((0.25, 0.5, 0.625), (2.0, -1.0))
        zero = StepFunction(tuple(grid), (0.0,) * 8)  # the union is the grid
        cells, weights = step_cells([f, zero], UNIT)
        assert np.array_equal(cells, grid)
        assert np.array_equal(weights[:1], [[0, 0, 2.0, 2.0, -1.0, 0, 0, 0]])

    def test_series_point_values_match_value_matrix(self, monkeypatch):
        basis = BasisFamily(CANTOR_POWER2.rho)
        grid = make_grid(UNIT, 65)
        cols = [16, 32, 48]
        got = series_point_values(basis, 32, grid[cols], 9, 50, first_index=4)
        want = series_point_values(basis, 32, grid, 9, 50, first_index=4)[:, cols]
        assert np.max(np.abs(got - want)) <= 1e-13
        tail = series_point_values(basis, 32, grid[cols], 9, 20, first_index=4 + 30)
        assert np.array_equal(tail, got[30:])
        monkeypatch.setattr(process, "CHUNK_DRAWS", 1)
        assert np.array_equal(
            series_point_values(basis, 32, grid[cols], 9, 50, first_index=4), got)

