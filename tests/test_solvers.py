import gc
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rank1tensor import (
    BreakdownError,
    DegenerateInputError,
    InvalidInputError,
    Tensor,
    UnitTuple,
    UnsupportedError,
    f_value,
)
from rank1tensor.core import tangent_basis, tangent_hessian
from rank1tensor import cli, kernels, linalg, solvers
from rank1tensor.diagnostics import check_semi_max
from rank1tensor.linalg import top_singular_triple
from rank1tensor.solvers import (
    SolverConfig,
    _normalized,
    _random_start,
    als_sweep,
    asvd_sweep,
    default_pair_schedule,
    init_hosvd,
    init_random,
    mals_sweep,
    masvd_sweep,
    solve,
)

import oracles
from conftest import (
    FIXTURE_2X2X2,
    planted_rank1,
    random_tensor,
    random_tuple,
    rank1_tensor,
    tuple_matches,
)


def monotone(trace, norm):
    fs = list(trace.f_sequence())
    slack = 1e-12 * norm
    return all(b >= a - slack for a, b in zip(fs, fs[1:]))


class TestInitRandom:
    def test_deterministic_per_seed(self):
        a = init_random((3, 4, 5), seed=42)
        b = init_random((3, 4, 5), seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_unit_norms(self):
        u = init_random((6, 2, 9), seed=0)
        for v in u:
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_sphere_uniformity_coordinate_mean(self):
        samples = [init_random((3, 2), seed=s)[0][0] for s in range(10_000)]
        assert abs(np.mean(samples)) < 0.05

    def test_zero_objective_exhausts_retries(self):
        with pytest.raises(DegenerateInputError):
            _random_start((2, 2, 2), 0, Tensor(np.zeros((2, 2, 2))))


def reference_start(dims, seed):
    # the start stream: one standard normal draw per mode from one
    # generator, normalized, a zero draw redrawn
    rng = np.random.default_rng(seed)
    vecs = []
    for m in dims:
        g = rng.standard_normal(m)
        while np.linalg.norm(g) == 0.0:
            g = rng.standard_normal(m)
        vecs.append(g / np.linalg.norm(g))
    return vecs


class TestStartStream:
    @pytest.mark.parametrize("dims", [(4, 3, 5), (3, 2, 4, 2)])
    @pytest.mark.parametrize("seed", [0, 811, [5, 2], [0, 1, 2]])
    def test_starts_equal_reference_bit_for_bit(self, dims, seed):
        expected = reference_start(dims, seed)
        t = random_tensor(dims, 1)
        vecs, f = _random_start(dims, seed, t)
        starts = [vecs, init_random(dims, seed=seed).vectors]
        for start in starts:
            assert len(start) == len(dims)
            assert all(np.array_equal(x, y) for x, y in zip(start, expected))
        assert f == f_value(t, UnitTuple(expected))
        assert solve(t, SolverConfig(seed=seed)).trace.f_initial == f


class TestInitHosvd:
    def test_rank_one_recovers_axes(self):
        t, axes = planted_rank1((3, 4, 2), 2.0, 0)
        got = init_hosvd(t)
        assert tuple_matches(got, axes, 1e-12)

    def test_decoupled_diagonal(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 3.0
        arr[1, 1, 1] = 1.0
        got = init_hosvd(Tensor(arr))
        for v in got:
            assert np.allclose(v, [1.0, 0.0], atol=1e-14)

    def test_matches_jacobi_oracle(self):
        t = random_tensor((4, 4, 4), 1)
        got = init_hosvd(t)
        from rank1tensor.core import unfold

        for i in range(3):
            _, u_full, _ = oracles.jacobi_svd(unfold(t, i))
            top = u_full[:, 0]
            assert min(
                np.linalg.norm(got[i] - top), np.linalg.norm(got[i] + top)
            ) <= 1e-10

    def test_zero_tensor_rejected(self):
        with pytest.raises(DegenerateInputError):
            init_hosvd(Tensor(np.zeros((2, 2))))

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300])
    def test_extreme_finite_scale(self, scale):
        # the unfoldings' Gram matrices of cT overflow or underflow; the
        # start is taken from cT / max|cT|, with no NumPy warning
        t = random_tensor((3, 3, 3), 18)
        base = init_hosvd(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = init_hosvd(Tensor(scale * t.array))
        for a, b in zip(got, base):
            assert np.allclose(a, b, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 3.0, 1e-100, 1e100])
    def test_ordinary_scale_is_the_unfolding_triple(self, scale):
        t = Tensor(scale * random_tensor((4, 3, 5), 19).array)
        from rank1tensor.core import unfold

        for i, got in enumerate(init_hosvd(t)):
            assert np.array_equal(got, top_singular_triple(unfold(t, i)).u)

    def test_a_long_mode_takes_the_solvers_route(self, monkeypatch):
        # the mode-0 unfolding is 22 x 30, so its Gram side reaches
        # SQUARING_MIN_SIDE and the squaring route answers; the dense route,
        # forced by raising the threshold, agrees up to sign
        t = random_tensor((22, 5, 6), 20)
        from rank1tensor.core import unfold

        got = init_hosvd(t)
        unfoldings = [unfold(t, i) for i in range(3)]
        assert min(unfoldings[0].shape) >= linalg.SQUARING_MIN_SIDE
        assert top_singular_triple(unfoldings[0]).squarings > 0
        for x, a in zip(got, unfoldings):
            assert np.array_equal(x, top_singular_triple(a).u)
        monkeypatch.setattr(linalg, "SQUARING_MIN_SIDE", math.inf)
        for x, a in zip(got, unfoldings):
            dense = top_singular_triple(a)
            assert dense.squarings == 0
            assert min(np.linalg.norm(x - dense.u), np.linalg.norm(x + dense.u)) <= 1e-10


class TestAlsSweep:
    def test_rank_one_fixed_point(self):
        t, axes = planted_rank1((3, 3, 3), 4.0, 2)
        after = als_sweep(t, axes)
        assert tuple_matches(after, axes, 1e-12)
        assert f_value(t, after) == pytest.approx(f_value(t, axes), rel=1e-12)

    def test_matrix_sweep_is_one_power_step(self):
        a = random_tensor((4, 4), 3)
        u = random_tuple((4, 4), 4)
        after = als_sweep(a, u)
        x_expected = a.array @ u[1]
        x_expected /= np.linalg.norm(x_expected)
        y_expected = a.array.T @ x_expected
        y_expected /= np.linalg.norm(y_expected)
        assert tuple_matches(after, UnitTuple([x_expected, y_expected]), 1e-13)
        assert f_value(a, after) >= f_value(a, u) - 1e-12 * a.norm()

    def test_frozen_fixture_matches_reference(self):
        t = Tensor(np.array(FIXTURE_2X2X2).reshape(2, 2, 2))
        u = random_tuple((2, 2, 2), 5)
        after = als_sweep(t, u)
        ref = oracles.reference_als_sweep(t.array, u.vectors)
        assert tuple_matches(after, UnitTuple(ref), 1e-12)
        assert f_value(t, after) == pytest.approx(
            oracles.direct_f(t.array, ref), rel=1e-12
        )

    def test_exact_degeneracy_breaks_down(self):
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        t = rank1_tensor(1.0, UnitTuple([e0, e0, e0]))
        for sweep in (als_sweep, mals_sweep, asvd_sweep, masvd_sweep):
            with pytest.raises(BreakdownError, match="contraction collapsed to zero"):
                sweep(t, UnitTuple([e1, e1, e1]))


class TestAsvdSweep:
    def test_rank_one_invariant(self):
        t, axes = planted_rank1((3, 3, 3), 2.0, 6)
        after = asvd_sweep(t, axes)
        assert f_value(t, after) == pytest.approx(t.norm(), rel=1e-12)

    def test_pair_step_reaches_top_singular_value(self, fixture_3cube):
        t = fixture_3cube
        u = random_tuple((3, 3, 3), 7)
        # the default d = 3 schedule starts with the pair (1, 2)
        cfg = SolverConfig(method="asvd", max_iterations=1, fitchange_tol=1e-30)
        trace = solve(t, cfg, initial=u).trace
        mat = kernels.contract_all_but_two(t.array, u.vectors, 1, 2)
        assert trace.steps[0][0] == (1, 2)
        assert trace.f_after[0] == pytest.approx(oracles.top_sigma(mat), rel=1e-10)

    def test_needs_three_modes(self):
        with pytest.raises(UnsupportedError):
            asvd_sweep(random_tensor((3, 3), 8), random_tuple((3, 3), 8))

    def test_pair_dominates_single_mode_steps(self):
        # one pair update gains at least what either single-mode update gains
        rng = np.random.default_rng(9)
        for trial in range(50):
            dims = tuple(int(x) for x in rng.integers(2, 7, size=3))
            t = Tensor(rng.standard_normal(dims))
            u = UnitTuple([rng.standard_normal(m) for m in dims], normalize=True)
            i, j = sorted(int(x) for x in rng.choice(3, size=2, replace=False))
            a_i = np.linalg.norm(kernels.contract_all_but_one(t.array, u.vectors, i))
            a_j = np.linalg.norm(kernels.contract_all_but_one(t.array, u.vectors, j))
            b_ij = top_singular_triple(
                kernels.contract_all_but_two(t.array, u.vectors, i, j)
            ).sigma
            assert b_ij >= max(a_i, a_j) - 1e-12


class TestDefaultPairSchedule:
    def test_three_modes_order(self):
        assert default_pair_schedule(3) == [(1, 2), (0, 2), (0, 1)]

    def test_four_modes_order(self):
        assert default_pair_schedule(4) == [
            (0, 1),
            (2, 3),
            (0, 2),
            (1, 3),
            (0, 3),
            (1, 2),
        ]

    def test_five_modes_round_robin(self):
        schedule = default_pair_schedule(5)
        assert len(schedule) == 10
        assert len(set(schedule)) == 10
        assert not set(schedule[0]).intersection(schedule[1])

    def test_rejects_small_d(self):
        with pytest.raises(UnsupportedError):
            default_pair_schedule(2)


class TestMalsSweep:
    def test_rank_one_ties_break_to_lowest_mode(self):
        t, axes = planted_rank1((3, 3, 3), 2.0, 10)
        result = solve(
            t,
            SolverConfig(method="mals", max_iterations=1, fitchange_tol=1e-30),
            initial=axes,
        )
        chosen, candidates = first_step(result.trace)
        assert chosen == 0
        assert all(
            val == pytest.approx(2.0, rel=1e-10) for val in candidates.values()
        )
        assert tuple_matches(result.axes, axes, 1e-10)

    def test_first_choice_is_argmax_of_candidates(self, fixture_3cube):
        t = fixture_3cube
        u = random_tuple((3, 3, 3), 11)
        expected = {}
        for i in range(3):
            v = oracles.direct_contract(
                t.array,
                tuple(j for j in range(3) if j != i),
                np.multiply.outer(*[u[j] for j in range(3) if j != i]),
            )
            expected[i] = float(np.linalg.norm(v))
        result = solve(
            t,
            SolverConfig(method="mals", max_iterations=1, fitchange_tol=1e-30),
            initial=u,
        )
        chosen, candidates = first_step(result.trace)
        assert chosen == max(expected, key=expected.get)
        for i, val in candidates.items():
            assert val == pytest.approx(expected[i], rel=1e-12)

    def test_unchanged_vector_keeps_candidates(self):
        # at an exact fixed point no applied vector changes, so one sweep
        # evaluates the d candidates once, not d + (d - 1) + ... + 1 times
        axes = UnitTuple([np.eye(m)[0] for m in (3, 4, 5, 2)])
        t = rank1_tensor(7.0, axes)
        cfg = SolverConfig(method="mals", max_iterations=1, fitchange_tol=1e-30)
        result = solve(t, cfg, initial=axes)
        assert result.optimization_calls == 4
        assert [v.tolist() for v in result.axes.vectors] == [
            v.tolist() for v in axes.vectors
        ]

    def test_sweep_does_not_decrease_objective(self, fixture_3cube):
        t = fixture_3cube
        u = random_tuple((3, 3, 3), 12)
        after = mals_sweep(t, u)
        assert f_value(t, after) >= f_value(t, u) - 1e-12 * t.norm()


class TestMasvdSweep:
    def test_rank_one_invariant(self):
        t, axes = planted_rank1((3, 3, 3), 5.0, 13)
        after = masvd_sweep(t, axes)
        assert f_value(t, after) == pytest.approx(t.norm(), rel=1e-12)

    def test_exact_ties_break_to_lowest_mode(self):
        # at the axes of 2 e0 (x) e0 (x) e0 every candidate is exactly 2
        arr = np.zeros((3, 4, 2))
        arr[0, 0, 0] = 2.0
        axes = UnitTuple([np.eye(m)[0] for m in arr.shape])
        result = solve(
            Tensor(arr),
            SolverConfig(method="masvd", max_iterations=1, fitchange_tol=1e-30),
            initial=axes,
        )
        chosen, candidates = first_step(result.trace)
        assert candidates == {0: 2.0, 1: 2.0, 2: 2.0}
        assert chosen == 0 and result.trace.steps[0][0] == (1, 2)

    def test_first_choice_is_argmax_of_sigma_candidates(self, fixture_3cube):
        t = fixture_3cube
        u = random_tuple((3, 3, 3), 14)
        expected = {}
        for k in range(3):
            i, j = (m for m in range(3) if m != k)
            mat = kernels.contract_all_but_two(t.array, u.vectors, i, j)
            expected[k] = oracles.top_sigma(mat)
        result = solve(
            t,
            SolverConfig(method="masvd", max_iterations=1, fitchange_tol=1e-30),
            initial=u,
        )
        chosen, candidates = first_step(result.trace)
        assert chosen == max(expected, key=expected.get)
        for k, val in candidates.items():
            assert val == pytest.approx(expected[k], rel=1e-10)

    def test_candidate_equals_sigma_of_frozen_mode_matrix(self, fixture_3cube):
        # freezing the middle mode scores the top singular value of T x y
        t = fixture_3cube
        u = random_tuple((3, 3, 3), 15)
        result = solve(
            t,
            SolverConfig(method="masvd", max_iterations=1, fitchange_tol=1e-30),
            initial=u,
        )
        _, candidates = first_step(result.trace)
        mat = kernels.contract_all_but_two(t.array, u.vectors, 0, 2)
        assert candidates[1] == pytest.approx(oracles.top_sigma(mat), rel=1e-10)

    def test_only_three_modes_supported(self):
        t = random_tensor((2, 2, 2, 2), 16)
        with pytest.raises(UnsupportedError):
            masvd_sweep(t, random_tuple(t.dims, 17))
        with pytest.raises(UnsupportedError):
            solve(t, SolverConfig(method="masvd"))


def reference_masvd_sweep(arr, vecs):
    """One greedy masvd sweep that recomputes every remaining candidate in
    every round; returns (f, modes, chosen, {mode: candidate}) per step."""
    steps = []
    remaining = [0, 1, 2]
    while remaining:
        found = {}
        for k in remaining:
            i, j = (m for m in range(3) if m != k)
            found[k] = top_singular_triple(kernels.contract_all_but_two(arr, vecs, i, j))
        best = max(remaining, key=lambda k: (found[k].sigma, -k))
        i, j = (m for m in range(3) if m != best)
        vecs[i], vecs[j] = found[best].u, found[best].v
        steps.append((found[best].sigma, (i, j), best, {k: found[k].sigma for k in remaining}))
        remaining.remove(best)
    return steps


def trace_steps(trace):
    """(f, modes, chosen, {mode: candidate}) per sub-step of a trace."""
    out, offset = [], 0
    for f, (modes, chosen, keys) in zip(trace.f_after, trace.steps):
        out.append((f, modes, chosen, dict(zip(keys, trace.candidates[offset : offset + len(keys)]))))
        offset += len(keys)
    return out


def final_axes(arr, vecs):
    """lambda and axes as solve reports them at ``vecs``: one axis flipped
    when the objective is negative."""
    lam = f_value(Tensor(arr), UnitTuple(vecs))
    return abs(lam), ([-vecs[0], *vecs[1:]] if lam < 0.0 else vecs)


class TestMasvdCarry:
    """The candidate applied last in a masvd sweep froze a vector that no
    later step changes, so the next sweep looks it up instead of computing
    it again; it still counts as an optimization call."""

    def pair_steps(self, monkeypatch):
        calls = []

        def spy(a):
            calls.append(a.shape)
            return top_singular_triple(a)

        monkeypatch.setattr(linalg, "top_singular_triple", spy)
        return calls

    # while every step moves its vectors; (6, 5, 4) reaches a tuple that
    # its steps leave unchanged bit for bit after four sweeps, from where
    # more candidates survive
    @pytest.mark.parametrize(
        "dims, sweeps", [((6, 5, 4), 1), ((6, 5, 4), 2), ((6, 5, 4), 4), ((8, 8, 8), 10)]
    )
    def test_later_sweeps_make_five_pair_steps(self, dims, sweeps, monkeypatch):
        t = random_tensor(dims, 150)
        u = random_tuple(dims, 151)
        vecs = list(u.vectors)
        expected = [s for _ in range(sweeps) for s in reference_masvd_sweep(t.array, vecs)]
        calls = self.pair_steps(monkeypatch)
        cfg = SolverConfig(method="masvd", max_iterations=sweeps, fitchange_tol=1e-300)
        result = solve(t, cfg, initial=u)
        assert result.iterations == sweeps
        assert len(calls) == 6 + 5 * (sweeps - 1)
        assert result.optimization_calls == 6 * sweeps
        assert list(result.trace.opt_calls) == [6 * (k + 1) for k in range(sweeps)]
        assert trace_steps(result.trace) == expected
        lam, axes = final_axes(t.array, vecs)
        assert result.lambda_ == lam
        assert all(np.array_equal(a, b) for a, b in zip(result.axes, axes))

    def test_public_sweep_starts_without_a_carry(self, monkeypatch):
        t = random_tensor((5, 6, 4), 152)
        u = random_tuple(t.dims, 153)
        calls = self.pair_steps(monkeypatch)
        once = masvd_sweep(t, u)
        twice = masvd_sweep(t, once)
        assert len(calls) == 12
        vecs = list(u.vectors)
        reference_masvd_sweep(t.array, vecs)
        reference_masvd_sweep(t.array, vecs)
        assert all(np.array_equal(a, b) for a, b in zip(twice, vecs))

    def test_finish_attempt_drops_the_carry(self, monkeypatch):
        # a finish that moves every vector and then rejects: the next sweep
        # recomputes all three candidates and still matches the reference
        t = random_tensor((6, 5, 4), 154)
        u = random_tuple(t.dims, 155)
        moves = []

        def move_and_reject(arr, vecs, trace, target, slack):
            moves.append(len(trace.sweep_ends))
            for m, x in enumerate(vecs):
                y = x + 1e-3 * np.roll(x, 1)
                vecs[m] = y / np.linalg.norm(y)
            return None

        monkeypatch.setattr(solvers, "_newton_finish", move_and_reject)
        calls = self.pair_steps(monkeypatch)
        cfg = SolverConfig(method="masvd", max_iterations=25, fitchange_tol=1e-12)
        result = solve(t, cfg, initial=u)
        sweeps = result.iterations
        moved_before_a_sweep = sum(m < sweeps - 1 for m in moves)
        assert moved_before_a_sweep >= 1
        assert len(calls) == 6 * sweeps - (sweeps - 1) + moved_before_a_sweep
        assert result.optimization_calls == 6 * sweeps

        vecs = list(u.vectors)
        expected = []
        for k in range(sweeps):
            expected += reference_masvd_sweep(t.array, vecs)
            if k in moves:
                move_and_reject(t.array, vecs, solvers.SolverTrace(), 0.0, 0.0)
        assert trace_steps(result.trace) == expected
        lam, axes = final_axes(t.array, vecs)
        assert result.lambda_ == lam
        assert all(np.array_equal(a, b) for a, b in zip(result.axes, axes))


class TestSolve:
    @pytest.mark.parametrize("method", ["als", "asvd", "mals", "masvd"])
    def test_rank_one_exact_recovery(self, method):
        t, axes = planted_rank1((2, 2, 2), 7.0, 18)
        result = solve(t, SolverConfig(method=method, seed=19))
        assert result.lambda_ == pytest.approx(7.0, rel=1e-10)
        assert result.iterations <= 2
        assert tuple_matches(result.axes, axes, 1e-8)

    def test_matrix_case_matches_svd(self):
        a = np.random.default_rng(20).standard_normal((5, 5))
        result = solve(
            Tensor(a),
            SolverConfig(method="als", seed=21, max_iterations=50_000, fitchange_tol=1e-15),
        )
        assert result.lambda_ == pytest.approx(oracles.top_sigma(a), rel=1e-8)

    def test_single_mode_tensor(self):
        t = random_tensor((5,), 22)
        result = solve(t, SolverConfig(method="als", seed=23))
        assert result.lambda_ == pytest.approx(t.norm(), rel=1e-12)

    def test_global_maximum_on_small_cube(self, fixture_tensor):
        oracle = oracles.grid_max_2x2x2(fixture_tensor.array)
        best = max(
            solve(
                fixture_tensor,
                SolverConfig(
                    method="als", seed=s, max_iterations=300, fitchange_tol=1e-13
                ),
            ).lambda_
            for s in range(20)
        )
        assert best == pytest.approx(oracle, abs=1e-4)

    @pytest.mark.parametrize("method", ["als", "asvd", "mals", "masvd"])
    def test_traces_monotone_and_bounded(self, method):
        t = random_tensor((4, 4, 4), 24)
        result = solve(
            t, SolverConfig(method=method, seed=25, max_iterations=60, fitchange_tol=1e-12)
        )
        assert monotone(result.trace, t.norm())
        assert max(result.trace.f_sequence()) <= t.norm() * (1.0 + 1e-12)

    def test_result_invariants(self):
        t = random_tensor((3, 4, 5), 26)
        result = solve(t, SolverConfig(method="als", seed=27))
        assert result.lambda_ >= 0.0
        assert result.lambda_ == pytest.approx(f_value(t, result.axes), rel=1e-12)
        assert result.lambda_**2 + result.residual**2 == pytest.approx(
            t.norm() ** 2, abs=1e-10 * t.norm() ** 2
        )
        assert 0.0 <= result.fit <= 1.0
        assert result.converged_by in ("fitchange", "max_iterations")

    @pytest.mark.parametrize("method", ["als", "asvd", "mals", "masvd"])
    def test_sign_flips_of_start_do_not_matter(self, method):
        t = random_tensor((3, 3, 3), 28)
        u = random_tuple((3, 3, 3), 29)
        cfg = SolverConfig(method=method, max_iterations=30, fitchange_tol=1e-12)
        base = solve(t, cfg, initial=u)
        for mask in [(1,), (0, 2), (0, 1, 2)]:
            flipped = UnitTuple(
                [-v if j in mask else v for j, v in enumerate(u.vectors)]
            )
            other = solve(t, cfg, initial=flipped)
            assert other.lambda_ == pytest.approx(base.lambda_, abs=1e-12 * t.norm())
            assert tuple_matches(other.axes, base.axes, 1e-9)

    def test_hosvd_init_supported(self):
        t = random_tensor((4, 3, 2), 30)
        result = solve(t, SolverConfig(method="als", init="hosvd"))
        assert result.lambda_ > 0

    def test_zero_tensor_rejected(self):
        with pytest.raises(DegenerateInputError):
            solve(Tensor(np.zeros((2, 2, 2))), SolverConfig())

    def test_initial_tuple_dims_checked(self):
        from rank1tensor import DimensionError

        t = random_tensor((3, 3, 3), 45)
        with pytest.raises(DimensionError):
            solve(t, SolverConfig(), initial=random_tuple((3, 3, 2), 46))

    @pytest.mark.parametrize("method", ["asvd", "masvd"])
    def test_squaring_route_matches_dense_route(self, method, monkeypatch):
        # 32x32 pair matrices take the squaring route; top_singular_triple
        # reads SQUARING_MIN_SIDE at call time, so raising it past every side
        # forces the dense route for the reference run
        t = random_tensor((32, 32, 32), 47)
        cfg = SolverConfig(method=method, seed=48, max_iterations=2000,
                           fitchange_tol=1e-12)
        squarings = []
        original = linalg.top_singular_triple

        def spy(a):
            triple = original(a)
            squarings.append(triple.squarings)
            return triple

        monkeypatch.setattr(linalg, "top_singular_triple", spy)
        fast = solve(t, cfg)
        assert squarings and min(squarings) > 0  # no fallback
        assert monotone(fast.trace, t.norm())
        if method == "masvd":
            assert check_semi_max(t, fast.axes, level=2).passed
        monkeypatch.setattr(linalg, "SQUARING_MIN_SIDE", math.inf)
        squarings.clear()
        dense = solve(t, cfg)
        assert squarings and max(squarings) == 0  # the dense route answered
        assert fast.lambda_ == pytest.approx(dense.lambda_, rel=1e-12)
        assert fast.iterations == dense.iterations
        assert fast.optimization_calls == dense.optimization_calls

    @pytest.mark.parametrize("method", ["als", "asvd", "mals", "masvd"])
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_finite_scale(self, method, scale):
        # |cT|^2 overflows or underflows; the solve runs on cT / max|cT| and
        # reports in the units of cT
        t = random_tensor((3, 3, 3), 33)
        cfg = SolverConfig(method=method, seed=34)
        base = solve(t, cfg)
        got = solve(Tensor(scale * t.array), cfg)
        assert got.lambda_ == pytest.approx(scale * base.lambda_, rel=1e-12, abs=0.0)
        assert got.residual == pytest.approx(scale * base.residual, rel=1e-10, abs=0.0)
        assert got.fit == pytest.approx(base.fit, rel=1e-12)
        assert tuple_matches(got.axes, base.axes, 1e-10)
        assert (got.iterations, got.optimization_calls) == (
            base.iterations,
            base.optimization_calls,
        )
        assert np.allclose(
            list(got.trace.f_sequence()),
            [scale * f for f in base.trace.f_sequence()],
            rtol=1e-12,
            atol=0.0,
        )
        assert sweep_fs(got.trace)[-1] == pytest.approx(
            scale * sweep_fs(base.trace)[-1], rel=1e-12, abs=0.0
        )

    def test_norm_beyond_float_range_rejected(self):
        from rank1tensor import InvalidInputError

        with pytest.raises(InvalidInputError, match="float64 range"):
            solve(Tensor(np.full((3, 3, 3), 1e308)), SolverConfig())


def reference_als_sweep(arr, vecs):
    """One cyclic sweep, one full contraction per mode."""
    for i in range(arr.ndim):
        v = kernels.contract_all_but_one(arr, vecs, i)
        vecs[i] = v / np.linalg.norm(v)
    return arr.ndim


def reference_mals_sweep(arr, vecs):
    """One greedy sweep that re-evaluates each stale candidate with its own
    full contraction; returns the number of candidates evaluated."""
    d = arr.ndim
    versions = [0] * d
    cache = {}
    remaining = list(range(d))
    calls = 0
    while remaining:
        for i in remaining:
            stamps = tuple(versions[j] for j in range(d) if j != i)
            if i not in cache or cache[i][2] != stamps:
                v = kernels.contract_all_but_one(arr, vecs, i)
                calls += 1
                cache[i] = (np.linalg.norm(v), v / np.linalg.norm(v), stamps)
        best = max(remaining, key=lambda i: (cache[i][0], -i))
        if not np.array_equal(vecs[best], cache[best][1]):
            versions[best] += 1
        vecs[best] = cache[best][1]
        remaining.remove(best)
    return calls


class TestTreeSweepsMatchReferenceLoop:
    """als and mals form their contractions by a dimension tree; the
    per-mode loop they replaced is the reference."""

    @pytest.mark.parametrize("method", ["als", "mals"])
    @pytest.mark.parametrize("dims", [(5, 4, 6), (3, 4, 2, 5), (2, 3, 4, 3, 2)])
    def test_ten_sweeps(self, method, dims):
        seed = len(dims)
        t = random_tensor(dims, 50 + seed)
        u = random_tuple(dims, 60 + seed)
        sweep = reference_als_sweep if method == "als" else reference_mals_sweep
        vecs = [v.copy() for v in u.vectors]
        calls = sum(sweep(t.array, vecs) for _ in range(10))
        ref = UnitTuple(vecs)
        result = solve(
            t,
            SolverConfig(method=method, max_iterations=10, fitchange_tol=1e-300),
            initial=u,
        )
        assert result.iterations == 10
        assert result.optimization_calls == calls
        assert result.lambda_ == pytest.approx(abs(f_value(t, ref)), rel=1e-12)
        assert tuple_matches(result.axes, ref, 1e-12)


class TestOptimizationCallCounts:
    def test_als_counts_one_per_mode(self):
        t = random_tensor((3, 4, 5), 35)
        result = solve(t, SolverConfig(method="als", seed=36, max_iterations=4,
                                       fitchange_tol=1e-30))
        assert result.optimization_calls == 3 * result.iterations

    def test_asvd_counts_one_per_pair(self):
        t = random_tensor((3, 3, 3), 37)
        result = solve(t, SolverConfig(method="asvd", seed=38, max_iterations=4,
                                       fitchange_tol=1e-30))
        assert result.optimization_calls == 3 * result.iterations

    def test_mals_counts_candidate_evaluations(self):
        # d + (d-1) + ... + 1 contractions per sweep while iterates move
        t = random_tensor((3, 3, 3), 39)
        result = solve(t, SolverConfig(method="mals", seed=40, max_iterations=1,
                                       fitchange_tol=1e-30))
        assert result.optimization_calls == 6

    def test_masvd_counts_candidate_evaluations(self):
        t = random_tensor((3, 3, 3), 41)
        result = solve(t, SolverConfig(method="masvd", seed=42, max_iterations=1,
                                       fitchange_tol=1e-30))
        assert result.optimization_calls == 6

    def test_modified_methods_cost_about_twice_on_cubes(self):
        t = random_tensor((3, 3, 3), 43)
        kwargs = dict(seed=44, max_iterations=3, fitchange_tol=1e-30)
        als = solve(t, SolverConfig(method="als", **kwargs))
        mals = solve(t, SolverConfig(method="mals", **kwargs))
        assert mals.optimization_calls == 2 * als.optimization_calls


def tensordot_contract(arr, vecs, keep):
    """``arr`` contracted against every vector but those of the modes in
    ``keep``, from the whole tensor, with ``np.tensordot``."""
    out = arr
    for mode in range(arr.ndim - 1, -1, -1):
        if mode not in keep:
            out = np.tensordot(out, vecs[mode], axes=([mode], [0]))
    return out


def tensordot_solve(t, method, u, cfg):
    """The asvd or mals solve of ``cfg`` from ``u``, with every contraction
    formed from the whole tensor by :func:`tensordot_contract`: (lambda,
    axes, iterations, opt_calls, converged_by, steps, f sequence). ``cfg``
    is not tight, so no Newton finish runs."""
    arr, d, nrm = t.array, t.ndim, t.norm()
    vecs = [v.copy() for v in u.vectors]
    fs, steps, calls = [f_value(t, u)], [], 0
    fit_prev, converged_by, iterations = fs[0] / nrm, "max_iterations", 0
    while iterations < cfg.max_iterations:
        iterations += 1
        if method == "asvd":
            for i, j in default_pair_schedule(d):
                triple = top_singular_triple(tensordot_contract(arr, vecs, (i, j)))
                calls += 1
                vecs[i], vecs[j] = triple.u, triple.v
                fs.append(triple.sigma)
                steps.append(((i, j), None, ()))
        else:
            remaining, changed, cache = list(range(d)), True, {}
            while remaining:
                if changed:
                    for i in remaining:
                        v = tensordot_contract(arr, vecs, (i,))
                        norm = math.sqrt(np.dot(v, v))
                        cache[i] = (norm, v / norm)
                    calls += len(remaining)
                best = max(remaining, key=lambda i: (cache[i][0], -i))
                changed = (vecs[best] != cache[best][1]).any()
                vecs[best] = cache[best][1]
                fs.append(cache[best][0])
                steps.append(((best,), best, tuple(remaining)))
                remaining.remove(best)
        fit = fs[-1] / nrm
        if abs(fit - fit_prev) < cfg.fitchange_tol:
            converged_by = "fitchange"
            break
        fit_prev = fit
    axes = UnitTuple(vecs)
    return abs(f_value(t, axes)), axes, iterations, calls, converged_by, steps, fs


def whole_tensor_reads(monkeypatch, arr, method, vecs, sweeps):
    """The reductions that read all of ``arr``, per sweep of ``sweeps``
    sweeps of ``method`` from ``vecs`` that share one solve cache."""
    reduce, reads = kernels._reduce, [0]

    def spy(out, *args):
        reads[0] += out is arr
        return reduce(out, *args)

    monkeypatch.setattr(kernels, "_reduce", spy)
    trace, cache, per_sweep = solvers.SolverTrace(), {}, []
    for _ in range(sweeps):
        reads[0] = 0
        solvers._SWEEPS[method](arr, vecs, trace, cache)
        per_sweep.append(reads[0])
    return per_sweep


class TestContractionReuse:
    """mals keeps the tensor contracted over the modes a sweep has applied,
    and an asvd pair step at d >= 4 starts from the one-mode contraction the
    step before it kept; every other sweep reads the tensor as it did."""

    @pytest.mark.parametrize(
        "method, dims, expected",
        [
            ("mals", (5, 4, 6), [3, 3, 3]),
            ("mals", (3, 4, 2, 5), [3, 3, 3]),
            ("mals", (2, 3, 4, 3, 2), [3, 3, 3]),
            ("asvd", (3, 4, 2, 5), [4, 3, 3]),
            ("asvd", (2, 3, 4, 3, 2), [5, 5, 5]),
            ("als", (5, 4, 6), [2, 2, 2]),
            ("als", (3, 4, 2, 5), [2, 2, 2]),
            ("asvd", (5, 4, 6), [3, 3, 3]),
            ("masvd", (5, 4, 6), [6, 5, 5]),
        ],
    )
    def test_whole_tensor_reads_per_sweep(self, monkeypatch, method, dims, expected):
        t = random_tensor(dims, 140)
        vecs = list(random_tuple(dims, 141).vectors)
        assert whole_tensor_reads(monkeypatch, t.array, method, vecs, 3) == expected

    @pytest.mark.parametrize("method", ["asvd", "mals"])
    @pytest.mark.parametrize("dims", [(5, 4, 6, 3), (3, 4, 3, 5, 4)])
    @pytest.mark.parametrize("tol, sweeps", [(1e-4, 10), (1e-300, 8)])
    def test_solve_matches_tensordot_loop(self, method, dims, tol, sweeps):
        for seed in range(3):
            g = np.random.default_rng([142, seed, *dims]).standard_normal(dims)
            t = Tensor(g / np.linalg.norm(g))  # |T| = 1
            u = random_tuple(dims, 143 + seed)
            cfg = SolverConfig(method=method, max_iterations=sweeps, fitchange_tol=tol)
            result = solve(t, cfg, initial=u)
            lam, axes, iterations, calls, converged_by, steps, fs = tensordot_solve(t, method, u, cfg)
            assert result.iterations == iterations
            assert result.optimization_calls == calls
            assert result.converged_by == converged_by
            assert result.trace.steps == steps
            assert abs(result.lambda_ - lam) <= 1e-13
            assert tuple_matches(result.axes, axes, 1e-13)
            assert np.max(np.abs(np.array(list(result.trace.f_sequence())) - fs)) <= 1e-13


def reference_records(t, method, u, sweeps):
    """(index, f_before, f_after, opt_calls, substeps) per sweep of
    ``sweeps`` sweeps from ``u``, each sub-step kept as (modes, f_after,
    chosen, candidate items) when it is taken. The contractions, pair steps
    and candidate caches are the solver's own, so values agree bit for bit:
    mals contracts each round's candidates from the tensor contracted over
    the modes applied so far, and asvd takes the intermediate that
    ``solvers._pair_plan`` has the step before keep, across sweeps too."""
    arr, d = t.array, t.ndim
    vecs = [v.copy() for v in u.vectors]
    f_before, calls, records = f_value(t, u), 0, []
    partial = None  # the intermediate the last asvd step kept

    def pair(i, j, mat=None):
        nonlocal calls
        calls += 1
        if mat is None:
            mat = kernels.contract_all_but_two(arr, vecs, i, j)
        return top_singular_triple(mat.reshape(t.dims[i], t.dims[j]))

    for index in range(1, sweeps + 1):
        steps = []
        if method == "als":

            def update(i, v):
                f, vecs[i] = _normalized(i, v)
                steps.append(((i,), f, None, None))

            kernels.contract_each(arr, vecs, range(d), update)
            calls += d
        elif method == "asvd":
            for i, j, start, kept in solvers._pair_plan(d):
                if start is not None and partial is not None:
                    triple = pair(i, j, kernels.contract_partial(partial, t.dims, vecs, start, (i, j)))
                    partial = None
                elif kept is not None:
                    partial = kernels.contract_partial(arr, t.dims, vecs, range(d), kept)
                    triple = pair(i, j, kernels.contract_partial(partial, t.dims, vecs, kept, (i, j)))
                else:
                    triple, partial = pair(i, j), None
                vecs[i], vecs[j] = triple.u, triple.v
                steps.append(((i, j), triple.sigma, None, None))
        elif method == "mals":
            versions, cache, remaining = [0] * d, {}, list(range(d))
            applied, over = arr, range(d)  # arr contracted over the applied modes
            while remaining:
                stamps = {i: tuple(versions[j] for j in range(d) if j != i) for i in remaining}
                stale = [i for i in remaining if i not in cache or cache[i][2] != stamps[i]]

                def record(i, v):
                    cache[i] = (*_normalized(i, v), stamps[i])

                if stale:
                    applied = kernels.contract_partial(applied, t.dims, vecs, over, stale)
                    over = stale
                    kernels.contract_each(arr, vecs, stale, record, applied)
                calls += len(stale)
                best = max(remaining, key=lambda i: (cache[i][0], -i))
                if (vecs[best] != cache[best][1]).any():
                    versions[best] += 1
                vecs[best] = cache[best][1]
                items = [(i, cache[i][0]) for i in remaining]
                steps.append(((best,), cache[best][0], best, items))
                remaining.remove(best)
        else:
            versions, cache, remaining = [0, 0, 0], {}, [0, 1, 2]
            while remaining:
                for k in remaining:
                    if k not in cache or cache[k][1] != versions[k]:
                        cache[k] = (pair(*(m for m in range(3) if m != k)), versions[k])
                best = max(remaining, key=lambda k: (cache[k][0].sigma, -k))
                triple = cache[best][0]
                i, j = (m for m in range(3) if m != best)
                versions[i] += bool((vecs[i] != triple.u).any())
                versions[j] += bool((vecs[j] != triple.v).any())
                vecs[i], vecs[j] = triple.u, triple.v
                items = [(k, cache[k][0].sigma) for k in remaining]
                steps.append(((i, j), triple.sigma, best, items))
                remaining.remove(best)
        records.append((index, f_before, steps[-1][1], calls, steps))
        f_before = steps[-1][1]
    return records


def record_tuples(trace):
    """The records of :func:`reference_records`, read from the trace's
    columns: sweep k holds the sub-steps up to ``sweep_ends[k]``, and a
    greedy step's candidate values follow one another in ``candidates``."""
    records, f_before, start, offset = [], trace.f_initial, 0, 0
    for k, end in enumerate(trace.sweep_ends):
        steps = []
        for s in range(start, end):
            modes, chosen, keys = trace.steps[s]
            items = list(zip(keys, trace.candidates[offset : offset + len(keys)]))
            offset += len(keys)
            steps.append((modes, trace.f_after[s], chosen, items or None))
        records.append((k + 1, f_before, steps[-1][1], trace.opt_calls[k], steps))
        f_before, start = steps[-1][1], end
    return records


def sweep_fs(trace, sweeps=None):
    """f at the start and at the end of each of the first ``sweeps`` sweeps
    (all when None)."""
    ends = trace.sweep_ends[:sweeps]
    return [trace.f_initial, *(trace.f_after[end - 1] for end in ends)]


def first_step(trace):
    """(chosen, {mode: candidate value}) of a solve's first sub-step."""
    _, chosen, keys = trace.steps[0]
    return chosen, dict(zip(keys, trace.candidates))


#: ``decompose --max-iters 3 --trace`` rows on TRACE_TENSOR_4X4X4, as the
#: per-step trace objects wrote them; the mals row 3,1 moved by 2e-15 when
#: its sweep came to reuse partial contractions
TRACE_CSV_ROWS = {
    "als": [
        "1,0,0,,3.0379878187594387,3",
        "1,1,1,,4.2366100575398686,3",
        "1,2,2,,7.6236920206863612,3",
        "2,0,0,,7.7795159275227093,6",
        "2,1,1,,8.9701887243758502,6",
        "2,2,2,,10.251556818704314,6",
        "3,0,0,,10.773865505244107,9",
        "3,1,1,,12.935288381228764,9",
        "3,2,2,,13.433458480248092,9",
    ],
    "asvd": [
        "1,0,1+2,,8.1507766564075563,3",
        "1,1,0+2,,13.377857630986231,3",
        "1,2,0+1,,14.973637700631452,3",
        "2,0,1+2,,15.034570922538048,6",
        "2,1,0+2,,15.089504047072788,6",
        "2,2,0+1,,15.097743928894975,6",
        "3,0,1+2,,15.098044818317971,9",
        "3,1,0+2,,15.098385774537492,9",
        "3,2,0+1,,15.098463376511466,9",
    ],
    "mals": [
        "1,0,2,2,5.3310189898242095,6",
        "1,1,1,1,6.2242126785626564,6",
        "1,2,0,0,7.2689243342445993,6",
        "2,0,1,1,7.9762563005473748,12",
        "2,1,2,2,9.0040379487847595,12",
        "2,2,0,0,9.7839162474068306,12",
        "3,0,1,1,12.351059703852103,18",
        "3,1,2,2,13.530859266036986,18",
        "3,2,0,0,14.401462055246258,18",
    ],
    "masvd": [
        "1,0,0+2,1,8.346939061317606,6",
        "1,1,0+1,2,13.391738450649919,6",
        "1,2,1+2,0,13.59835558232011,6",
        "2,0,0+2,1,14.099832119992339,12",
        "2,1,0+1,2,14.396863915249,12",
        "2,2,1+2,0,14.492174655307487,12",
        "3,0,0+2,1,14.761278173621795,18",
        "3,1,0+1,2,14.978601363696736,18",
        "3,2,1+2,0,15.017095523063043,18",
    ],
}
TRACE_TENSOR_4X4X4 = [(7 * i + 3) % 11 - 5 for i in range(64)]


class TestColumnarTrace:
    @pytest.mark.parametrize(
        "method, dims",
        [
            ("als", (4, 3, 5)),
            ("asvd", (4, 3, 5)),
            ("mals", (4, 3, 5)),
            ("masvd", (4, 3, 5)),
            ("als", (3, 4, 2, 3)),
            ("asvd", (3, 4, 2, 3)),
            ("mals", (3, 4, 2, 3)),
        ],
    )
    def test_records_equal_per_step_reference(self, method, dims):
        t = random_tensor(dims, 70 + len(dims))
        u = random_tuple(dims, 71)
        result = solve(
            t,
            SolverConfig(method=method, max_iterations=6, fitchange_tol=1e-300),
            initial=u,
        )
        assert result.iterations == 6
        assert record_tuples(result.trace) == reference_records(t, method, u, 6)
        assert list(result.trace.f_sequence()) == [result.trace.f_initial] + [
            s[1] for r in record_tuples(result.trace) for s in r[4]
        ]
        assert all(w >= 0.0 for w in result.trace.wall_seconds)

    @pytest.mark.parametrize("method", ["mals", "masvd"])
    def test_candidates_rescaled_at_extreme_scale(self, method):
        t = random_tensor((3, 4, 3), 72)
        cfg = SolverConfig(method=method, seed=73)
        base = record_tuples(solve(t, cfg).trace)
        got = record_tuples(solve(Tensor(1e200 * t.array), cfg).trace)
        assert len(got) == len(base)
        for rg, rb in zip(got, base):
            assert (rg[0], rg[3]) == (rb[0], rb[3])
            assert rg[1] == pytest.approx(1e200 * rb[1], rel=1e-12, abs=0.0)
            for sg, sb in zip(rg[4], rb[4]):
                assert (sg[0], sg[2]) == (sb[0], sb[2])
                assert [k for k, _ in sg[3]] == [k for k, _ in sb[3]]
                assert [v for _, v in sg[3]] == pytest.approx(
                    [1e200 * v for _, v in sb[3]], rel=1e-12, abs=0.0
                )

    def test_tight_masvd_trace_memory_per_sweep(self):
        # the bytes freed when the trace of a tight solve is dropped; a
        # fit-change target below rounding makes it run all 12 sweeps
        t = random_tensor((8, 8, 8), 74)
        cfg = SolverConfig(method="masvd", seed=75, fitchange_tol=1e-300, max_iterations=12)
        solve(t, cfg)
        tracemalloc.start()
        try:
            result = solve(t, cfg)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            result.trace = None
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert result.iterations == 12
        assert freed <= 400 * result.iterations

    @pytest.mark.parametrize("method", ["als", "asvd", "mals", "masvd"])
    def test_decompose_trace_csv_unchanged(self, method, tmp_path, capsys):
        tensor = tmp_path / "t.txt"
        tensor.write_text("3\n4 4 4\n" + " ".join(map(str, TRACE_TENSOR_4X4X4)) + "\n")
        out = tmp_path / "trace.csv"
        args = ["decompose", "--input", str(tensor), "--method", method]
        assert cli.main(args + ["--max-iters", "3", "--trace", str(out)]) == 0
        capsys.readouterr()
        expected = ["iteration,substep,modes,chosen,f_after,opt_calls", *TRACE_CSV_ROWS[method]]
        assert out.read_bytes() == ("\n".join(expected) + "\n").encode("ascii")


def stationarity(t, u):
    """max_i |v_i - (x_i . v_i) x_i| / |T|, contracted with np.tensordot."""
    worst = 0.0
    for i, x in enumerate(u.vectors):
        v = t.array
        for mode in range(t.ndim - 1, -1, -1):
            if mode != i:
                v = np.tensordot(v, u.vectors[mode], axes=([mode], [0]))
        worst = max(worst, float(np.linalg.norm(v - np.dot(x, v) * x)))
    return worst / t.norm()


def default_solves_digest():
    """SHA-256 of lambda, iterations, opt_calls, stop label, axes and trace of
    default and fit-change-1e-6 solves of all methods on small tensors."""
    digest = hashlib.sha256()
    for dims in [(4, 4, 4), (8, 8, 8), (3, 4, 5), (8, 8, 8, 8), (5, 6)]:
        methods = {2: ("als",), 3: ("als", "asvd", "mals", "masvd"), 4: ("als", "asvd", "mals")}
        for k in range(3):
            t = Tensor(np.random.default_rng([80, k, *dims]).standard_normal(dims))
            for method in methods[len(dims)]:
                for cfg in (
                    SolverConfig(method=method, seed=k),
                    SolverConfig(method=method, seed=k, fitchange_tol=1e-6, max_iterations=200),
                ):
                    r = solve(t, cfg)
                    digest.update(np.float64(r.lambda_).tobytes())
                    digest.update(f"{r.iterations} {r.optimization_calls} {r.converged_by}".encode())
                    digest.update(np.concatenate(r.axes.vectors).tobytes())
                    digest.update(np.array(list(r.trace.f_sequence())).tobytes())
                    digest.update(repr(r.trace.steps).encode() + r.trace.candidates.tobytes())
    return digest.hexdigest()


#: default_solves_digest() of the sweep loop before the Newton finish
#: existed, re-pinned when mals and d >= 4 asvd came to reuse partial
#: contractions (same iterations, opt_calls, labels and steps; lambda within
#: 4.1e-16 relative)
DEFAULT_SOLVES_DIGEST = "e8365336ef3974d8aa5f8503c2cd0f62a730131882bb1d9ec51d62cd186b1f67"

TIGHT = dict(fitchange_tol=1e-12, max_iterations=2000)


def unchanged_routes_digest():
    """SHA-256 of tight 8^3 asvd and masvd solves, tight 32^3 asvd solves
    and the top singular triples of 24- to 48-sided matrices: every Gram side
    lies below linalg.SQUARING_MIN_SIDE or from 20 up to below
    linalg.CARRY_MIN_SIDE, where the pair step takes its route unchanged."""
    digest = hashlib.sha256()
    for dims, method, seeds in [
        ((8, 8, 8), "asvd", 4), ((8, 8, 8), "masvd", 4), ((32, 32, 32), "asvd", 2)
    ]:
        for k in range(seeds):
            t = Tensor(np.random.default_rng([81, k, *dims]).standard_normal(dims))
            r = solve(t, SolverConfig(method=method, seed=k, **TIGHT))
            digest.update(np.float64(r.lambda_).tobytes())
            digest.update(f"{r.iterations} {r.optimization_calls} {r.converged_by}".encode())
            digest.update(np.concatenate(r.axes.vectors).tobytes())
            digest.update(np.array(list(r.trace.f_sequence())).tobytes())
            digest.update(repr(r.trace.steps).encode() + r.trace.candidates.tobytes())
    for shape in [(24, 24), (24, 40), (33, 32), (40, 48), (48, 48), (61, 48)]:
        a = np.random.default_rng([82, *shape]).standard_normal(shape)
        trip = top_singular_triple(a)
        digest.update(np.array([trip.sigma, *trip.u, *trip.v, trip.squarings]).tobytes())
    return digest.hexdigest()


#: unchanged_routes_digest() before mals and asvd reused partial
#: contractions and large pair steps carried their candidate from P^4
UNCHANGED_ROUTES_DIGEST = "a6badc85802d7d3096293e90bc184c49aaa781eba2863f77029691e33ffe2f33"


class TestNewtonFinish:
    @pytest.mark.parametrize(
        "method, dims",
        [(m, (6, 5, 4)) for m in ("als", "asvd", "mals", "masvd")]
        + [(m, (4, 3, 5, 3)) for m in ("als", "asvd", "mals")]
        + [("als", (7, 5))],
    )
    def test_tight_solve_certifies_stationarity(self, method, dims):
        for seed in range(3):
            t = random_tensor(dims, 90 + seed)
            result = solve(t, SolverConfig(method=method, seed=seed, **TIGHT))
            assert result.converged_by == "stationary"
            measured = stationarity(t, result.axes)
            assert measured <= 1e-12**0.75
            assert result.stationarity == pytest.approx(measured, rel=1e-3, abs=1e-14)

    @pytest.mark.parametrize("method", ["als", "asvd", "mals", "masvd"])
    def test_accepted_steps_keep_the_trace_monotone(self, method):
        t = random_tensor((8, 8, 8), 93)
        result = solve(t, SolverConfig(method=method, seed=94, **TIGHT))
        records = record_tuples(result.trace)
        steps = [s for r in records for s in r[4] if s[0] == (0, 1, 2)]
        assert steps, "the finish took no step"
        assert all(chosen is None and items is None for _, _, chosen, items in steps)
        assert monotone(result.trace, t.norm())
        # the accepted steps sit inside the last sweep, which iterations counts
        index, _, f_last, _, substeps = records[-1]
        assert index == result.iterations and substeps[-1][0] == (0, 1, 2)
        assert f_last == pytest.approx(result.lambda_, rel=1e-14)

    @pytest.mark.parametrize("dims", [(8, 8, 8), (6, 5, 4), (4, 3, 5, 3), (7, 5), (1, 4, 3)])
    def test_step_is_the_dense_newton_step(self, dims):
        # the step factors only a Schur complement of H; it must return None
        # exactly when H is not positive definite, and otherwise retract
        # theta = H^-1 g / 2 solved densely
        t = random_tensor(dims, 115)
        tuples = [random_tuple(dims, 116 + k) for k in range(12)]
        near = SolverConfig(method="als", fitchange_tol=1e-6, max_iterations=500)
        tuples += [solve(t, near, initial=random_tuple(dims, 130 + k)).axes for k in range(4)]
        definite = 0
        for u in tuples:
            vecs = list(u.vectors)
            contractions = kernels.all_contractions(t.array, vecs)
            f = float(np.dot(vecs[0], contractions[0]))
            bases = [tangent_basis(x) for x in vecs]
            h = tangent_hessian(t.array, vecs, bases, f)
            step = solvers._newton_step(t.array, vecs, contractions, f)
            if np.linalg.eigvalsh(h)[0] <= 0.0:
                assert step is None
                continue
            definite += 1
            g = np.concatenate([q.T @ v for q, v in zip(bases, contractions)])
            theta = 0.5 * np.linalg.solve(h, g)
            start = 0
            for x, q, y in zip(vecs, bases, step[0]):
                z = x + q @ theta[start : start + q.shape[1]]
                start += q.shape[1]
                assert np.allclose(y, z / np.linalg.norm(z), rtol=0.0, atol=1e-10)
            for v, w in zip(step[1], kernels.all_contractions(t.array, step[0])):
                assert np.array_equal(v, w)
        assert definite >= 4

    def test_rejection_at_a_minimum_leaves_tuple_and_trace(self):
        # flipping one axis of a local maximum gives a local minimum, where
        # the Hessian is positive definite and H is not
        t = random_tensor((5, 4, 6), 95)
        top = solve(t, SolverConfig(method="asvd", seed=96, **TIGHT))
        vecs = [-top.axes.vectors[0], *top.axes.vectors[1:]]
        before = [v.copy() for v in vecs]
        trace = solvers.SolverTrace(1.0)
        trace._record(2.0, (0,))
        trace._end_sweep(0.0)
        f_before, steps_before, calls = list(trace.f_sequence()), list(trace.steps), trace._calls
        assert solvers._newton_finish(t.array, vecs, trace, 0.0, 0.0) is None
        assert all(np.array_equal(a, b) for a, b in zip(vecs, before))
        assert list(trace.f_sequence()) == f_before and trace.steps == steps_before
        # the attempt still counts its contractions: d, then d(d - 1)/2
        assert trace._calls == calls + 3 + 3

    @pytest.mark.parametrize("proposal", ["lower_f", "same_residual"])
    def test_step_rejected_unless_f_holds_and_residual_falls(self, proposal, monkeypatch):
        # T = 3 e0(x)e0(x)e0 + e1(x)e1(x)e1: near the maximum at e0, a step
        # to the critical point at e1 lowers the residual to 0 and f to 1;
        # a step that stays put keeps the residual
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0], arr[1, 1, 1] = 3.0, 1.0
        x = np.array([np.cos(0.1), np.sin(0.1)])
        vecs = [x, x.copy(), x.copy()]
        e1 = np.array([0.0, 1.0])
        proposals = []

        def step(arr, vecs, contractions, f):
            proposals.append(f)
            if len(proposals) > 3:
                return None
            new = [e1, e1.copy(), e1.copy()] if proposal == "lower_f" else [v.copy() for v in vecs]
            return new, kernels.all_contractions(arr, new)

        monkeypatch.setattr(solvers, "_newton_step", step)
        trace = solvers.SolverTrace(1.0)
        assert solvers._newton_finish(arr, vecs, trace, 0.0, 4 * np.finfo(float).eps * 10.0) is None
        assert len(proposals) == 1 and len(trace.f_after) == 0
        assert all(np.array_equal(v, x) for v in vecs)

    def test_rejected_attempts_change_only_opt_calls(self, monkeypatch):
        t = random_tensor((6, 6, 6), 97)
        cfg = SolverConfig(method="als", seed=98, **TIGHT)
        monkeypatch.setattr(solvers, "NEWTON_FIT_CHANGE", 0.0)
        sweeps_only = solve(t, cfg)
        monkeypatch.undo()
        monkeypatch.setattr(solvers, "_newton_step", lambda *args: None)
        rejected = solve(t, cfg)
        assert rejected.converged_by == sweeps_only.converged_by == "fitchange"
        assert rejected.stationarity is None
        assert rejected.iterations == sweeps_only.iterations
        assert rejected.lambda_ == sweeps_only.lambda_
        assert list(rejected.trace.f_sequence()) == list(sweeps_only.trace.f_sequence())
        assert all(np.array_equal(a, b) for a, b in zip(rejected.axes, sweeps_only.axes))
        # each attempt costs d + d(d - 1)/2 calls; retries wait for the fit
        # change to halve, so there are few of them
        extra = rejected.optimization_calls - sweeps_only.optimization_calls
        assert extra > 0 and extra % 6 == 0 and extra // 6 < sweeps_only.iterations

    def test_retry_waits_for_the_fit_change_to_halve(self, monkeypatch):
        # als on a matrix is the power method, here with a slow rate of
        # (0.95)^2 per sweep, so the fit change shrinks by less than half
        rng = np.random.default_rng(109)
        u, _ = np.linalg.qr(rng.standard_normal((6, 5)))
        v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        t = Tensor(u @ np.diag([1.0, 0.95, 0.5, 0.3, 0.1]) @ v.T)
        nrm = t.norm()
        attempts = []

        def reject(arr, vecs, trace, target, slack):
            ended = trace.sweep_ends
            f_prev = trace.f_after[ended[-1] - 1] if ended else trace.f_initial
            attempts.append(abs(trace.f_after[-1] - f_prev) / nrm)
            return None

        monkeypatch.setattr(solvers, "_newton_finish", reject)
        result = solve(t, SolverConfig(method="als", seed=110, **TIGHT))
        assert result.converged_by == "fitchange"
        fs = sweep_fs(result.trace)
        eligible = [
            abs(b - a) / nrm for a, b in zip(fs, fs[1:])
            if 1e-12 <= abs(b - a) / nrm < solvers.NEWTON_FIT_CHANGE
        ]
        assert 2 <= len(attempts) < len(eligible)
        assert attempts[0] == eligible[0]
        assert all(b < a / 2 for a, b in zip(attempts, attempts[1:]))

    @pytest.mark.parametrize(
        "method, dims",
        [(m, dims) for dims in ((8, 8, 8), (6, 5, 4)) for m in ("als", "asvd", "mals", "masvd")]
        + [(m, (4, 3, 5, 3)) for m in ("als", "asvd", "mals")],
    )
    def test_earlier_handoff_reaches_the_same_maximum(self, method, dims, monkeypatch):
        # The finish as shipped against the finish after a fit change of
        # sqrt(eps), the gate it had first. Each run is within about
        # |theta| = |H^-1 g| / 2 <= sqrt(d) s / (2 mu) of the maximum, with s
        # its certified residual and mu the smallest eigenvalue of H there;
        # at a target of 1e-9 |T| and mu near 1e-2 |T| that can exceed 1e-8.
        for seed in range(3):
            t = random_tensor(dims, 120 + seed)
            cfg = SolverConfig(method=method, seed=seed, **TIGHT)
            early = solve(t, cfg)
            monkeypatch.setattr(solvers, "NEWTON_FIT_CHANGE", np.finfo(float).eps ** 0.5)
            late = solve(t, cfg)
            monkeypatch.undo()
            assert early.converged_by == late.converged_by == "stationary"
            assert early.iterations <= late.iterations
            assert early.lambda_ == pytest.approx(late.lambda_, rel=1e-12, abs=0.0)
            vecs = list(early.axes.vectors)
            h = tangent_hessian(t.array, vecs, [tangent_basis(x) for x in vecs], early.lambda_)
            mu = np.linalg.eigvalsh(h)[0] / t.norm()
            reach = 0.5 * len(dims) ** 0.5 * (early.stationarity + late.stationarity) / mu
            for a, b in zip(early.axes.vectors, late.axes.vectors):
                assert np.linalg.norm(a - b) <= reach
            if method in ("mals", "masvd"):
                level = 1 if method == "mals" else 2
                assert check_semi_max(t, early.axes, level=level).passed

    @pytest.mark.parametrize("tol", [np.finfo(float).eps ** 0.5, 1e-7])
    def test_tolerance_below_the_gate_reaches_the_finish(self, tol):
        # Below NEWTON_FIT_CHANGE a solve is certified once a sweep's fit
        # change lands in [tol, NEWTON_FIT_CHANGE); a fast solve whose fit
        # change falls from above that range to below tol in one sweep stops
        # on its fit change, as it always did.
        cases = [(m, (6, 5, 4)) for m in ("als", "asvd", "mals", "masvd")]
        cases += [(m, (4, 3, 5, 3)) for m in ("als", "asvd", "mals")]
        certified = 0
        for method, dims in cases:
            for seed in range(3):
                t = random_tensor(dims, 90 + seed)
                nrm = t.norm()
                cfg = SolverConfig(method=method, seed=seed, fitchange_tol=tol, max_iterations=2000)
                result = solve(t, cfg)
                if result.converged_by == "stationary":
                    certified += 1
                    assert stationarity(t, result.axes) <= tol**0.75
                    continue
                assert result.converged_by == "fitchange"
                fs = sweep_fs(result.trace)
                changes = [abs(b - a) / nrm for a, b in zip(fs, fs[1:])]
                assert changes[-1] < tol
                assert all(c >= solvers.NEWTON_FIT_CHANGE for c in changes[:-1])
        assert certified >= 14  # of 21

    @pytest.mark.parametrize(
        "method, dims",
        [(m, dims) for dims in ((8, 8, 8), (6, 5, 4)) for m in ("als", "asvd", "mals", "masvd")]
        + [(m, (4, 3, 5, 3)) for m in ("als", "asvd", "mals")],
    )
    def test_handoff_at_1e_4_reaches_the_1e_6_maximum(self, method, dims, monkeypatch):
        # the hand-over as shipped against one after a fit change of 1e-6
        for seed in range(3):
            t = random_tensor(dims, 140 + seed)
            cfg = SolverConfig(method=method, seed=seed, **TIGHT)
            early = solve(t, cfg)
            monkeypatch.setattr(solvers, "NEWTON_FIT_CHANGE", 1e-6)
            late = solve(t, cfg)
            monkeypatch.undo()
            assert early.converged_by == late.converged_by == "stationary"
            assert early.lambda_ == pytest.approx(late.lambda_, rel=1e-12, abs=0.0)
            for a, b in zip(early.axes.vectors, late.axes.vectors):
                assert np.allclose(a, b, rtol=0.0, atol=1e-8)
            if method in ("mals", "masvd"):
                level = 1 if method == "mals" else 2
                assert check_semi_max(t, early.axes, level=level).passed

    @pytest.mark.parametrize("tol", [np.finfo(float).eps ** 0.5, 1e-7])
    def test_every_solve_below_the_gate_is_certified(self, tol):
        # the cases of test_tolerance_below_the_gate_reaches_the_finish: a
        # solve whose fit change jumps past [tol, NEWTON_FIT_CHANGE) in one
        # sweep makes one attempt before its fit-change stop
        cases = [(m, (6, 5, 4)) for m in ("als", "asvd", "mals", "masvd")]
        cases += [(m, (4, 3, 5, 3)) for m in ("als", "asvd", "mals")]
        for method, dims in cases:
            for seed in range(3):
                t = random_tensor(dims, 90 + seed)
                cfg = SolverConfig(method=method, seed=seed, fitchange_tol=tol, max_iterations=2000)
                result = solve(t, cfg)
                assert result.converged_by == "stationary", (method, dims, seed)
                assert stationarity(t, result.axes) <= tol**0.75

    @pytest.mark.parametrize("method", ["als", "asvd", "mals", "masvd"])
    def test_handoff_follows_the_first_fit_change_below_1e_4(self, method, monkeypatch):
        t = random_tensor((6, 5, 4), 113)
        nrm = t.norm()
        first = []
        finish = solvers._newton_finish

        def record(arr, vecs, trace, target, slack):
            ended = trace.sweep_ends
            f_prev = trace.f_after[ended[-1] - 1] if ended else trace.f_initial
            first.append((len(ended), abs(trace.f_after[-1] - f_prev) / nrm))
            return finish(arr, vecs, trace, target, slack)

        monkeypatch.setattr(solvers, "_newton_finish", record)
        result = solve(t, SolverConfig(method=method, seed=114, **TIGHT))
        assert result.converged_by == "stationary"
        sweep, change = first[0]
        fs = sweep_fs(result.trace, sweep)
        assert change < 1e-4
        assert all(abs(b - a) / nrm >= 1e-4 for a, b in zip(fs, fs[1:]))

    def test_attempt_before_a_fit_change_stop(self, monkeypatch):
        # with the hand-over gate at the solve's own tolerance, a tight solve
        # makes exactly one attempt, in the sweep that meets its stop
        t = random_tensor((6, 5, 4), 111)
        cfg = SolverConfig(method="asvd", seed=112, **TIGHT)
        monkeypatch.setattr(solvers, "NEWTON_FIT_CHANGE", TIGHT["fitchange_tol"])
        certified = solve(t, cfg)
        assert certified.converged_by == "stationary" and certified.stationarity <= 1e-9
        attempts = []

        def reject(arr, vecs, trace, target, slack):
            attempts.append(len(trace.sweep_ends) + 1)
            return None

        monkeypatch.setattr(solvers, "_newton_finish", reject)
        rejected = solve(t, cfg)
        assert rejected.converged_by == "fitchange" and rejected.stationarity is None
        assert attempts == [rejected.iterations] == [certified.iterations]
        # a solve that has tried already makes no attempt at its stop
        attempts.clear()
        monkeypatch.setattr(solvers, "NEWTON_FIT_CHANGE", 1e-4)
        rejected = solve(t, cfg)
        assert rejected.converged_by == "fitchange"
        assert attempts and attempts[-1] < rejected.iterations

    @pytest.mark.parametrize("tol", [1e-4, 1e-5, 2e-6, 1e-6, 1e-300])
    def test_finish_never_runs_outside_its_range(self, tol, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the Newton finish ran")

        monkeypatch.setattr(solvers, "_newton_finish", forbidden)
        t = random_tensor((6, 5, 4), 99)
        for method in ("als", "asvd", "mals", "masvd"):
            result = solve(t, SolverConfig(method=method, fitchange_tol=tol, max_iterations=300))
            assert result.stationarity is None
            assert result.converged_by in ("fitchange", "max_iterations")

    def test_default_solves_bit_identical_to_sweep_loop(self):
        assert default_solves_digest() == DEFAULT_SOLVES_DIGEST

    def test_unchanged_routes_bit_identical(self):
        assert unchanged_routes_digest() == UNCHANGED_ROUTES_DIGEST

    def test_matrix_case_takes_exact_newton_steps(self):
        a = np.random.default_rng(100).standard_normal((6, 4))
        result = solve(Tensor(a), SolverConfig(method="als", seed=101, **TIGHT))
        assert result.converged_by == "stationary"
        assert result.lambda_ == pytest.approx(oracles.top_sigma(a), rel=1e-13)


class TestTangentCoordinates:
    @pytest.mark.parametrize("x0", [0.8, -0.8, 0.0, 1.0, -1.0])
    def test_householder_basis_is_orthonormal_complement(self, x0):
        rest = np.random.default_rng(102).standard_normal(4)
        x = np.concatenate([[x0], np.sqrt(1.0 - x0 * x0) * rest / np.linalg.norm(rest)])
        q = tangent_basis(x)
        assert q.shape == (5, 4)
        assert np.allclose(q.T @ q, np.eye(4), atol=1e-15)
        assert np.allclose(x @ q, 0.0, atol=1e-15)

    def test_single_entry_mode_has_no_tangent_directions(self):
        assert tangent_basis(np.array([-1.0])).shape == (1, 0)

    def test_hessian_changes_with_the_bases_as_a_congruence(self):
        # the library's Householder coordinates and the oracle's QR ones
        # give congruent H: D^T H_qr D with D = blockdiag(Q_qr^T Q_hh)
        t = random_tensor((5, 4, 3), 103)
        u = random_tuple((5, 4, 3), 104)
        f = f_value(t, u)
        qr = oracles.tangent_bases(u.vectors)
        hh = [tangent_basis(x) for x in u.vectors]
        d = np.zeros((9, 9))
        start = 0
        for a, b in zip(qr, hh):
            d[start : start + a.shape[1], start : start + a.shape[1]] = a.T @ b
            start += a.shape[1]
        h_qr = tangent_hessian(t.array, u.vectors, qr, f)
        h_hh = tangent_hessian(t.array, u.vectors, hh, f)
        assert np.allclose(h_hh, d.T @ h_qr @ d, atol=1e-13 * np.max(np.abs(h_qr)))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 2.5},
            {"max_iterations": "3"},
            {"max_iterations": 0},
            {"fitchange_tol": "1e-4"},
            {"fitchange_tol": float("nan")},
            {"fitchange_tol": 0.0},
        ],
    )
    def test_bad_numbers_are_input_errors(self, kwargs):
        with pytest.raises(InvalidInputError):
            SolverConfig(**kwargs)

    def test_numpy_scalars_accepted(self):
        cfg = SolverConfig(max_iterations=np.int64(3), fitchange_tol=np.float64(1e-3))
        assert solve(random_tensor((3, 3, 3), 105), cfg).iterations <= 3

    @pytest.mark.parametrize("seed", [-1, "abc", 2.5])
    def test_bad_seed_is_input_error(self, seed):
        t = random_tensor((3, 3, 3), 106)
        with pytest.raises(InvalidInputError):
            solve(t, SolverConfig(seed=seed))
        with pytest.raises(InvalidInputError):
            init_random((3, 3), seed=seed)

    def test_bad_seed_on_the_cli_exits_one(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("3\n2 2 2\n1 2 3 4 5 6 7 8\n")
        assert cli.main(["decompose", "--input", str(path), "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err


class TestResultAxes:
    @pytest.mark.parametrize("method", ["als", "asvd", "mals", "masvd"])
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_axes_are_owned_unit_vectors(self, method, scale):
        t = Tensor(scale * random_tensor((4, 5, 3), 107).array)
        u = random_tuple((4, 5, 3), 108)
        result = solve(t, SolverConfig(method=method), initial=u)
        for x, x0 in zip(result.axes.vectors, u.vectors):
            assert x.dtype == np.float64 and x.ndim == 1 and x.flags.c_contiguous
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
            assert not np.shares_memory(x, x0)
