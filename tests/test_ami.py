import warnings

import numpy as np
import pytest

from rank1tensor import (
    DimensionError,
    InvalidInputError,
    Rank1Error,
    SingularBlockError,
    Tensor,
)
from rank1tensor.ami import (
    BlockQuadraticForm,
    ami_sweep,
    analyze,
    basin_experiment,
    gauss_seidel_matrix,
    hessian_form_at,
)
from rank1tensor.core import f_from_arrays, tangent_basis, tangent_hessian
from rank1tensor.linalg import inertia
from rank1tensor.solvers import SolverConfig, init_random, solve, sweep

import oracles
from ami_instances import instance_stream
from conftest import SCALE_EXPONENTS, max_scaled


class TestBlockQuadraticForm:
    def test_rejects_asymmetric(self):
        h = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(InvalidInputError):
            BlockQuadraticForm(h, (1, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite(self, bad):
        # NaN passed the symmetry test and Inf made it warn
        with pytest.raises(InvalidInputError, match="finite"):
            BlockQuadraticForm([[1.0, bad], [bad, 1.0]], (1, 1))

    def test_rejects_bad_partition(self):
        with pytest.raises(DimensionError):
            BlockQuadraticForm(np.eye(3), (1, 1))

    def test_diagonal_definiteness_flag(self):
        h = np.diag([1.0, 1.0, -1.0])
        assert not BlockQuadraticForm(h, (1, 1, 1)).diagonal_blocks_positive_definite()
        assert BlockQuadraticForm(np.eye(3), (2, 1)).diagonal_blocks_positive_definite()

    def test_definiteness_matches_block_inertia(self):
        # definite, indefinite and semidefinite diagonal blocks
        rng = np.random.default_rng(20)
        for trial in range(40):
            sizes = tuple(int(m) for m in rng.integers(1, 4, size=3))
            g = rng.standard_normal((sum(sizes), sum(sizes)))
            h = g + g.T + rng.uniform(-1.0, 4.0) * np.eye(sum(sizes))
            if trial % 4 == 0:
                h[0, :] = h[:, 0] = 0.0  # a zero eigenvalue in block 0
            form = BlockQuadraticForm(h, sizes)
            expected = all(
                inertia(form.block(j, j)).positive == m for j, m in enumerate(sizes)
            )
            assert form.diagonal_blocks_positive_definite() == expected


class TestGaussSeidelMatrix:
    def test_block_diagonal_gives_zero(self):
        h = np.diag([2.0, 3.0, 4.0])
        form = BlockQuadraticForm(h, (1, 2))
        assert np.allclose(gauss_seidel_matrix(form), 0.0)

    @pytest.mark.parametrize("a", [0.25, -0.7, 1.5])
    def test_two_scalar_blocks_match_hand_elimination(self, a):
        form = BlockQuadraticForm(np.array([[1.0, a], [a, 1.0]]), (1, 1))
        k = gauss_seidel_matrix(form)
        assert np.allclose(k, oracles.gauss_seidel_2x2_reference(a), atol=1e-14)
        eigs = sorted(np.abs(np.linalg.eigvals(k)))
        assert eigs[0] == pytest.approx(0.0, abs=1e-14)
        assert eigs[1] == pytest.approx(a * a, rel=1e-12)

    def test_singular_diagonal_block_named(self):
        h = np.zeros((3, 3))
        h[0, 0] = 1.0  # second block (2x2) is singular
        h[1, 2] = h[2, 1] = 0.0
        form = BlockQuadraticForm(h, (1, 2))
        with pytest.raises(SingularBlockError) as exc:
            gauss_seidel_matrix(form)
        assert exc.value.block_index == 1
        assert "block 1" in str(exc.value)

    def test_sweep_equals_matrix_application(self):
        stream = instance_stream(0, kinds=(1,))
        for _ in range(5):
            form, _, _ = next(stream)
            k = gauss_seidel_matrix(form)
            rng = np.random.default_rng(form.order)
            xi = rng.standard_normal(form.order)
            assert np.allclose(ami_sweep(form, xi), k @ xi, atol=1e-10 * max(1.0, np.abs(k).max()))


class TestAmiSweep:
    def test_zero_maps_to_zero(self):
        form, _, _ = next(instance_stream(1, kinds=(0,)))
        assert np.allclose(ami_sweep(form, np.zeros(form.order)), 0.0)

    def test_null_vector_is_fixed(self):
        stream = instance_stream(2, kinds=(2,))
        for _ in range(5):
            form, _, null = next(stream)
            out = ami_sweep(form, null)
            assert np.linalg.norm(out - null) <= 1e-10 * np.linalg.norm(null)


class TestAnalyze:
    def test_positive_definite_case(self):
        g = np.random.default_rng(3).standard_normal((6, 6))
        form = BlockQuadraticForm(g.T @ g + np.eye(6), (2, 2, 2))
        report = analyze(form)
        assert report.alpha == 6
        assert report.theorem_holds is True
        assert report.spectral_radius < 1.0
        assert report.ostrowski

    def test_planted_negative_eigenvalue(self):
        # rank-one downdate of the identity: one eigenvalue at -2, diagonal
        # blocks stay definite because each holds only 1/4 of the direction
        w = np.full(8, 1.0 / np.sqrt(8.0))
        h = np.eye(8) - 3.0 * np.outer(w, w)
        form = BlockQuadraticForm(h, (2, 2, 2, 2))
        assert form.diagonal_blocks_positive_definite()
        report = analyze(form)
        assert tuple(report.inertia) == (7, 1, 0)
        assert report.beta == 1
        assert report.theorem_holds is True

    def test_planted_null_direction(self):
        form, _, null = next(instance_stream(5, kinds=(2,)))
        report = analyze(form)
        assert report.inertia.zero == 1
        assert report.gamma == 1
        assert report.unit_circle_near_one
        k = gauss_seidel_matrix(form)
        assert np.linalg.norm(k @ null - null) <= 1e-8 * np.linalg.norm(null)

    def test_eigenvalue_counts_match_inertia(self):
        stream = instance_stream(6)
        for _ in range(30):
            form, _, _ = next(stream)
            report = analyze(form)
            assert report.alpha + report.beta + report.gamma == form.order
            assert (report.alpha, report.beta, report.gamma) == tuple(report.inertia)
            assert report.inertia.positive >= max(form.block_sizes)
            assert report.ostrowski
            assert report.unit_circle_near_one

    def test_singular_diagonal_block_raises(self):
        h = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(SingularBlockError) as exc:
            analyze(BlockQuadraticForm(h, (1, 1, 1)))
        assert exc.value.block_index == 1

    def test_indefinite_diagonal_blocks_not_applicable(self):
        h = np.array(
            [[1.0, 0.0, 0.3], [0.0, -1.0, 0.1], [0.3, 0.1, 2.0]]
        )
        form = BlockQuadraticForm(h, (2, 1))
        report = analyze(form)
        assert report.theorem_holds is None
        assert not report.diagonal_blocks_definite

    def test_block_diagonal_form_has_zero_iteration_matrix(self):
        # K = 0: every eigenpair residual is exactly zero, and |K|_F = 0
        h = np.diag([2.0, 1.0, 3.0, 0.5])
        h[0, 1] = h[1, 0] = 0.5
        report = analyze(BlockQuadraticForm(h, (2, 2)))
        assert report.spectral_radius == 0.0
        assert (report.alpha, report.beta, report.gamma) == (4, 0, 0)
        assert report.theorem_holds is True


class TestBasinExperiment:
    def test_contraction_for_definite_form(self):
        form, _, _ = next(instance_stream(7, kinds=(0,)))
        rng = np.random.default_rng(8)
        trajectory = basin_experiment(form, rng.standard_normal(form.order), sweeps=5000)
        assert trajectory.converged_to_zero

    def test_stable_eigendirection_converges_exactly(self):
        # K = [[0, -a], [0, a^2]]: e_1 maps to zero in a single sweep
        form = BlockQuadraticForm(np.array([[1.0, 1.5], [1.5, 1.0]]), (1, 1))
        trajectory = basin_experiment(form, np.array([1.0, 0.0]), sweeps=10)
        assert trajectory.converged_to_zero
        assert trajectory.sweeps_run == 1

    def test_unstable_eigendirection_diverges(self):
        form = BlockQuadraticForm(np.array([[1.0, 1.5], [1.5, 1.0]]), (1, 1))
        xi0 = np.array([1.0, -1.5])  # eigenvector for 2.25
        xi0 /= np.linalg.norm(xi0)
        trajectory = basin_experiment(form, xi0, sweeps=60)
        assert not trajectory.converged_to_zero
        assert trajectory.norms[-1] > 1e3
        diffs = np.diff(trajectory.f_values)
        assert np.all(diffs >= -1e-10 * np.abs(trajectory.f_values[:-1]).max())

    def test_objective_never_decreases(self):
        stream = instance_stream(9, kinds=(1,))
        for _ in range(5):
            form, _, _ = next(stream)
            rng = np.random.default_rng(form.order + 1)
            xi0 = rng.standard_normal(form.order)
            trajectory = basin_experiment(form, xi0, sweeps=40)
            scale = max(np.abs(form.h).max() * float(np.dot(xi0, xi0)), 1.0)
            diffs = np.diff(trajectory.f_values)
            finite = diffs[np.isfinite(diffs)]
            assert np.all(finite >= -1e-10 * scale)

    def test_null_start_stays_put(self):
        form, _, null = next(instance_stream(10, kinds=(2,)))
        trajectory = basin_experiment(form, null, sweeps=20)
        assert not trajectory.converged_to_zero
        assert trajectory.norms[-1] == pytest.approx(trajectory.norms[0], rel=1e-9)

    @pytest.mark.parametrize(
        "coupling, xi0, norms",
        [(1e30, [0.0, 1e100], [1e100]), (1e20, [0.0, 1.0], [1.0, 1e40, 1e80, 1e120])],
    )
    def test_overflowing_sweep_ends_as_diverged(self, coupling, xi0, norms):
        # K's eigenvalue is coupling^2, so the norm grows by that factor per
        # sweep; the sweep whose norm or objective overflows ends the
        # trajectory unrecorded, with no NumPy warning
        form = BlockQuadraticForm([[1.0, coupling], [coupling, 1.0]], (1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trajectory = basin_experiment(form, xi0, 100)
        assert trajectory.norms == pytest.approx(norms, rel=1e-12)
        assert len(trajectory.f_values) == len(norms)
        assert all(np.isfinite(trajectory.f_values))
        assert trajectory.sweeps_run == len(norms) - 1
        assert not trajectory.converged_to_zero


def perfbench_form(seed, order, nblocks=3):
    """A coupled indefinite form with definite diagonal blocks and a start,
    built the way perfbench's analysis workload builds its forms."""
    rng = np.random.default_rng([seed, order])
    m = order // nblocks
    coupling = rng.standard_normal((order, order))
    h = 1.5 * (coupling + coupling.T) / np.sqrt(2.0 * order)
    for j in range(nblocks):
        g = rng.standard_normal((m, m))
        block = slice(j * m, (j + 1) * m)
        h[block, block] = g @ g.T / m + (0.5 + rng.random()) * np.eye(m)
    return BlockQuadraticForm(h, (m,) * nblocks), rng.standard_normal(order)


def reference_basin(q, xi0, sweeps, zero_threshold=1e-10):
    """The basin loop over the public, checked ami_sweep."""
    xi = np.asarray(xi0, dtype=np.float64)
    norms = [float(np.linalg.norm(xi))]
    f_values = [q.f(xi)]
    converged = norms[0] <= zero_threshold
    run = 0
    for run in range(1, sweeps + 1):
        xi = ami_sweep(q, xi)
        norms.append(float(np.linalg.norm(xi)))
        f_values.append(q.f(xi))
        if norms[-1] <= zero_threshold:
            converged = True
            break
        if not np.isfinite(norms[-1]) or norms[-1] > 1e150:
            break
    return norms, f_values, run, converged


class TestBasinChecksOnce:
    @pytest.mark.parametrize("order", [12, 48, 96])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_trajectory_equals_public_sweep_loop(self, seed, order):
        form, xi0 = perfbench_form(seed, order)
        got = basin_experiment(form, xi0, 100)
        norms, f_values, run, converged = reference_basin(form, xi0, 100)
        assert got.norms == norms
        assert got.f_values == f_values
        assert got.sweeps_run == run
        assert got.converged_to_zero == converged

    def test_singular_diagonal_block_raises(self):
        form = BlockQuadraticForm(np.diag([1.0, 0.0, 2.0]), (1, 2))
        with pytest.raises(SingularBlockError) as exc:
            basin_experiment(form, np.ones(3), 5)
        assert exc.value.block_index == 1

    @pytest.mark.parametrize("sweeps", [0, 3])
    def test_wrong_length_start_raises(self, sweeps):
        form = BlockQuadraticForm(np.eye(4), (2, 2))
        with pytest.raises(DimensionError):
            basin_experiment(form, np.ones(3), sweeps)

    def test_zero_sweeps_run_no_block_check(self):
        # no sweep is taken, so a singular block is not an error
        form = BlockQuadraticForm(np.diag([1.0, 0.0, 2.0]), (1, 2))
        trajectory = basin_experiment(form, np.ones(3), 0)
        assert trajectory.sweeps_run == 0
        assert trajectory.norms == [float(np.sqrt(3.0))]
        assert trajectory.f_values == [-3.0]


class TestScaleGate:
    """Every ami result on cH, c = 10^k, equals the one on its exact
    power-of-two rescaling, subnormal and near-overflowing entries
    included: the basin's objective is the same number in H's units, and
    its trajectory is the same up to a sweep whose objective overflows in
    those units."""

    @pytest.mark.parametrize("order", [12, 48, 96])
    def test_scaled_form_gives_the_rescaled_results(self, order):
        form, xi0 = perfbench_form(1, order)
        overflowed = 0
        for k in range(-320, 301, 7):
            scaled = BlockQuadraticForm(form.h * 10.0**k, form.block_sizes)
            e = np.frexp(np.max(np.abs(scaled.h)))[1]
            rescaled = BlockQuadraticForm(np.ldexp(scaled.h, -e), form.block_sizes)
            assert np.array_equal(ami_sweep(scaled, xi0), ami_sweep(rescaled, xi0)), k
            assert np.array_equal(gauss_seidel_matrix(scaled), gauss_seidel_matrix(rescaled)), k
            got, want = analyze(scaled), analyze(rescaled)
            assert np.array_equal(got.eigenvalues, want.eigenvalues), k
            assert (got.alpha, got.beta, got.gamma) == (want.alpha, want.beta, want.gamma), k
            assert got.inertia == want.inertia and got.theorem_holds is want.theorem_holds, k

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got, want = basin_experiment(scaled, xi0, 40), basin_experiment(rescaled, xi0, 40)
            n = len(got.norms)
            assert got.norms == want.norms[:n], k
            assert got.f_values == [float(np.ldexp(f, e)) for f in want.f_values[:n]], k
            if n < len(want.norms):
                overflowed += 1
                with np.errstate(over="ignore"):
                    assert np.isinf(np.ldexp(want.f_values[n], e)), k
        # near the top of the range, the diverging trajectory's objective
        # overflows in H's units, and that ends it
        assert overflowed > 0


class TestHessianFormBridge:
    def test_converged_solution_gives_definite_diagonal_blocks(self):
        t = Tensor(np.random.default_rng(11).standard_normal((3, 3, 3)))
        result = solve(
            t,
            SolverConfig(method="als", seed=12, max_iterations=500, fitchange_tol=1e-13),
        )
        form = hessian_form_at(t, result.axes)
        assert form.block_sizes == (2, 2, 2)
        assert form.diagonal_blocks_positive_definite()
        report = analyze(form)
        assert report.alpha + report.beta + report.gamma == form.order

    @pytest.mark.parametrize("dims", [(8, 8, 8), (6, 5, 4, 3)])
    @pytest.mark.parametrize("at", ["tight_solve", "random"])
    def test_matches_finite_difference_oracle(self, dims, at):
        t = Tensor(np.random.default_rng(3).standard_normal(dims))
        if at == "tight_solve":
            cfg = SolverConfig(seed=4, max_iterations=2000, fitchange_tol=1e-15)
            u = solve(t, cfg).axes
        else:
            u = init_random(dims, seed=4)
        h = hessian_form_at(t, u).h
        bases = [tangent_basis(x) for x in u.vectors]
        reference = oracles.finite_difference_hessian_form(t.array, u.vectors, bases)
        assert h.shape == reference.shape
        assert np.max(np.abs(h - reference)) <= 1e-6 * np.max(np.abs(h))

    @pytest.mark.parametrize("dims", [(8, 8, 8), (6, 5, 4), (6, 5, 4, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tangent_chart_does_not_change_the_analysis(self, dims, seed):
        # another orthonormal basis of each tangent plane changes H by a
        # block-diagonal orthogonal congruence and K by a similarity
        t = Tensor(np.random.default_rng([seed, *dims]).standard_normal(dims))
        cfg = SolverConfig(seed=seed, max_iterations=2000, fitchange_tol=1e-12)
        u = solve(t, cfg).axes
        f = f_from_arrays(t.array, u.vectors)
        h_qr = tangent_hessian(t.array, u.vectors, oracles.tangent_bases(u.vectors), f)
        qr = analyze(BlockQuadraticForm(h_qr, [m - 1 for m in dims]))
        hh = analyze(hessian_form_at(t, u))
        assert (hh.alpha, hh.beta, hh.gamma) == (qr.alpha, qr.beta, qr.gamma)
        assert hh.inertia == qr.inertia
        assert hh.spectral_radius == pytest.approx(qr.spectral_radius, rel=1e-12)
        assert np.sort(np.abs(hh.eigenvalues)) == pytest.approx(
            np.sort(np.abs(qr.eigenvalues)), rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("k", SCALE_EXPONENTS)
    @pytest.mark.parametrize("dims", [(3, 4, 5), (3, 2, 4, 3)], ids=str)
    def test_scale_sweep(self, dims, k):
        # max|entry| = 10^k: H is c times the unscaled H and analyze reports
        # the same counts and rho where the entries are normal floats; at
        # other finite norms H is finite and analyze answers or raises a
        # documented error; beyond them InvalidInputError
        t1, t, exact = max_scaled(dims, 1, k)
        cfg = SolverConfig(method="asvd", fitchange_tol=1e-12, max_iterations=2000)
        u = solve(t1, cfg).axes
        c = 10.0**k
        if not np.isfinite(c * t1.norm()):
            with pytest.raises(InvalidInputError, match="float64 range"):
                hessian_form_at(t, u)
            return
        form, base = hessian_form_at(t, u), hessian_form_at(t1, u)
        assert np.isfinite(form.h).all()
        try:
            got = analyze(form)
        except Rank1Error:
            assert not exact
            return
        assert np.isfinite(got.spectral_radius)
        if exact:
            np.testing.assert_allclose(form.h, c * base.h, rtol=1e-13, atol=0.0)
            want = analyze(base)
            assert (got.alpha, got.beta, got.gamma) == (want.alpha, want.beta, want.gamma)
            assert got.inertia == want.inertia
            assert got.spectral_radius == pytest.approx(want.spectral_radius, rel=1e-12)

    def test_mode_of_size_one_rejected(self):
        t = Tensor(np.random.default_rng(6).standard_normal((3, 1, 2)))
        with pytest.raises(InvalidInputError, match="m_i >= 2"):
            hessian_form_at(t, init_random(t.dims, seed=0))

    def test_step_keyword_rejected(self):
        t = Tensor(np.random.default_rng(5).standard_normal((3, 3, 3)))
        with pytest.raises(TypeError):
            hessian_form_at(t, init_random(t.dims, seed=0), step=1e-4)

    @pytest.mark.parametrize(
        "dims, seed",
        [
            ((8, 8, 8), 0),
            ((8, 8, 8), 1),
            ((8, 8, 8), 2),
            pytest.param(
                (6, 5, 4, 3),
                0,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="K's top eigenvalues are 0.346 +- 0.120i (modulus 0.367) "
                    "and 0.355: the error ratios oscillate, and the window holds "
                    "8 sweeps, whose mean ratio is 0.328",
                ),
            ),
            ((6, 5, 4, 3), 1),
            ((6, 5, 4, 3), 2),
        ],
    )
    def test_spectral_radius_is_observed_als_rate(self, dims, seed):
        # the observed rate is the geometric mean of the error ratios of the
        # sweeps that start with |x_k - x*| in [1e-8, 1e-4]
        t, tuples, errors = als_tail(dims, seed)
        ratios = [
            errors[k + 1] / errors[k]
            for k in range(len(errors) - 1)
            if 1e-8 <= errors[k] <= 1e-4
        ]
        assert len(ratios) >= 5
        observed = float(np.exp(np.mean(np.log(ratios))))
        rho = analyze(hessian_form_at(t, tuples[-1])).spectral_radius
        assert observed == pytest.approx(rho, rel=0.02)

    @pytest.mark.parametrize("dims", [(8, 8, 8), (6, 5, 4, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_als_sweep_linearizes_to_gauss_seidel_matrix(self, dims, seed):
        # in the tangent coordinates at x*, one als sweep maps the error to
        # K times it, up to a remainder of second order in the error
        t, tuples, errors = als_tail(dims, seed)
        k = gauss_seidel_matrix(hessian_form_at(t, tuples[-1]))
        basis = block_diag([tangent_basis(x) for x in tuples[-1].vectors])
        jacobian = basis @ k @ basis.T
        limit = np.concatenate(tuples[-1].vectors)
        window = [i for i in range(len(errors) - 1) if 1e-8 <= errors[i] <= 1e-4]
        assert len(window) >= 5
        for i in window:
            now, after = (np.concatenate(u.vectors) - limit for u in tuples[i : i + 2])
            assert np.linalg.norm(after - jacobian @ now) <= 1e-2 * errors[i]


def block_diag(blocks):
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def als_tail(dims, seed):
    """(t, tuples, errors) for a Gaussian tensor and a random start, both
    from ``seed``: as many als sweeps as a solve at a fit change of 1e-15
    takes (it stops on that fit change or on certified stationarity), then
    200 more; the last tuple is x* and errors[k] = |x_k - x*|."""
    t = Tensor(np.random.default_rng(seed).standard_normal(dims))
    u0 = init_random(dims, seed)
    cfg = SolverConfig(max_iterations=100_000, fitchange_tol=1e-15)
    result = solve(t, cfg, initial=u0)
    assert result.converged_by in ("fitchange", "stationary")
    tuples = [u0]
    for _ in range(result.iterations + 200):
        tuples.append(sweep(t, tuples[-1], "als"))
    limit = np.concatenate(tuples[-1].vectors)
    errors = [np.linalg.norm(np.concatenate(u.vectors) - limit) for u in tuples]
    return t, tuples, errors
