import functools
import itertools
import math

import numpy as np
import pytest

from rank1tensor import (
    InvalidInputError,
    kernels,
    linalg,
    Tensor,
    UnitTuple,
    UnsupportedError,
    f_value,
)
from rank1tensor.diagnostics import (
    apply_F,
    check_semi_max,
    criticality,
    fixed_point_from_tuple,
    fixed_point_residual,
    jacobian_check_origin,
    tuple_from_fixed_point,
)
from rank1tensor.solvers import SolverConfig, default_pair_schedule, solve

import oracles

from conftest import (
    FIXTURE_2X2X2,
    SCALE_EXPONENTS,
    planted_rank1,
    random_tensor,
    random_tuple,
    tuple_matches,
)


def two_term_diagonal():
    """Orthogonally decomposable 2x2x2 tensor: critical tuples at both axes."""
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = 5.0
    arr[1, 1, 1] = 2.0
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    return Tensor(arr), UnitTuple([e0, e0, e0]), UnitTuple([e1, e1, e1])


class TestCriticality:
    def test_rank_one_at_axes(self):
        t, axes = planted_rank1((3, 3, 3), 4.0, 0)
        report = criticality(t, axes)
        assert report.max_residual <= 1e-12 * t.norm()
        assert report.lambda_spread <= 1e-12 * t.norm()
        for lam in report.lambda_per_mode:
            assert lam == pytest.approx(t.norm(), rel=1e-12)

    def test_generic_point_is_not_critical(self):
        t = random_tensor((3, 3, 3), 1)
        report = criticality(t, random_tuple((3, 3, 3), 2))
        assert report.lambda_spread > 0.0
        assert report.max_residual == max(report.residual_per_mode)

    def test_converged_run_is_nearly_critical(self):
        t = Tensor(np.array(FIXTURE_2X2X2).reshape(2, 2, 2))
        result = solve(
            t,
            SolverConfig(
                method="als", seed=0, max_iterations=500, fitchange_tol=1e-12
            ),
        )
        report = criticality(t, result.axes)
        assert report.max_residual <= 1e-6 * t.norm()


class TestSemiMax:
    def test_rank_one_passes_both_levels(self):
        t, axes = planted_rank1((3, 3, 3), 2.0, 3)
        for level in (1, 2):
            report = check_semi_max(t, axes, level=level, tol=1e-8)
            assert report.passed
            assert report.worst_margin() >= -1e-12

    def test_sign_flip_fails_mode_zero(self):
        t, axes = planted_rank1((3, 3, 3), 2.0, 4)
        flipped = UnitTuple([-axes[0], axes[1], axes[2]])
        report = check_semi_max(t, flipped, level=1, tol=1e-6)
        assert not report.checks[0].passed

    def test_masvd_solution_is_two_semi_maximal(self, fixture_3cube):
        result = solve(
            fixture_3cube,
            SolverConfig(
                method="masvd", seed=1, max_iterations=500, fitchange_tol=1e-12
            ),
        )
        report = check_semi_max(fixture_3cube, result.axes, level=2, tol=1e-6)
        assert report.passed

    def test_one_semi_implies_near_criticality(self):
        tol = 1e-6
        for seed in range(5):
            t = random_tensor((4, 4, 4), 50 + seed)
            result = solve(
                t,
                SolverConfig(
                    method="mals", seed=seed, max_iterations=500, fitchange_tol=1e-12
                ),
            )
            report = check_semi_max(t, result.axes, level=1, tol=tol)
            if report.passed:
                assert criticality(t, result.axes).max_residual <= 2 * tol * t.norm()

    def test_two_semi_implies_one_semi(self):
        for seed in range(5):
            t = random_tensor((3, 3, 3), 60 + seed)
            result = solve(
                t,
                SolverConfig(
                    method="masvd", seed=seed, max_iterations=500, fitchange_tol=1e-12
                ),
            )
            tol = 1e-6
            if check_semi_max(t, result.axes, level=2, tol=tol).passed:
                assert check_semi_max(t, result.axes, level=1, tol=tol).passed

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
    def test_bad_tol_rejected(self, tol):
        t, axes = planted_rank1((2, 3, 2), 1.0, 12)
        with pytest.raises(InvalidInputError, match="tol"):
            check_semi_max(t, axes, tol=tol)

    def test_norm_beyond_float_range_is_input_error(self):
        # entries up to 1e308 are finite, but |T| is not a float: a margin
        # relative to it would pass any tuple, so both checks refuse the
        # tensor as solve does; the unscaled tensor fails the same tuple
        arr = random_tensor((3, 4, 5), 15).array
        t = Tensor(arr * (1e308 / np.max(np.abs(arr))))
        ones = UnitTuple([np.ones(m) for m in t.dims], normalize=True)
        assert not check_semi_max(Tensor(arr), ones, level=2).passed
        with pytest.raises(InvalidInputError, match="norm"):
            criticality(t, ones)
        for level in (1, 2):
            with pytest.raises(InvalidInputError, match="norm"):
                check_semi_max(t, ones, level=level)
        with pytest.raises(InvalidInputError, match="norm"):
            solve(t, SolverConfig())

    def test_infinite_tol_passes_every_check(self):
        t = random_tensor((2, 3, 2), 13)
        assert check_semi_max(t, random_tuple(t.dims, 14), tol=math.inf).passed

    def test_level_two_needs_three_modes(self):
        t = random_tensor((2, 3), 5)
        with pytest.raises(UnsupportedError, match="at least 3 modes"):
            check_semi_max(t, random_tuple(t.dims, 6), level=2)

    @pytest.mark.parametrize("level", [1, 2])
    def test_zero_pair_matrix_has_best_value_zero(self, level):
        # T = e0 (x) e0 (x) e0 at (e1, e1, e1): f = 0, and every contraction
        # and pair matrix is zero, whose best value is 0
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 1.0
        e1 = np.array([0.0, 1.0])
        report = check_semi_max(Tensor(arr), UnitTuple([e1, e1, e1]), level=level)
        assert [c.margin for c in report.checks] == [0.0, 0.0, 0.0]
        assert report.passed


class TestLevelTwoAnyModes:
    """Level 2 at d >= 4 checks every pair, in the order of
    ``default_pair_schedule(d)``, against pair matrices formed by explicit
    summation and their top singular values from the Jacobi oracle."""

    @pytest.mark.parametrize("dims", [(5, 4, 3, 3), (4, 4, 4, 4, 3)], ids=str)
    def test_margins_match_brute_force_pairs(self, dims):
        d = len(dims)
        t = random_tensor(dims, 90)
        tight = SolverConfig(method="asvd", fitchange_tol=1e-12, max_iterations=2000)
        pairs = default_pair_schedule(d)
        assert sorted(pairs) == list(itertools.combinations(range(d), 2))
        for u, maximal in ((solve(t, tight).axes, True), (random_tuple(dims, 91), False)):
            report = check_semi_max(t, u, level=2, tol=1e-9)
            assert report.level == "two_semi" and len(report.checks) == len(pairs)
            f = oracles.direct_f(t.array, u.vectors)
            for s, ((i, j), check) in enumerate(zip(pairs, report.checks)):
                others = [m for m in range(d) if m not in (i, j)]
                outer = functools.reduce(np.multiply.outer, [u[m] for m in others])
                mat = oracles.direct_contract(t.array, others, outer)
                assert check.index == s
                assert check.margin == pytest.approx(
                    f - oracles.top_sigma(mat), abs=1e-12 * t.norm()
                )
                assert check.passed == maximal


class TestScaleRobustness:
    def test_normal_scale_arithmetic_unchanged(self):
        # at a normal scale the checks take T as given and compute exactly
        # what they computed before working on T / max|T| at extreme scales
        for dims in [(3, 4, 5), (3, 2, 4, 2)]:
            t = random_tensor(dims, 11)
            u = random_tuple(dims, 12)
            vs = {}
            kernels.contract_each(t.array, u.vectors, range(t.ndim), vs.__setitem__)
            lams = [float(np.dot(u[i], vs[i])) for i in range(t.ndim)]
            res = [float(np.linalg.norm(vs[i] - lams[i] * u[i])) for i in range(t.ndim)]
            report = criticality(t, u)
            assert report.lambda_per_mode == lams
            assert report.residual_per_mode == res
            assert report.lambda_spread == max(lams) - min(lams)

            slack = 1e-1 * t.norm()
            margins = [lams[0] - float(np.linalg.norm(vs[i])) for i in range(t.ndim)]
            checks = check_semi_max(t, u, level=1, tol=1e-1).checks
            assert [c.margin for c in checks] == margins
            assert [c.passed for c in checks] == [m >= -slack for m in margins]
            # at d = 3, check k is the pair that leaves out mode k
            pairs = [(1, 2), (0, 2), (0, 1)] if t.ndim == 3 else default_pair_schedule(t.ndim)
            f = f_value(t, u)
            margins = [
                f - linalg.top_singular_triple(
                    kernels.contract_all_but_two(t.array, u.vectors, i, j)
                ).sigma
                for i, j in pairs
            ]
            checks = check_semi_max(t, u, level=2, tol=1e-1).checks
            assert [c.margin for c in checks] == margins
            assert [c.passed for c in checks] == [m >= -slack for m in margins]

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_finite_scale(self, fixture_3cube, scale):
        # a masvd tuple passes both levels at any scale, and every figure is
        # the unit-scale one in the units of T
        u = solve(
            fixture_3cube,
            SolverConfig(method="masvd", fitchange_tol=1e-12, max_iterations=2000),
        ).axes
        t = Tensor(scale * fixture_3cube.array)
        crit, crit1 = criticality(t, u), criticality(fixture_3cube, u)
        np.testing.assert_allclose(
            crit.lambda_per_mode, scale * np.array(crit1.lambda_per_mode), rtol=1e-12
        )
        np.testing.assert_allclose(
            crit.residual_per_mode,
            scale * np.array(crit1.residual_per_mode),
            rtol=0,
            atol=1e-12 * t.norm(),
        )
        assert crit.max_residual <= 1e-6 * t.norm()
        for level in (1, 2):
            report = check_semi_max(t, u, level=level)
            unit = check_semi_max(fixture_3cube, u, level=level)
            assert report.passed
            for c, c1 in zip(report.checks, unit.checks):
                assert np.isfinite(c.margin)
                assert abs(c.margin - scale * c1.margin) <= 1e-12 * t.norm()


class TestFixedPointScaling:
    def test_lambda_one_keeps_vectors(self):
        u = random_tuple((3, 3, 3), 7)
        v = fixed_point_from_tuple(u, 1.0)
        assert all(np.allclose(a, b) for a, b in zip(v, u.vectors))

    def test_three_mode_scaling_and_recovery(self):
        u = random_tuple((2, 2, 2), 8)
        v = fixed_point_from_tuple(u, 4.0)
        for comp in v:
            assert np.linalg.norm(comp) == pytest.approx(0.25, rel=1e-12)
        recovered, lam = tuple_from_fixed_point(v)
        assert lam == pytest.approx(4.0, rel=1e-12)
        assert all(np.allclose(a, b) for a, b in zip(recovered.vectors, u.vectors))

    def test_four_mode_scaling_exponent(self):
        u = random_tuple((2, 2, 2, 2), 9)
        v = fixed_point_from_tuple(u, 9.0)
        for comp in v:
            assert np.linalg.norm(comp) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_preconditions(self):
        u = random_tuple((2, 2, 2), 10)
        with pytest.raises(InvalidInputError):
            fixed_point_from_tuple(u, 0.0)
        with pytest.raises(UnsupportedError):
            fixed_point_from_tuple(random_tuple((2, 2), 11), 1.0)


class TestApplyF:
    def test_origin_is_fixed(self):
        t = random_tensor((3, 3, 3), 12)
        out = apply_F(t, [np.zeros(3)] * 3)
        assert all(np.all(comp == 0.0) for comp in out)

    def test_homogeneous_of_degree_d_minus_one(self):
        rng = np.random.default_rng(13)
        for d in (3, 4):
            t = Tensor(rng.standard_normal((2,) * d))
            v = [rng.standard_normal(2) for _ in range(d)]
            c = 1.7
            lhs = apply_F(t, [c * comp for comp in v])
            rhs = apply_F(t, v)
            for a, b in zip(lhs, rhs):
                assert np.allclose(a, c ** (d - 1) * b, rtol=1e-12)

    def test_round_trip_at_verified_critical_points(self):
        t, top, second = two_term_diagonal()
        for axes, lam in ((top, 5.0), (second, 2.0)):
            assert f_value(t, axes) == pytest.approx(lam, rel=1e-14)
            v = fixed_point_from_tuple(axes, lam)
            vnorm = np.sqrt(sum(float(np.dot(c, c)) for c in v))
            assert fixed_point_residual(t, v) <= 1e-9 * vnorm
            recovered, lam_back = tuple_from_fixed_point(v)
            assert lam_back == pytest.approx(lam, rel=1e-9)

    def test_residual_equals_scaled_stationarity_residual(self):
        # for any unit tuple x with lambda = f(x) > 0, not only a critical
        # one, v = lambda^(-1/(d-2)) x gives |F(v) - v| / |v| = |e| /
        # (lambda sqrt(d)), e the stacked per-mode stationarity residuals
        for d, seed in ((3, 14), (3, 15), (4, 16), (4, 17)):
            t = random_tensor((3,) * d, seed)
            x = random_tuple(t.dims, seed + 100)
            lam = f_value(t, x)
            if lam < 0.0:
                x = UnitTuple([-x[0]] + list(x.vectors[1:]))
                lam = -lam
            v = fixed_point_from_tuple(x, lam)
            vnorm = np.sqrt(sum(float(np.dot(c, c)) for c in v))
            e = np.linalg.norm(criticality(t, x).residual_per_mode)
            assert e > 1e-3 * t.norm()  # far from critical
            assert fixed_point_residual(t, v) / vnorm == pytest.approx(
                e / (lam * np.sqrt(d)), rel=1e-10
            )
            back, lam_back = tuple_from_fixed_point(v)
            assert lam_back == pytest.approx(lam, rel=1e-12)
            assert all(np.allclose(a, b) for a, b in zip(back.vectors, x.vectors))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflowing"]
    )
    def test_residual_that_is_not_a_float_is_input_error(self, bad):
        # NaN or Inf in one component, or F(v) beyond the float64 range
        t = random_tensor((3, 4, 5), 18)
        v = [np.ones(3), np.ones(4), np.ones(5)]
        if bad == 1e200:
            v = [bad * c for c in v]
        else:
            v[1][2] = bad
        with pytest.raises(InvalidInputError, match="fixed-point residual"):
            fixed_point_residual(t, v)

    def test_dominant_critical_point_is_closest_to_origin(self):
        t, top, second = two_term_diagonal()
        v_top = fixed_point_from_tuple(top, 5.0)
        v_second = fixed_point_from_tuple(second, 2.0)
        norm = lambda v: np.sqrt(sum(float(np.dot(c, c)) for c in v))
        assert norm(v_top) < norm(v_second)


class TestJacobianAtOrigin:
    def test_deviation_within_bound(self):
        for seed in range(3):
            t = random_tensor((2, 2, 2), 70 + seed)
            assert jacobian_check_origin(t, 1e-3) <= 1e-5 * t.norm()

    def test_zero_tensor_exact(self):
        assert jacobian_check_origin(Tensor(np.zeros((2, 2, 2))), 1e-3) == 0.0

    @pytest.mark.parametrize("h", [0.0, -1e-3, np.inf, np.nan])
    def test_step_must_be_finite_and_positive(self, h):
        with pytest.raises(InvalidInputError, match="step"):
            jacobian_check_origin(random_tensor((2, 3, 4), 81), h)

    def test_overflowing_difference_quotient_is_input_error(self):
        # h * T overflows inside F(h e_b); Python's max would drop the NaN
        # column that follows and report 0.0
        t = Tensor(1e300 * np.random.default_rng(82).standard_normal((3, 4, 5)))
        with pytest.raises(InvalidInputError, match="difference quotient"):
            jacobian_check_origin(t, 1e10)

    def test_huge_finite_step_is_exact(self):
        # F vanishes at a point with one nonzero block, so the quotients
        # are the identity's at any step h * T does not overflow
        assert jacobian_check_origin(random_tensor((3, 4, 5), 83), 1e200) == 0.0

    def test_deviation_does_not_grow_when_halving(self):
        # the map is block-multilinear, so coordinate differences are exact
        # and the deviation sits at the rounding floor for any step
        t = random_tensor((3, 3, 3), 80)
        dev = jacobian_check_origin(t, 1e-3)
        dev_half = jacobian_check_origin(t, 5e-4)
        assert dev_half <= max(dev / 3.0, 1e-14)


class TestScaleSweep:
    """Every diagnostics entry point at scales 10^k, k from -320 to 308.

    Each base tensor has unit norm, so c = 10^k is the norm of c T and every
    exact answer is a float. Each call must return finite numbers or raise
    a documented error. Where c T is c times T to rounding (its entries are
    normal floats), homogeneity fixes the answer: multipliers, residuals and
    margins scale by c, and the fixed-point round trip returns lambda.
    NumPy warnings are errors here, as everywhere in the suite.
    """

    EXPONENTS = SCALE_EXPONENTS
    SHAPES = [(3, 4, 5), (3, 2, 4, 3), (1, 3, 4)]

    @pytest.mark.parametrize("k", EXPONENTS)
    @pytest.mark.parametrize("dims", SHAPES, ids=lambda d: "x".join(map(str, d)))
    def test_finite_or_documented_error(self, dims, k):
        arr = np.random.default_rng(1).standard_normal(dims)
        t1 = Tensor(arr / np.linalg.norm(arr))
        cfg = SolverConfig(method="asvd", fitchange_tol=1e-12, max_iterations=2000)
        u = solve(t1, cfg).axes
        c = 10.0**k
        t = Tensor(c * t1.array)
        tiny = np.finfo(np.float64).tiny
        exact = c * np.min(np.abs(t1.array)) >= tiny
        close = lambda got, want: np.testing.assert_allclose(
            got, c * np.asarray(want), rtol=0, atol=1e-12 * c
        )

        crit, crit1 = criticality(t, u), criticality(t1, u)
        assert np.isfinite(crit.lambda_per_mode + crit.residual_per_mode).all()
        if exact:
            np.testing.assert_allclose(
                crit.lambda_per_mode, c * np.array(crit1.lambda_per_mode), rtol=1e-12
            )
            close(crit.residual_per_mode, crit1.residual_per_mode)

        for level in (1, 2):
            margins = [ch.margin for ch in check_semi_max(t, u, level=level).checks]
            assert np.isfinite(margins).all()
            if exact:
                close(margins, [ch.margin for ch in check_semi_max(t1, u, level=level).checks])

        fv = apply_F(t, u.vectors)
        assert all(np.isfinite(v).all() for v in fv)
        if exact:
            for v, v1 in zip(fv, apply_F(t1, u.vectors)):
                close(v, v1)
        assert np.isfinite(fixed_point_residual(t, u.vectors))
        assert jacobian_check_origin(t) <= 1e-5 * t.norm()

        lam = crit.lambda_per_mode[0]
        try:
            point = fixed_point_from_tuple(u, lam)
        except InvalidInputError:
            # only a multiplier below the normal range may have no fixed point
            assert lam < tiny
            return
        assert all(np.isfinite(p).all() for p in point)
        residual = fixed_point_residual(t, point)
        assert np.isfinite(residual)
        try:
            back, lam_back = tuple_from_fixed_point(point)
        except InvalidInputError:
            assert lam < tiny
            return
        assert np.isfinite(lam_back)
        if lam >= tiny:
            assert lam_back == pytest.approx(lam, rel=1e-12)
            assert tuple_matches(back, u, 1e-12)
            size = lam ** (-1.0 / (t.ndim - 2)) * math.sqrt(t.ndim)  # |point|
            assert residual <= 1e-8 * size
