import math

import numpy as np
import pytest

from rank1tensor import DegenerateInputError, InvalidInputError, linalg
from rank1tensor.linalg import (
    CARRY_MIN_SIDE,
    CARRY_SQUARINGS,
    FIRST_CHECK_SQUARINGS,
    SQUARING_MIN_SIDE,
    _certified_top_eigvec,
    inertia,
    top_singular_triple,
)

import oracles


def random_symmetric(n, seed, scale=1.0):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return scale * (g + g.T) / 2.0


class TestOracleSelfChecks:
    """The Jacobi SVD and polynomial inertia oracles certify themselves."""

    def test_jacobi_reconstructs(self):
        for seed, shape in enumerate([(8, 6), (5, 9), (4, 4)]):
            a = np.random.default_rng(seed).standard_normal(shape)
            s, u, v = oracles.jacobi_svd(a)
            assert np.allclose(u @ np.diag(s) @ v.T, a, atol=1e-12)
            assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)
            assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-12)
            assert np.all(np.diff(s) <= 1e-14)

    def test_charpoly_inertia_on_diagonal(self):
        s = np.diag([3.0, -1.0, 2.0, -5.0])
        assert oracles.charpoly_inertia(s) == (2, 2, 0)


class TestSymmetricEig:
    """The symmetry check that guards inertia's eigenvalue solve."""

    def test_asymmetric_rejected(self):
        s = random_symmetric(4, 1)
        s[0, 1] += 1.0
        with pytest.raises(InvalidInputError):
            inertia(s)


class TestInertia:
    def test_diagonal(self):
        assert tuple(inertia(np.diag([1.0, -1.0, 0.0]))) == (1, 1, 1)

    def test_gram_plus_identity_definite(self):
        g = np.random.default_rng(2).standard_normal((5, 5))
        assert tuple(inertia(g.T @ g + np.eye(5))) == (5, 0, 0)

    def test_matches_charpoly_oracle(self):
        for seed in range(10):
            s = random_symmetric(5, 100 + seed)
            assert tuple(inertia(s)) == oracles.charpoly_inertia(s)

    def test_asymmetric_and_non_square_rejected(self):
        s = random_symmetric(4, 3)
        s[0, 1] += 1.0
        with pytest.raises(InvalidInputError):
            inertia(s)
        with pytest.raises(InvalidInputError):
            inertia(np.ones((2, 3)))


class TestTopSingularTripleDense:
    def test_diagonal(self):
        trip = top_singular_triple(np.diag([3.0, 1.0]))
        assert trip.sigma == pytest.approx(3.0, rel=1e-14)
        assert np.allclose(trip.u, [1.0, 0.0])
        assert np.allclose(trip.v, [1.0, 0.0])

    def test_rank_one_outer(self):
        rng = np.random.default_rng(3)
        p = rng.standard_normal(6)
        p *= 2.0 / np.linalg.norm(p)
        q = rng.standard_normal(4)
        q *= 5.0 / np.linalg.norm(q)
        trip = top_singular_triple(np.outer(p, q))
        assert trip.sigma == pytest.approx(10.0, rel=1e-12)

    def test_matches_jacobi_oracle(self):
        a = np.random.default_rng(4).standard_normal((8, 6))
        trip = top_singular_triple(a)
        s, u, v = oracles.jacobi_svd(a)
        assert trip.sigma == pytest.approx(s[0], rel=1e-10)
        assert min(
            np.linalg.norm(trip.u - u[:, 0]), np.linalg.norm(trip.u + u[:, 0])
        ) <= 1e-8

    def test_defining_relations(self):
        for seed, shape in enumerate([(7, 3), (3, 7), (5, 5)]):
            a = np.random.default_rng(10 + seed).standard_normal(shape)
            trip = top_singular_triple(a)
            scale = np.linalg.norm(a, 2)
            assert abs(np.linalg.norm(trip.u) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(trip.v) - 1.0) <= 1e-12
            assert np.linalg.norm(a @ trip.v - trip.sigma * trip.u) <= 1e-10 * scale
            assert np.linalg.norm(trip.u @ a - trip.sigma * trip.v) <= 1e-10 * scale

    def test_sign_convention_deterministic(self):
        a = np.random.default_rng(5).standard_normal((4, 4))
        trip1 = top_singular_triple(a)
        trip2 = top_singular_triple(-a)  # same Gram matrix
        first = trip1.u[np.argmax(np.abs(trip1.u) > 1e-12)]
        assert first > 0
        assert np.allclose(trip1.u, trip2.u)

    def test_transpose_swaps_vectors(self):
        a = np.random.default_rng(6).standard_normal((6, 4))
        t1 = top_singular_triple(a)
        t2 = top_singular_triple(a.T)
        assert t1.sigma == pytest.approx(t2.sigma, rel=1e-12)
        assert min(
            np.linalg.norm(t1.u - t2.v), np.linalg.norm(t1.u + t2.v)
        ) <= 1e-9
        assert min(
            np.linalg.norm(t1.v - t2.u), np.linalg.norm(t1.v + t2.u)
        ) <= 1e-9

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            top_singular_triple(np.zeros((3, 3)))

    @pytest.mark.parametrize("shape", [(3, 3), (20, 30)])
    def test_zero_matrix_named_before_any_eigensolver(self, shape):
        # on either route, with no division by the zero trace
        with np.errstate(all="raise"):
            with pytest.raises(DegenerateInputError, match="identically zero"):
                top_singular_triple(np.zeros(shape))

    def test_matches_angle_grid_search_2x2(self):
        a = np.random.default_rng(7).standard_normal((2, 2))
        trip = top_singular_triple(a)
        theta = np.linspace(0.0, 2.0 * np.pi, 2000, endpoint=False)
        x = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        grid = float(np.max(x @ a @ x.T))
        assert trip.sigma == pytest.approx(grid, abs=1e-4 * np.linalg.norm(a))


class TestTopSingularTripleIterative:
    """The certified repeated-squaring route from SQUARING_MIN_SIDE up, with
    the dense route as its fallback. SQUARING_MIN_SIDE is read at call time,
    so a test forces the dense route for a reference by raising it past
    every side."""

    @staticmethod
    def sign_free_distance(x, y):
        return min(np.linalg.norm(x - y), np.linalg.norm(x + y))

    @pytest.mark.parametrize(
        "shape", [(24, 24), (32, 32), (64, 64), (40, 24), (24, 40), (96, 80), (128, 128)]
    )
    def test_agrees_with_numpy_svd(self, shape):
        for seed in range(5):
            a = np.random.default_rng([40, seed]).standard_normal(shape)
            trip = top_singular_triple(a)
            assert trip.squarings > 0  # certified, no fallback
            u_ref, s_ref, vt_ref = np.linalg.svd(a)
            assert trip.sigma == pytest.approx(s_ref[0], rel=1e-13)
            assert self.sign_free_distance(trip.u, u_ref[:, 0]) <= 1e-10
            assert self.sign_free_distance(trip.v, vt_ref[0]) <= 1e-10

    def test_rank_one(self):
        self.check_rank_one(32, FIRST_CHECK_SQUARINGS)

    @pytest.mark.parametrize("side", [64, 128])
    def test_carried_candidate_certifies_rank_one(self, side):
        self.check_rank_one(side, CARRY_SQUARINGS)

    def check_rank_one(self, side, squarings):
        rng = np.random.default_rng(41)
        p = rng.standard_normal(side)
        p *= 2.0 / np.linalg.norm(p)
        q = rng.standard_normal(side + 16)
        q *= 5.0 / np.linalg.norm(q)
        trip = top_singular_triple(np.outer(p, q))
        assert trip.squarings == squarings
        assert trip.sigma == pytest.approx(10.0, rel=1e-13)
        assert self.sign_free_distance(trip.u, p / 2.0) <= 1e-12
        assert self.sign_free_distance(trip.v, q / 5.0) <= 1e-12

    @staticmethod
    def dominant(shape, seed):
        # a planted rank-one part of norm 3 sqrt(side) over Gaussian noise,
        # the shape of a pair matrix near a solve's end
        rng = np.random.default_rng(seed)
        p, q = rng.standard_normal(shape[0]), rng.standard_normal(shape[1])
        scale = 3.0 * math.sqrt(min(shape)) / (np.linalg.norm(p) * np.linalg.norm(q))
        return scale * np.outer(p, q) + rng.standard_normal(shape)

    @pytest.mark.parametrize("shape", [(64, 64), (96, 80), (80, 96), (128, 128)])
    def test_carried_candidate_certifies_a_dominant_top(self, shape):
        for seed in range(3):
            a = self.dominant(shape, [44, seed])
            trip = top_singular_triple(a)
            assert trip.squarings == CARRY_SQUARINGS  # the carried candidate answered
            u_ref, s_ref, vt_ref = np.linalg.svd(a)
            assert trip.sigma == pytest.approx(s_ref[0], rel=1e-13)
            assert self.sign_free_distance(trip.u, u_ref[:, 0]) <= 1e-10
            assert self.sign_free_distance(trip.v, vt_ref[0]) <= 1e-10

    def test_carry_starts_at_its_side(self, monkeypatch):
        # one below CARRY_MIN_SIDE the route squares as it did before the
        # carry existed, bit for bit; at it, the carried candidate answers
        below = self.dominant((CARRY_MIN_SIDE - 1, CARRY_MIN_SIDE + 3), 46)
        at = self.dominant((CARRY_MIN_SIDE, CARRY_MIN_SIDE + 3), 46)
        auto_below, auto_at = top_singular_triple(below), top_singular_triple(at)
        monkeypatch.setattr(linalg, "CARRY_MIN_SIDE", math.inf)
        plain = top_singular_triple(below)
        assert auto_below.squarings == plain.squarings == FIRST_CHECK_SQUARINGS
        assert auto_below.sigma == plain.sigma
        assert np.array_equal(auto_below.u, plain.u) and np.array_equal(auto_below.v, plain.v)
        assert auto_at.squarings == CARRY_SQUARINGS
        assert top_singular_triple(at).squarings == FIRST_CHECK_SQUARINGS

    @staticmethod
    def plus_minus_sigma(n, seed):
        # symmetric, eigenvalues 5 and -5 on top: the Gram top is tied
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigenvalues = np.concatenate([[5.0, -5.0], rng.uniform(-4.0, 4.0, n - 2)])
        return (q * eigenvalues) @ q.T

    @pytest.mark.parametrize(
        "case, n",
        [pytest.param(case, 32, id=case) for case in ("diagonal", "plus_minus_sigma")]
        + [(case, n) for n in (64, 128) for case in ("diagonal", "plus_minus_sigma")],
    )
    def test_degenerate_top_falls_back_to_dense(self, case, n):
        for seed in range(10 if n == 32 else 2):
            if case == "diagonal":
                a = np.diag([3.0, 3.0] + [1.0] * (n - 2))
                sigma = 3.0
            else:
                a = self.plus_minus_sigma(n, 42 + seed)
                sigma = 5.0
            gram = a @ a.T
            assert _certified_top_eigvec(gram, gram.trace()) is None
            trip = top_singular_triple(a)
            assert trip.squarings == 0  # the dense route answered
            assert trip.sigma == pytest.approx(sigma, rel=1e-13)
            assert np.linalg.norm(a @ trip.v - trip.sigma * trip.u) <= 1e-12 * sigma
            assert np.linalg.norm(a.T @ trip.u - trip.sigma * trip.v) <= 1e-12 * sigma

    def test_sign_convention(self):
        a = np.random.default_rng(43).standard_normal((32, 40))
        trip1 = top_singular_triple(a)
        trip2 = top_singular_triple(-a)  # same Gram matrix
        assert trip1.squarings > 0
        assert trip1.u[np.argmax(np.abs(trip1.u) > 1e-12)] > 0
        assert np.array_equal(trip1.u, trip2.u)
        assert np.array_equal(trip1.v, -trip2.v)

    def test_auto_threshold(self, monkeypatch):
        # one below the threshold the dense route answers; with the
        # threshold lowered by one, the same matrix takes the squaring route
        side = SQUARING_MIN_SIDE - 1
        a = np.random.default_rng(34).standard_normal((side, side + 5))
        auto = top_singular_triple(a)
        monkeypatch.setattr(linalg, "SQUARING_MIN_SIDE", side)
        assert top_singular_triple(a).squarings > 0
        monkeypatch.setattr(linalg, "SQUARING_MIN_SIDE", math.inf)
        dense = top_singular_triple(a)
        assert auto.squarings == 0 and dense.squarings == 0
        assert auto.sigma == dense.sigma
        assert np.array_equal(auto.u, dense.u) and np.array_equal(auto.v, dense.v)

    def test_auto_picks_iterative_above_side_limit(self, monkeypatch):
        for side in (SQUARING_MIN_SIDE, 70):
            a = np.random.default_rng(35).standard_normal((side + 3, side))
            auto = top_singular_triple(a)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "SQUARING_MIN_SIDE", math.inf)
                dense = top_singular_triple(a)
            assert auto.squarings > 0  # the squaring route answered
            assert dense.squarings == 0
            assert abs(auto.sigma - dense.sigma) <= 1e-13 * dense.sigma
            assert self.sign_free_distance(auto.u, dense.u) <= 1e-10
