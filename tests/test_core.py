import warnings

import numpy as np
import pytest

from rank1tensor import (
    DegenerateInputError,
    DimensionError,
    InvalidInputError,
    Rank1Tensor,
    Tensor,
    UnitTuple,
    contract,
    f_value,
    inner,
    residual_norm,
    unfold,
)

import oracles
from conftest import planted_rank1, random_tensor, random_tuple


class TestTensor:
    def test_wraps_and_validates(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.dims == (2, 2)
        assert t.data.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_scalars(self):
        with pytest.raises(DimensionError):
            Tensor(np.array(3.0))

    def test_from_flat_size_check(self):
        with pytest.raises(DimensionError):
            Tensor.from_flat((2, 3), [1.0] * 5)

    def test_norm_zero_iff_zero(self):
        assert Tensor.zeros((3, 2)).norm() == 0.0
        assert random_tensor((3, 2), 0).norm() > 0.0

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_norm_extreme_finite_scale(self, scale):
        # the plain sum of squares overflows (1e400) or underflows to 0
        t = random_tensor((3, 4, 2), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Tensor(scale * t.array).norm()
        assert got == pytest.approx(scale * t.norm(), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        arr = np.ones((3, 3, 3))
        arr[1, 2, 0] = bad
        for make in (Tensor, lambda a: Tensor(a, copy=False),
                     lambda a: Tensor.from_flat(a.shape, a.ravel())):
            with pytest.raises(InvalidInputError):
                make(arr)

    def test_copy_false_has_asarray_semantics(self):
        t = Tensor([[1, 2], [3, 4]], copy=False)
        assert t.array.dtype == np.float64 and t.array.flags.c_contiguous
        assert t.data.tolist() == [1.0, 2.0, 3.0, 4.0]
        strided = Tensor(np.arange(6).reshape(2, 3).T, copy=False)
        assert strided.array.flags.c_contiguous
        assert strided.array.tolist() == [[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]]
        arr = np.ones((2, 3))
        assert Tensor(arr, copy=False).array is arr
        assert Tensor(arr).array is not arr


class TestUnitTuple:
    def test_rejects_off_sphere(self):
        with pytest.raises(DimensionError):
            UnitTuple([np.array([1.0, 1.0])])

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad, normalize):
        with pytest.raises(InvalidInputError):
            UnitTuple([np.array([0.6, 0.8]), np.array([1.0, bad])], normalize=normalize)

    def test_normalize_flag(self):
        u = UnitTuple([np.array([3.0, 4.0])], normalize=True)
        assert np.allclose(u[0], [0.6, 0.8])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_normalize_extreme_finite_scale(self, scale):
        # the plain sum of squares overflows (1e400) or underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = UnitTuple([[scale, scale]], normalize=True)
        assert np.allclose(u[0], [2**-0.5, 2**-0.5], rtol=1e-15, atol=0)

    def test_normalize_rejects_zero_vector(self):
        with pytest.raises(DegenerateInputError):
            UnitTuple([[0.0, 0.0]], normalize=True)

    def test_unit_norms_within_tolerance(self):
        u = random_tuple((4, 5, 6), 3)
        for v in u:
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


class TestInner:
    def test_all_ones(self):
        t = Tensor(np.ones((2, 2, 2)))
        assert inner(t, t) == 8.0

    def test_zero_tensor(self):
        t = random_tensor((2, 2, 2), 1)
        assert inner(t, Tensor.zeros((2, 2, 2))) == 0.0

    def test_matches_flattened_dot(self):
        t = random_tensor((3, 4, 5), 2)
        s = random_tensor((3, 4, 5), 3)
        assert inner(t, s) == pytest.approx(float(np.dot(t.data, s.data)), rel=1e-14)

    def test_symmetric_and_bilinear(self):
        t = random_tensor((3, 3), 4)
        s = random_tensor((3, 3), 5)
        w = random_tensor((3, 3), 6)
        assert inner(t, s) == pytest.approx(inner(s, t), rel=1e-14)
        lhs = inner(Tensor(2.0 * t.array + 3.0 * w.array), s)
        assert lhs == pytest.approx(2.0 * inner(t, s) + 3.0 * inner(w, s), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            inner(random_tensor((2, 2), 0), random_tensor((2, 3), 0))


class TestContract:
    def test_delta_tensor(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 1.0
        e1 = np.array([1.0, 0.0])
        out = contract(Tensor(arr), (0, 2), Tensor(np.outer(e1, e1)))
        assert np.allclose(out.array, [1.0, 0.0])

    def test_full_contraction_is_inner(self):
        t = random_tensor((2, 3, 2), 7)
        s = random_tensor((2, 3, 2), 8)
        assert contract(t, (0, 1, 2), s) == pytest.approx(inner(t, s), rel=1e-13)

    def test_matches_unfolding_route(self):
        t = random_tensor((3, 3, 3), 9)
        rng = np.random.default_rng(10)
        y, z = rng.standard_normal(3), rng.standard_normal(3)
        out = contract(t, (1, 2), Tensor(np.outer(y, z)))
        expected = unfold(t, 0) @ np.outer(y, z).reshape(-1)
        assert np.allclose(out.array, expected, atol=1e-12)

    def test_matches_direct_summation(self):
        t = random_tensor((4, 3, 2), 11)
        x = random_tensor((3, 2), 12)
        out = contract(t, (1, 2), x)
        assert np.allclose(out.array, oracles.direct_contract(t.array, (1, 2), x.array))

    def test_empty_modes_is_identity(self):
        t = random_tensor((2, 2), 13)
        assert np.array_equal(contract(t, (), t).array, t.array)

    def test_mode_order_enforced(self):
        t = random_tensor((2, 2, 2), 14)
        with pytest.raises(DimensionError):
            contract(t, (2, 1), Tensor(np.ones((2, 2))))

    def test_operand_shape_enforced(self):
        t = random_tensor((2, 3, 4), 15)
        with pytest.raises(DimensionError):
            contract(t, (0, 1), Tensor(np.ones((3, 2))))


class TestUnfold:
    def test_matrix_is_itself(self):
        t = random_tensor((2, 2), 16)
        assert np.array_equal(unfold(t, 0), t.array)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_consistency_with_contraction(self, mode):
        t = random_tensor((4, 3, 2), 17)
        rng = np.random.default_rng(18)
        vecs = [rng.standard_normal(m) for m in t.dims]
        others = [i for i in range(3) if i != mode]
        outer = np.multiply.outer(vecs[others[0]], vecs[others[1]])
        via_contract = contract(t, tuple(others), Tensor(outer)).array
        via_unfold = unfold(t, mode) @ outer.reshape(-1)
        direct = oracles.direct_contract(t.array, tuple(others), outer)
        assert np.allclose(via_contract, via_unfold, atol=1e-12)
        assert np.allclose(via_contract, direct, atol=1e-12)

    def test_rank_one_separates(self):
        t, axes = planted_rank1((3, 4, 2), 1.0, 19)
        x, y, z = axes.vectors
        expected = np.outer(x, np.multiply.outer(y, z).reshape(-1))
        assert np.allclose(unfold(t, 0), expected, atol=1e-14)

    def test_mode_out_of_range(self):
        with pytest.raises(DimensionError):
            unfold(random_tensor((2, 2), 0), 2)


class TestFValue:
    def test_rank_one(self):
        t, axes = planted_rank1((3, 3, 3), 5.0, 20)
        assert f_value(t, axes) == pytest.approx(5.0, rel=1e-12)

    def test_sign_equivariance(self):
        t = random_tensor((3, 4, 2), 21)
        u = random_tuple(t.dims, 22)
        flipped = UnitTuple([-u[0], u[1], u[2]])
        assert f_value(t, flipped) == pytest.approx(-f_value(t, u), rel=1e-12)

    def test_matches_eight_term_sum(self):
        t = random_tensor((2, 2, 2), 23)
        u = random_tuple((2, 2, 2), 24)
        assert f_value(t, u) == pytest.approx(
            oracles.direct_f(t.array, u.vectors), rel=1e-12
        )

    def test_bounded_by_norm(self):
        t = random_tensor((3, 3, 3), 25)
        for seed in range(5):
            u = random_tuple(t.dims, 100 + seed)
            assert abs(f_value(t, u)) <= t.norm() * (1.0 + 1e-12)


class TestResidualNorm:
    def test_aligned_rank_one_vanishes(self):
        t, axes = planted_rank1((3, 3, 3), 2.5, 26)
        # the Pythagoras formula has a sqrt(eps) floor around exactness
        assert residual_norm(t, axes) <= 1e-7 * t.norm()

    def test_orthogonal_axis_gives_full_norm(self):
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        t = Rank1Tensor(3.0, UnitTuple([e0, e0, e0])).to_tensor()
        u = UnitTuple([e1, e0, e0])
        assert residual_norm(t, u) == pytest.approx(t.norm(), rel=1e-14)

    def test_pythagoras_identity(self):
        for seed in range(20):
            t = random_tensor((3, 3, 3), 200 + seed)
            u = random_tuple(t.dims, 300 + seed)
            f = f_value(t, u)
            r = residual_norm(t, u)
            assert f * f + r * r == pytest.approx(t.norm() ** 2, abs=1e-10 * t.norm() ** 2)


class TestRank1Tensor:
    def test_norm_is_scale(self):
        for seed, scale in enumerate([1.0, -4.0, 1e-3]):
            r = Rank1Tensor(scale, random_tuple((3, 2, 4), seed))
            assert r.to_tensor().norm() == pytest.approx(abs(scale), rel=1e-12)

    def test_entries_are_products(self):
        axes = random_tuple((2, 3), 30)
        t = Rank1Tensor(2.0, axes).to_tensor()
        for i in range(2):
            for j in range(3):
                assert t.array[i, j] == pytest.approx(
                    2.0 * axes[0][i] * axes[1][j], rel=1e-14
                )


def test_randomized_contract_unfold_consistency():
    # mixed shapes up to (5, 4, 3, 2)
    rng = np.random.default_rng(31)
    for trial in range(25):
        d = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, 6 - i)) for i in range(d))
        t = Tensor(rng.standard_normal(dims))
        mode = int(rng.integers(0, d))
        vecs = [rng.standard_normal(m) for m in dims]
        others = [i for i in range(d) if i != mode]
        outer = vecs[others[0]]
        for i in others[1:]:
            outer = np.multiply.outer(outer, vecs[i])
        lhs = contract(t, tuple(others), Tensor(np.atleast_1d(outer))).array
        rhs = unfold(t, mode) @ np.atleast_1d(outer).reshape(-1)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, t.norm()))
