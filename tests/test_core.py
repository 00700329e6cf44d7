import warnings

import numpy as np
import pytest

from rank1tensor import (
    DegenerateInputError,
    DimensionError,
    InvalidInputError,
    Tensor,
    UnitTuple,
    f_value,
    kernels,
    residual_norm,
    unfold,
)

import oracles
from conftest import (
    SCALE_EXPONENTS,
    max_scaled,
    planted_rank1,
    random_tensor,
    random_tuple,
    rank1_tensor,
)


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
        assert Tensor(np.zeros((3, 2))).norm() == 0.0
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
        via_kernel = kernels.contract_all_but_one(t.array, vecs, mode)
        via_unfold = unfold(t, mode) @ outer.reshape(-1)
        direct = oracles.direct_contract(t.array, tuple(others), outer)
        assert np.allclose(via_kernel, via_unfold, atol=1e-12)
        assert np.allclose(via_kernel, direct, atol=1e-12)

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
        t = rank1_tensor(3.0, UnitTuple([e0, e0, e0]))
        u = UnitTuple([e1, e0, e0])
        assert residual_norm(t, u) == pytest.approx(t.norm(), rel=1e-14)

    def test_pythagoras_identity(self):
        for seed in range(20):
            t = random_tensor((3, 3, 3), 200 + seed)
            u = random_tuple(t.dims, 300 + seed)
            f = f_value(t, u)
            r = residual_norm(t, u)
            assert f * f + r * r == pytest.approx(t.norm() ** 2, abs=1e-10 * t.norm() ** 2)

    @pytest.mark.parametrize("k", SCALE_EXPONENTS)
    @pytest.mark.parametrize("dims", [(3, 4, 5), (3, 2, 4, 3), (1, 3, 4)], ids=str)
    def test_scale_sweep(self, dims, k):
        # max|entry| = 10^k: a finite residual, c times the unscaled one
        # where the entries are normal floats, or InvalidInputError where
        # |T| exceeds the float64 range (it returned inf or NaN there)
        t1, t, exact = max_scaled(dims, 1, k)
        u = random_tuple(dims, 2)
        c = 10.0**k
        if not np.isfinite(c * t1.norm()):
            with pytest.raises(InvalidInputError, match="float64 range"):
                residual_norm(t, u)
            return
        r = residual_norm(t, u)
        assert np.isfinite(r) and r > 0.0
        if exact:
            assert r == pytest.approx(c * residual_norm(t1, u), rel=1e-12)


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
        lhs = kernels.contract_all_but_one(t.array, vecs, mode)
        rhs = unfold(t, mode) @ np.atleast_1d(outer).reshape(-1)
        direct = oracles.direct_contract(t.array, tuple(others), outer)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, t.norm()))
        assert np.allclose(lhs, direct, atol=1e-12 * max(1.0, t.norm()))
