import itertools

import numpy as np

from rank1tensor import kernels

# d = 1 .. 5, with size-1 modes first, last, in the middle and throughout;
# at d = 5 the pairs (0, 2), (0, 3) and (0, 4) have 1, 2 and 3 middle modes
SHAPES = [
    (4,),
    (1,),
    (3, 2),
    (1, 4),
    (3, 4, 2),
    (2, 1, 3),
    (1, 1, 1),
    (2, 3, 4, 2),
    (3, 1, 2, 1),
    (2, 3, 2, 3, 2),
    (1, 2, 1, 3, 1),
    (3, 2, 1, 2, 2),
]


def _random_case(rng, shape):
    arr = np.ascontiguousarray(rng.standard_normal(shape))
    vecs = [np.ascontiguousarray(rng.standard_normal(m)) for m in shape]
    return arr, vecs


def _direct_sum(arr, vecs, kept):
    # sum over every index of arr, weighted by the vectors of the other modes
    expected = np.zeros(tuple(arr.shape[m] for m in kept))
    for idx in np.ndindex(*arr.shape):
        prod = arr[idx]
        for m in range(arr.ndim):
            if m not in kept:
                prod *= vecs[m][idx[m]]
        expected[tuple(idx[m] for m in kept)] += prod
    return expected


def _assert_close(got, expected):
    assert got.shape == expected.shape
    assert np.allclose(got, expected, atol=1e-12 * max(1.0, np.abs(expected).max()))


def test_all_but_one_matches_direct_summation():
    rng = np.random.default_rng(0)
    for shape in SHAPES:
        arr, vecs = _random_case(rng, shape)
        for keep in range(arr.ndim):
            got = kernels.contract_all_but_one(arr, vecs, keep)
            _assert_close(got, _direct_sum(arr, vecs, (keep,)))


def test_all_but_two_matches_direct_summation():
    rng = np.random.default_rng(1)
    for shape in SHAPES:
        if len(shape) < 2:
            continue
        arr, vecs = _random_case(rng, shape)
        for i, j in itertools.combinations(range(arr.ndim), 2):
            got = kernels.contract_all_but_two(arr, vecs, i, j)
            _assert_close(got, _direct_sum(arr, vecs, (i, j)))


def test_nothing_to_contract_returns_copy():
    rng = np.random.default_rng(3)
    arr = np.ascontiguousarray(rng.standard_normal(4))
    out = kernels.contract_all_but_one(arr, [arr], 0)
    assert np.array_equal(out, arr)
    out[0] = 99.0
    assert arr[0] != 99.0  # no aliasing with the input

    mat = np.ascontiguousarray(rng.standard_normal((3, 2)))
    out = kernels.contract_all_but_two(mat, [mat[:, 0], mat[0]], 0, 1)
    assert np.array_equal(out, mat)
    out[0, 0] = 99.0
    assert mat[0, 0] != 99.0


def _subsets(d):
    return [
        modes
        for k in range(1, d + 1)
        for modes in itertools.combinations(range(d), k)
    ]


def test_each_matches_direct_summation_on_every_mode_subset():
    rng = np.random.default_rng(4)
    for shape in SHAPES:
        arr, vecs = _random_case(rng, shape)
        for modes in _subsets(arr.ndim):
            seen = []

            def record(i, v):
                seen.append(i)
                _assert_close(v, _direct_sum(arr, vecs, (i,)))
                assert not np.shares_memory(v, arr)

            kernels.contract_each(arr, vecs, modes, record)
            assert seen == list(modes)


def test_each_uses_vectors_as_they_stand():
    # a visitor that replaces vectors[i] sees every later contraction formed
    # from the replaced vectors: an exact cyclic sweep
    rng = np.random.default_rng(5)
    for shape in SHAPES:
        arr, vecs = _random_case(rng, shape)
        for modes in _subsets(arr.ndim):
            current = [v.copy() for v in vecs]

            def replace(i, v):
                _assert_close(v, _direct_sum(arr, current, (i,)))
                current[i] = rng.standard_normal(arr.shape[i])

            kernels.contract_each(arr, current, modes, replace)


def test_each_first_full_contraction_is_contract_all_but_one():
    # the mode-0 contraction of a full sweep reduces the modes in the same
    # order, so it is equal bit for bit (diagnostics take f from it)
    rng = np.random.default_rng(6)
    for shape in SHAPES:
        arr, vecs = _random_case(rng, shape)
        got = {}
        kernels.contract_each(arr, vecs, range(arr.ndim), got.__setitem__)
        assert np.array_equal(got[0], kernels.contract_all_but_one(arr, vecs, 0))


def test_all_contractions_is_one_full_each_pass():
    rng = np.random.default_rng(7)
    for shape in SHAPES:
        arr, vecs = _random_case(rng, shape)
        got = {}
        kernels.contract_each(arr, vecs, range(arr.ndim), got.__setitem__)
        every = kernels.all_contractions(arr, vecs)
        assert len(every) == arr.ndim
        assert all(np.array_equal(v, got[i]) for i, v in enumerate(every))


def test_each_with_no_modes_visits_nothing():
    arr = np.ones((2, 3))
    kernels.contract_each(arr, [np.ones(2), np.ones(3)], (), None)


# Shapes around 2^15 entries, the largest current result whose reduction
# is pinned bit for bit (see test_small_reductions_are_the_single_product):
# exactly at it, just above it in the first reduction only, and a first
# reduction well above it with the later ones below. SHAPES above are all
# far below it.
CAP_SHAPES = [(32, 32, 32), (2, 16385), (33, 32, 32), (16, 16, 16, 16)]


def _broadcast_sum(arr, vecs, kept):
    # the sum of _direct_sum, vectorized for these sizes: arr times every
    # other mode's vector, broadcast, summed over those modes; also returns
    # the same sum of absolute values, which bounds the rounding error
    prod, mag = arr, np.abs(arr)
    for m in range(arr.ndim):
        if m not in kept:
            w = vecs[m].reshape([-1 if k == m else 1 for k in range(arr.ndim)])
            prod, mag = prod * w, mag * np.abs(w)
    axes = tuple(m for m in range(arr.ndim) if m not in kept)
    return prod.sum(axis=axes), mag.sum(axis=axes)


def _assert_matches_sum(got, arr, vecs, kept):
    expected, mag = _broadcast_sum(arr, vecs, kept)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= 1e-13 * mag.max())


def test_broadcast_sum_is_direct_summation():
    rng = np.random.default_rng(7)
    for shape in SHAPES:
        arr, vecs = _random_case(rng, shape)
        for kept in _subsets(arr.ndim):
            expected, _ = _broadcast_sum(arr, vecs, kept)
            _assert_close(expected, _direct_sum(arr, vecs, kept))


def test_cap_shapes_all_but_one_and_two_match_direct_summation():
    rng = np.random.default_rng(8)
    for shape in CAP_SHAPES:
        arr, vecs = _random_case(rng, shape)
        for keep in range(arr.ndim):
            got = kernels.contract_all_but_one(arr, vecs, keep)
            _assert_matches_sum(got, arr, vecs, (keep,))
        for i, j in itertools.combinations(range(arr.ndim), 2):
            got = kernels.contract_all_but_two(arr, vecs, i, j)
            _assert_matches_sum(got, arr, vecs, (i, j))


def test_cap_shapes_each_matches_direct_summation_on_every_mode_subset():
    rng = np.random.default_rng(9)
    for shape in CAP_SHAPES:
        arr, vecs = _random_case(rng, shape)
        for modes in _subsets(arr.ndim):
            seen = []

            def record(i, v):
                seen.append(i)
                _assert_matches_sum(v, arr, vecs, (i,))
                assert not np.shares_memory(v, arr)

            kernels.contract_each(arr, vecs, modes, record)
            assert seen == list(modes)


# Shapes at and just above kernels.BLAS_MAX_ENTRIES (2^17), and modes longer
# than it: the trailing mode (a single row above the cap), the leading mode
# (a single column above it) and a middle mode of a batch above it.
BLOCK_SHAPES = [(32, 64, 64), (33, 64, 64), (3, 2**17 + 5), (2**17 + 5, 3), (2, 2**16 + 3, 2)]


def test_block_shapes_match_the_broadcast_sum():
    rng = np.random.default_rng(11)
    for shape in BLOCK_SHAPES:
        arr, vecs = _random_case(rng, shape)
        for keep in range(arr.ndim):
            got = kernels.contract_all_but_one(arr, vecs, keep)
            _assert_matches_sum(got, arr, vecs, (keep,))
        for i, j in itertools.combinations(range(arr.ndim), 2):
            got = kernels.contract_all_but_two(arr, vecs, i, j)
            _assert_matches_sum(got, arr, vecs, (i, j))
        for modes in _subsets(arr.ndim):

            def record(i, v):
                _assert_matches_sum(v, arr, vecs, (i,))
                assert not np.shares_memory(v, arr)

            kernels.contract_each(arr, vecs, modes, record)


def test_reduction_route_follows_result_size(monkeypatch):
    # every reduction goes through np.matmul: a current result of at most
    # the cap in one call, a larger one in calls whose matrix (one batch's,
    # for a stacked operand) reads at most the cap, unless it is a single
    # row or column longer than the cap
    cap = kernels.BLAS_MAX_ENTRIES
    calls = []  # (matrix operand shape, vector length) per call
    matmul = np.matmul

    def spy(a, b, **kwargs):
        mat, vec = (b, a) if a.ndim == 1 else (a, b)
        calls.append((mat.shape, vec.size))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(kernels.np, "matmul", spy)
    rng = np.random.default_rng(10)
    for shape in [(32, 32, 32), (33, 32, 32), (16, 16, 16, 16), (32, 64, 64)]:
        arr, vecs = _random_case(rng, shape)
        for keep in range(arr.ndim):
            calls.clear()
            kernels.contract_all_but_one(arr, vecs, keep)
            assert len(calls) == arr.ndim - 1
        for i, j in itertools.combinations(range(arr.ndim), 2):
            calls.clear()
            kernels.contract_all_but_two(arr, vecs, i, j)
            assert len(calls) == arr.ndim - 2
    for shape in [(33, 64, 64), (3, 2**17 + 5), (2**17 + 5, 3), (2, 2**16 + 3, 2), (129, 128, 8)]:
        arr, vecs = _random_case(rng, shape)
        calls.clear()
        for keep in range(arr.ndim):
            kernels.contract_all_but_one(arr, vecs, keep)
        pairs = list(itertools.combinations(range(arr.ndim), 2))
        for i, j in pairs:
            kernels.contract_all_but_two(arr, vecs, i, j)
        # more calls than reductions: some reduction was split
        assert len(calls) > arr.ndim * (arr.ndim - 1) + len(pairs) * (arr.ndim - 2)
        for mat, length in calls:
            rows, cols = mat[-2:]
            assert rows * cols <= cap or (1 in (rows, cols) and length > cap)


def test_small_reductions_are_the_single_product():
    # a current result of at most 2^15 entries is reduced by exactly the one
    # BLAS product the kernel has always used, so every solve on such
    # tensors keeps its bits
    rng = np.random.default_rng(12)
    for m in (1, 2, 7, 32, 64, 2**15):
        for after in (1, 3, 32, 2**15 // m):
            for before in (1, 5, 2**15 // (m * after)):
                if before * m * after > 2**15 or not before:
                    continue
                out = rng.standard_normal((before, m, after)).reshape(-1)
                v = rng.standard_normal(m)
                want = out.reshape(-1, m) @ v if after == 1 else v @ out.reshape(-1, m, after)
                assert np.array_equal(kernels._reduce(out, v, m, after), want)
