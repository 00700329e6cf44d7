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


def test_each_with_no_modes_visits_nothing():
    arr = np.ones((2, 3))
    kernels.contract_each(arr, [np.ones(2), np.ones(3)], (), None)
