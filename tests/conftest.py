from functools import reduce

import numpy as np
import pytest

from rank1tensor import Tensor, UnitTuple

#: the scales 10^k of the robustness sweeps: subnormal entries, sums of
#: squares that under- or overflow, and the top of the float64 range
SCALE_EXPONENTS = [-320, -310, -300, -200, -160, 0, 160, 200, 300, 307, 308]

# 2x2x2 test tensor, entries drawn once and frozen (row-major)
FIXTURE_2X2X2 = [0.9649, 0.1576, 0.9706, 0.9572, 0.4854, 0.8003, 0.1419, 0.4218]


@pytest.fixture
def fixture_tensor():
    return Tensor(np.array(FIXTURE_2X2X2).reshape(2, 2, 2))


@pytest.fixture
def fixture_3cube():
    return Tensor(np.random.default_rng(7).standard_normal((3, 3, 3)))


def random_tensor(shape, seed):
    return Tensor(np.random.default_rng(seed).standard_normal(shape))


def random_tuple(dims, seed):
    rng = np.random.default_rng(seed)
    return UnitTuple([rng.standard_normal(m) for m in dims], normalize=True)


def rank1_tensor(scale, axes):
    """scale * x_1 (x) ... (x) x_d for a unit tuple ``axes``."""
    return Tensor(scale * reduce(np.multiply.outer, axes.vectors))


def planted_rank1(dims, scale, seed):
    """A rank-one tensor with random unit axes; returns (tensor, axes)."""
    axes = random_tuple(dims, seed)
    return rank1_tensor(scale, axes), axes


def max_scaled(dims, seed, k):
    """(T1, c T1) for a Gaussian T1 of max|entry| 1 and c = 10^k, and
    whether every entry of c T1 is a normal float, so that homogeneity
    fixes the answers at c T1."""
    arr = np.random.default_rng(seed).standard_normal(dims)
    t1 = Tensor(arr / np.max(np.abs(arr)))
    c = 10.0**k
    exact = c * np.min(np.abs(t1.array)) >= np.finfo(np.float64).tiny
    return t1, Tensor(c * t1.array), exact


def tuple_matches(u, v, tol):
    """Per-mode agreement up to sign."""
    return all(
        min(np.linalg.norm(a - b), np.linalg.norm(a + b)) <= tol
        for a, b in zip(u.vectors, v.vectors)
    )
