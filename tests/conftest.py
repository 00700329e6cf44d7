from functools import reduce

import numpy as np
import pytest

from rank1tensor import Tensor, UnitTuple

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


def tuple_matches(u, v, tol):
    """Per-mode agreement up to sign."""
    return all(
        min(np.linalg.norm(a - b), np.linalg.norm(a + b)) <= tol
        for a, b in zip(u.vectors, v.vectors)
    )
