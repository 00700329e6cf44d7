"""Property tests of the paper's invariants over extreme scales."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rank1tensor import Tensor, residual_norm  # noqa: E402
from rank1tensor.ami import BlockQuadraticForm, analyze, hessian_form_at  # noqa: E402
from rank1tensor.solvers import SolverConfig, solve  # noqa: E402

from ami_instances import instance_stream  # noqa: E402
from conftest import random_tensor, random_tuple, tuple_matches  # noqa: E402


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    exponent=st.floats(min_value=-300.0, max_value=300.0),
    seed=st.integers(min_value=0, max_value=20),
    method=st.sampled_from(["als", "asvd", "mals", "masvd"]),
)
def test_scale_equivariance(exponent, seed, method):
    # solve(cT) = c * solve(T) for c in [1e-300, 1e300], with lambda <= |T|
    # and lambda^2 + r^2 = |T|^2 checked in units of |cT| (|cT|^2 can
    # overflow or underflow)
    c = 10.0**exponent
    t = random_tensor((3, 3, 3), seed)
    cfg = SolverConfig(method=method, seed=seed, max_iterations=20, fitchange_tol=1e-10)
    base = solve(t, cfg)
    got = solve(Tensor(c * t.array), cfg)
    norm = c * t.norm()
    assert got.lambda_ == pytest.approx(c * base.lambda_, rel=1e-9, abs=0.0)
    assert tuple_matches(got.axes, base.axes, 1e-6)
    assert got.lambda_ / norm <= 1.0 + 1e-12
    assert math.hypot(got.lambda_ / norm, got.residual / norm) == pytest.approx(1.0, abs=1e-10)
    assert np.isfinite(list(got.trace.f_sequence())).all()


@st.composite
def dims_and_methods(draw):
    """3 or 4 modes of sizes 2 to 5, and a method that supports them."""
    d = draw(st.sampled_from([3, 4]))
    dims = tuple(draw(st.integers(min_value=2, max_value=5)) for _ in range(d))
    methods = ["als", "asvd", "mals", "masvd"] if d == 3 else ["als", "asvd", "mals"]
    return dims, draw(st.sampled_from(methods))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    exponent=st.integers(min_value=-300, max_value=300),
    seed=st.integers(min_value=0, max_value=1000),
    dims_and_method=dims_and_methods(),
    tol=st.sampled_from([1e-4, 1e-8, 1e-12]),
)
def test_objective_bounded_and_monotone(exponent, seed, dims_and_method, tol):
    # lambda <= |T|, lambda^2 + r^2 = |T|^2 and a nondecreasing objective
    # trace, at loose and tight tolerances and any scale, in units of |cT|
    # (|cT|^2 can overflow or underflow)
    dims, method = dims_and_method
    c = 10.0**exponent
    t = Tensor(c * random_tensor(dims, seed).array)
    result = solve(t, SolverConfig(method=method, seed=seed, max_iterations=50, fitchange_tol=tol))
    norm = t.norm()
    fs = [f / norm for f in result.trace.f_sequence()]
    assert result.lambda_ / norm <= 1.0 + 1e-12
    assert math.hypot(result.lambda_ / norm, result.residual / norm) == pytest.approx(1.0, abs=1e-10)
    assert all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    exponent=st.floats(min_value=-300.0, max_value=300.0),
    seed=st.integers(min_value=0, max_value=20),
)
def test_residual_norm_scales(exponent, seed):
    # residual_norm(cT, u) = c * residual_norm(T, u), also where |cT|^2
    # overflows or underflows
    c = 10.0**exponent
    t = random_tensor((3, 3, 3), seed)
    u = random_tuple((3, 3, 3), seed)
    got = residual_norm(Tensor(c * t.array), u)
    assert got == pytest.approx(c * residual_norm(t, u), rel=1e-12, abs=0.0)


def symmetric_part(g):
    """The average of a 3-mode array over the six permutations of its axes."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    return sum(np.transpose(g, p) for p in perms) / 6.0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    noise=st.floats(min_value=0.0, max_value=0.1),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_symmetric_inputs_give_symmetric_axes(n, noise, seed):
    # T = v (x) v (x) v + E with E symmetric and |E| = noise <= 0.1, so the
    # top rank-one term dominates and the best rank-one approximation is
    # symmetric; a tight solve of each method from the HOSVD start ends
    # with x_1 = +-x_2 = +-x_3
    rng = np.random.default_rng([seed, n])
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    e = symmetric_part(rng.standard_normal((n, n, n)))
    t = Tensor(np.multiply.outer(np.multiply.outer(v, v), v) + noise * e / np.linalg.norm(e))
    for method in ("als", "asvd", "mals", "masvd"):
        cfg = SolverConfig(method=method, init="hosvd", fitchange_tol=1e-12, max_iterations=2000)
        x, y, z = solve(t, cfg).axes
        for other in (y, z):
            assert min(np.linalg.norm(x - other), np.linalg.norm(x + other)) <= 1e-6


def _analysis_cases():
    """(H, block sizes) of 12 forms from ami_instances, and (T, u) of three
    tensors at the axes of a tight solve."""
    stream = instance_stream(21)
    cases = [(form.h, form.block_sizes) for form, _, _ in (next(stream) for _ in range(12))]
    for seed, (dims, method) in enumerate(
        [((6, 5, 4), "asvd"), ((4, 4, 4), "masvd"), ((4, 3, 3, 2), "als")]
    ):
        t = random_tensor(dims, seed)
        cfg = SolverConfig(method=method, seed=seed, max_iterations=2000, fitchange_tol=1e-12)
        cases.append((t, solve(t, cfg).axes))
    return cases


ANALYSIS_CASES = _analysis_cases()


def _scaled_form(case, c):
    a, b = case
    if isinstance(a, Tensor):
        return hessian_form_at(Tensor(c * a.array), b)
    return BlockQuadraticForm(c * a, b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    exponent=st.integers(min_value=-300, max_value=300),
    index=st.integers(min_value=0, max_value=len(ANALYSIS_CASES) - 1),
)
def test_analyze_is_scale_free(exponent, index):
    # analyze(cH) = analyze(H) for c = 10^k: every count and flag, and rho
    case = ANALYSIS_CASES[index]
    base = analyze(_scaled_form(case, 1.0))
    got = analyze(_scaled_form(case, 10.0**exponent))
    assert (got.alpha, got.beta, got.gamma) == (base.alpha, base.beta, base.gamma)
    assert got.inertia == base.inertia
    assert got.diagonal_blocks_definite == base.diagonal_blocks_definite
    assert got.theorem_holds == base.theorem_holds
    assert got.ostrowski == base.ostrowski
    assert got.spectral_radius == pytest.approx(base.spectral_radius, rel=1e-12)
