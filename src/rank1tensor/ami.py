"""Spectral analysis of alternating maximization on block quadratic forms.

For f(xi) = -xi^T H xi with H symmetric and partitioned into d x d blocks,
maximizing block by block (each other block frozen) is the block
Gauss-Seidel iteration xi_k = K xi_{k-1} with K = -L_H^{-1} U_H, where L_H
is the block lower triangular part of H including the diagonal blocks and
U_H the strict block upper part.

When every diagonal block is positive definite (the origin is then maximal
in each block separately), the unit-disc eigenvalue counts of K match the
inertia of H exactly: #{|lambda|<1} = #positive, #{|lambda|>1} = #negative,
#{|lambda|=1} = #zero, the only unit-modulus eigenvalue is 1 (on the null
space of H), and the number of positive eigenvalues is at least the largest
block size. Ostrowski's theorem appears as the special case: the iteration
contracts from every start iff H is positive definite.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import linalg
from .core import f_from_arrays, split_scale, tangent_basis, tangent_hessian
from .errors import (
    DimensionError,
    InvalidInputError,
    NumericsError,
    SingularBlockError,
)

#: |modulus - 1| below this counts as "on the unit circle"
UNIT_CIRCLE_TOL = 1e-8
#: every unit-circle eigenvalue must be this close to 1
NEAR_ONE_TOL = 1e-6

SYMMETRY_TOL = 1e-12
SINGULAR_BLOCK_TOL = 1e-12
#: a basin trajectory stops at a norm at most / above these: converged / diverged
BASIN_ZERO_NORM = 1e-10
BASIN_DIVERGED_NORM = 1e150


class BlockQuadraticForm:
    """Symmetric matrix H with a block partition (m_1, ..., m_d)."""

    __slots__ = ("h", "block_sizes", "_offsets")

    def __init__(self, h, block_sizes):
        h = np.array(h, dtype=np.float64, copy=True)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionError(f"H must be square, got shape {h.shape}")
        sizes = tuple(int(m) for m in block_sizes)
        if not sizes or any(m < 1 for m in sizes):
            raise DimensionError(f"invalid block sizes {sizes}")
        if sum(sizes) != h.shape[0]:
            raise DimensionError(
                f"block sizes {sizes} sum to {sum(sizes)}, H has order {h.shape[0]}"
            )
        scale = float(np.max(np.abs(h))) if h.size else 0.0
        asym = float(np.max(np.abs(h - h.T)))
        if asym > SYMMETRY_TOL * scale:
            raise InvalidInputError(
                f"H is not symmetric: max |H - H^T| = {asym!r} vs scale {scale!r}"
            )
        self.h = h
        self.block_sizes = sizes
        self._offsets = (0, *accumulate(sizes))

    @property
    def order(self):
        return self.h.shape[0]

    @property
    def nblocks(self):
        return len(self.block_sizes)

    def block_slice(self, j):
        return slice(self._offsets[j], self._offsets[j + 1])

    def block(self, p, q):
        return self.h[self.block_slice(p), self.block_slice(q)]

    def diagonal_blocks_positive_definite(self):
        """True when every H_jj is positive definite, i.e. the origin is a
        semi-maximal point of -xi^T H xi."""
        return _blocks_definite(_block_spectra(self))

    def f(self, xi):
        xi = np.asarray(xi, dtype=np.float64)
        return -float(xi @ self.h @ xi)

    def __repr__(self):
        return f"BlockQuadraticForm(order={self.order}, blocks={self.block_sizes})"


@dataclass
class AmiSpectrumReport:
    eigenvalues: np.ndarray  # complex spectrum of K
    alpha: int  # |lambda| < 1
    beta: int  # |lambda| > 1
    gamma: int  # |lambda| = 1 (within tolerance)
    inertia: linalg.Inertia  # of H
    spectral_radius: float
    diagonal_blocks_definite: bool
    theorem_holds: object  # True/False, or None when the hypothesis fails
    ostrowski: bool  # rho(K) < 1  <=>  H positive definite
    pi_lower_bound_ok: bool  # positives >= max block size
    unit_circle_near_one: bool  # every |lambda|~1 eigenvalue is ~1


@dataclass
class BasinTrajectory:
    norms: list
    f_values: list
    converged_to_zero: bool
    sweeps_run: int


def _block_spectra(q):
    # (ascending eigenvalues, max |entry|) of each diagonal block
    blocks = [q.block(j, j) for j in range(q.nblocks)]
    return [(np.linalg.eigvalsh(b), float(np.max(np.abs(b)))) for b in blocks]


def _check_diagonal_blocks(spectra):
    for j, (eigenvalues, scale) in enumerate(spectra):
        if linalg._sign_counts(eigenvalues, scale, SINGULAR_BLOCK_TOL).zero:
            raise SingularBlockError(j)


def _blocks_definite(spectra):
    return all(linalg._sign_counts(w, scale).positive == w.size for w, scale in spectra)


def _iteration_matrix(q):
    # K of H scaled by the power of two that brings max|H| into [1/2, 1):
    # exact, so K keeps its bits, and a subnormal H does not underflow
    h = np.ldexp(q.h, -math.frexp(float(np.max(np.abs(q.h))))[1])
    block_id = np.repeat(np.arange(q.nblocks), q.block_sizes)
    lower_mask = block_id[:, None] >= block_id[None, :]
    l_h = np.where(lower_mask, h, 0.0)
    u_h = h - l_h
    return np.linalg.solve(l_h, -u_h)


def gauss_seidel_matrix(q):
    """The iteration matrix K = -L_H^{-1} U_H; requires invertible diagonal
    blocks. One multiplication by K equals one :func:`ami_sweep`."""
    _check_diagonal_blocks(_block_spectra(q))
    return _iteration_matrix(q)


def _checked_vector(q, xi):
    xi = np.asarray(xi, dtype=np.float64)
    if xi.shape != (q.order,):
        raise DimensionError(f"xi has shape {xi.shape}, expected ({q.order},)")
    return xi


def _sweep(q, xi):
    # ami_sweep without its checks
    new = xi.copy()
    for j in range(q.nblocks):
        rows = q.block_slice(j)
        start, stop = rows.start, rows.stop
        rhs = np.zeros(stop - start)
        if start > 0:
            rhs -= q.h[rows, :start] @ new[:start]
        if stop < q.order:
            rhs -= q.h[rows, stop:] @ xi[stop:]
        new[rows] = np.linalg.solve(q.block(j, j), rhs)
    return new


def ami_sweep(q, xi):
    """One alternating-maximization pass: solve block j against the already
    updated blocks below and the previous iterate above, for j = 1..d."""
    xi = _checked_vector(q, xi)
    _check_diagonal_blocks(_block_spectra(q))
    return _sweep(q, xi)


def analyze(q):
    """Spectrum of K, inertia of H, and the eigenvalue-count comparison.

    Every zero test is relative to its matrix's max |entry|, so H and cH,
    c > 0, give the same report. When a diagonal block is not positive
    definite the counts are still reported but ``theorem_holds`` is None
    (hypothesis not met). A singular diagonal block raises instead, since K
    does not exist.
    """
    spectra = _block_spectra(q)
    _check_diagonal_blocks(spectra)
    k = _iteration_matrix(q)
    eigenvalues, eigenvectors = np.linalg.eig(k)

    # |K|_F bounds |K|_2 from above and costs no SVD
    k_norm = float(np.linalg.norm(k))
    residual = float(
        np.max(np.linalg.norm(k @ eigenvectors - eigenvectors * eigenvalues, axis=0))
    )
    if residual > 1e-8 * k_norm:
        raise NumericsError(
            f"eigenpair residual {residual!r} exceeds 1e-8 * |K|_F = {1e-8 * k_norm!r}"
        )

    moduli = np.abs(eigenvalues)
    on_circle = np.abs(moduli - 1.0) <= UNIT_CIRCLE_TOL
    gamma = int(np.count_nonzero(on_circle))
    alpha = int(np.count_nonzero(~on_circle & (moduli < 1.0)))
    beta = len(eigenvalues) - alpha - gamma

    # BlockQuadraticForm has checked H's symmetry
    counts = linalg._sign_counts(np.linalg.eigvalsh(q.h), float(np.max(np.abs(q.h))))
    definite_diag = _blocks_definite(spectra)
    theorem_holds = (
        (alpha, beta, gamma) == tuple(counts) if definite_diag else None
    )
    rho = float(np.max(moduli))
    h_positive_definite = counts.negative == 0 and counts.zero == 0
    # classify rho against 1 with the same tolerance as the count above
    return AmiSpectrumReport(
        eigenvalues=eigenvalues,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        inertia=counts,
        spectral_radius=rho,
        diagonal_blocks_definite=definite_diag,
        theorem_holds=theorem_holds,
        ostrowski=(rho < 1.0 - UNIT_CIRCLE_TOL) == h_positive_definite,
        pi_lower_bound_ok=counts.positive >= max(q.block_sizes),
        unit_circle_near_one=bool(
            np.all(np.abs(eigenvalues[on_circle] - 1.0) <= NEAR_ONE_TOL)
        ),
    )


def basin_experiment(q, xi0, sweeps):
    """Iterate the sweep from ``xi0`` and record norms and objective values.

    ``xi0`` is checked once, and the diagonal blocks once when ``sweeps`` is
    positive; the sweeps themselves run unchecked. A start whose norm or
    objective is not a finite float raises InvalidInputError; a sweep whose
    norm or objective is not one ends the trajectory as diverged, unrecorded,
    so ``norms`` and ``f_values`` always hold ``sweeps_run + 1`` values.

    The objective sequence never decreases along the iteration; the iterates
    contract to the origin exactly when ``xi0`` lies in the invariant
    subspace of the eigenvalues of modulus below one.
    """
    if sweeps < 0:
        raise InvalidInputError("sweeps must be >= 0")
    xi = _checked_vector(q, xi0)
    _, scale, sq = split_scale(xi)
    with np.errstate(over="ignore", invalid="ignore"):
        norms, f_values = [scale * math.sqrt(sq)], [q.f(xi)]
    if not (math.isfinite(norms[0]) and math.isfinite(f_values[0])):
        raise InvalidInputError("the start's norm or objective exceeds the float64 range")
    if sweeps:
        _check_diagonal_blocks(_block_spectra(q))
    converged = norms[0] <= BASIN_ZERO_NORM
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(sweeps):
            xi = _sweep(q, xi)
            norm, f = float(np.linalg.norm(xi)), q.f(xi)
            if not (math.isfinite(norm) and math.isfinite(f)):
                break
            norms.append(norm)
            f_values.append(f)
            if norm <= BASIN_ZERO_NORM:
                converged = True
                break
            if norm > BASIN_DIVERGED_NORM:
                break
    return BasinTrajectory(
        norms=norms,
        f_values=f_values,
        converged_to_zero=converged,
        sweeps_run=len(norms) - 1,
    )


def hessian_form_at(t, u):
    """Local quadratic model of the objective at a tuple.

    Tangent coordinates on each sphere map theta_i to x_i + Q_i theta_i,
    normalized, where Q_i = :func:`core.tangent_basis` (x_i) holds the last
    m_i - 1 columns of the Householder reflector that maps x_i to a multiple
    of e_1: the bases the solvers' Newton finish takes. In them
    f(theta) = f(0) + g^T theta - theta^T H theta + O(|theta|^3), with H
    minus half the Riemannian Hessian in closed form
    (:func:`core.tangent_hessian`): block (i, i) is (f / 2) I and block
    (i, j) is -(1/2) Q_i^T M_ij Q_j, M_ij being the all-but-two contraction
    at the tuple. Returns H as a :class:`BlockQuadraticForm` with block
    sizes (m_i - 1). Another orthonormal basis of each tangent plane changes
    H by a block-diagonal orthogonal congruence and K by a similarity, so
    :func:`analyze` reports the same counts and spectrum. Near a strict
    local maximum the diagonal blocks are positive definite, :func:`analyze`
    applies, and its spectral radius is the local linear rate of als.
    """
    if t.dims != u.dims:
        raise DimensionError(f"tuple dims {u.dims} do not match {t.dims}")
    if min(t.dims) < 2:
        raise InvalidInputError("tangent coordinates need every m_i >= 2")
    bases = [tangent_basis(x) for x in u.vectors]
    f = f_from_arrays(t.array, u.vectors)
    h = tangent_hessian(t.array, u.vectors, bases, f)
    return BlockQuadraticForm(h, [m - 1 for m in t.dims])
