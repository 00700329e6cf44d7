"""Dense d-mode tensors and the multilinear primitives used by the solvers.

Conventions
-----------
* Entries are 64-bit floats stored row-major (last index fastest).
* Modes are 0-based everywhere in the API.
* ``unfold(T, i)`` puts mode ``i`` on the rows; the columns run over the
  remaining modes in increasing order, last fastest. So the all-but-one
  contraction ``kernels.contract_all_but_one(T, vectors, i)`` equals
  ``unfold(T, i)`` times the flattened outer product of the other vectors,
  taken in increasing mode order.
* Every solve and check reads its tensor through :func:`read_scaled`, forms
  its results from T / scale and scales them back.
"""

import math

import numpy as np

from . import kernels
from .errors import (
    DegenerateInputError,
    DimensionError,
    InvalidInputError,
    NumericsError,
)

UNIT_NORM_TOL = 1e-12
#: a sum of squares below this is subnormal, having lost precision to underflow
_TINY = np.finfo(np.float64).tiny


class Tensor:
    """A dense real d-mode tensor.

    Wraps a C-contiguous float64 ndarray of finite entries; ``dims`` is its
    shape (m_1, ..., m_d) with every m_j >= 1 and d >= 1. ``copy=False``
    shares the input's memory when it already is such an array and converts
    it otherwise (``np.asarray`` semantics).
    """

    __slots__ = ("array",)

    def __init__(self, array, copy=True):
        arr = (np.array if copy else np.asarray)(array, dtype=np.float64, order="C")
        if arr.ndim < 1:
            raise DimensionError("a tensor needs at least one mode")
        if any(m < 1 for m in arr.shape):
            raise DimensionError(f"all dimensions must be >= 1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidInputError("tensor entries must be finite (found NaN or Inf)")
        self.array = arr

    @classmethod
    def from_flat(cls, dims, values):
        """Build from a flat value sequence in row-major order."""
        dims = tuple(int(m) for m in dims)
        values = np.asarray(values, dtype=np.float64)
        if values.size != math.prod(dims):
            raise DimensionError(
                f"{values.size} values cannot fill a tensor of shape {dims}"
            )
        return cls(values.reshape(dims), copy=True)

    @property
    def dims(self):
        return self.array.shape

    @property
    def ndim(self):
        return self.array.ndim

    @property
    def size(self):
        return self.array.size

    @property
    def data(self):
        """Flat row-major view of the entries."""
        return self.array.reshape(-1)

    def norm(self):
        """Hilbert-Schmidt (Frobenius) norm, without overflow or underflow
        for any finite entries whose norm is a float."""
        _, scale, sq = split_scale(self.array)
        return scale * math.sqrt(sq)

    def __repr__(self):
        return f"Tensor(dims={self.dims})"


def split_scale(arr):
    """Write ``arr`` as ``scale * a``; returns ``(a, scale, |a|^2)``.

    The sum of squares takes one pass over ``arr``. When it is a normal
    float, ``a`` is ``arr`` itself and ``scale`` is 1. When it overflows or
    falls below the smallest normal float, a finite nonzero ``arr`` is
    divided by max|arr| into a new array, so only such extreme arrays pay
    for the copy and the second pass. NaN, Inf and zero keep scale 1.
    """
    flat = arr.reshape(-1)
    with np.errstate(over="ignore"):
        sq = float(np.dot(flat, flat))
    if _TINY <= sq < math.inf:
        return arr, 1.0, sq
    scale = float(np.max(np.abs(flat)))
    if not 0.0 < scale < math.inf:
        return arr, 1.0, sq
    arr = arr / scale
    flat = arr.reshape(-1)
    return arr, scale, float(np.dot(flat, flat))


def read_scaled(t, u=None):
    """:func:`split_scale` of ``t``, after checking the dims of the tuple
    ``u`` if one is given; raises :class:`InvalidInputError` when |T|
    exceeds the float64 range, where nothing relative to |T| is a float."""
    if u is not None:
        _check_tuple_dims(t, u)
    a, scale, nrm2 = split_scale(t.array)
    if not math.isfinite(scale * math.sqrt(nrm2)):
        raise InvalidInputError("the tensor's norm exceeds the float64 range")
    return a, scale, nrm2


class UnitTuple:
    """A point on the product of unit spheres: one unit vector per mode."""

    __slots__ = ("vectors",)

    def __init__(self, vectors, normalize=False):
        vecs = []
        for j, v in enumerate(vectors):
            v = np.array(v, dtype=np.float64, copy=True, order="C")
            if v.ndim != 1 or v.size < 1:
                raise DimensionError(f"component {j} is not a nonempty vector")
            if normalize:
                v, _, sq = split_scale(v)
                n = math.sqrt(sq)
            else:
                n = np.linalg.norm(v)
            if not math.isfinite(n):
                raise InvalidInputError(
                    f"component {j} has non-finite norm {float(n)!r}"
                )
            if normalize:
                if n == 0.0:
                    raise DegenerateInputError(f"component {j} is the zero vector")
                v /= n
            elif abs(n - 1.0) > UNIT_NORM_TOL:
                raise DimensionError(
                    f"component {j} has norm {n!r}, expected 1 within {UNIT_NORM_TOL}"
                )
            vecs.append(v)
        if not vecs:
            raise DimensionError("a unit tuple needs at least one component")
        self.vectors = tuple(vecs)

    @classmethod
    def _adopt(cls, vectors):
        """A tuple over ``vectors`` as they are: unit, 1-D, C-contiguous
        float64 arrays that the caller made and no one else holds. Neither
        copies nor checks them."""
        u = object.__new__(cls)
        u.vectors = tuple(vectors)
        return u

    @property
    def dims(self):
        return tuple(v.size for v in self.vectors)

    @property
    def ndim(self):
        return len(self.vectors)

    def __len__(self):
        return len(self.vectors)

    def __getitem__(self, j):
        return self.vectors[j]

    def __iter__(self):
        return iter(self.vectors)

    def __repr__(self):
        return f"UnitTuple(dims={self.dims})"


def _check_tuple_dims(t, u):
    if t.dims != u.dims:
        raise DimensionError(f"tuple dims {u.dims} do not match tensor dims {t.dims}")


def mode_residual(x, v):
    """``(x . v, |v - (x . v) x|)``: the multiplier and the stationarity
    residual of one mode, from its unit vector ``x`` and its all-but-one
    contraction ``v``. The difference is formed directly, since
    sqrt(|v|^2 - (x . v)^2) cancels below about 1e-8; sqrt(r . r) is what
    ``np.linalg.norm(r)`` computes, without its wrapper."""
    lam = float(np.dot(x, v))
    r = v - lam * x
    return lam, math.sqrt(np.dot(r, r))


def tangent_basis(x):
    """Orthonormal columns spanning the plane orthogonal to the unit vector
    ``x``: the last m - 1 columns of the Householder reflector
    I - w w^T / (1 + |x_0|), w = x + sign(x_0) e_1, which maps x to
    -sign(x_0) e_1."""
    w = x.copy()
    w[0] += 1.0 if x[0] >= 0.0 else -1.0
    q = w[:, None] * (w[1:] / (-1.0 - abs(x[0])))
    q.reshape(-1)[x.size - 1 :: x.size] += 1.0  # q[1 + k, k], the identity below row 0
    return q


def tangent_hessian(arr, vectors, bases, f):
    """Minus half the Riemannian Hessian of the objective at a unit tuple.

    The coordinates map theta_i to (x_i + Q_i theta_i) / |.|, Q_i being
    ``bases[i]``: orthonormal columns orthogonal to x_i. Block (i, i) is
    (f / 2) I, with ``f`` the objective at the tuple, and block (i, j) is
    -(1/2) Q_i^T M_ij Q_j, M_ij being the all-but-two contraction of ``arr``
    at ``vectors``. Returns a dense symmetric matrix whose blocks have the
    bases' widths.
    """
    offsets = [0]
    for q in bases:
        offsets.append(offsets[-1] + q.shape[1])
    h = np.zeros((offsets[-1], offsets[-1]))
    np.fill_diagonal(h, 0.5 * f)
    for i, q_i in enumerate(bases):
        rows = slice(offsets[i], offsets[i + 1])
        for j in range(i + 1, len(bases)):
            cols = slice(offsets[j], offsets[j + 1])
            block = q_i.T @ kernels.contract_all_but_two(arr, vectors, i, j) @ bases[j]
            block *= -0.5
            h[rows, cols] = block
            h[cols, rows] = block.T
    return h


def unfold(t, mode):
    """Matricize: mode ``mode`` on the rows, remaining modes on the columns
    in increasing order with the last one fastest."""
    d = t.ndim
    if not 0 <= mode < d:
        raise DimensionError(f"mode {mode} out of range for a {d}-mode tensor")
    return np.ascontiguousarray(
        np.moveaxis(t.array, mode, 0).reshape(t.dims[mode], -1)
    )


def f_value(t, u):
    """The multilinear functional <T, x_1 (x) ... (x) x_d>."""
    _check_tuple_dims(t, u)
    return f_from_arrays(t.array, u.vectors)


def f_from_arrays(arr, vectors):
    """:func:`f_value` of an ndarray and one vector per mode, unchecked."""
    return float(np.dot(vectors[0], kernels.contract_all_but_one(arr, vectors, 0)))


def residual_norm(t, u):
    """Distance from ``t`` to the best multiple of the tuple's outer product.

    Equals sqrt(|T|^2 - f_value(T, u)^2) by the Pythagoras split of ``t``
    into its projection onto the rank-one line and the complement, with T
    read through :func:`read_scaled`.
    """
    arr, scale, nrm2 = read_scaled(t, u)
    return scale * residual_from(nrm2, f_from_arrays(arr, u.vectors))


def residual_from(nrm2, f):
    """sqrt(|T|^2 - f^2) from |T|^2 and the objective at a unit tuple;
    raises :class:`NumericsError` when the radicand is negative beyond
    rounding, which no unit tuple allows."""
    radicand = nrm2 - f * f
    if radicand < -1e-10 * nrm2:
        raise NumericsError(
            f"residual radicand {radicand!r} is negative beyond tolerance "
            f"(|T|^2 = {nrm2!r})"
        )
    return float(np.sqrt(max(radicand, 0.0)))
