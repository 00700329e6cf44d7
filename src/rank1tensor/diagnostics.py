"""Checks at a candidate solution: stationarity, semi-maximality, and the
fixed-point correspondence for the induced multilinear map.

A tuple on the sphere product is a critical point of the objective iff the
contraction of the tensor against all other vectors is a multiple of each
x_i, with one shared multiplier lambda. Critical tuples with lambda > 0 are
in one-to-one correspondence with nonzero fixed points of the map

    F_i(u_1, ..., u_d) = T x (u_1 (x) ... skip i ... (x) u_d),

via u = lambda^(-1/(d-2)) * x; smaller fixed-point norm means larger lambda,
so the dominant singular value belongs to the nonzero fixed point closest to
the origin.

``criticality`` and ``check_semi_max`` read T through ``core.read_scaled``,
as ``solve`` does, and report multipliers, residuals and margins in the
units of T. The fixed-point tools raise :class:`InvalidInputError` on a
point or step whose result is not a float.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, linalg
from .core import UnitTuple, f_from_arrays, mode_residual, read_scaled, split_scale
from .errors import DimensionError, InvalidInputError, UnsupportedError

#: default margin for checks after an alternating solve, relative to |T|
POST_SOLVE_TOL = 1e-6


@dataclass
class CriticalityReport:
    """Per-mode multipliers and stationarity residuals at a tuple."""

    lambda_per_mode: list
    residual_per_mode: list
    max_residual: float
    lambda_spread: float


@dataclass
class SemiMaxCheck:
    index: int  # mode (level 1) or frozen mode (level 2)
    margin: float  # f minus the best attainable value; ~0 or negative
    passed: bool


@dataclass
class SemiMaxReport:
    level: str  # "one_semi" | "two_semi"
    tol: float
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def worst_margin(self):
        return min(c.margin for c in self.checks)


def criticality(t, u):
    """Evaluate the stationarity system at ``u``: for each mode the
    contraction against the other vectors, its multiplier x_i^T v_i, and the
    residual |v_i - lambda_i x_i|. At an exact critical point all residuals
    vanish and the multipliers coincide."""
    arr, scale, _ = read_scaled(t, u)
    lambdas = []
    residuals = []
    for x, v in zip(u.vectors, kernels.all_contractions(arr, u.vectors)):
        lam, residual = mode_residual(x, v)
        lambdas.append(scale * lam)
        residuals.append(scale * residual)
    return CriticalityReport(
        lambda_per_mode=lambdas,
        residual_per_mode=residuals,
        max_residual=max(residuals),
        lambda_spread=max(lambdas) - min(lambdas),
    )


def check_semi_max(t, u, level=1, tol=POST_SOLVE_TOL):
    """Is ``u`` maximal in each mode (level 1) or each pair of modes with
    the third frozen (level 2, 3-mode tensors only)?

    Level 1 uses that the maximum of a linear functional on the sphere is
    the norm of its coefficient vector: mode i is maximal iff
    f = |T x (other vectors)|. Level 2 compares f with the top singular
    value of the matrix contracted against the frozen vector. A check passes
    when the shortfall is at most ``tol * |T|``.
    """
    arr, scale, nrm2 = read_scaled(t, u)
    if level not in (1, 2):
        raise InvalidInputError(f"level must be 1 or 2, got {level!r}")
    if not tol >= 0.0:
        raise InvalidInputError(f"tol must be a number >= 0, got {tol!r}")
    if level == 2 and t.ndim != 3:
        raise UnsupportedError("level-2 checks are defined for 3-mode tensors")

    slack = tol * (scale * math.sqrt(nrm2))  # tol * t.norm()
    checks = []
    if level == 1:
        contractions = kernels.all_contractions(arr, u.vectors)
        # the mode-0 contraction is the one f_value takes, in the same order
        f = float(np.dot(u.vectors[0], contractions[0]))
        for i, v in enumerate(contractions):
            margin = scale * (f - float(np.linalg.norm(v)))
            checks.append(SemiMaxCheck(index=i, margin=margin, passed=margin >= -slack))
        return SemiMaxReport(level="one_semi", tol=tol, checks=checks)

    f = f_from_arrays(arr, u.vectors)
    for k in range(3):
        i, j = (m for m in range(3) if m != k)
        mat = kernels.contract_all_but_two(arr, u.vectors, i, j)
        best = linalg.top_singular_triple(mat).sigma
        margin = scale * (f - best)
        checks.append(SemiMaxCheck(index=k, margin=margin, passed=margin >= -slack))
    return SemiMaxReport(level="two_semi", tol=tol, checks=checks)


def _power(base, exponent, what):
    # base ** exponent, which must be a positive float (Python's ** raises on overflow)
    try:
        value = base**exponent
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise InvalidInputError(f"{what} {value!r} is not a positive finite float")
    return value


def fixed_point_from_tuple(u, lam):
    """Scale a unit tuple with multiplier ``lam > 0`` into the corresponding
    fixed point of the induced map: every vector times lam^(-1/(d-2)).
    Raises :class:`InvalidInputError` when that factor is not a float."""
    d = len(u)
    if d <= 2:
        raise UnsupportedError("the fixed-point correspondence needs d > 2")
    if not lam > 0.0:
        raise InvalidInputError(f"the multiplier must be positive, got {lam!r}")
    scale = _power(lam, -1.0 / (d - 2), "the fixed point's scale factor")
    vectors = u.vectors if isinstance(u, UnitTuple) else u
    return [scale * np.asarray(v, dtype=np.float64) for v in vectors]


def tuple_from_fixed_point(vectors):
    """Inverse of :func:`fixed_point_from_tuple`: normalize a nonzero fixed
    point back to the sphere product and recover lambda = |u_1|^(-(d-2)),
    at any finite scale; raises :class:`InvalidInputError` if lambda is not
    a positive float."""
    d = len(vectors)
    if d <= 2:
        raise UnsupportedError("the fixed-point correspondence needs d > 2")
    parts = [split_scale(np.asarray(v, dtype=np.float64)) for v in vectors]
    if min(sq for _, _, sq in parts) == 0.0:
        raise InvalidInputError("fixed point has a zero component")
    a, scale, sq = parts[0]
    lam = _power(scale * math.sqrt(sq), -(d - 2), "the multiplier")
    return UnitTuple([a / math.sqrt(sq) for a, _, sq in parts]), lam


def apply_F(t, vectors):
    """One application of the induced multilinear map: component i is the
    contraction of the tensor against every other vector (no normalization).
    Homogeneous of degree d-1; the origin is a fixed point."""
    d = t.ndim
    if len(vectors) != d:
        raise DimensionError(f"expected {d} vectors, got {len(vectors)}")
    vecs = [np.ascontiguousarray(v, dtype=np.float64) for v in vectors]
    for i, v in enumerate(vecs):
        if v.shape != (t.dims[i],):
            raise DimensionError(
                f"component {i} has shape {v.shape}, expected ({t.dims[i]},)"
            )
    return kernels.all_contractions(t.array, vecs)


def fixed_point_residual(t, vectors):
    """|F(v) - v| over the concatenated components, at any finite scale;
    raises :class:`InvalidInputError` when it is not a float (a NaN or Inf
    component, or an overflowing F(v))."""
    with np.errstate(over="ignore", invalid="ignore"):
        fv = apply_F(t, vectors)
        _, scale, sq = split_scale(np.concatenate([r - v for r, v in zip(fv, vectors)]))
    residual = scale * math.sqrt(sq)
    if not math.isfinite(residual):
        raise InvalidInputError(f"the fixed-point residual is {residual!r}, not a float")
    return residual


def jacobian_check_origin(t, h=1e-3):
    """Max entrywise deviation from the identity of the central-difference
    Jacobian of u - F(u) at the origin, with step ``h`` per coordinate.

    F is multilinear of degree d-1 >= 2 across the component blocks, so all
    its contributions vanish to high order at the origin and the deviation
    is expected to be O(h^(d-2))-small at worst. ``h`` and every difference
    quotient at it must be finite, or :class:`InvalidInputError` is raised.
    """
    if t.ndim < 3:
        raise UnsupportedError("the induced map needs d >= 3")
    if not 0.0 < h < math.inf:
        raise InvalidInputError(f"the step must be a finite number > 0, got {h!r}")
    dims = t.dims
    total = sum(dims)

    def g_flat(flat):
        parts = []
        offset = 0
        for m in dims:
            parts.append(flat[offset : offset + m])
            offset += m
        fv = apply_F(t, parts)
        return flat - np.concatenate(fv)

    deviation = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(total):
            e = np.zeros(total)
            e[b] = h
            column = (g_flat(e) - g_flat(-e)) / (2.0 * h)
            column[b] -= 1.0
            # np.max keeps a NaN that Python's max would drop
            deviation = np.max(np.abs(column), initial=deviation)
    if not math.isfinite(deviation):
        raise InvalidInputError(f"a difference quotient at step {h!r} is not finite")
    return float(deviation)
