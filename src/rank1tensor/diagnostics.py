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
units of T. The level-2 check visits the pairs of
``solvers.default_pair_schedule``, the order asvd takes them in. The
fixed-point tools raise :class:`InvalidInputError` on a point or step whose
result is not a float.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, linalg
from .core import UnitTuple, f_from_arrays, mode_residual, read_scaled, split_scale
from .errors import DegenerateInputError, DimensionError, InvalidInputError, UnsupportedError
from .solvers import default_pair_schedule

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
    #: the mode (level 1), or the step of ``default_pair_schedule(d)``
    #: whose pair is checked (level 2; at d = 3 the mode left out)
    index: int
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
    """Is ``u`` maximal in each mode (level 1) or in each pair of modes
    with the others fixed (level 2, d >= 3)?

    Level 1 uses that the maximum of a linear functional on the sphere is
    the norm of its coefficient vector: mode i is maximal iff
    f = |T x (other vectors)|. Level 2 compares f with the top singular
    value of the pair's matrix, contracted against every other vector (0
    for a zero matrix, the best value of a zero bilinear form); its checks
    follow ``solvers.default_pair_schedule(d)``, which raises
    :class:`UnsupportedError` below d = 3. A check passes when the shortfall
    is at most ``tol * |T|``.
    """
    arr, scale, nrm2 = read_scaled(t, u)
    if level not in (1, 2):
        raise InvalidInputError(f"level must be 1 or 2, got {level!r}")
    if not tol >= 0.0:
        raise InvalidInputError(f"tol must be a number >= 0, got {tol!r}")

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

    pairs = default_pair_schedule(arr.ndim)
    f = f_from_arrays(arr, u.vectors)
    for s, (i, j) in enumerate(pairs):
        mat = kernels.contract_all_but_two(arr, u.vectors, i, j)
        try:
            best = linalg.top_singular_triple(mat).sigma
        except DegenerateInputError:
            best = 0.0
        margin = scale * (f - best)
        checks.append(SemiMaxCheck(index=s, margin=margin, passed=margin >= -slack))
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
    shapes = [(m,) for m in t.dims]
    vecs = [np.ascontiguousarray(v, dtype=np.float64) for v in vectors]
    if [v.shape for v in vecs] != shapes:
        raise DimensionError(f"expected vectors of shapes {shapes}, got {[v.shape for v in vecs]}")
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

    At a one-coordinate step every component of F, multilinear of degree
    d-1 >= 2, has a zero argument, so the result is exactly 0.0 at every
    step h where h*T does not overflow inside F. ``h`` and every difference
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
