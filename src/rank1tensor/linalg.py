"""Matrix kernels: leading singular triple and inertia counts.

The leading singular triple is computed through the Gram matrix G of the
smaller side (A A^T or A^T A), whose top eigenvector is one singular vector;
the other is one matrix-vector product away. Two routes find that
eigenvector:

* dense: a full symmetric eigendecomposition of G;
* squaring: the power method on G^(2^s), formed by repeated squaring of
  P = G / tr G, with P renormalized to unit trace as it is squared
  (Golub & Van Loan, Matrix Computations, 4th ed., section 8.2). The
  candidate x is the normalized column of P with the largest diagonal
  entry. It is accepted only under a certificate: the eigen-residual
  |G x - theta x| <= 1e-12 theta with theta = x^T G x, and x^T P x > 1/2
  (by a margin of 1e-8 that covers rounding in the computed P). P is
  positive semidefinite with unit trace, so at most one eigendirection can
  carry weight above 1/2, and it is then G's strictly dominant one.

The squaring route runs when the smaller side is at least
SQUARING_MIN_SIDE, where it is faster; when its certificate fails (an
exactly or nearly degenerate top eigenvalue), the dense route answers.
Neither route depends on a starting vector. The squared conditioning of the
Gram route is acceptable at the tolerances the solvers run at.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import DegenerateInputError, InvalidInputError

#: smallest Gram side at which the squaring route beats a dense eigh
SQUARING_MIN_SIDE = 20
#: squarings before the certificate is first checked, and at most
FIRST_CHECK_SQUARINGS = 6
MAX_SQUARINGS = 12
#: eigen-residual the squaring route must certify, relative to theta
CERTIFY_RESIDUAL = 1e-12
#: x^T P x must exceed 1/2 by this; rounding lifts a tied top's weight by
#: about 2^s eps, 1e-12 after 12 squarings
DOMINANCE_MARGIN = 1e-8

SIGN_PIVOT_TOL = 1e-12
#: |eigenvalue| at most this times the matrix's max |entry| counts as zero
ZERO_EIG_TOL = 1e-8

Inertia = namedtuple("Inertia", ["positive", "negative", "zero"])
#: largest singular value with unit left/right vectors, A v = sigma u, and
#: the squarings behind a certified answer (0 when eigh answered)
SingularTriple = namedtuple("SingularTriple", ["sigma", "u", "v", "squarings"])


def _sign_counts(eigenvalues, scale, tol=ZERO_EIG_TOL):
    # (positive, negative, zero) of the eigenvalues of a matrix of max
    # |entry| ``scale``, |eigenvalue| <= tol * scale counting as zero
    threshold = tol * scale
    zero = int(np.count_nonzero(np.abs(eigenvalues) <= threshold))
    positive = int(np.count_nonzero(eigenvalues > threshold))
    return Inertia(positive, len(eigenvalues) - positive - zero, zero)


def inertia(s):
    """Counts (positive, negative, zero) of eigenvalues of a symmetric
    matrix, with |eigenvalue| <= ZERO_EIG_TOL * max|S| counted as zero, so
    that S and cS have the same counts for any c > 0; raises unless the
    input is square and symmetric to 1e-10 relative. Only the eigenvalues
    are computed."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {s.shape}")
    scale = np.max(np.abs(s)) if s.size else 0.0
    asym = np.max(np.abs(s - s.T)) if s.size else 0.0
    if asym > 1e-10 * scale:
        raise InvalidInputError(
            f"matrix is not symmetric: max |S - S^T| = {asym!r} vs scale {scale!r}"
        )
    return _sign_counts(np.linalg.eigvalsh(s), scale)


def _sign_fix(u, v):
    # Deterministic orientation: first non-negligible entry of u positive,
    # sign propagated to v so that A v = sigma u is preserved.
    for entry in u:
        if abs(entry) > SIGN_PIVOT_TOL:
            if entry < 0.0:
                return -u, -v
            break
    return u, v


def _certified_top_eigvec(g, trace):
    # Repeated squaring of P = G / tr G, given tr G as ``trace``; returns
    # (x, squarings) once the certificate holds, None when it fails within
    # MAX_SQUARINGS. A unit trace keeps every entry of P in [-1, 1], and
    # three squarings shrink the trace to no less than k^-7 for side k, so
    # renormalizing every third squaring before the first check cannot
    # underflow.
    p = g / trace
    for s in range(1, MAX_SQUARINGS + 1):
        p = p @ p
        if s < FIRST_CHECK_SQUARINGS:
            if s % 3 == 0:
                p /= p.trace()
            continue
        p /= p.trace()
        # sqrt(r.r) is what np.linalg.norm(r) computes, without its wrapper
        col = p[:, int(p.diagonal().argmax())]
        x = col / math.sqrt(np.dot(col, col))
        gx = g @ x
        theta = float(x @ gx)
        r = gx - theta * x
        certified = (
            math.sqrt(np.dot(r, r)) <= CERTIFY_RESIDUAL * theta
            and float(x @ (p @ x)) > 0.5 + DOMINANCE_MARGIN
        )
        if certified:
            return x, s
    return None


def top_singular_triple(a):
    """Largest singular value and vectors of a nonzero real matrix.

    The matrix picks the route (see the module docstring): the certified
    squaring route when the smaller side is at least SQUARING_MIN_SIDE, read
    at call time, and the dense eigendecomposition of the Gram matrix below
    it or when the certificate fails. The first non-negligible entry of u is
    positive.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {a.shape}")
    wide = a.shape[0] <= a.shape[1]
    gram = a @ a.T if wide else a.T @ a
    # a positive trace, or top eigenvalue, of the Gram matrix proves a
    # nonzero; only otherwise is a scanned
    found = None
    if gram.shape[0] >= SQUARING_MIN_SIDE:
        trace = gram.trace()
        if not trace > 0.0 and not np.any(a):
            raise DegenerateInputError("matrix is identically zero")
        found = _certified_top_eigvec(gram, trace)
    if found is None:
        w, vecs = np.linalg.eigh(gram)
        if not (w.size and w[-1] > 0.0) and not np.any(a):
            raise DegenerateInputError("matrix is identically zero")
        found = np.ascontiguousarray(vecs[:, -1]), 0
    x, squarings = found
    y = a.T @ x if wide else a @ x
    sigma = math.sqrt(np.dot(y, y))  # np.linalg.norm(y), without its wrapper
    if sigma == 0.0:
        raise DegenerateInputError("top Gram eigenvector annihilates the matrix")
    y = y / sigma
    u, v = _sign_fix(*((x, y) if wide else (y, x)))
    return SingularTriple(sigma, u, v, squarings)
