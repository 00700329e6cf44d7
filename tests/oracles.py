"""Independent reference computations used as test oracles.

Everything here deliberately avoids the library's own code paths: explicit
index loops for contractions, a hand-rolled one-sided Jacobi SVD instead of
the Gram-matrix route, characteristic-polynomial sign counting instead of an
eigendecomposition, and an angular grid search for the 2x2x2 global maximum.
"""

import numpy as np


def direct_f(arr, vectors):
    """<T, x_1 (x) ... (x) x_d> by explicit summation over all entries."""
    total = 0.0
    for idx in np.ndindex(*arr.shape):
        prod = arr[idx]
        for j, v in enumerate(vectors):
            prod *= v[idx[j]]
        total += prod
    return total


def direct_contract(arr, modes, x):
    """Contraction by explicit summation; ``x`` indexed by the given modes."""
    modes = tuple(modes)
    keep = [i for i in range(arr.ndim) if i not in modes]
    out_shape = tuple(arr.shape[i] for i in keep)
    out = np.zeros(out_shape) if out_shape else np.zeros(())
    for idx in np.ndindex(*arr.shape):
        sel = tuple(idx[m] for m in modes)
        rest = tuple(idx[k] for k in keep)
        out[rest] += arr[idx] * x[sel]
    return float(out) if not out_shape else out


def reference_als_sweep(arr, vectors):
    """Cyclic single-mode updates written directly from the definition."""
    vecs = [np.array(v, dtype=float) for v in vectors]
    for i in range(arr.ndim):
        out = np.zeros(arr.shape[i])
        for idx in np.ndindex(*arr.shape):
            prod = arr[idx]
            for j in range(arr.ndim):
                if j != i:
                    prod *= vecs[j][idx[j]]
            out[idx[i]] += prod
        vecs[i] = out / np.linalg.norm(out)
    return vecs


def jacobi_svd(a, max_sweeps=60, tol=1e-14):
    """Full SVD by one-sided Jacobi rotations on the columns.

    Returns (singular values descending, U, V) with a = U diag(s) V^T.
    """
    a = np.array(a, dtype=float)
    transposed = False
    if a.shape[0] < a.shape[1]:
        a = a.T.copy()
        transposed = True
    n = a.shape[1]
    b = a.copy()
    v = np.eye(n)
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = float(b[:, p] @ b[:, p])
                aqq = float(b[:, q] @ b[:, q])
                apq = float(b[:, p] @ b[:, q])
                if abs(apq) <= tol * np.sqrt(app * aqq) or apq == 0.0:
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                bp = c * b[:, p] - s * b[:, q]
                bq = s * b[:, p] + c * b[:, q]
                b[:, p], b[:, q] = bp, bq
                vp = c * v[:, p] - s * v[:, q]
                vq = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = vp, vq
        if not rotated:
            break
    sigmas = np.linalg.norm(b, axis=0)
    order = np.argsort(sigmas)[::-1]
    sigmas = sigmas[order]
    b = b[:, order]
    v = v[:, order]
    u = np.zeros_like(b)
    for j in range(n):
        if sigmas[j] > 0.0:
            u[:, j] = b[:, j] / sigmas[j]
    if transposed:
        return sigmas, v, u
    return sigmas, u, v


def top_sigma(a):
    return float(jacobi_svd(a)[0][0])


def charpoly_coefficients(s):
    """Coefficients of det(xI - S), leading first (Faddeev-LeVerrier)."""
    s = np.array(s, dtype=float)
    n = s.shape[0]
    m = np.eye(n)
    coeffs = [1.0]
    for k in range(1, n + 1):
        m = s @ m
        c = -np.trace(m) / k
        coeffs.append(c)
        m = m + c * np.eye(n)
    return np.array(coeffs)


def charpoly_inertia(s):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix
    from Descartes' rule on its characteristic polynomial (exact here since
    all roots are real)."""
    coeffs = charpoly_coefficients(s)
    scale = max(1.0, float(np.max(np.abs(coeffs))))

    def sign_changes(cs):
        signs = [np.sign(c) for c in cs if abs(c) > 1e-10 * scale]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    n = s.shape[0]
    positive = sign_changes(coeffs)
    negative = sign_changes([c * (-1.0) ** k for k, c in enumerate(coeffs)])
    return positive, negative, n - positive - negative


def grid_max_2x2x2(arr, coarse=121, refine=41, levels=3):
    """Global maximum of the trilinear functional over the three circles,
    by a full angular grid scan with nested refinement around the argmax."""
    assert arr.shape == (2, 2, 2)
    centers = np.full(3, np.pi)
    widths = np.full(3, np.pi)
    best = -np.inf
    for level in range(levels):
        n = coarse if level == 0 else refine
        axes = [np.linspace(c - w, c + w, n) for c, w in zip(centers, widths)]
        mats = [np.stack([np.cos(th), np.sin(th)], axis=1) for th in axes]
        vals = np.einsum("ijk,ai,bj,ck->abc", arr, mats[0], mats[1], mats[2])
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        best = max(best, float(vals[idx]))
        centers = np.array([axes[q][idx[q]] for q in range(3)])
        widths = widths * 4.0 / (n - 1)  # keep two grid cells on each side
    return best


def gauss_seidel_2x2_reference(a):
    """Iteration matrix for H = [[1, a], [a, 1]] with 1x1 blocks, from the
    two scalar update equations solved by hand:
    xi1' = -a xi2, then xi2' = -a xi1' = a^2 xi2."""
    return np.array([[0.0, -a], [0.0, a * a]])


def tangent_bases(vectors):
    """Per vector x, its orthonormal completion Q (columns orthogonal to
    x) from the QR factorization of [x, I], signed so that the first
    column is +x: a second chart, next to the Householder bases of
    ``core.tangent_basis`` that the library takes."""
    bases = []
    for x in vectors:
        q_mat, _ = np.linalg.qr(np.concatenate([x[:, None], np.eye(x.size)], axis=1))
        if np.dot(q_mat[:, 0], x) < 0:
            q_mat = -q_mat
        bases.append(q_mat[:, 1:])
    return bases


def finite_difference_hessian_form(arr, vectors, bases, step=1e-4):
    """-1/2 of the central-difference Hessian, at theta = 0, of
    theta -> <T, y_1 (x) ... (x) y_d> with y_i = (x_i + Q_i theta_i) / |.|.

    Q_i is ``bases[i]``; the objective is contracted mode by mode with
    ``np.tensordot``. Returns a dense matrix with blocks of size (m_i - 1).
    """
    offsets = np.concatenate([[0], np.cumsum([q.shape[1] for q in bases])])
    total = int(offsets[-1])

    def g(theta):
        out = np.asarray(arr, dtype=float)
        for i, (x, q) in enumerate(zip(vectors, bases)):
            y = x + q @ theta[offsets[i] : offsets[i + 1]]
            out = np.tensordot(y / np.linalg.norm(y), out, axes=(0, 0))
        return float(out)

    g0 = g(np.zeros(total))
    hess = np.empty((total, total))
    for a in range(total):
        ea = np.zeros(total)
        ea[a] = step
        hess[a, a] = (g(ea) - 2.0 * g0 + g(-ea)) / step**2
        for b in range(a + 1, total):
            eb = np.zeros(total)
            eb[b] = step
            hess[a, b] = hess[b, a] = (
                g(ea + eb) - g(ea - eb) - g(-ea + eb) + g(-ea - eb)
            ) / (4.0 * step**2)
    return -0.5 * hess
