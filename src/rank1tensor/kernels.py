"""The contraction kernels behind every solver step and diagnostic.

``contract_all_but_one`` contracts a tensor against one vector per mode,
leaving one mode: the single-mode update of als and mals, and every
stationarity check. ``contract_all_but_two`` leaves two modes, giving the
matrix whose top singular pair the asvd and masvd pair steps take.

Call contract: ``arr`` is a C-contiguous float64 ndarray and ``vectors`` a
sequence of 1-D float64 arrays, one per mode; the entries for kept modes
are ignored. The result is a new array, never a view of ``arr``.

Each mode is reduced by one ``np.einsum`` pass over a reshaped view, so no
reduction makes a transposed copy of the tensor:

* modes after the last kept one, from the highest down: the trailing axis
  is the last, so ``ij,j->i`` over ``out.reshape(-1, m)``;
* modes before the first kept one: the leading axis is the first, so
  ``i,ij->j`` over ``out.reshape(m, -1)``;
* modes between the two kept ones, from the highest down: the axis sits
  just before the last kept mode, so ``j,ijk->ik`` over
  ``out.reshape(-1, m, m_keep_j)``.

einsum runs these products in its own single-threaded loops, not in BLAS.
A BLAS matrix-vector product is faster on an idle machine, but on a tensor
of more than a few thousand entries it splits the work across the BLAS
threads and waits for all of them, so a call slows down whenever another
process holds one of their cores. On two cores with one kept busy, a 128^3
call took 1.2 ms at the median and 6.5 ms at the 95th percentile through
BLAS, against 1.1 and 1.3 ms through einsum.
"""

import numpy as np


def _contract_outside(arr, vectors, lo, hi):
    # contract every mode except ``lo`` and ``hi``; lo == hi keeps one mode
    shape = arr.shape
    out = arr
    for mode in range(arr.ndim - 1, hi, -1):
        out = np.einsum("ij,j->i", out.reshape(-1, shape[mode]), vectors[mode])
    for mode in range(lo):
        out = np.einsum("i,ij->j", vectors[mode], out.reshape(shape[mode], -1))
    for mode in range(hi - 1, lo, -1):
        out = np.einsum("j,ijk->ik", vectors[mode], out.reshape(-1, shape[mode], shape[hi]))
    if out is arr:  # nothing contracted
        return arr.copy()
    return out.reshape(shape[lo], shape[hi]) if hi > lo else out


def contract_all_but_one(arr, vectors, keep):
    """Contract every mode of ``arr`` except ``keep``; returns a 1-D array."""
    return _contract_outside(arr, vectors, keep, keep)


def contract_all_but_two(arr, vectors, keep_i, keep_j):
    """Contract every mode except ``keep_i < keep_j``; returns a matrix."""
    return _contract_outside(arr, vectors, keep_i, keep_j)
