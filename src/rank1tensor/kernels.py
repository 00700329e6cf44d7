"""The contraction kernels behind every solver step and diagnostic.

``contract_all_but_one`` contracts a tensor against one vector per mode,
leaving one mode: the single-mode update of als and mals, and every
stationarity check. ``contract_all_but_two`` leaves two modes, giving the
matrix whose top singular pair the asvd and masvd pair steps take.
``contract_each`` forms the all-but-one contractions of several modes by a
dimension tree, reading the tensor in at most two full passes;
``all_contractions`` collects every mode's from one such pass.

Call contract: ``arr`` is a C-contiguous float64 ndarray and ``vectors`` a
sequence of 1-D float64 arrays, one per mode; the entries for kept modes
are ignored. Every result is a new array, never a view of ``arr``.

Each mode is reduced by one pass over the current result viewed as
(before, m, after), so no reduction makes a transposed copy of the tensor.
Modes outside the kept ones are reduced in a fixed order: those after the
last kept mode from the highest down (the trailing axis), then those before
the first kept mode from the lowest up (the leading axis), then those
between kept modes from the highest down.

Every reduction is a BLAS matrix-vector product (``np.matmul``), and no
single call reads more than ``BLAS_MAX_ENTRIES`` entries. The trailing axis
is ``out.reshape(-1, m) @ v``, taken in blocks of whole rows; the other
axes are ``v @ out.reshape(-1, m, after)``, one call per batch, taken in
blocks of columns when one batch is larger than the cap. The blocks are
strided views written into one result, so nothing is copied. A current
result of at most ``BLAS_MAX_ENTRIES`` entries is one call of that
expression. Calls of that size run on the calling thread, so none waits on
a BLAS thread whose core another process holds; the README's "Kernel
reduction route" section has the measurements.

Tensor passes. One all-but-one contraction reads the whole tensor once, so
a loop over d modes reads it d times. ``contract_each`` reads it at most
twice, whatever d: an als sweep takes 2 passes instead of d, and a mals
sweep, whose rounds re-evaluate d, d-1, ..., 1 candidates, takes d + 1
instead of d(d+1)/2 (4 instead of 6 at d = 3, 5 instead of 10 at d = 4).
"""

import numpy as np

#: The most entries one BLAS call of a reduction reads; a larger current
#: result is reduced in blocks. OpenBLAS ran the ``@`` reductions on one
#: thread up to 2^18 entries and on two at 2^19 (see the README), so the cap
#: sits 4x below the second thread.
BLAS_MAX_ENTRIES = 2**17


def _reduce(out, vector, m, after):
    # contract the axis of length m that has ``after`` entries behind it, in
    # calls of at most ``step`` rows (trailing axis) or columns (other axes)
    step = BLAS_MAX_ENTRIES // m or 1
    if after == 1:
        rows = out.reshape(-1, m)
        if len(rows) <= step:
            return np.matmul(rows, vector)
        result = np.empty(len(rows))
        for r in range(0, len(rows), step):
            np.matmul(rows[r : r + step], vector, out=result[r : r + step])
        return result
    batches = out.reshape(-1, m, after)
    if after <= step:
        return np.matmul(vector, batches)
    result = np.empty((len(batches), after))
    for batch, into in zip(batches, result):
        for c in range(0, after, step):
            np.matmul(vector, batch[:, c : c + step], out=into[c : c + step])
    return result


def _contract_outside(arr, vectors, keep):
    # contract every mode not in the ascending sequence ``keep``; returns
    # ``arr`` itself when there is nothing to contract
    shape = arr.shape
    out = arr
    for mode in range(arr.ndim - 1, keep[-1], -1):
        out = _reduce(out, vectors[mode], shape[mode], 1)
    for mode in range(keep[0]):
        out = _reduce(out, vectors[mode], shape[mode], out.size // shape[mode])
    after = 1
    for mode in range(keep[-1], keep[0], -1):
        if mode in keep:
            after *= shape[mode]
        else:
            out = _reduce(out, vectors[mode], shape[mode], after)
    return out


def contract_all_but_one(arr, vectors, keep):
    """Contract every mode of ``arr`` except ``keep``; returns a 1-D array."""
    out = _contract_outside(arr, vectors, (keep,))
    return arr.copy() if out is arr else out.reshape(-1)


def contract_all_but_two(arr, vectors, keep_i, keep_j):
    """Contract every mode except ``keep_i < keep_j``; returns a matrix."""
    out = _contract_outside(arr, vectors, (keep_i, keep_j))
    if out is arr:
        return arr.copy()
    return out.reshape(arr.shape[keep_i], arr.shape[keep_j])


def contract_each(arr, vectors, modes, visit):
    """Call ``visit(i, v)`` for each mode i of the ascending ``modes``, in
    order, with v the contraction of ``arr`` against every vector but the
    i-th, formed from ``vectors`` as they stand when v is formed.

    The modes outside ``modes`` are contracted first. The kept modes are
    then split in half: the second half's block is contracted away to serve
    the first half, and, after the first half has been visited, the first
    half's block to serve the second; each half recurses. So a visitor that
    replaces ``vectors[i]`` makes an exact cyclic (Gauss-Seidel) sweep, and
    one that only records gets every contraction at one tuple.
    """
    modes = tuple(modes)
    if modes:
        _descend(arr, _contract_outside(arr, vectors, modes), vectors, modes, visit)


def all_contractions(arr, vectors):
    """The list of every all-but-one contraction of ``arr`` at one tuple, in
    mode order, from one :func:`contract_each` pass."""
    out = [None] * arr.ndim
    contract_each(arr, vectors, range(arr.ndim), out.__setitem__)
    return out


def _descend(arr, out, vectors, modes, visit):
    # ``out`` holds the tensor over ``modes`` (in order), everything else
    # contracted
    if len(modes) == 1:
        visit(modes[0], arr.copy() if out is arr else out.reshape(-1))
        return
    shape = arr.shape
    half = len(modes) // 2
    first, second = modes[:half], modes[half:]
    sub = out
    for mode in reversed(second):
        sub = _reduce(sub, vectors[mode], shape[mode], 1)
    _descend(arr, sub, vectors, first, visit)
    sub = out
    for mode in first:
        sub = _reduce(sub, vectors[mode], shape[mode], sub.size // shape[mode])
    _descend(arr, sub, vectors, second, visit)
