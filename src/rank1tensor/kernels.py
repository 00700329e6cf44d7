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
twice, whatever d, so an als sweep takes 2 passes instead of d.
``contract_partial`` contracts modes out of an intermediate that a caller
keeps, a tensor over fewer modes that is already contracted over the rest,
so a step that starts from one reads no whole tensor. A mals sweep keeps the
tensor contracted over the modes it has applied: its first round reads the
tensor twice and its second once, and every later round extends the kept
intermediate by the mode just applied, so the sweep takes 3 passes at any
d instead of d(d+1)/2 (6 at d = 3, 10 at d = 4). A pair step of asvd at
d >= 4 that contracts first a mode the next step also contracts keeps that
one-mode contraction for the next step: 3 passes per d = 4 sweep instead
of 6.
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


def contract_each(arr, vectors, modes, visit, out=None):
    """Call ``visit(i, v)`` for each mode i of the ascending ``modes``, in
    order, with v the contraction of ``arr`` against every vector but the
    i-th, formed from ``vectors`` as they stand when v is formed.

    The modes outside ``modes`` are contracted first, unless ``out`` gives
    that result: ``arr`` contracted over every mode outside ``modes``, laid
    out over ``modes`` in order, as :func:`contract_partial` returns it. The
    kept modes are then split in half: the second half's block is
    contracted away to serve the first half, and, after the first half has
    been visited, the first half's block to serve the second; each half
    recurses. So a visitor that replaces ``vectors[i]`` makes an exact
    cyclic (Gauss-Seidel) sweep, and one that only records gets every
    contraction at one tuple.
    """
    modes = tuple(modes)
    if modes:
        if out is None:
            out = _contract_outside(arr, vectors, modes)
        _descend(arr, out, vectors, modes, visit)


def contract_partial(out, shape, vectors, over, keep):
    """Contract ``out``, a tensor over the ascending modes ``over`` of
    ``shape`` (laid out over them in order, in any array shape), against
    ``vectors`` over every mode of ``over`` outside ``keep``, from the
    highest mode down; returns the result, laid out over the modes of
    ``keep`` in order, or ``out`` itself when no mode is contracted."""
    after = 1
    for mode in reversed(over):
        if mode in keep:
            after *= shape[mode]
        else:
            out = _reduce(out, vectors[mode], shape[mode], after)
    return out


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
