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
Every contraction of a set of modes, from the whole tensor or from a kept
intermediate, goes through ``contract_partial`` and so takes one order:
the modes after the last kept mode from the highest down (the trailing
axis), then those before the first kept mode from the lowest up (the
leading axis), then those between kept modes from the highest down. Only
the dimension tree of ``contract_each`` splits its kept modes with its own
two loops.

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
twice, whatever d, so an als sweep takes 2 passes instead of d. A step that
starts from an intermediate a caller keeps (``contract_partial``) reads no
whole tensor: so a mals sweep takes 3 passes at any d, and a d = 4 asvd
sweep 3 instead of 6 (see :mod:`solvers`).
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


def contract_all_but_one(arr, vectors, keep):
    """Contract every mode of ``arr`` except ``keep``; returns a 1-D array."""
    out = contract_partial(arr, arr.shape, vectors, range(arr.ndim), (keep,))
    return arr.copy() if out is arr else out.reshape(-1)


def contract_all_but_two(arr, vectors, keep_i, keep_j):
    """Contract every mode except ``keep_i < keep_j``; returns a matrix."""
    out = contract_partial(arr, arr.shape, vectors, range(arr.ndim), (keep_i, keep_j))
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
            out = contract_partial(arr, arr.shape, vectors, range(arr.ndim), modes)
        _descend(arr, out, vectors, modes, visit)


def contract_partial(out, shape, vectors, over, keep):
    """Contract ``out``, a tensor over the ascending modes ``over`` of
    ``shape`` (laid out over them in order, in any array shape), against
    ``vectors`` over every mode of ``over`` outside the nonempty ascending
    ``keep``, in the module's reduction order; returns the result, laid out
    over the modes of ``keep`` in order, or ``out`` itself when no mode is
    contracted."""
    # a phase with nothing to contract is skipped: small solves feel its loop
    first, last = keep[0], keep[-1]
    if over[-1] > last:
        for mode in reversed(over):
            if mode <= last:
                break
            out = _reduce(out, vectors[mode], shape[mode], 1)
    if over[0] < first:
        for mode in over:
            if mode >= first:
                break
            out = _reduce(out, vectors[mode], shape[mode], out.size // shape[mode])
    if last - first >= len(keep):  # a mode between kept ones
        after = 1
        for mode in range(last, first, -1):
            if mode in keep:
                after *= shape[mode]
            elif mode in over:
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
