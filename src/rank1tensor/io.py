"""Text interchange formats.

Tensor file:   line 1 the mode count d, line 2 the d dimensions, then the
               entries in row-major order (last index fastest), whitespace
               separated across any number of lines.
Tuple file:    line 1 the mode count d, line 2 the d dimensions, then one
               line per mode with that mode's vector.
Block matrix:  line 1 the order L, line 2 the block sizes (summing to L),
               then the L*L entries row by row.
Vector file:   whitespace-separated entries.
"""

import math

import numpy as np

from .core import Tensor, UnitTuple, split_scale
from .errors import ParseError


def _read_text(path):
    """The file's text. A byte outside ASCII is a ParseError on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = len(data[: exc.start + 1].decode("ascii", "replace").splitlines())
        raise ParseError(line, f"byte 0x{data[exc.start]:02x} is not ASCII") from None


def _parse_int(token, line, what):
    try:
        value = int(token)
    except ValueError:
        raise ParseError(line, f"{what}: {token!r} is not an integer") from None
    return value


def _parse_float(token, line, what):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line, f"{what}: {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(line, f"{what}: {token!r} is non-finite")
    return value


def _parse_count(lines, what):
    # the first line: a single integer >= 1
    if not lines or not lines[0].split():
        raise ParseError(1, f"missing {what}")
    head = lines[0].split()
    if len(head) != 1:
        raise ParseError(1, f"expected a single integer ({what})")
    count = _parse_int(head[0], 1, what)
    if count < 1:
        raise ParseError(1, f"{what} must be >= 1, got {count}")
    return count


def _parse_header(lines):
    d = _parse_count(lines, "mode count")
    if len(lines) < 2 or not lines[1].split():
        raise ParseError(2, "missing dimensions")
    tokens = lines[1].split()
    if len(tokens) != d:
        raise ParseError(2, f"expected {d} dimensions, got {len(tokens)}")
    dims = []
    for tok in tokens:
        m = _parse_int(tok, 2, "dimensions")
        if m < 1:
            raise ParseError(2, f"dimensions must be >= 1, got {m}")
        dims.append(m)
    return d, tuple(dims)


def _scan_values(lines, first_line, expected, what):
    """The exact scanner: ``float()`` per token, so an error names its line."""
    values = []
    last_line = first_line
    for offset, line in enumerate(lines[first_line - 1 :]):
        lineno = first_line + offset
        for tok in line.split():
            if len(values) == expected:
                raise ParseError(lineno, f"more than {expected} {what}")
            values.append(_parse_float(tok, lineno, what))
            last_line = lineno
    if expected is not None and len(values) != expected:
        raise ParseError(last_line, f"expected {expected} {what}, got {len(values)}")
    return np.array(values)


def _collect_values(lines, first_line, expected, what):
    """The whitespace-separated values of ``lines[first_line - 1:]``, in
    order; any count when ``expected`` is None.

    NumPy's C reader parses them joined into one line. It splits where
    ``str.split()`` splits and converts each field as ``float()`` does,
    refusing what ``float()`` would first rewrite (underscores, non-ASCII
    digits). A result of the expected count, all finite, is kept; anything
    else reruns the exact scanner, so every error keeps its line and message.
    """
    body = " ".join(lines[first_line - 1 :])
    if body and not body.isspace():
        try:
            values = np.loadtxt([body], comments=None, ndmin=1)
        except ValueError:
            pass
        else:
            if (expected is None or values.size == expected) and np.isfinite(values).all():
                return values
    return _scan_values(lines, first_line, expected, what)


def parse_tensor_text(text):
    lines = text.splitlines()
    _, dims = _parse_header(lines)
    values = _collect_values(lines, 3, math.prod(dims), "tensor entries")
    return Tensor.from_flat(dims, values)


def read_tensor_text(path):
    return parse_tensor_text(_read_text(path))


def format_tensor_text(t):
    lines = [str(t.ndim), " ".join(str(m) for m in t.dims)]
    flat = t.data
    for start in range(0, flat.size, 8):
        lines.append(" ".join(f"{x:.17g}" for x in flat[start : start + 8]))
    return "\n".join(lines) + "\n"


def write_tensor_text(t, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_tensor_text(t))


def parse_tuple_text(text):
    """Returns (vectors, was_normalized): unit-normalizes off-sphere input
    and reports that it had to."""
    lines = text.splitlines()
    d, dims = _parse_header(lines)
    if len(lines) < 2 + d:
        raise ParseError(len(lines), f"expected {d} vector lines after the header")
    vectors = []
    adjusted = False
    for i in range(d):
        lineno = 3 + i
        tokens = lines[lineno - 1].split()
        if len(tokens) != dims[i]:
            raise ParseError(
                lineno, f"expected {dims[i]} entries for mode {i}, got {len(tokens)}"
            )
        v = _collect_values(lines[:lineno], lineno, dims[i], "vector entry")
        # the norm as scale * sqrt(sq), finite and nonzero at any finite scale
        _, scale, sq = split_scale(v)
        if sq == 0.0:
            raise ParseError(lineno, f"mode-{i} vector is zero")
        if abs(scale * math.sqrt(sq) - 1.0) > 1e-12:
            adjusted = True
        vectors.append(v)
    return UnitTuple(vectors, normalize=True), adjusted


def read_tuple_text(path):
    return parse_tuple_text(_read_text(path))


def format_tuple_text(u):
    lines = [str(len(u)), " ".join(str(m) for m in u.dims)]
    for v in u.vectors:
        lines.append(" ".join(f"{x:.17g}" for x in v))
    return "\n".join(lines) + "\n"


def write_tuple_text(u, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_tuple_text(u))


def parse_block_matrix_text(text):
    """Returns (H, block_sizes) for the appendix analyzer input format."""
    lines = text.splitlines()
    order = _parse_count(lines, "matrix order")
    if len(lines) < 2 or not lines[1].split():
        raise ParseError(2, "missing block sizes")
    sizes = [_parse_int(tok, 2, "block size") for tok in lines[1].split()]
    if any(m < 1 for m in sizes):
        raise ParseError(2, "block sizes must be >= 1")
    if sum(sizes) != order:
        raise ParseError(2, f"block sizes sum to {sum(sizes)}, expected {order}")
    values = _collect_values(lines, 3, order * order, "matrix entries")
    return values.reshape(order, order), tuple(sizes)


def read_block_matrix_text(path):
    return parse_block_matrix_text(_read_text(path))


def parse_vector_text(text):
    values = _collect_values(text.splitlines(), 1, None, "vector entry")
    if not values.size:
        raise ParseError(1, "empty vector file")
    return values


def read_vector_text(path):
    return parse_vector_text(_read_text(path))
