"""The C fast path of ``io._collect_values`` against the exact scanner.

On every input both give the same values bit for bit, or both raise a
ParseError with the same line and message.
"""

import numpy as np
import pytest

from rank1tensor import ParseError, Tensor, io

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

FORMATS = (repr, "%.17g".__mod__, "%e".__mod__)
LITERALS = (
    ".5", "5.", "-0", "+0", "-0.0", "+1", "-.5", "+5.", "1E5", "7e+0",
    "5e-324", "4.9e-324", "2.2250738585072009e-308", "1e308", "-1e308",
    "1.7976931348623157e308",
)
SEPARATORS = (
    " ", "  ", "\t", " \t ", "\n", "\n\n", "\r\n", "\r", "\x0c", "\x0b",
    "\x85", "\x1c", "\x1f", "\xa0", "\u2003", "\u2028", "\u3000",
)
BAD_TOKENS = ("1_0", "0x10", "nan", "inf", "NaN(1)", "1e400", "1,5", "--1", "1#2", "1'")

formatted = st.builds(
    lambda x, fmt: fmt(x),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(FORMATS),
)
tokens = st.one_of(formatted, st.sampled_from(LITERALS))


@st.composite
def bodies(draw):
    """(text after a two-line header, token count)."""
    values = draw(st.lists(tokens, min_size=1, max_size=30))
    bad = draw(st.none() | st.tuples(st.integers(0, len(values)), st.sampled_from(BAD_TOKENS)))
    if bad is not None:
        values.insert(*bad)
    n = len(values) + 1
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=n, max_size=n))
    text = seps[0] + "".join(v + s for v, s in zip(values, seps[1:]))
    return text, len(values)


def outcome(collect, lines, expected):
    try:
        values = collect(lines, 3, expected, "tensor entries")
    except ParseError as exc:
        return "error", exc.line, str(exc)
    return "values", values.dtype.str, values.shape, values.tobytes()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(bodies(), st.sampled_from([-1, 0, 0, 0, 1, None]))
@example(("1 2 3 1#2\n", 4), 0)
@example(("1 2 1_0", 3), 0)
@example(("\t1\x0c2\r3\u20284", 4), 0)
def test_fast_path_matches_exact_scanner(body, delta):
    text, count = body
    lines = ("2\n1 1\n" + text).splitlines()
    expected = None if delta is None else count + delta
    fast = outcome(io._collect_values, lines, expected)
    exact = outcome(io._scan_values, lines, expected)
    assert fast == exact


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_written_tensor_reads_back_exactly(values):
    t = Tensor.from_flat((len(values),), values)
    back = io.parse_tensor_text(io.format_tensor_text(t))
    assert back.array.tobytes() == np.asarray(values, dtype=np.float64).tobytes()
