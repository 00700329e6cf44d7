import warnings

import numpy as np
import pytest

from rank1tensor import DimensionError, ParseError, Tensor, io

from conftest import planted_rank1, random_tensor, random_tuple


class TestTensorText:
    def test_round_trip(self, tmp_path):
        t = random_tensor((3, 4, 2), 0)
        path = tmp_path / "t.txt"
        io.write_tensor_text(t, path)
        back = io.read_tensor_text(path)
        assert back.dims == t.dims
        assert np.array_equal(back.array, t.array)

    def test_values_split_across_lines(self):
        t = io.parse_tensor_text("2\n2 2\n1 2\n3\n4\n")
        assert t.array.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_missing_header(self):
        with pytest.raises(ParseError) as exc:
            io.parse_tensor_text("")
        assert exc.value.line == 1

    def test_bad_dims_line_number(self):
        with pytest.raises(ParseError) as exc:
            io.parse_tensor_text("3\n2 x 2\n1 2 3 4 5 6 7 8\n")
        assert exc.value.line == 2

    def test_too_few_values(self):
        with pytest.raises(ParseError) as exc:
            io.parse_tensor_text("2\n2 2\n1 2 3\n")
        assert "expected 4" in str(exc.value)

    def test_too_many_values(self):
        with pytest.raises(ParseError) as exc:
            io.parse_tensor_text("2\n2 2\n1 2 3 4\n5\n")
        assert exc.value.line == 4

    def test_non_numeric_entry_line_number(self):
        with pytest.raises(ParseError) as exc:
            io.parse_tensor_text("2\n2 2\n1 2\nbad 4\n")
        assert exc.value.line == 4

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "Infinity", "NaN"])
    def test_non_finite_entry_line_number(self, token):
        with pytest.raises(ParseError, match="non-finite") as exc:
            io.parse_tensor_text(f"2\n2 2\n1 2\n3\n{token}\n")
        assert exc.value.line == 5


class TestTupleText:
    def test_round_trip(self, tmp_path):
        u = random_tuple((3, 5, 2), 1)
        path = tmp_path / "u.txt"
        io.write_tuple_text(u, path)
        back, adjusted = io.read_tuple_text(path)
        assert not adjusted
        assert all(np.allclose(a, b, atol=1e-15) for a, b in zip(back, u))

    def test_normalization_reported(self):
        back, adjusted = io.parse_tuple_text("2\n2 2\n2 0\n0 1\n")
        assert adjusted
        assert np.allclose(back[0], [1.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ParseError) as exc:
            io.parse_tuple_text("2\n2 2\n0 0\n0 1\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("scale", [1e-170, 3e-160, 1e200])
    def test_extreme_finite_scale(self, scale):
        # |v|^2 underflows or overflows; the tuple parses to the unscaled
        # one, without a NumPy warning
        u = random_tuple((3, 5, 2), 2)
        head = io.format_tuple_text(u).splitlines()[:2]
        rows = [" ".join(f"{scale * x:.17g}" for x in v) for v in u.vectors]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back, adjusted = io.parse_tuple_text("\n".join(head + rows) + "\n")
        assert adjusted
        assert all(np.allclose(a, b, rtol=0.0, atol=1e-15) for a, b in zip(back, u))

    def test_ordinary_scale_divides_by_the_norm(self):
        rng = np.random.default_rng(3)
        vectors = [3.0 * rng.standard_normal(m) for m in (4, 3)]
        rows = [" ".join(f"{x:.17g}" for x in v) for v in vectors]
        back, adjusted = io.parse_tuple_text("2\n4 3\n" + "\n".join(rows) + "\n")
        assert adjusted
        for a, v in zip(back, vectors):
            assert a.tobytes() == (v / np.linalg.norm(v)).tobytes()

    def test_non_finite_entry_line_number(self):
        with pytest.raises(ParseError, match="non-finite") as exc:
            io.parse_tuple_text("2\n2 2\n1 0\n0 inf\n")
        assert exc.value.line == 4

    def test_wrong_vector_length(self):
        with pytest.raises(ParseError) as exc:
            io.parse_tuple_text("2\n2 3\n1 0\n1 0\n")
        assert exc.value.line == 4


class TestBlockMatrixText:
    def test_parse(self):
        h, sizes = io.parse_block_matrix_text("3\n1 2\n1 0 0\n0 2 0\n0 0 3\n")
        assert sizes == (1, 2)
        assert np.array_equal(h, np.diag([1.0, 2.0, 3.0]))

    def test_partition_must_sum(self):
        with pytest.raises(ParseError) as exc:
            io.parse_block_matrix_text("3\n1 1\n1 0 0\n0 2 0\n0 0 3\n")
        assert exc.value.line == 2

    def test_vector_file(self):
        v = io.parse_vector_text("1.5 2\n-3\n")
        assert v.tolist() == [1.5, 2.0, -3.0]
        with pytest.raises(ParseError):
            io.parse_vector_text("\n\n")


class TestEntryCount:
    """The entry count is a Python integer, so huge headers do not wrap."""

    def test_count_past_two_to_the_64(self):
        with pytest.raises(ParseError) as exc:
            io.parse_tensor_text("3\n4294967296 4294967296 1\n1 2 3\n")
        assert exc.value.line == 3
        assert "expected 18446744073709551616 tensor entries, got 3" in str(exc.value)

    def test_count_past_int64(self):
        with pytest.raises(ParseError) as exc:
            io.parse_tensor_text("2\n10000000000 10000000000\n1 2\n")
        assert "expected 100000000000000000000 tensor entries, got 2" in str(exc.value)

    def test_from_flat_count_past_two_to_the_64(self):
        with pytest.raises(DimensionError, match="0 values cannot fill"):
            Tensor.from_flat((2**32, 2**32, 1), [])


READERS = {
    "tensor": (io.read_tensor_text, b"2\n2 2\n1 2\n3 4\n"),
    "tuple": (io.read_tuple_text, b"2\n2 2\n1 0\n0 1\n"),
    "block matrix": (io.read_block_matrix_text, b"2\n1 1\n1 0\n0 1\n"),
    "vector": (io.read_vector_text, b"1 2\n3\n4\n"),
}


class TestFileBytes:
    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("line", [1, 2, 4])
    @pytest.mark.parametrize("at_start", [False, True])
    def test_non_ascii_byte_names_its_line(self, tmp_path, reader, line, at_start):
        read, data = READERS[reader]
        rows = data.split(b"\n")
        bad = b"\xc3\xa9"
        rows[line - 1] = bad + rows[line - 1] if at_start else rows[line - 1] + bad
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\n".join(rows))
        with pytest.raises(ParseError) as exc:
            read(path)
        assert exc.value.line == line
        assert "byte 0xc3 is not ASCII" in str(exc.value)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_non_ascii_line_counts_crlf_and_cr(self, tmp_path, newline):
        path = tmp_path / "bad.txt"
        path.write_bytes(newline.join([b"2", b"2 2", b"1 2", b"3 \xff"]))
        with pytest.raises(ParseError) as exc:
            io.read_tensor_text(path)
        assert exc.value.line == 4

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_crlf_and_cr_files_parse(self, tmp_path, newline):
        path = tmp_path / "t.txt"
        path.write_bytes(newline.join([b"2", b"2 2", b"1 2", b"3 4", b""]))
        assert io.read_tensor_text(path).array.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_directory_is_os_error(self, tmp_path, reader):
        with pytest.raises(OSError):
            READERS[reader][0](tmp_path)


class TestFastPath:
    """The C reader's result is used when it is accepted; otherwise the exact
    scanner runs and decides."""

    @pytest.fixture
    def scanner_calls(self, monkeypatch):
        calls = []
        scan = io._scan_values

        def spy(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(io, "_scan_values", spy)
        return calls

    def test_clean_file_skips_the_scanner(self, scanner_calls):
        t = random_tensor((4, 3, 5), 2)
        back = io.parse_tensor_text(io.format_tensor_text(t))
        assert np.array_equal(back.array, t.array)
        h, _ = io.parse_block_matrix_text("2\n1 1\n1 0.5\n0.5 1\n")
        v = io.parse_vector_text("1.5\t2\n-3\n")
        u, _ = io.parse_tuple_text("2\n2 3\n1 0\n0 1 0\n")
        assert h.tolist() == [[1.0, 0.5], [0.5, 1.0]]
        assert v.tolist() == [1.5, 2.0, -3.0]
        assert u.dims == (2, 3)
        assert scanner_calls == []

    @pytest.mark.parametrize(
        "token, value",
        [("1_0", 10.0), ("１", 1.0), ("0x10", None), ("nan", None),
         ("NaN(1)", None), ("1e400", None), ("1,5", None), ("--1", None)],
    )
    def test_refused_token_reruns_the_scanner(self, scanner_calls, token, value):
        text = f"2\n2 2\n1 2\n3 {token}\n"
        if value is None:
            with pytest.raises(ParseError) as exc:
                io.parse_tensor_text(text)
            assert exc.value.line == 4
            assert repr(token) in str(exc.value)
        else:
            assert io.parse_tensor_text(text).array[1, 1] == value
        assert len(scanner_calls) == 1

    @pytest.mark.parametrize("body", ["1 2 3\n", "1 2 3 4 5\n"])
    def test_wrong_count_reruns_the_scanner(self, scanner_calls, body):
        with pytest.raises(ParseError):
            io.parse_tensor_text("2\n2 2\n" + body)
        assert len(scanner_calls) == 1
