import numpy as np
import pytest

from rank1tensor import ParseError, io

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
