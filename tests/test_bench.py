from itertools import permutations

import numpy as np
import pytest

from rank1tensor import InvalidInputError
from rank1tensor.bench import CSV_HEADER, DatasetSpec, generate, run_bench
from rank1tensor.solvers import SolverConfig, solve


class TestDatasetSpec:
    def test_kind_validated(self):
        with pytest.raises(InvalidInputError):
            DatasetSpec(kind="gaussian", dims=(4, 4, 4))

    def test_bits_validated(self):
        with pytest.raises(InvalidInputError):
            DatasetSpec(kind="random_uniform", dims=(4, 4, 4), bits=12)

    def test_symmetric_needs_cube(self):
        with pytest.raises(InvalidInputError):
            DatasetSpec(kind="symmetric_random", dims=(4, 4, 2))


class TestGenerate:
    def test_uniform_range_and_integrality(self):
        t = generate(DatasetSpec(kind="random_uniform", dims=(6, 6, 6), seed=0))
        assert t.data.min() >= 0.0
        assert t.data.max() <= 255.0
        assert np.all(t.data == np.floor(t.data))

    def test_sixteen_bit_range(self):
        t = generate(
            DatasetSpec(kind="random_uniform", dims=(8, 8, 8), seed=1, bits=16)
        )
        assert t.data.max() > 255.0  # extremely likely with 512 draws
        assert t.data.max() <= 65535.0

    def test_symmetric_is_exactly_symmetric(self):
        t = generate(DatasetSpec(kind="symmetric_random", dims=(3, 3, 3), seed=2))
        for perm in permutations(range(3)):
            assert np.array_equal(t.array, t.array.transpose(perm))

    def test_deterministic_per_seed(self):
        spec = DatasetSpec(kind="random_uniform", dims=(4, 4, 4), seed=3)
        assert np.array_equal(generate(spec).array, generate(spec).array)
        other = generate(spec, seed=99)
        assert not np.array_equal(generate(spec).array, other.array)

    def test_smooth_blob_quantized(self):
        t = generate(DatasetSpec(kind="smooth_blob", dims=(8, 8, 8), seed=4))
        assert np.all(t.data == np.floor(t.data))
        assert t.data.min() >= 0.0
        assert t.data.max() <= 255.0


class TestVolumeFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        for bits in (8, 16):
            src = generate(
                DatasetSpec(kind="random_uniform", dims=(4, 3, 2), seed=5, bits=bits)
            )
            path = tmp_path / f"vol{bits}.raw"
            src.array.astype("<u1" if bits == 8 else "<u2").tofile(path)
            back = generate(
                DatasetSpec(
                    kind="volume_file", dims=(4, 3, 2), bits=bits, path=str(path)
                )
            )
            assert np.array_equal(src.array, back.array)

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.raw"
        path.write_bytes(b"\x01" * 10)
        spec = DatasetSpec(kind="volume_file", dims=(4, 4, 4), bits=8, path=str(path))
        with pytest.raises(InvalidInputError):
            generate(spec)


def strip_timing(csv_text):
    lines = csv_text.strip().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestRunBench:
    def test_row_and_line_counts(self):
        spec = DatasetSpec(kind="random_uniform", dims=(4, 4, 4), seed=0)
        rows, csv_text = run_bench([spec], ["als", "mals"], runs=10)
        assert len(rows) == 2
        lines = csv_text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 20

    def test_planted_rank_one_recovered_exactly(self, tmp_path):
        arr = np.zeros((4, 4, 4))
        arr[0, 1, 0] = 7.0
        path = tmp_path / "plant.raw"
        arr.astype("<u1").tofile(path)
        spec = DatasetSpec(kind="volume_file", dims=(4, 4, 4), bits=8, path=str(path))
        rows, _ = run_bench([spec], ["als", "asvd", "mals", "masvd"], runs=3)
        for row in rows:
            assert row.rel_error_mean <= 1e-8
            assert row.lambda_mean == pytest.approx(7.0, rel=1e-12)

    def test_csv_deterministic_modulo_timing(self):
        spec = DatasetSpec(kind="symmetric_random", dims=(4, 4, 4), seed=1)
        _, first = run_bench([spec], ["als", "asvd"], runs=4)
        _, second = run_bench([spec], ["als", "asvd"], runs=4)
        assert strip_timing(first) == strip_timing(second)

    def test_out_csv_written(self, tmp_path):
        spec = DatasetSpec(kind="random_uniform", dims=(4, 4, 4), seed=3)
        out = tmp_path / "bench.csv"
        _, csv_text = run_bench([spec], ["als"], runs=2, out_csv=str(out))
        assert out.read_text(encoding="ascii") == csv_text

    def test_solver_errors_recorded_not_raised(self, tmp_path):
        # an all-zero volume cannot be decomposed; the row reports the error
        path = tmp_path / "zero.raw"
        np.zeros((2, 2, 2)).astype("<u1").tofile(path)
        spec = DatasetSpec(kind="volume_file", dims=(2, 2, 2), bits=8, path=str(path))
        rows, csv_text = run_bench([spec], ["als"], runs=2)
        assert len(csv_text.strip().splitlines()) == 3
        for record in rows[0].records:
            assert record.converged_by == "error:DegenerateInputError"
            assert np.isnan(record.lambda_)


def test_methods_agree_on_small_tensors():
    # all four methods reach the same stationary value on small inputs
    agree = 0
    seeds = range(20)
    for seed in seeds:
        spec = DatasetSpec(kind="random_uniform", dims=(16, 16, 16), seed=seed)
        t = generate(spec)
        lambdas = []
        for method in ("als", "asvd", "mals", "masvd"):
            cfg = SolverConfig(method=method, seed=(seed, 1))
            lambdas.append(solve(t, cfg).lambda_)
        spread = max(lambdas) - min(lambdas)
        agree += spread <= 2.0 * 1e-4 * t.norm()
    assert agree >= 0.8 * len(seeds)
