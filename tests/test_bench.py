from itertools import permutations

import numpy as np
import pytest

from rank1tensor import InvalidInputError, Tensor, bench
from rank1tensor.bench import CSV_HEADER, DatasetSpec, generate, run_bench
from rank1tensor.solvers import SolverConfig, solve


class TestDatasetSpec:
    def test_kind_validated(self):
        # raw volume files are no longer a kind
        for kind in ("gaussian", "volume_file"):
            with pytest.raises(InvalidInputError, match="unknown dataset kind"):
                DatasetSpec(kind=kind, dims=(4, 4, 4))

    def test_symmetric_needs_cube(self):
        with pytest.raises(InvalidInputError):
            DatasetSpec(kind="symmetric_random", dims=(4, 4, 2))


class TestGenerate:
    def test_uniform_range_and_integrality(self):
        t = generate(DatasetSpec(kind="random_uniform", dims=(6, 6, 6), seed=0))
        assert t.data.min() >= 0.0
        assert t.data.max() <= 255.0
        assert np.all(t.data == np.floor(t.data))

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

    def test_planted_rank_one_recovered_exactly(self, monkeypatch):
        arr = np.zeros((4, 4, 4))
        arr[0, 1, 0] = 7.0
        monkeypatch.setattr(bench, "generate", lambda spec, seed=None: Tensor(arr))
        spec = DatasetSpec(kind="random_uniform", dims=(4, 4, 4))
        rows, _ = run_bench([spec], ["als", "asvd", "mals", "masvd"], runs=3)
        for row in rows:
            assert row.rel_error_mean <= 1e-8
            assert row.lambda_mean == pytest.approx(7.0, rel=1e-12)

    def test_csv_deterministic_modulo_timing(self):
        spec = DatasetSpec(kind="symmetric_random", dims=(4, 4, 4), seed=1)
        _, first = run_bench([spec], ["als", "asvd"], runs=4)
        _, second = run_bench([spec], ["als", "asvd"], runs=4)
        assert strip_timing(first) == strip_timing(second)

    @pytest.mark.parametrize("methods,runs", [(["als", "foo"], 2), (["als"], 0), ([], 2)])
    def test_bad_run_refused_before_any_solve(self, methods, runs, monkeypatch):
        spec = DatasetSpec(kind="random_uniform", dims=(2, 2, 2))
        monkeypatch.setattr(bench, "_one_run", lambda *args: pytest.fail("a solve ran"))
        with pytest.raises(InvalidInputError):
            run_bench([spec], methods, runs=runs)

    def test_solver_errors_recorded_not_raised(self, monkeypatch):
        # an all-zero tensor cannot be decomposed; the row reports the error
        zero = lambda spec, seed=None: Tensor(np.zeros((2, 2, 2)))
        monkeypatch.setattr(bench, "generate", zero)
        spec = DatasetSpec(kind="random_uniform", dims=(2, 2, 2))
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
