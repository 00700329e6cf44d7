"""Benchmark harness: dataset generation, repeated seeded solves, timing and
quality tables, CSV output.

Synthetic data is regenerated per run (with a per-run seed derived from the
spec seed and the run index), volume files are read as-is; each run also
gets a fresh random start. Rows are therefore reproducible bit for bit
except for the wall-clock column.
"""

import math
import time
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .core import Tensor
from .errors import DimensionError, InvalidInputError, Rank1Error
from .solvers import SolverConfig, solve

KINDS = ("random_uniform", "symmetric_random", "volume_file", "smooth_blob")

CSV_HEADER = (
    "method,dataset,dims,run,seed,iterations,opt_calls,lambda,"
    "rel_error,fit,converged_by,wall_seconds"
)


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    dims: tuple
    seed: int = 0
    bits: int = 8
    path: str = None

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(m) for m in self.dims))
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown dataset kind {self.kind!r}")
        if self.bits not in (8, 16):
            raise InvalidInputError(f"unsupported bit depth {self.bits}")
        if any(m < 1 for m in self.dims) or not self.dims:
            raise DimensionError(f"invalid dims {self.dims}")
        if self.kind == "symmetric_random" and len(set(self.dims)) != 1:
            raise InvalidInputError("symmetric_random needs cubical dims")
        if self.kind == "volume_file" and not self.path:
            raise InvalidInputError("volume_file needs a path")

    @property
    def dims_label(self):
        return "x".join(str(m) for m in self.dims)


def generate(spec, seed=None):
    """Materialize a dataset spec as a Tensor; ``seed`` overrides the spec
    seed (used by the harness to redraw data per run)."""
    if seed is None:
        seed = spec.seed
    rng = np.random.default_rng(seed)
    high = 2**spec.bits  # exclusive; values are 0 .. 2^bits - 1

    if spec.kind == "random_uniform":
        values = rng.integers(0, high, size=spec.dims).astype(np.float64)
        return Tensor(values, copy=False)

    if spec.kind == "symmetric_random":
        draw = rng.integers(0, high, size=spec.dims).astype(np.float64)
        d = len(spec.dims)
        acc = np.zeros(spec.dims)
        for perm in permutations(range(d)):
            acc += draw.transpose(perm)
        # integer-valued summands make the average exactly permutation-invariant
        return Tensor(acc / float(math.factorial(d)), copy=False)

    if spec.kind == "smooth_blob":
        # correlated stand-in for real volume data: a few random bumps,
        # quantized to the requested bit depth
        grids = np.meshgrid(
            *[np.linspace(0.0, 1.0, m) for m in spec.dims], indexing="ij"
        )
        values = np.zeros(spec.dims)
        for _ in range(4):
            center = rng.uniform(0.2, 0.8, size=len(spec.dims))
            width = rng.uniform(0.1, 0.3)
            amplitude = rng.uniform(0.3, 1.0)
            dist2 = sum((g - c) ** 2 for g, c in zip(grids, center))
            values += amplitude * np.exp(-dist2 / (2.0 * width**2))
        peak = values.max()
        if peak > 0:
            values *= (high - 1) / peak
        return Tensor(np.floor(values), copy=False)

    # volume_file: raw little-endian unsigned integers, row-major
    dtype = "<u1" if spec.bits == 8 else "<u2"
    raw = np.fromfile(spec.path, dtype=dtype)
    expected = math.prod(spec.dims)
    if raw.size != expected:
        raise InvalidInputError(
            f"{spec.path}: {raw.size} samples do not fill dims {spec.dims} "
            f"({expected} expected)"
        )
    return Tensor(raw.astype(np.float64).reshape(spec.dims), copy=False)


@dataclass
class RunRecord:
    method: str
    dataset: str
    dims: str
    run: int
    seed: int
    iterations: int
    opt_calls: int
    lambda_: float
    rel_error: float
    fit: float
    converged_by: str
    wall_seconds: float

    def csv_line(self):
        return (
            f"{self.method},{self.dataset},{self.dims},{self.run},{self.seed},"
            f"{self.iterations},{self.opt_calls},{self.lambda_:.17g},"
            f"{self.rel_error:.17g},{self.fit:.17g},{self.converged_by},"
            f"{self.wall_seconds:.6f}"
        )


@dataclass
class BenchRow:
    method: str
    dataset: str
    dims: str
    runs: int
    wall_mean: float
    opt_calls_mean: float
    lambda_mean: float
    rel_error_mean: float
    records: list = field(repr=False, default_factory=list)


def _one_run(spec, method, run):
    run_seed = spec.seed + run
    data = generate(spec, seed=(run_seed, 0)) if spec.kind != "volume_file" else generate(spec)
    cfg = SolverConfig(method=method, seed=(run_seed, 1))
    started = time.perf_counter()
    try:
        result = solve(data, cfg)
    except Rank1Error as exc:
        result = exc
    elapsed = time.perf_counter() - started
    if isinstance(result, Rank1Error):
        nan = float("nan")
        outcome = (0, 0, nan, nan, nan, f"error:{type(result).__name__}")
    else:
        outcome = (
            result.iterations,
            result.optimization_calls,
            result.lambda_,
            result.residual / data.norm(),
            result.fit,
            result.converged_by,
        )
    return RunRecord(method, spec.kind, spec.dims_label, run, run_seed, *outcome, elapsed)


def run_bench(specs, methods, runs=10, out_csv=None):
    """Execute ``runs`` seeded solves per (spec, method) and aggregate.

    Returns (rows, csv_text); also writes the CSV when ``out_csv`` is given.
    Per-run errors are recorded in their row, not raised.
    """
    if runs < 1:
        raise InvalidInputError("runs must be >= 1")
    if not specs or not methods:
        raise InvalidInputError("need at least one dataset spec and one method")

    def nanmean(values):
        finite = [v for v in values if not np.isnan(v)]
        return float(np.mean(finite)) if finite else float("nan")

    rows = []
    csv_lines = [CSV_HEADER]
    for spec in specs:
        for method in methods:
            group = [_one_run(spec, method, r) for r in range(runs)]
            csv_lines.extend(rec.csv_line() for rec in group)
            rows.append(
                BenchRow(
                    method=method,
                    dataset=spec.kind,
                    dims=spec.dims_label,
                    runs=runs,
                    wall_mean=float(np.mean([rec.wall_seconds for rec in group])),
                    opt_calls_mean=float(np.mean([rec.opt_calls for rec in group])),
                    lambda_mean=nanmean([rec.lambda_ for rec in group]),
                    rel_error_mean=nanmean([rec.rel_error for rec in group]),
                    records=group,
                )
            )
    csv_text = "\n".join(csv_lines) + "\n"
    if out_csv:
        with open(out_csv, "w", encoding="ascii") as fh:
            fh.write(csv_text)
    return rows, csv_text
