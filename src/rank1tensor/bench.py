"""Benchmark harness: dataset generation, repeated seeded solves, timing and
quality tables, CSV output.

Every dataset is synthetic, with 8-bit integer samples, and is regenerated
per run (with a per-run seed derived from the spec seed and the run index);
each run also gets a fresh random start. Rows are therefore reproducible
bit for bit except for the wall-clock column.
"""

import math
import time
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .core import Tensor, as_dims
from .errors import InvalidInputError, Rank1Error
from .solvers import SolverConfig, solve

KINDS = ("random_uniform", "symmetric_random", "smooth_blob")
#: sample depth of the generated datasets: values are 0 .. 2^BITS - 1
BITS = 8

CSV_HEADER = (
    "method,dataset,dims,run,seed,iterations,opt_calls,lambda,"
    "rel_error,fit,converged_by,wall_seconds"
)


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    dims: tuple
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", as_dims(self.dims))
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "symmetric_random" and len(set(self.dims)) != 1:
            raise InvalidInputError("symmetric_random needs cubical dims")

    @property
    def dims_label(self):
        return "x".join(str(m) for m in self.dims)


def generate(spec, seed=None):
    """Materialize a dataset spec as a Tensor; ``seed`` overrides the spec
    seed (used by the harness to redraw data per run)."""
    if seed is None:
        seed = spec.seed
    rng = np.random.default_rng(seed)
    high = 2**BITS  # exclusive

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

    # smooth_blob: a correlated stand-in for real volume data, a few random
    # bumps quantized to BITS bits
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
    data = generate(spec, seed=(run_seed, 0))
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


def check_run(specs, methods, runs):
    """Raise :class:`InvalidInputError` unless runs >= 1 and there are specs and known methods."""
    if runs < 1:
        raise InvalidInputError("runs must be >= 1")
    if not specs or not methods:
        raise InvalidInputError("need at least one dataset spec and one method")
    for method in methods:
        SolverConfig(method=method)


def run_bench(specs, methods, runs=10):
    """Execute ``runs`` seeded solves per (spec, method) and aggregate.

    Returns (rows, csv_text); the run is checked first (:func:`check_run`).
    Per-run errors are recorded in their row, not raised.
    """
    check_run(specs, methods, runs)

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
    return rows, "\n".join(csv_lines) + "\n"
