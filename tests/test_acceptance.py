"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them). Criteria 1-4 share their solves through one module-scoped fixture
(criterion 4 checks the traces of criteria 1-3's solves), and criteria 6
and 7 through another, so each criterion runs alone and in any order.
"""

import time

import numpy as np
import pytest

import rank1tensor.cli as cli
from rank1tensor import Tensor, UnitTuple, f_value, residual_norm
from rank1tensor.ami import analyze
from rank1tensor.bench import CSV_HEADER, DatasetSpec, generate
from rank1tensor.kernels import contract_all_but_one, contract_all_but_two
from rank1tensor.diagnostics import (
    check_semi_max,
    criticality,
    fixed_point_from_tuple,
    fixed_point_residual,
    jacobian_check_origin,
    tuple_from_fixed_point,
)
from rank1tensor.linalg import top_singular_triple
from rank1tensor.solvers import SolverConfig, solve

import oracles
from ami_instances import instance_stream
from conftest import planted_rank1, random_tensor, tuple_matches

METHODS = ("als", "asvd", "mals", "masvd")

#: the semi-maximality level each modified method promises (criterion 6)
SEMI_MAX_LEVEL = {"mals": 1, "masvd": 2}

def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num:02d}] {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def early_solves():
    """The solves of criteria 1-3, whose traces criterion 4 checks.

    Keys: ``recovery``, a list of (shape, scale, method, seed, axes, result)
    for planted rank-one tensors, with ``recovery_seconds`` their summed
    solve time; ``matrix``, a list of (matrix, result); ``cubes``, a list of
    (tensor, [result per start]) for Gaussian 2x2x2 tensors; ``traces``, a
    list of (|T|, trace) over all of them.
    """
    recovery, matrix, cubes, traces = [], [], [], []
    elapsed = 0.0
    case = 0
    for shape in [(2, 2, 2), (3, 4, 5), (8, 8, 8)]:
        for scale in [1.0, 7.0, 1e-3]:
            t, axes = planted_rank1(shape, scale, seed=case)
            case += 1
            for method in METHODS:
                for seed in range(10):
                    started = time.perf_counter()
                    result = solve(t, SolverConfig(method=method, seed=seed))
                    elapsed += time.perf_counter() - started
                    traces.append((t.norm(), result.trace))
                    recovery.append((shape, scale, method, seed, axes, result))
    for k, shape in enumerate([(5, 5)] * 10 + [(10, 7)] * 10):
        a = np.random.default_rng(2000 + k).standard_normal(shape)
        result = solve(
            Tensor(a),
            SolverConfig(
                method="als", seed=k, max_iterations=50_000, fitchange_tol=1e-15
            ),
        )
        traces.append((float(np.linalg.norm(a)), result.trace))
        matrix.append((a, result))
    for k in range(10):
        t = random_tensor((2, 2, 2), 3000 + k)
        results = []
        for seed in range(20):
            result = solve(
                t,
                SolverConfig(
                    method="als", seed=seed, max_iterations=300, fitchange_tol=1e-13
                ),
            )
            traces.append((t.norm(), result.trace))
            results.append(result)
        cubes.append((t, results))
    return {
        "recovery": recovery,
        "recovery_seconds": elapsed,
        "matrix": matrix,
        "cubes": cubes,
        "traces": traces,
    }


def test_criterion_01_exact_rank_one_recovery(early_solves):
    failures = []
    for shape, scale, method, seed, axes, result in early_solves["recovery"]:
        if abs(result.lambda_ - scale) > 1e-8 * scale:
            failures.append((shape, scale, method, seed, "lambda"))
        if not tuple_matches(result.axes, axes, 1e-6):
            failures.append((shape, scale, method, seed, "axes"))
    elapsed = early_solves["recovery_seconds"]
    ok = not failures and elapsed < 1.0
    _report(1, "exact rank-one recovery", ok, f"360 solves in {elapsed:.3f}s")
    assert not failures, failures[:5]
    assert elapsed < 1.0


def test_criterion_02_matrix_baseline_matches_svd(early_solves):
    worst = 0.0
    for a, result in early_solves["matrix"]:
        sigma = oracles.top_sigma(a)
        worst = max(worst, abs(result.lambda_ - sigma) / sigma)
    ok = worst <= 1e-8
    _report(2, "matrix baseline vs full SVD", ok, f"worst rel err {worst:.2e}")
    assert ok


def test_criterion_03_global_optimum_oracle_small_cubes(early_solves):
    worst = 0.0
    for t, results in early_solves["cubes"]:
        oracle = oracles.grid_max_2x2x2(t.array)
        best = max(result.lambda_ for result in results)
        worst = max(worst, abs(best - oracle))
    ok = worst <= 1e-4
    _report(3, "global optimum vs angular grid search", ok, f"worst gap {worst:.2e}")
    assert ok


def test_criterion_04_monotone_bounded_traces(early_solves):
    traces = early_solves["traces"]
    violations = 0
    for norm, trace in traces:
        values = list(trace.f_sequence())
        slack = 1e-12 * norm
        if any(b < a - slack for a, b in zip(values, values[1:])):
            violations += 1
        if max(values) > norm * (1.0 + 1e-12):
            violations += 1
    ok = violations == 0
    _report(4, "monotone and bounded objective traces", ok, f"{len(traces)} traces")
    assert ok


def test_criterion_05_pair_step_dominance():
    rng = np.random.default_rng(77)
    violations = 0
    for _ in range(200):
        dims = tuple(int(x) for x in rng.integers(2, 7, size=3))
        t = Tensor(rng.standard_normal(dims))
        u = UnitTuple([rng.standard_normal(m) for m in dims], normalize=True)
        i, j = sorted(int(x) for x in rng.choice(3, size=2, replace=False))
        a_i = float(np.linalg.norm(contract_all_but_one(t.array, u.vectors, i)))
        a_j = float(np.linalg.norm(contract_all_but_one(t.array, u.vectors, j)))
        b_ij = top_singular_triple(
            contract_all_but_two(t.array, u.vectors, i, j), mode="dense"
        ).sigma
        if b_ij < max(a_i, a_j) - 1e-12:
            violations += 1
    ok = violations == 0
    _report(5, "pair update dominates single-mode updates", ok, "200 instances")
    assert ok


@pytest.fixture(scope="module")
def semi_runs():
    """The runs of criterion 6, shared with criterion 7: mals and masvd from
    seed s on a Gaussian 4x4x4 tensor drawn with seed 1000 + s, s < 20,
    each stopped at a fit change below 1e-12, as a list of (method, seed,
    tensor, result)."""
    runs = []
    for s in range(20):
        t = random_tensor((4, 4, 4), 1000 + s)
        for method in SEMI_MAX_LEVEL:
            result = solve(
                t,
                SolverConfig(
                    method=method, seed=s, max_iterations=500, fitchange_tol=1e-12
                ),
            )
            runs.append((method, s, t, result))
    return runs


def test_criterion_06_semi_maximality_of_modified_methods(semi_runs):
    passes = {"mals": 0, "masvd": 0}
    failures = []
    worst_stationarity = 0.0
    for method, s, t, result in semi_runs:
        level = SEMI_MAX_LEVEL[method]
        report = check_semi_max(t, result.axes, level=level, tol=1e-6)
        if report.passed:
            passes[method] += 1
        else:
            failures.append((method, s, report.worst_margin()))
        worst_stationarity = max(
            worst_stationarity,
            criticality(t, result.axes).max_residual / t.norm(),
        )
    for method, s, margin in failures:
        print(f"  semi-max miss: {method} seed {s} worst margin {margin:.3e}")
    # the stop rule bounds the fit change, not stationarity; reported only
    print(
        f"  stationarity residual of converged runs: worst {worst_stationarity:.2e}"
        " of |T| (reported, not asserted)"
    )
    ok = passes["mals"] >= 19 and passes["masvd"] >= 19
    _report(
        6,
        "modified methods reach semi-maximal points",
        ok,
        f"mals {passes['mals']}/20, masvd {passes['masvd']}/20",
    )
    assert ok


def test_criterion_07_fixed_point_round_trip(semi_runs):
    # The tuples come from criterion 6's runs at a fit change of 1e-12. A
    # fit-change stop alone localizes a tuple only to about sqrt(1e-12) =
    # 1e-6 (f is flat to second order at a maximum), which left
    # |F(v) - v| / |v| near 6e-7. A solve at a fit change below 1e-6 also
    # runs its Newton finish, after a sweep whose fit change is below 1e-4
    # (solvers.NEWTON_FIT_CHANGE) or before its fit-change stop, and the
    # finish stops only once the stationarity residual is certified at or
    # below 1e-12^(3/4) |T| = 1e-9 |T|. Since
    # |F(v) - v| / |v| = |e| / (lambda sqrt(d)), with e the stacked
    # stationarity residuals (see test_diagnostics.py), that certificate is
    # what brings the round trip below the 1e-8 bound demanded here.
    worst_residual = 0.0
    worst_axes = 0.0
    worst_lambda = 0.0
    for _, _, t, result in semi_runs:
        x, lam = result.axes, result.lambda_
        v = fixed_point_from_tuple(x, lam)
        vnorm = float(np.sqrt(sum(float(np.dot(c, c)) for c in v)))
        worst_residual = max(worst_residual, fixed_point_residual(t, v) / vnorm)
        back, recovered = tuple_from_fixed_point(v)
        worst_axes = max(
            worst_axes,
            max(float(np.linalg.norm(a - b)) for a, b in zip(back.vectors, x.vectors)),
        )
        worst_lambda = max(worst_lambda, abs(recovered - lam) / max(lam, 1.0))

    ok = worst_residual <= 1e-8 and worst_axes <= 1e-9 and worst_lambda <= 1e-9
    _report(
        7,
        "fixed-point round trip on criterion-6 tuples",
        ok,
        f"worst residual {worst_residual:.2e}, axes recovery {worst_axes:.2e}, "
        f"lambda recovery {worst_lambda:.2e}",
    )
    assert worst_axes <= 1e-9
    assert worst_lambda <= 1e-9
    assert worst_residual <= 1e-8, (
        f"round-trip residual {worst_residual:.3e} exceeds 1e-8: the stop rule "
        "fixed at 1e-12 fit change cannot localize the tuple to 1e-8"
    )


def test_criterion_08_jacobian_identity_at_origin():
    worst = 0.0
    ratio_ok = True
    for k, shape in enumerate([(2, 2, 2)] * 5 + [(3, 3, 3)] * 5):
        t = random_tensor(shape, 4000 + k)
        dev = jacobian_check_origin(t, 1e-3)
        dev_half = jacobian_check_origin(t, 5e-4)
        worst = max(worst, dev / t.norm())
        if dev_half > dev / 3.0:
            ratio_ok = False
    ok = worst <= 1e-5 and ratio_ok
    _report(
        8,
        "difference Jacobian at the origin is the identity",
        ok,
        f"worst relative deviation {worst:.2e}",
    )
    assert ok


def test_criterion_09_spectrum_counts_match_inertia():
    started = time.perf_counter()
    stream = instance_stream(9)
    checked = 0
    indefinite = 0
    singular = 0
    for form, kind, null in stream:
        assert form.order <= 12
        report = analyze(form)
        assert report.alpha + report.beta + report.gamma == form.order
        assert (report.alpha, report.beta, report.gamma) == tuple(report.inertia)
        assert report.inertia.positive >= max(form.block_sizes)
        assert report.ostrowski
        assert report.unit_circle_near_one
        indefinite += report.inertia.negative > 0
        singular += report.inertia.zero > 0
        checked += 1
        if checked == 100:
            break
    elapsed = time.perf_counter() - started
    ok = checked == 100 and elapsed < 10.0
    _report(
        9,
        "block Gauss-Seidel counts equal the inertia",
        ok,
        f"100 instances ({indefinite} indefinite, {singular} singular) in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_10_pythagoras_identity():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        dims = tuple(int(x) for x in rng.integers(2, 6, size=d))
        t = Tensor(rng.standard_normal(dims))
        u = UnitTuple([rng.standard_normal(m) for m in dims], normalize=True)
        f = f_value(t, u)
        r = residual_norm(t, u)
        worst = max(worst, abs(f * f + r * r - t.norm() ** 2) / t.norm() ** 2)
    ok = worst <= 1e-10
    _report(10, "projection split of the squared norm", ok, f"worst {worst:.2e}")
    assert ok


def test_criterion_11_symmetric_inputs_give_symmetric_axes():
    def asymmetry(axes):
        x, y, z = axes.vectors
        dxy = min(np.linalg.norm(x - y), np.linalg.norm(x + y))
        dxz = min(np.linalg.norm(x - z), np.linalg.norm(x + z))
        return max(dxy, dxz)

    rates = {}
    means = {}
    for method in METHODS:
        hits = 0
        values = []
        for s in range(20):
            t = generate(DatasetSpec(kind="symmetric_random", dims=(5, 5, 5), seed=s))
            result = solve(
                t,
                SolverConfig(
                    method=method, seed=(s, 1), max_iterations=500, fitchange_tol=1e-12
                ),
            )
            a = asymmetry(result.axes)
            values.append(a)
            hits += bool(a <= 1e-3)
        rates[method] = hits
        means[method] = float(np.mean(values))
    pair_note = (
        "mean asymmetry als/mals "
        f"{means['als']:.1e}/{means['mals']:.1e} vs asvd/masvd "
        f"{means['asvd']:.1e}/{means['masvd']:.1e}"
    )
    ok = all(rates[m] >= 18 for m in METHODS)
    _report(
        11,
        "symmetric tensors get symmetric rank-one axes",
        ok,
        f"rates {rates}; {pair_note}",
    )
    # whether the pair-update methods are more symmetric is reported, not asserted
    assert ok


def test_criterion_12_bench_determinism_and_header(tmp_path, capsys):
    args = lambda out: [
        "bench",
        "--sizes",
        "4,8",
        "--datasets",
        "random_uniform,symmetric_random",
        "--methods",
        "als,masvd",
        "--runs",
        "3",
        "--seed",
        "11",
        "--out",
        out,
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args(str(a))) == 0
    assert cli.main(args(str(b))) == 0
    capsys.readouterr()
    text_a = a.read_text(encoding="ascii")
    text_b = b.read_text(encoding="ascii")
    strip = lambda text: [
        ",".join(line.split(",")[:-1]) for line in text.strip().splitlines()
    ]
    header_ok = text_a.splitlines()[0] == CSV_HEADER
    body_ok = strip(text_a) == strip(text_b)
    ok = header_ok and body_ok
    with capsys.disabled():
        _report(12, "benchmark CSV is deterministic", ok, f"{len(strip(text_a)) - 1} rows")
    assert ok


def test_soft_expectation_mals_needs_more_calls_than_als():
    # cost ordering observed on random data; tolerant to seed variance
    spec = DatasetSpec(kind="random_uniform", dims=(16, 16, 16), seed=21)
    calls = {}
    for method in ("als", "mals"):
        totals = []
        for r in range(10):
            t = generate(spec, seed=(spec.seed + r, 0))
            result = solve(t, SolverConfig(method=method, seed=(spec.seed + r, 1)))
            totals.append(result.optimization_calls)
        calls[method] = float(np.mean(totals))
    ok = calls["mals"] > calls["als"]
    print(
        f"\n[soft check] optimization-call ordering: "
        f"{'PASS' if ok else 'FAIL'} (mals {calls['mals']:.1f} > als {calls['als']:.1f})"
    )
    assert ok
