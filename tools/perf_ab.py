"""Alternating A/B runs of perfbench between a parent revision and a change.

Run from anywhere inside the repository:

    python3 tools/perf_ab.py --parent REV --out BENCH_<n>.json \\
        --workload solve_small:801-810 --workload analysis:801-805 \\
        --trace solve_small:801

Both revisions (``--change`` defaults to HEAD) are written out with
``git archive`` into a temporary directory. For every seed of every
``--workload W:SEEDS`` (``801-810`` or ``801,803``), the command

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

runs once from each tree, with N the ``run_seconds`` of BENCHMARK.json. The
side that runs first alternates: the parent at even pair index, counting
pairs over the whole command in the order given. Each ``--trace W:S`` adds
one ``--trace 1`` run per side.

The output file holds every run (exit code, attempted, failed and metrics),
the machine metadata perfbench prints, and per workload and metric each
side's median and quartiles, the parent's interquartile range, the pairs the
change won (ties count for neither) and whether a gain may be claimed: at
least ten pairs, nine tenths of them won, and a median gain beyond the
parent's interquartile range. Next to ``peak_rss_mb`` it gives each side's
median ``attempted`` and the RSS change per 1,000 extra items (none when
the medians differ by fewer than SLOPE_MIN_ITEMS items), and prints that
line per workload, since perfbench's peak RSS grows with the items a run
completes. It is rewritten after every run, so an
interrupted command keeps what it measured. It also records the ratio of CPU time to wall time of BLAS matrix-vector
reductions at several sizes, under the BLAS thread count perfbench pins: a
ratio near 1 means BLAS ran on one thread.

Per side it also times the update-step layer, under the same thread count,
with the package of that side's tree: the best-of-N microseconds of one
asvd sweep, one masvd sweep, one step of the solver's Newton finish,
and a 10-sweep masvd solve from a fixed random
start, at 8^3 and 32^3 (``update_steps`` in the output). A lone sweep
starts with nothing to carry over; the solve shows what a masvd sweep
reuses from the one before it. The same rows time the kernel layer:
``contract_all_but_one`` on the first and the last mode and
``contract_all_but_two(1, 2)`` at 64^3, 128^3 and 32^4, and
``contract_partial`` of one and of two modes out of a kept intermediate at
128^3 and 32^4; and the large
steps: a lone mals sweep at 128^3 and 32^4, a lone asvd sweep at 32^4 and
``top_singular_triple`` of 64x64 and 128x128 pair matrices. Each row also
gives the CPU time over wall time of its best batch.
The sides take STEP_ROUNDS turns each, alternating which goes first, and
each keeps its best.

Per side it also counts, in that side's child, what the tol-1e-12 solves of
the tight cells perfbench times (32^3 asvd, 8^3 asvd, 8^3 masvd) do: the
median and mean sweeps, optimization calls, pair steps (calls of
``linalg.top_singular_triple``), calls of the solver's Newton
finish, rejected finish calls and accepted Newton steps, and the solves
that stopped on certified stationarity
(``tight_solves`` in the output). These counts do not depend on timing, so
they show the mechanism behind the noisy times; ``lambda_max_rel_diff``
compares the two sides' lambda solve by solve. Next to them,
``tensor_reads`` counts per method and shape the reductions that read the
whole tensor in each of three sweeps.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: result sizes, in entries, at which the BLAS thread probe times reductions
PROBE_SIZES = (2**12, 2**15, 2**17, 2**18, 2**19)
#: the reduced mode's length in the probe
PROBE_MODE = 32
PROBE_SECONDS = 0.3
#: shapes of the Gaussian tensors at which the update steps are timed
STEP_DIMS = ((8, 8, 8), (32, 32, 32))
#: the best of this many timed batches, each of at least STEP_SECONDS
STEP_REPEATS = 7
STEP_SECONDS = 0.05
#: alternating turns of the two sides' update-step timings
STEP_ROUNDS = 4
#: sweeps of the masvd solve timed at the update-step layer
SOLVE_SWEEPS = 10
#: (dims, method) of the tight cells, and the Gaussian tensors solved in each
TIGHT_CELLS = (((32, 32, 32), "asvd"), ((8, 8, 8), "asvd"), ((8, 8, 8), "masvd"))
TIGHT_SOLVES = 24
#: shapes of the Gaussian tensors at which the kernel layer is timed
KERNEL_DIMS = ((64, 64, 64), (128, 128, 128), (32, 32, 32, 32))
#: the kernel shapes at which contract_partial is also timed
PARTIAL_DIMS = ((128, 128, 128), (32, 32, 32, 32))
#: median item counts closer than this give no RSS slope
SLOPE_MIN_ITEMS = 100
#: (dims, step) of the large update-step rows: lone sweeps, and the pair
#: step's top_singular_triple on the (1, 2) pair matrix
LARGE_STEPS = (
    ((128, 128, 128), "mals_sweep"),
    ((32, 32, 32, 32), "mals_sweep"),
    ((32, 32, 32, 32), "asvd_sweep"),
    ((64, 64, 64), "top_singular_triple"),
    ((128, 128, 128), "top_singular_triple"),
)
#: (dims, methods) at which whole-tensor reads are counted, and the sweeps
READ_CELLS = (
    ((64, 64, 64), ("als", "asvd", "mals", "masvd")),
    ((32, 32, 32, 32), ("als", "asvd", "mals")),
    ((8, 8, 8, 8, 8), ("als", "asvd", "mals")),
)
READ_SWEEPS = 3


def parse_seeds(text):
    """``"801-805"`` or ``"801,803"`` -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_spec(text):
    """``"W:SEEDS"`` -> (workload, seeds)."""
    workload, sep, seeds = text.partition(":")
    if not sep or not workload:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, got {text!r}")
    try:
        return workload, parse_seeds(seeds)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seeds in {text!r}") from None


def parse_output(stdout):
    """The ``meta`` line and the final JSON report of one perfbench run;
    either is None when the run did not print it."""
    meta = report = None
    lines = stdout.strip().splitlines()
    for line in lines:
        if line.startswith("meta "):
            meta = json.loads(line[len("meta ") :])
            break
    if lines:
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return meta, report


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, better):
    """Per-metric comparison of the runs of one workload.

    ``runs`` are dicts with ``seed``, ``side`` ("parent" or "change") and
    ``metrics`` (name -> value); ``better`` maps each metric to "lower" or
    "higher". Only seeds run on both sides count as pairs.
    """
    by_side = {"parent": {}, "change": {}}
    attempted = {"parent": {}, "change": {}}
    for run in runs:
        if run.get("metrics"):
            by_side[run["side"]][run["seed"]] = run["metrics"]
            attempted[run["side"]][run["seed"]] = run.get("attempted")
    seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
    summary = {}
    for name, direction in better.items():
        parent = [by_side["parent"][s][name] for s in seeds if name in by_side["parent"][s]]
        change = [by_side["change"][s][name] for s in seeds if name in by_side["change"][s]]
        if not seeds or len(parent) != len(seeds) or len(change) != len(seeds):
            continue
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        sign = 1.0 if direction == "higher" else -1.0
        won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        gain = sign * (cm - pm)
        summary[name] = {
            "parent_median": pm,
            "parent_q1": p1,
            "parent_q3": p3,
            "change_median": cm,
            "change_q1": c1,
            "change_q3": c3,
            "ratio_change_over_parent": cm / pm if pm else None,
            "parent_iqr": p3 - p1,
            "change_iqr": c3 - c1,
            "change_better_pairs": won,
            "pairs": len(seeds),
            "gain_claimable": len(seeds) >= 10
            and 10 * won >= 9 * len(seeds)
            and gain > p3 - p1,
        }
    rss = summary.get("peak_rss_mb")
    items = {side: [attempted[side][s] for s in seeds] for side in attempted}
    if rss is not None and None not in items["parent"] + items["change"]:
        # peak RSS grows with the items a run completes; read it against them
        pa, ca = statistics.median(items["parent"]), statistics.median(items["change"])
        rss["parent_attempted_median"] = pa
        rss["change_attempted_median"] = ca
        rss["mb_per_1000_extra_items"] = (
            1000.0 * (rss["change_median"] - rss["parent_median"]) / (ca - pa)
            if abs(ca - pa) >= SLOPE_MIN_ITEMS
            else None
        )
    return summary


def rss_line(workload, summary):
    """One line: each side's median peak RSS next to its median item count,
    and the RSS change per 1,000 extra items, unless the item counts differ
    by fewer than SLOPE_MIN_ITEMS; None without those figures."""
    rss = summary.get("peak_rss_mb", {})
    if "parent_attempted_median" not in rss:
        return None
    per = rss["mb_per_1000_extra_items"]
    return (
        f"{workload} peak_rss_mb: parent {rss['parent_median']:.2f} MB at "
        f"{rss['parent_attempted_median']:,.0f} items, change {rss['change_median']:.2f} MB at "
        f"{rss['change_attempted_median']:,.0f} items, "
        + (
            f"item counts differ by fewer than {SLOPE_MIN_ITEMS}, too close for a slope"
            if per is None
            else f"{per:+.3f} MB per 1,000 extra items"
        )
    )


def failed_per_run(runs):
    out = {"parent": [], "change": []}
    for run in runs:
        out[run["side"]].append(run.get("failed"))
    return out


def metric_directions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench, {m["name"]: m["better"] for m in bench["end_to_end"]}


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True
    ).stdout


def materialize(rev, dest):
    """Write the tree of ``rev`` into ``dest``; returns the full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_perfbench(tree, workload, seed, seconds, trace):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    meta, report = parse_output(proc.stdout)
    run = {"seed": seed, "started_unix": round(started, 1), "exit": proc.returncode}
    if report is None:
        run["stderr_tail"] = proc.stderr[-2000:]
        return meta, run
    run["attempted"] = report.get("attempted")
    run["failed"] = report.get("failed")
    run["metrics"] = {k: v["value"] for k, v in report.get("metrics", {}).items()}
    return meta, run


def _probe_reductions():
    # CPU over wall time of the kernel's three BLAS reduction forms; run in a
    # child whose BLAS thread count is set before NumPy is imported
    import numpy as np

    m = PROBE_MODE
    rows = []
    # the first timed loop of a fresh process reads high; warm up untimed
    warm = np.ones(PROBE_SIZES[0])
    start = time.perf_counter()
    while time.perf_counter() - start < PROBE_SECONDS:
        warm.reshape(-1, m) @ warm[:m]
    for size in PROBE_SIZES:
        arr = np.random.default_rng(0).standard_normal(size)
        v = np.random.default_rng(1).standard_normal(m)
        forms = {
            "trailing": lambda: arr.reshape(-1, m) @ v,
            "leading": lambda: v @ arr.reshape(1, m, -1),
            "middle": lambda: v @ arr.reshape(-1, m, m),
        }
        for form, call in forms.items():
            call()
            calls = 0
            wall0, cpu0 = time.perf_counter(), time.process_time()
            while time.perf_counter() - wall0 < PROBE_SECONDS:
                call()
                calls += 1
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            rows.append({
                "entries": size, "form": form, "calls": calls,
                "us_per_call": 1e6 * wall / calls, "cpu_over_wall": cpu / wall,
            })
    print(json.dumps(rows))


def best_us(call, repeats, seconds):
    """Best-of-``repeats`` microseconds per call, each batch running
    ``call`` for at least ``seconds``, and the CPU time over wall time of
    that batch (near 1 when the calls ran on one thread)."""
    call()
    best = float("inf")
    for _ in range(repeats):
        calls = 0
        start, cpu = time.perf_counter(), time.process_time()
        while True:
            call()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        if elapsed / calls < best:
            best = elapsed / calls
            cpu_over_wall = (time.process_time() - cpu) / elapsed
    return 1e6 * best, cpu_over_wall


def _timed_row(dims, step, call, repeats, seconds):
    us, cpu_over_wall = best_us(call, repeats, seconds)
    return {
        "dims": "x".join(map(str, dims)), "step": step,
        "us_per_call": us, "cpu_over_wall": cpu_over_wall,
    }


def step_timings(repeats=STEP_REPEATS, seconds=STEP_SECONDS):
    """Rows of best-of-N µs per call of the update steps of the importable
    ``rank1tensor``, at the tuple of an asvd solve to a fit change of 1e-6
    of a Gaussian tensor of each shape in STEP_DIMS: ``asvd_sweep``,
    ``masvd_sweep`` and ``newton_step``."""
    import numpy as np
    from rank1tensor import SolverConfig, Tensor, kernels, solve, solvers

    rows = []
    for dims in STEP_DIMS:
        t = Tensor(np.random.default_rng(list(dims)).standard_normal(dims))
        cfg = SolverConfig(method="asvd", seed=0, fitchange_tol=1e-6, max_iterations=2000)
        u = solve(t, cfg).axes
        vecs = list(u.vectors)
        contractions = kernels.all_contractions(t.array, vecs)
        f, _ = solvers._f_and_stationarity(vecs, contractions)
        calls = {
            "asvd_sweep": lambda: solvers.asvd_sweep(t, u),
            "masvd_sweep": lambda: solvers.masvd_sweep(t, u),
            "newton_step": lambda: solvers._newton_step(t.array, vecs, contractions, f),
        }
        rows.extend(_timed_row(dims, step, call, repeats, seconds) for step, call in calls.items())
    return rows


def masvd_solve_timings(repeats=STEP_REPEATS, seconds=STEP_SECONDS):
    """Rows of best-of-N µs per call of a ``SOLVE_SWEEPS``-sweep masvd solve
    (``masvd_solve``) of the importable ``rank1tensor``, from a fixed random
    start, on the Gaussian tensor of each shape in STEP_DIMS that
    :func:`step_timings` takes. The fit-change tolerance of 1e-300 keeps
    the Newton finish out; the solve ends early only if a sweep leaves the
    fit unchanged."""
    import numpy as np
    from rank1tensor import SolverConfig, Tensor, solve, solvers

    rows = []
    for dims in STEP_DIMS:
        t = Tensor(np.random.default_rng(list(dims)).standard_normal(dims))
        u = solvers.init_random(dims, seed=1)
        cfg = SolverConfig(method="masvd", max_iterations=SOLVE_SWEEPS, fitchange_tol=1e-300)
        rows.append(
            _timed_row(dims, "masvd_solve", lambda: solve(t, cfg, initial=u), repeats, seconds)
        )
    return rows


def kernel_timings(repeats=STEP_REPEATS, seconds=STEP_SECONDS):
    """Rows of best-of-N µs per call, with CPU over wall time, of the
    kernels of the importable ``rank1tensor`` on a Gaussian tensor of each
    shape in KERNEL_DIMS: ``contract_all_but_one`` keeping the first and the
    last mode, and ``contract_all_but_two`` keeping modes 1 and 2. At the
    shapes in PARTIAL_DIMS it also times ``contract_partial`` contracting one
    mode (0) and two modes (0 and 2) out of an intermediate over modes
    (0, 1, 2), taken outside the timing: the tensor itself at d = 3, as a
    mals sweep keeps it, and the tensor contracted over mode 3 at d = 4, as
    a d = 4 asvd step keeps it."""
    import numpy as np
    from rank1tensor import kernels

    rows = []
    for dims in KERNEL_DIMS:
        rng = np.random.default_rng(list(dims))
        arr = rng.standard_normal(dims)
        vecs = [rng.standard_normal(n) for n in dims]
        last = len(dims) - 1
        calls = {
            "contract_all_but_one(0)": lambda: kernels.contract_all_but_one(arr, vecs, 0),
            f"contract_all_but_one({last})": lambda: kernels.contract_all_but_one(arr, vecs, last),
            "contract_all_but_two(1, 2)": lambda: kernels.contract_all_but_two(arr, vecs, 1, 2),
        }
        if dims in PARTIAL_DIMS:
            over = (0, 1, 2)
            kept = kernels.contract_partial(arr, dims, vecs, range(len(dims)), over)
            for keep in ((1, 2), (1,)):
                calls[f"contract_partial(over {over}, keep {keep})"] = (
                    lambda keep=keep: kernels.contract_partial(kept, dims, vecs, over, keep)
                )
        rows.extend(_timed_row(dims, step, call, repeats, seconds) for step, call in calls.items())
    return rows


def large_step_timings(repeats=STEP_REPEATS, seconds=STEP_SECONDS):
    """Rows of best-of-N µs per call, with CPU over wall time, of the steps
    in LARGE_STEPS of the importable ``rank1tensor``, at the tuple of a
    3-sweep asvd solve of a Gaussian tensor of each shape: a lone
    ``mals_sweep`` or ``asvd_sweep`` from that tuple, and
    ``linalg.top_singular_triple`` of the (1, 2) pair matrix there."""
    import numpy as np
    from rank1tensor import SolverConfig, Tensor, kernels, linalg, solve, solvers

    rows = []
    for dims, step in LARGE_STEPS:
        t = Tensor(np.random.default_rng(list(dims)).standard_normal(dims))
        cfg = SolverConfig(method="asvd", seed=0, max_iterations=3, fitchange_tol=1e-300)
        u = solve(t, cfg).axes
        if step == "top_singular_triple":
            mat = kernels.contract_all_but_two(t.array, list(u.vectors), 1, 2)
            call = lambda mat=mat: linalg.top_singular_triple(mat)
            dims = mat.shape
        else:
            call = lambda sweep=getattr(solvers, step), t=t, u=u: sweep(t, u)
        rows.append(_timed_row(dims, step, call, repeats, seconds))
    return rows


def update_step_rows():
    """The rows of :func:`step_timings`, :func:`masvd_solve_timings`,
    :func:`kernel_timings` and :func:`large_step_timings`."""
    return step_timings() + masvd_solve_timings() + kernel_timings() + large_step_timings()


def tensor_reads(sweeps=READ_SWEEPS):
    """Per method and shape of READ_CELLS, the reductions of the importable
    ``rank1tensor`` that read the whole tensor, in each of ``sweeps`` sweeps
    from a fixed random tuple of a Gaussian tensor. The sweeps share one
    solve cache, as in a solve, so a sweep may start from what the one
    before it kept. The counts do not depend on timing."""
    import numpy as np
    from rank1tensor import kernels, solvers

    reduce = kernels._reduce
    rows = []
    try:
        for dims, methods in READ_CELLS:
            rng = np.random.default_rng(list(dims))
            arr = rng.standard_normal(dims)
            reads = [0]

            def spy(out, *args):
                reads[0] += out is arr
                return reduce(out, *args)

            kernels._reduce = spy
            for method in methods:
                vecs = [v / np.linalg.norm(v) for v in (rng.standard_normal(m) for m in dims)]
                trace, cache, per_sweep = solvers.SolverTrace(), {}, []
                for _ in range(sweeps):
                    reads[0] = 0
                    solvers._SWEEPS[method](arr, vecs, trace, cache)
                    per_sweep.append(reads[0])
                rows.append({
                    "dims": "x".join(map(str, dims)), "method": method,
                    "reads_per_sweep": per_sweep,
                })
    finally:
        kernels._reduce = reduce
    return rows


def tight_counts(solves=TIGHT_SOLVES):
    """Per cell of TIGHT_CELLS, what the importable ``rank1tensor`` does in
    ``solves`` solves to a fit change of 1e-12 of Gaussian tensors: the
    median and mean of the sweeps, of the optimization calls, of the pair
    steps (calls of ``linalg.top_singular_triple``), of the calls of
    ``solvers._newton_finish``, of those calls that were rejected (returned
    None) and of the accepted Newton steps (sub-steps over every mode), the
    count of ``stationary`` stops and each lambda."""
    import numpy as np
    from rank1tensor import SolverConfig, Tensor, linalg, solve, solvers

    finish = solvers._newton_finish
    triple = linalg.top_singular_triple
    attempts = {"all": 0, "rejected": 0, "pairs": 0}

    def counted(*args):
        s = finish(*args)
        attempts["all"] += 1
        attempts["rejected"] += s is None
        return s

    def counted_triple(*args, **kwargs):
        attempts["pairs"] += 1
        return triple(*args, **kwargs)

    rows = []
    solvers._newton_finish = counted
    linalg.top_singular_triple = counted_triple
    try:
        for dims, method in TIGHT_CELLS:
            every = tuple(range(len(dims)))
            counts = {
                "sweeps": [], "opt_calls": [], "pair_steps": [], "newton_attempts": [],
                "rejected_attempts": [], "newton_steps": [],
            }
            lambdas, stationary = [], 0
            for k in range(solves):
                t = Tensor(np.random.default_rng([*dims, k]).standard_normal(dims))
                cfg = SolverConfig(method=method, seed=k, fitchange_tol=1e-12, max_iterations=2000)
                attempts.update(all=0, rejected=0, pairs=0)
                result = solve(t, cfg)
                counts["sweeps"].append(result.iterations)
                counts["opt_calls"].append(result.optimization_calls)
                counts["pair_steps"].append(attempts["pairs"])
                counts["newton_attempts"].append(attempts["all"])
                counts["rejected_attempts"].append(attempts["rejected"])
                counts["newton_steps"].append(
                    sum(modes == every for modes, _, _ in result.trace.steps)
                )
                stationary += result.converged_by == "stationary"
                lambdas.append(result.lambda_)
            row = {"dims": "x".join(map(str, dims)), "method": method, "solves": solves}
            for name, values in counts.items():
                row[name] = {"median": statistics.median(values), "mean": statistics.fmean(values)}
            row["stationary"] = stationary
            row["lambdas"] = lambdas
            rows.append(row)
    finally:
        solvers._newton_finish = finish
        linalg.top_singular_triple = triple
    return rows


def compare_lambdas(parent_rows, change_rows):
    """Move each row's ``lambdas`` out of both sides' rows and give the
    change's row the largest relative difference from the parent's."""
    for p, c in zip(parent_rows, change_rows):
        pairs = zip(p.pop("lambdas"), c.pop("lambdas"))
        c["lambda_max_rel_diff"] = max(abs(b - a) / abs(a) for a, b in pairs)


def _blas_env():
    # perfbench's pinning: one BLAS thread per core
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return threads, env


def in_child(tree, function):
    """``perf_ab.<function>()`` in a child that imports the package from
    ``tree``/src, with the BLAS thread count pinned as perfbench pins it;
    returns its JSON-decoded result."""
    _, env = _blas_env()
    env["PYTHONPATH"] = os.path.join(tree, "src")
    out = subprocess.run(
        [sys.executable, "-c", f"import json, perf_ab; print(json.dumps(perf_ab.{function}()))"],
        cwd=os.path.dirname(os.path.abspath(__file__)),
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def blas_probe():
    threads, env = _blas_env()
    out = subprocess.run(
        [sys.executable, "-c", "import perf_ab; perf_ab._probe_reductions()"],
        cwd=os.path.dirname(os.path.abspath(__file__)),
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return {
        "description": (
            "CPU time over wall time of `@` reductions of a result of the given "
            f"size over a mode of {PROBE_MODE}, repeated for {PROBE_SECONDS} s "
            "each, in ascending size"
        ),
        "blas_threads_env": threads,
        "rows": json.loads(out),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--change", default="HEAD", help="git revision of the change")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--workload", type=parse_spec, action="append", default=[],
                   metavar="W:SEEDS", help="a workload and its seeds, repeatable")
    p.add_argument("--trace", type=parse_spec, action="append", default=[],
                   metavar="W:SEED", help="one traced run per side, repeatable")
    args = p.parse_args(argv)

    bench, better = metric_directions()
    seconds = bench["run_seconds"]
    result = {
        "description": (
            f"`python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
            "--trace 0` from a `git archive` of each side, alternating which side "
            "runs first (parent first at even pair index, counted over all pairs "
            "in the order of the workloads); change_better_pairs counts the seeds "
            "on which the change read better, ties for neither."
        ),
        "command": ["python3", "tools/perf_ab.py", *(argv if argv is not None else sys.argv[1:])],
        "machine": None,
        "blas_probe": blas_probe(),
        "update_steps": {
            "description": (
                f"best of {STEP_ROUNDS} turns per side, alternating which side goes "
                f"first, each the best of {STEP_REPEATS} batches of at least "
                f"{STEP_SECONDS} s, µs per call, of one asvd sweep, one masvd sweep and "
                "one Newton finish step, at the tuple of an asvd solve to a fit change "
                f"of 1e-6 of a Gaussian tensor, of a {SOLVE_SWEEPS}-sweep masvd solve "
                "of that tensor from a fixed random start, of the kernels "
                "contract_all_but_one (first and last mode) and contract_all_but_two(1, 2) "
                "on Gaussian tensors, and of a lone mals or asvd sweep and "
                "top_singular_triple of the (1, 2) pair matrix at the tuple of a 3-sweep "
                "asvd solve of larger Gaussian tensors; cpu_over_wall is that of the "
                "best batch"
            ),
        },
        "tight_solves": {
            "description": (
                f"{TIGHT_SOLVES} solves per cell of Gaussian tensors to a fit change of "
                "1e-12 (max_iterations 2000): sweeps, opt_calls, pair steps (calls of "
                "linalg.top_singular_triple), calls of "
                "solvers._newton_finish, rejected calls and accepted Newton steps per "
                "solve (median and mean), stationary "
                "stops, and the largest relative lambda difference between the sides"
            ),
        },
        "tensor_reads": {
            "description": (
                "reductions that read the whole tensor, per sweep of "
                f"{READ_SWEEPS} sweeps that share one solve cache, from a fixed random "
                "tuple of a Gaussian tensor"
            ),
        },
        "workloads": {},
        "traced": {},
    }

    def save():
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")

    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        trees = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            trees[side] = os.path.join(tmp, side)
            os.mkdir(trees[side])
            result[side] = materialize(rev, trees[side])
        for turn in range(STEP_ROUNDS):
            for side in ("parent", "change") if turn % 2 == 0 else ("change", "parent"):
                rows = in_child(trees[side], "update_step_rows")
                best = result["update_steps"].setdefault(side, rows)
                for kept, row in zip(best, rows):
                    if row["us_per_call"] < kept["us_per_call"]:
                        kept.update(row)
        for side in ("parent", "change"):
            result["tight_solves"][side] = in_child(trees[side], "tight_counts")
            result["tensor_reads"][side] = in_child(trees[side], "tensor_reads")
        compare_lambdas(result["tight_solves"]["parent"], result["tight_solves"]["change"])
        save()
        pair = 0
        for workload, seeds in args.workload:
            entry = result["workloads"].setdefault(workload, {"seeds": [], "runs": []})
            for seed in seeds:
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                pair += 1
                for side in order:
                    meta, run = run_perfbench(trees[side], workload, seed, seconds, 0)
                    run["side"] = side
                    if meta is not None:
                        result["machine"] = {
                            k: v for k, v in meta.items()
                            if k not in ("git_commit", "src_sha256")
                        }
                    entry["runs"].append(run)
                    print(f"{workload} seed {seed} {side}: exit {run['exit']}", file=sys.stderr)
                    entry["failed_per_run"] = failed_per_run(entry["runs"])
                    entry["summary"] = summarize(entry["runs"], better)
                    save()
                entry["seeds"].append(seed)
            line = rss_line(workload, entry.get("summary", {}))
            if line:
                print(line, file=sys.stderr)
        for workload, seeds in args.trace:
            for seed in seeds:
                traced = result["traced"].setdefault(f"{workload}:{seed}", {})
                for side in ("parent", "change"):
                    traced[side] = run_perfbench(trees[side], workload, seed, seconds, 1)[1]
                    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
