"""The closed loop, the timed and traced runs, and the side probes.

``timed_run`` sets up several times (reporting the median as setup_s), then
runs whole cycles until ``seconds`` have passed, checking each output
between items. ``traced_run`` runs a fixed number of cycles plain and then
traced, checks the traced outputs afterwards with the wrappers removed, and
times the I/O and CLI layers on their own.
"""

import contextlib
import ctypes
import hashlib
import io as stdio
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import layers
import summary
from spans import Recorder, install
from workloads import Outcome, child_env, cli_files

_clock = time.perf_counter


class Record:
    __slots__ = ("item", "output", "seconds", "cpu", "cycle", "outcome")

    def __init__(self, item, output, seconds, cpu, cycle):
        self.item = item
        self.output = output
        self.seconds = seconds
        self.cpu = cpu
        self.cycle = cycle
        self.outcome = None


def cpu_seconds():
    """CPU time of this process (all threads) and of its waited children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_item(item):
    """Output of one item, or the exception it raised."""
    try:
        return item.run()
    except Exception as exc:  # a failed item is counted, not fatal
        return exc


def judge(workload, record):
    out = record.output
    if isinstance(out, Exception):
        record.outcome = Outcome([f"{type(out).__name__}: {out}"])
    else:
        try:
            record.outcome = workload.check(record.item, out)
        except Exception as exc:
            record.outcome = Outcome([f"check raised {type(exc).__name__}: {exc}"])
    # keep no inputs or outputs alive past their check
    record.output = record.item.data = record.item.run = None


def run_cycle(workload, c, records, recorder=None, check=True):
    """Run the items of cycle ``c`` back to back, appending to ``records``."""
    for item in workload.cycle(c):
        if recorder is not None:
            recorder.item = (c, len(records))
            span = recorder.begin("item")
        cpu0 = cpu_seconds()
        t0 = _clock()
        output = run_item(item)
        t1 = _clock()
        cpu1 = cpu_seconds()
        if recorder is not None:
            recorder.end(span)
        record = Record(item, output, t1 - t0, cpu1 - cpu0, c)
        if check:
            judge(workload, record)
        records.append(record)


def run_until(workload, deadline):
    """Whole cycles until ``deadline``, and at least ``fit_cycles``."""
    records = []
    c = 0
    while c < workload.fit_cycles or _clock() < deadline:
        run_cycle(workload, c, records)
        c += 1
    return records


def failures_of(records, setup_outcomes=()):
    """(number of failed items, one message per failed check)."""
    failed = 0
    messages = []
    labelled = [(f"{r.item.label} (cycle {r.cycle})", r.outcome) for r in records]
    labelled += [(f"set-up item {i}", o) for i, o in enumerate(setup_outcomes)]
    for label, outcome in labelled:
        failed += bool(outcome.errors)
        messages.extend(f"{label}: {e}" for e in outcome.errors)
    return failed, messages


def fit_mean(workload, records, setup_outcomes):
    fits = [
        r.outcome.fit
        for r in records
        if r.item.counted and r.cycle < workload.fit_cycles and r.outcome.fit is not None
    ]
    fits += [o.fit for o in setup_outcomes if o.fit is not None]
    return statistics.fmean(fits)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def time_command(args, env=None):
    started = _clock()
    subprocess.run(args, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return _clock() - started


def workdir_for(out, workload):
    path = os.path.join(out, f"work-{workload.name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def timed_run(workload, seed, seconds, setup_reps, out):
    """End-to-end metrics with tracing off."""
    workdir = workdir_for(out, workload)
    env = child_env()
    try:
        setup_times = []
        stationary_ms = []
        for _ in range(setup_reps):
            started = _clock()
            time_command([sys.executable, "-c", "import rank1tensor"], env)
            workload.setup(seed, workdir)
            workload.warm_up()
            setup_times.append(_clock() - started)
            stationary_ms.extend(workload.setup_stationary_ms())
        setup_outcomes = workload.setup_outcomes()
        records = run_until(workload, _clock() + seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counted = [r for r in records if r.item.counted]
    tight = [r for r in records if r.item.tight]
    latencies = [r.seconds * 1e3 for r in counted]
    p, tail_ms, beyond = summary.tail(latencies)
    stationary_ms.extend(r.seconds * 1e3 for r in tight)
    failed, failures = failures_of(records, setup_outcomes)
    attempted = len(records) + len(setup_outcomes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": len(counted) / sum(r.seconds for r in counted),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "time_to_stationary_ms": statistics.median(stationary_ms),
        "cpu_per_item_ms": 1e3 * sum(r.cpu for r in counted) / len(counted),
        "peak_rss_mb": peak_rss_mb(),
        "fit_mean": fit_mean(workload, records, setup_outcomes),
    }
    cycles = 1 + max(r.cycle for r in records)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "annotations": {
            "latency_tail_ms": f"p{p:g} of {len(latencies)} items, {beyond} beyond",
            "latency_p50_ms": f"{len(latencies)} items",
            "time_to_stationary_ms": f"{len(stationary_ms)} tight solves",
            "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup_times),
        },
        "notes": [
            f"error_rate {summary.error_rate(failed, attempted):.6g} "
            f"({failed} failed of {attempted} attempted, {cycles} cycles)"
        ],
    }


def solve_stats(records, setup_outcomes=()):
    outcomes = [r.outcome for r in records] + list(setup_outcomes)
    solved = [o for o in outcomes if o.stationarity is not None]
    return {
        "sweeps": sum(o.sweeps for o in solved),
        "opt_calls": sum(o.opt_calls for o in solved),
        "solves": len(solved),
        "fitchange_stops": sum(o.fitchange for o in solved),
        "stationarity_max": max((o.stationarity for o in solved), default=0.0),
    }


def traced_run(workload, seed, out):
    """Per-layer metrics from a fixed number of traced cycles."""
    workdir = workdir_for(out, workload)
    recorder = Recorder()
    try:
        restore, absent = install(recorder, layers.TARGETS)
        try:
            recorder.item = "setup"
            workload.setup(seed, workdir)
            workload.warm_up()
        finally:
            restore()
        setup_spans, recorder.spans = recorder.spans, []

        # Each cycle runs plain, then traced, so slow drift in the machine
        # falls on both sides of the overhead ratio alike.
        plain_wall = traced_wall = 0.0
        records = []
        for c in range(workload.trace_cycles):
            started = _clock()
            run_cycle(workload, c, [], check=False)
            plain_wall += _clock() - started
            restore, _ = install(recorder, layers.TARGETS)
            try:
                started = _clock()
                run_cycle(workload, c, records, recorder=recorder, check=False)
                traced_wall += _clock() - started
            finally:
                restore()
        for record in records:
            judge(workload, record)
        setup_outcomes = workload.setup_outcomes()
        probes = probe_layers(seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recorder.write_jsonl(os.path.join(out, f"{workload.name}-seed{seed}-spans.jsonl.gz"))
    metrics = layers.loop_metrics(
        recorder.spans, traced_wall, setup_spans, solve_stats(records, setup_outcomes)
    )
    metrics.update(probes)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    failed, failures = failures_of(records, setup_outcomes)
    notes = [f"layer function absent at this commit: {name}" for name in absent]
    share = {layer: metrics[f"layer.{layer}.self_s"] / traced_wall for layer in layers.LAYERS}
    notes.append(
        "self time by layer, share of traced wall: "
        + ", ".join(f"{k} {v:.3f}" for k, v in share.items())
    )
    return {
        "metrics": metrics,
        "attempted": len(records) + len(setup_outcomes),
        "failed": failed,
        "failures": failures,
        "annotations": {"trace.wall_s": f"{len(records)} items, {workload.trace_cycles} cycles"},
        "notes": notes,
    }


def probe_layers(seed, workdir, reps=3):
    """The I/O and CLI layers timed alone, with tracing off, on the text
    files the decompose_cli workload reads."""
    from rank1tensor import cli, io

    files, _ = cli_files(seed, workdir)
    paths = [path for path, _ in files.values()]
    size = sum(os.path.getsize(p) for p in paths)
    parse = []
    for _ in range(reps):
        started = _clock()
        for path in paths:
            io.read_tensor_text(path)
        parse.append(_clock() - started)
    parse_s = statistics.median(parse)

    main_ms = []
    for _ in range(reps):
        with contextlib.redirect_stdout(stdio.StringIO()):
            started = _clock()
            code = cli.main(["decompose", "--input", files["t8"][0], "--method", "asvd"])
            main_ms.append((_clock() - started) * 1e3)
        if code != 0:
            raise RuntimeError(f"in-process decompose exited {code}")

    env = child_env()
    floor = [time_command([sys.executable, "-c", "pass"], env) for _ in range(reps)]
    imp = [time_command([sys.executable, "-c", "import rank1tensor"], env) for _ in range(reps)]
    return {
        "io.read_tensor_text.ms_per_call": parse_s / len(paths) * 1e3,
        "io.parse_mb_per_s": size / parse_s / 1e6,
        "cli.python_floor_s": statistics.median(floor),
        "cli.import_s": statistics.median(imp),
        "cli.main_ms": statistics.median(main_ms),
    }


# --------------------------------------------------------------- metadata


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # an exported checkout, possibly inside another repository
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(src):
    """SHA-256 over the package's Python sources, for checkouts without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def machine_metadata(package, nproc, root):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    backend = getattr(package, "backend_name", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_runtime": _blas_threads(),
        "nproc": nproc,
        "kernel_backend": backend() if callable(backend) else None,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(os.path.join(root, "src", "rank1tensor")),
        "machine": platform.machine(),
    }
