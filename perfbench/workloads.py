"""The four workloads: their inputs, their items and the checks on every
output.

Every input is drawn from the run's seed. A workload hands the runner one
cycle of items at a time; each item is one call a user would make, and
the runner times it and passes its output to ``check``. Items marked
``tight`` are solved to stationarity and feed ``time_to_stationary_ms``;
items marked ``counted`` feed throughput and latency.

Checks recompute what they compare against with plain NumPy, not with the
package's kernels, so a wrong kernel cannot vouch for itself.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

from rank1tensor import ami, bench, diagnostics, solvers
from rank1tensor import Tensor

#: objective traces may dip by rounding only, as in the acceptance suite
MONOTONE_SLACK = 1e-12
#: the stationarity a tight solve must reach, relative to |T|
TIGHT_STATIONARITY = 1e-6
TIGHT_CFG = {"fitchange_tol": 1e-12, "max_iterations": 2000}
METHODS = ("als", "asvd", "mals", "masvd")


def methods_for(d):
    return METHODS if d == 3 else METHODS[:3]


def rng_for(seed, *tags):
    return np.random.default_rng([seed, *tags])


def gaussian(seed, dims, *tags):
    return Tensor(rng_for(seed, *tags).standard_normal(dims))


def draw(family, seed, dims, *tags):
    """A tensor of the given family: Gaussian entries drawn here, or uniform
    8-bit or symmetric entries from the package's own generator."""
    if family == "gauss":
        return gaussian(seed, dims, *tags)
    kind = "random_uniform" if family == "uniform" else "symmetric_random"
    return bench.generate(bench.DatasetSpec(kind=kind, dims=dims), seed=[seed, *tags])


# ----------------------------------------------------------------- checks


def contract_except(arr, vectors, keep):
    """Contract every mode of ``arr`` but ``keep`` (None: every mode)."""
    out = arr
    for mode in range(arr.ndim - 1, -1, -1):
        if mode != keep:
            out = np.tensordot(out, vectors[mode], axes=([mode], [0]))
    return out


def stationarity(arr, vectors):
    """Largest residual |v_i - (x_i . v_i) x_i| over the modes, where v_i
    contracts ``arr`` against every vector but x_i."""
    worst = 0.0
    for i, x in enumerate(vectors):
        v = contract_except(arr, vectors, i)
        worst = max(worst, float(np.linalg.norm(v - np.dot(x, v) * x)))
    return worst


def check_solve(arr, norm, result, tight):
    """Failures of one solve's output (empty when it is right) and its
    stationarity residual relative to |T|."""
    errors = []
    lam = result.lambda_
    vectors = result.axes.vectors
    if not lam >= 0.0:
        errors.append(f"lambda {lam!r} < 0")
    for i, v in enumerate(vectors):
        if abs(float(np.linalg.norm(v)) - 1.0) > 1e-12:
            errors.append(f"axis {i} is not a unit vector")
    f = float(contract_except(arr, vectors, None))
    if abs(lam - f) > 1e-12 * norm:
        errors.append(f"lambda {lam!r} differs from f(T, axes) = {f!r}")
    if abs(lam * lam + result.residual**2 - norm * norm) > 1e-10 * norm * norm:
        errors.append("lambda^2 + residual^2 differs from |T|^2")
    values = list(result.trace.f_sequence())
    if any(b < a - MONOTONE_SLACK * norm for a, b in zip(values, values[1:])):
        errors.append("objective trace decreases")
    station = stationarity(arr, vectors) / norm
    if tight and not station <= TIGHT_STATIONARITY:
        errors.append(f"tight solve stopped at stationarity {station:.3g} |T|")
    return errors, station


class Item:
    __slots__ = ("label", "run", "tight", "counted", "data")

    def __init__(self, label, run, tight=False, counted=True, data=None):
        self.label = label
        self.run = run
        self.tight = tight
        self.counted = counted
        self.data = data


class Outcome:
    """What the runner keeps of a checked item."""

    __slots__ = ("errors", "fit", "sweeps", "opt_calls", "fitchange", "stationarity")

    def __init__(self, errors, fit=None, sweeps=0, opt_calls=0, fitchange=False, stationarity=None):
        self.errors = errors
        self.fit = fit
        self.sweeps = sweeps
        self.opt_calls = opt_calls
        self.fitchange = fitchange
        self.stationarity = stationarity


def solve_outcome(tensor, result, tight):
    arr = tensor.array
    norm = float(np.linalg.norm(arr))
    errors, station = check_solve(arr, norm, result, tight)
    return Outcome(
        errors,
        fit=result.lambda_ / norm,
        sweeps=result.iterations,
        opt_calls=result.optimization_calls,
        fitchange=result.converged_by == "fitchange",
        stationarity=station,
    )


def solve_item(label, tensor, tight=False, **cfg):
    def run():
        return solvers.solve(tensor, solvers.SolverConfig(**cfg))

    return Item(label, run, tight=tight, counted=not tight, data=tensor)


class Workload:
    """Base: ``setup`` draws the inputs, ``cycle(c)`` lists the items of
    cycle ``c``, ``check`` judges one output.

    ``fit_cycles`` is the number of cycles every run completes; fit_mean is
    taken over them, so it repeats exactly for a seed. ``trace_cycles`` is
    the fixed length of the traced run, so its counts repeat exactly too.
    """

    name = None
    why = None
    fit_cycles = 1
    trace_cycles = 1
    #: items of cycle 0 run once, untimed, at the end of set-up
    warm_items = 0

    def setup(self, seed, workdir):
        raise NotImplementedError

    def warm_up(self):
        for item in self.cycle(0)[: self.warm_items]:
            item.run()

    def cycle(self, c):
        raise NotImplementedError

    def check(self, item, output):
        return solve_outcome(item.data, output, item.tight)

    def setup_outcomes(self):
        """Checked outputs of set-up work that counts as items (analysis)."""
        return []

    def setup_stationary_ms(self):
        """Times of the tight solves made by the last set-up (analysis)."""
        return []


# ------------------------------------------------------ solve workloads


class Solves(Workload):
    """Back-to-back ``solve`` calls. Each cycle draws fresh tensors, one per
    shape and family, and solves each with every applicable method from
    ``starts`` random starts; then ``tight_per_cycle`` fresh Gaussian
    tensors of ``tight_dims`` are solved to stationarity with asvd.

    Tensors are drawn as a cycle begins, outside every item's timing, so a
    run sees many tensors per cell without holding them all in memory.
    """

    shapes = families = ()
    starts = 1
    tight_dims = None
    tight_per_cycle = 0
    fit_cycles = trace_cycles = 2

    def setup(self, seed, workdir):
        self.seed = seed

    def cycle(self, c):
        items = []
        for s, dims in enumerate(self.shapes):
            shape = "x".join(map(str, dims))
            for f, family in enumerate(self.families):
                t = draw(family, self.seed, dims, 1, s, f, c)
                for method in methods_for(len(dims)):
                    for start in range(self.starts):
                        items.append(
                            solve_item(f"{shape}/{family}/{method}", t, method=method, seed=[self.seed, c, start])
                        )
        shape = "x".join(map(str, self.tight_dims))
        for j in range(self.tight_per_cycle):
            k = c * self.tight_per_cycle + j
            t = gaussian(self.seed, self.tight_dims, 2, k)
            items.append(
                solve_item(f"{shape}/gauss/asvd/tight", t, tight=True, method="asvd", seed=[self.seed, 3, k], **TIGHT_CFG)
            )
        return items


class SolveSmall(Solves):
    name = "solve_small"
    why = (
        "back-to-back ~1 ms solves from several random starts: per-call "
        "overhead and Python bookkeeping are a third to half of each solve"
    )
    shapes = ((4, 4, 4), (8, 8, 8), (16, 16, 16), (8, 8, 8, 8))
    families = ("uniform", "symmetric", "gauss")
    starts = 3
    tight_dims = (8, 8, 8)
    tight_per_cycle = 180
    fit_cycles = trace_cycles = 4
    warm_items = 60


class SolveLarge(Solves):
    name = "solve_large"
    why = (
        "64^3 to 128^3 and 32^4 solves plus a 32^3 solve-to-stationarity "
        "cell: tensor passes and the pair-step eigh dominate, bookkeeping ~1%"
    )
    shapes = ((64, 64, 64), (128, 128, 128), (32, 32, 32, 32))
    families = ("uniform", "gauss")
    tight_dims = (32, 32, 32)
    tight_per_cycle = 24
    warm_items = 4


# ---------------------------------------------------------- decompose_cli


def write_tensor_file(path, arr):
    """The package's tensor text format, written with NumPy alone; %.17g
    round-trips every float64 exactly."""
    flat = arr.reshape(-1)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{arr.ndim}\n{' '.join(map(str, arr.shape))}\n")
        for start in range(0, flat.size, 8):
            fh.write(" ".join(f"{x:.17g}" for x in flat[start : start + 8]) + "\n")


def write_tuple_file(path, vectors):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{len(vectors)}\n{' '.join(str(v.size) for v in vectors)}\n")
        for v in vectors:
            fh.write(" ".join(f"{x:.17g}" for x in v) + "\n")


def cli_files(seed, workdir):
    """The three tensor files and one tuple file the CLI workload reads:
    {name: (path, Tensor)} and the tuple path."""
    files = {
        "t64": draw("uniform", seed, (64, 64, 64), 1),
        "t32": gaussian(seed, (32, 32, 32), 2),
        "t8": gaussian(seed, (8, 8, 8), 3),
    }
    out = {}
    for name, t in files.items():
        path = os.path.join(workdir, f"{name}.txt")
        write_tensor_file(path, t.array)
        out[name] = (path, t)
    axes = solvers.solve(files["t32"], solvers.SolverConfig(method="masvd", seed=[seed, 4], **TIGHT_CFG)).axes
    tuple_path = os.path.join(workdir, "u32.txt")
    write_tuple_file(tuple_path, axes.vectors)
    return out, tuple_path


def child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(args, env):
    return subprocess.run(
        [sys.executable, "-m", "rank1tensor", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )


def parse_fields(stdout):
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value.strip()
    return fields


class DecomposeCli(Workload):
    name = "decompose_cli"
    why = (
        "sequential `python -m rank1tensor` decompose/verify subprocesses on "
        "text files: interpreter start, import and parsing dominate"
    )
    fit_cycles = 2
    trace_cycles = 2
    warm_items = 1
    #: (label, file, extra arguments, tight); cycle c passes --seed c
    runs = (
        ("decompose t8 asvd", "t8", ("--method", "asvd"), False),
        ("decompose t32 mals", "t32", ("--method", "mals"), False),
        ("verify t32 level2", "t32", None, False),
        ("decompose t64 als", "t64", ("--method", "als"), False),
        ("decompose t32 asvd tight", "t32", ("--method", "asvd", "--tol", "1e-12", "--max-iters", "2000"), True),
    )

    def setup(self, seed, workdir):
        self.seed = seed
        self.env = child_env()
        self.files, self.tuple_path = cli_files(seed, workdir)
        self.reference = {}

    def cycle(self, c):
        items = []
        for label, name, extra, tight in self.runs:
            path = self.files[name][0]
            if extra is None:
                args = ("verify", "--input", path, "--tuple", self.tuple_path, "--level", "2")
            else:
                args = ("decompose", "--input", path, *extra, "--seed", str(c))
            items.append(
                Item(label, lambda a=args: run_cli(a, self.env), tight=tight, counted=not tight, data=(name, extra, c))
            )
        return items

    def _reference(self, name, extra, c):
        key = (name, extra, c)
        if key not in self.reference:
            opts = dict(zip(extra[::2], extra[1::2]))
            cfg = solvers.SolverConfig(
                method=opts["--method"],
                seed=c,
                fitchange_tol=float(opts.get("--tol", 1e-4)),
                max_iterations=int(opts.get("--max-iters", 10)),
            )
            t = self.files[name][1]
            self.reference[key] = (t, solvers.solve(t, cfg))
        return self.reference[key]

    def check(self, item, proc):
        name, extra, c = item.data
        if proc.returncode != 0:
            return Outcome([f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"])
        fields = parse_fields(proc.stdout)
        if extra is None:
            ok = fields.get("semi_max") == "pass" and fields.get("criticality") == "pass"
            return Outcome([] if ok else ["verify did not pass"])
        t, ref = self._reference(name, extra, c)
        errors = []
        try:
            lam = float(fields["lambda"])
            fit = float(fields["fit"])
            sweeps = int(fields["iterations"])
            opt_calls = int(fields["opt_calls"])
        except (KeyError, ValueError):
            return Outcome([f"unreadable output: {proc.stdout[:200]!r}"])
        if abs(lam - ref.lambda_) > 1e-9 * abs(ref.lambda_):
            errors.append(f"printed lambda {lam!r} differs from in-process {ref.lambda_!r}")
        ref_errors, station = check_solve(t.array, t.norm(), ref, item.tight)
        return Outcome(
            errors + ref_errors,
            fit=fit,
            sweeps=sweeps,
            opt_calls=opt_calls,
            fitchange=fields.get("converged_by") == "fitchange",
            stationarity=station,
        )


# --------------------------------------------------------------- analysis


def block_form(seed, order, nblocks, *tags):
    """A block quadratic form whose diagonal blocks are positive definite,
    coupled strongly enough that the form is indefinite."""
    rng = rng_for(seed, *tags)
    m = order // nblocks
    sizes = (m,) * nblocks
    coupling = rng.standard_normal((order, order))
    h = 1.5 * (coupling + coupling.T) / math.sqrt(2.0 * order)
    for j in range(nblocks):
        g = rng.standard_normal((m, m))
        block = slice(j * m, (j + 1) * m)
        h[block, block] = g @ g.T / m + (0.5 + rng.random()) * np.eye(m)
    return ami.BlockQuadraticForm(h, sizes), rng.standard_normal(order)


class Analysis(Workload):
    name = "analysis"
    why = (
        "in-process diagnostics and ami calls at fixed tuples: many "
        "contractions of every mode and no sweep; the only ami workload"
    )
    shapes = ((8, 8, 8), (16, 16, 16), (8, 8, 8, 8))
    families = ("uniform", "gauss")
    orders = (12, 48, 96)
    basin_sweeps = 100
    stationary_sample = 64
    fit_cycles = 1
    trace_cycles = 20
    warm_items = 40

    def __init__(self):
        self.setups = 0
        self.sample = []

    def setup(self, seed, workdir):
        self.seed = seed
        self.tuples = []
        for s, dims in enumerate(self.shapes):
            for f, family in enumerate(self.families):
                t = draw(family, seed, dims, 1, s, f)
                method = "masvd" if len(dims) == 3 else "asvd"
                result = solvers.solve(t, solvers.SolverConfig(method=method, seed=[seed, 2, s, f], **TIGHT_CFG))
                self.tuples.append((t, result))
        self.forms = [block_form(seed, order, 3, 3, order) for order in self.orders]
        # Analysis starts from a stationary tuple; the time to get one is
        # sampled on 8^3 Gaussian tensors. Each set-up of a run draws its
        # own sample, so the median over a run sees many tensors; all of
        # them are checked.
        self.setups += 1
        self.stationary_ms = []
        for k in range(self.stationary_sample):
            t = gaussian(seed, (8, 8, 8), 4, self.setups, k)
            started = time.perf_counter()
            result = solvers.solve(
                t, solvers.SolverConfig(method="masvd", seed=[seed, 5, self.setups, k], **TIGHT_CFG)
            )
            self.stationary_ms.append((time.perf_counter() - started) * 1e3)
            self.sample.append((t, result))

    def setup_stationary_ms(self):
        return self.stationary_ms

    def setup_outcomes(self):
        return [solve_outcome(t, result, True) for t, result in self.tuples + self.sample]

    def cycle(self, c):
        items = []
        for t, result in self.tuples:
            u = result.axes
            shape = "x".join(map(str, t.dims))
            items.append(Item(f"criticality {shape}", lambda t=t, u=u: diagnostics.criticality(t, u), data=("crit", t)))
            items.append(
                Item(f"semi1 {shape}", lambda t=t, u=u: diagnostics.check_semi_max(t, u, level=1), data=("semi", t))
            )
            if t.ndim == 3:
                items.append(
                    Item(f"semi2 {shape}", lambda t=t, u=u: diagnostics.check_semi_max(t, u, level=2), data=("semi", t))
                )
            point = diagnostics.fixed_point_from_tuple(u, result.lambda_)
            items.append(
                Item(
                    f"fixed_point {shape}",
                    lambda t=t, p=point: diagnostics.fixed_point_residual(t, p),
                    data=("fixed", point),
                )
            )
        for t, _ in self.tuples[:: len(self.families)]:
            shape = "x".join(map(str, t.dims))
            items.append(Item(f"jacobian {shape}", lambda t=t: diagnostics.jacobian_check_origin(t), data=("jac", t)))
        for form, xi0 in self.forms:
            items.append(Item(f"analyze {form.order}", lambda q=form: ami.analyze(q), data=("analyze",)))
            items.append(
                Item(
                    f"basin {form.order}",
                    lambda q=form, x=xi0: ami.basin_experiment(q, x, self.basin_sweeps),
                    data=("basin",),
                )
            )
        return items

    def check(self, item, out):
        kind = item.data[0]
        if kind == "crit":
            t = item.data[1]
            ok = out.max_residual <= TIGHT_STATIONARITY * t.norm()
            return Outcome([] if ok else [f"max residual {out.max_residual!r}"])
        if kind == "semi":
            return Outcome([] if out.passed else [f"{out.level} failed by {out.worst_margin()!r}"])
        if kind == "fixed":
            point = item.data[1]
            size = math.sqrt(sum(float(np.dot(p, p)) for p in point))
            ok = out <= 1e-4 * size
            return Outcome([] if ok else [f"fixed-point residual {out!r} at |u| = {size!r}"])
        if kind == "jac":
            t = item.data[1]
            ok = out <= 1e-5 * t.norm()
            return Outcome([] if ok else [f"Jacobian deviation {out!r}"])
        if kind == "analyze":
            return Outcome([] if out.theorem_holds is True else [f"theorem_holds is {out.theorem_holds!r}"])
        values = np.asarray(out.f_values)
        slack = 1e-10 * float(np.max(np.abs(values)))
        ok = bool(np.all(np.diff(values) >= -slack))
        return Outcome([] if ok else ["basin objective decreased"])


WORKLOADS = {w.name: w for w in (SolveSmall, SolveLarge, DecomposeCli, Analysis)}
