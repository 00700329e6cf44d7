"""Which program functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

Wrappers replace module attributes that callers look up at call time.
Where a module imports a function by name (``solvers`` and ``diagnostics``
import ``f_value``), the name is wrapped in that module too, under the same
span name. The I/O layer and the CLI's in-process entry point run only in
the probes after the loop, so they are timed there, not wrapped.
"""

from spans import has_ancestor, self_times


def _kernel_bytes(arr, *_):
    return float(getattr(arr, "nbytes", 0))


#: (module, attribute, span name, weigh); the span name's prefix is its layer
TARGETS = [
    ("rank1tensor.kernels", "contract_all_but_one", "kernels.contract1", _kernel_bytes),
    ("rank1tensor.kernels", "contract_all_but_two", "kernels.contract2", _kernel_bytes),
    ("rank1tensor.linalg", "top_singular_triple", "linalg.svd", None),
    ("rank1tensor.linalg", "inertia", "linalg.inertia", None),
    ("rank1tensor.linalg", "symmetric_eig", "linalg.symmetric_eig", None),
    ("rank1tensor.core", "f_value", "core.f_value", None),
    ("rank1tensor.solvers", "f_value", "core.f_value", None),
    ("rank1tensor.diagnostics", "f_value", "core.f_value", None),
    ("rank1tensor.core", "residual_norm", "core.residual_norm", None),
    ("rank1tensor.solvers", "residual_norm", "core.residual_norm", None),
    ("rank1tensor.solvers", "solve", "solvers.solve", None),
    ("rank1tensor.solvers", "init_random", "solvers.init_random", None),
    ("rank1tensor.diagnostics", "criticality", "diagnostics.criticality", None),
    ("rank1tensor.diagnostics", "check_semi_max", "diagnostics.check_semi_max", None),
    ("rank1tensor.diagnostics", "apply_F", "diagnostics.apply_F", None),
    ("rank1tensor.diagnostics", "fixed_point_residual", "diagnostics.fixed_point_residual", None),
    ("rank1tensor.diagnostics", "jacobian_check_origin", "diagnostics.jacobian_check_origin", None),
    ("rank1tensor.ami", "gauss_seidel_matrix", "ami.gauss_seidel_matrix", None),
    ("rank1tensor.ami", "analyze", "ami.analyze", None),
    ("rank1tensor.ami", "ami_sweep", "ami.ami_sweep", None),
    ("rank1tensor.ami", "basin_experiment", "ami.basin_experiment", None),
    ("workloads", "run_cli", "cli.subprocess", None),
    ("rank1tensor.bench", "generate", "bench.generate", None),
]

#: layers whose self time is reported; the benchmark's own spans (one per
#: item, named ``item``), the drawing of each cycle's inputs and loop time
#: outside any item are ``harness``
LAYERS = ("kernels", "linalg", "core", "solvers", "cli", "diagnostics", "ami", "harness")

#: name -> (unit, better) for every per-layer metric, in report order
PER_LAYER = {
    "kernels.contract1.calls": ("count", "lower"),
    "kernels.contract1.us_per_call": ("us", "lower"),
    "kernels.contract1.self_s": ("s", "lower"),
    "kernels.contract2.calls": ("count", "lower"),
    "kernels.contract2.us_per_call": ("us", "lower"),
    "kernels.contract2.self_s": ("s", "lower"),
    "kernels.bytes_computed": ("B", "lower"),
    "kernels.gbps_computed": ("GB/s", "higher"),
    "linalg.svd.calls": ("count", "lower"),
    "linalg.svd.us_per_call": ("us", "lower"),
    "linalg.svd.self_s": ("s", "lower"),
    "linalg.svd_share_of_pair_step": ("ratio", "lower"),
    "core.f_value.calls": ("count", "lower"),
    "core.f_value.self_s": ("s", "lower"),
    "core.residual_norm.self_s": ("s", "lower"),
    "solvers.init_random.us_per_call": ("us", "lower"),
    "solvers.solve.calls": ("count", "lower"),
    "solvers.solve.self_s": ("s", "lower"),
    "solvers.bookkeeping_share": ("ratio", "lower"),
    "solvers.us_per_opt_call": ("us", "lower"),
    "solvers.sweeps": ("count", "lower"),
    "solvers.opt_calls": ("count", "lower"),
    "solvers.fitchange_stop_share": ("ratio", "higher"),
    "solvers.stationarity_max": ("ratio", "lower"),
    "io.read_tensor_text.ms_per_call": ("ms", "lower"),
    "io.parse_mb_per_s": ("MB/s", "higher"),
    "cli.python_floor_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main_ms": ("ms", "lower"),
    "diagnostics.criticality.us_per_call": ("us", "lower"),
    "diagnostics.check_semi_max.us_per_call": ("us", "lower"),
    "diagnostics.apply_F.calls": ("count", "lower"),
    "diagnostics.apply_F.us_per_call": ("us", "lower"),
    "diagnostics.jacobian_check_origin.ms_per_call": ("ms", "lower"),
    "ami.gauss_seidel_matrix.us_per_call": ("us", "lower"),
    "ami.analyze.self_ms": ("ms", "lower"),
    "ami.ami_sweep.calls": ("count", "lower"),
    "ami.ami_sweep.us_per_call": ("us", "lower"),
    "ami.basin_experiment.ms_per_call": ("ms", "lower"),
    "bench.generate.self_s": ("s", "lower"),
    **{f"layer.{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.self_sum_frac": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


class SpanTable:
    """Per-name totals over a list of spans."""

    def __init__(self, spans):
        self.self_time = self_times(spans)
        self.calls = {}
        self.total = {}
        self.own = {}
        for span, own in zip(spans, self.self_time):
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
            self.total[span.name] = self.total.get(span.name, 0.0) + span.duration
            self.own[span.name] = self.own.get(span.name, 0.0) + own

    def n(self, name):
        return self.calls.get(name, 0)

    def per_call(self, name, scale):
        return _ratio(self.total.get(name, 0.0), self.n(name)) * scale

    def self_s(self, name):
        return self.own.get(name, 0.0)


def loop_metrics(loop_spans, wall, setup_spans, solve_stats):
    """Per-layer metrics from the spans of the traced loop (``wall`` seconds
    long), the spans of one traced set-up, and ``solve_stats``: a dict with
    ``sweeps``, ``opt_calls``, ``solves``, ``fitchange_stops`` and
    ``stationarity_max`` for the solves the loop ran."""
    t = SpanTable(loop_spans)
    kernel_names = ("kernels.contract1", "kernels.contract2")
    kernel_bytes = sum(s.weight for s in loop_spans if s.name in kernel_names)
    kernel_time = sum(t.self_s(name) for name in kernel_names)

    in_solve = has_ancestor(loop_spans, "solvers.solve")
    pair_svd = pair_contract = 0.0
    for span, flag in zip(loop_spans, in_solve):
        if flag and span.name == "linalg.svd":
            pair_svd += span.duration
        elif flag and span.name == "kernels.contract2":
            pair_contract += span.duration

    by_layer = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(loop_spans, t.self_time):
        layer = span.layer if span.layer in by_layer else "harness"
        by_layer[layer] += own
    # loop time outside every item span belongs to the harness as well
    by_layer["harness"] += wall - sum(s.duration for s in loop_spans if s.parent < 0)

    m = {
        "kernels.contract1.calls": t.n("kernels.contract1"),
        "kernels.contract1.us_per_call": t.per_call("kernels.contract1", 1e6),
        "kernels.contract1.self_s": t.self_s("kernels.contract1"),
        "kernels.contract2.calls": t.n("kernels.contract2"),
        "kernels.contract2.us_per_call": t.per_call("kernels.contract2", 1e6),
        "kernels.contract2.self_s": t.self_s("kernels.contract2"),
        "kernels.bytes_computed": kernel_bytes,
        "kernels.gbps_computed": _ratio(kernel_bytes, kernel_time) / 1e9,
        "linalg.svd.calls": t.n("linalg.svd"),
        "linalg.svd.us_per_call": t.per_call("linalg.svd", 1e6),
        "linalg.svd.self_s": t.self_s("linalg.svd"),
        "linalg.svd_share_of_pair_step": _ratio(pair_svd, pair_svd + pair_contract),
        "core.f_value.calls": t.n("core.f_value"),
        "core.f_value.self_s": t.self_s("core.f_value"),
        "core.residual_norm.self_s": t.self_s("core.residual_norm"),
        "solvers.init_random.us_per_call": t.per_call("solvers.init_random", 1e6),
        "solvers.solve.calls": t.n("solvers.solve"),
        "solvers.solve.self_s": t.self_s("solvers.solve"),
        "solvers.bookkeeping_share": _ratio(
            t.self_s("solvers.solve"), t.total.get("solvers.solve", 0.0)
        ),
        "solvers.us_per_opt_call": _ratio(
            t.total.get("solvers.solve", 0.0), solve_stats["opt_calls"]
        )
        * 1e6,
        "solvers.sweeps": solve_stats["sweeps"],
        "solvers.opt_calls": solve_stats["opt_calls"],
        "solvers.fitchange_stop_share": _ratio(
            solve_stats["fitchange_stops"], solve_stats["solves"]
        ),
        "solvers.stationarity_max": solve_stats["stationarity_max"],
        "diagnostics.criticality.us_per_call": t.per_call("diagnostics.criticality", 1e6),
        "diagnostics.check_semi_max.us_per_call": t.per_call(
            "diagnostics.check_semi_max", 1e6
        ),
        "diagnostics.apply_F.calls": t.n("diagnostics.apply_F"),
        "diagnostics.apply_F.us_per_call": t.per_call("diagnostics.apply_F", 1e6),
        "diagnostics.jacobian_check_origin.ms_per_call": t.per_call(
            "diagnostics.jacobian_check_origin", 1e3
        ),
        "ami.gauss_seidel_matrix.us_per_call": t.per_call("ami.gauss_seidel_matrix", 1e6),
        "ami.analyze.self_ms": t.self_s("ami.analyze") * 1e3,
        "ami.ami_sweep.calls": t.n("ami.ami_sweep"),
        "ami.ami_sweep.us_per_call": t.per_call("ami.ami_sweep", 1e6),
        "ami.basin_experiment.ms_per_call": t.per_call("ami.basin_experiment", 1e3),
        "bench.generate.self_s": SpanTable(setup_spans).self_s("bench.generate"),
    }
    for layer, seconds in by_layer.items():
        m[f"layer.{layer}.self_s"] = seconds
    m["trace.wall_s"] = wall
    m["trace.self_sum_frac"] = _ratio(sum(by_layer.values()), wall)
    return m
