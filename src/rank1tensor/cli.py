"""Command-line interface.

Subcommands: ``decompose`` (run a solver on a tensor file), ``verify``
(stationarity and semi-maximality checks for a tuple file), ``bench``
(the timing/quality harness, CSV output), ``ami`` (block Gauss-Seidel
spectrum analysis of a block matrix file).

Exit codes: 0 success, 1 input error, 2 solver breakdown, 3 verification
failure.

``ami``, ``bench`` and ``diagnostics`` are imported by the subcommands that
use them, so ``decompose`` does not pay for their import.
"""

import argparse
import contextlib
import sys

from . import io
from .errors import BreakdownError, Rank1Error
from .solvers import INITS, METHODS, SolverConfig, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BREAKDOWN = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract reserves 2 for
    # solver breakdowns, so parse failures are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _sizes(text):
    # "4,8,16" -> [4, 8, 16]; empty items are skipped
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _count(text):
    # an integer >= 0, rejected here so that nothing is printed before usage
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _tolerance(text):
    # a number >= 0, inf included; float() rejects what is not a number
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _fmt(value):
    return f"{value:.12g}"


def cmd_decompose(args):
    tensor = io.read_tensor_text(args.input)
    cfg = SolverConfig(
        method=args.method,
        max_iterations=args.max_iters,
        fitchange_tol=args.tol,
        init=args.init,
        seed=args.seed,
    )
    # opened before the solve, so that a bad path exits 1 before any work or output
    with open(args.trace, "w", encoding="ascii") if args.trace else contextlib.nullcontext() as fh:
        result = solve(tensor, cfg)
        if fh is not None:
            trace = result.trace
            fh.write("iteration,substep,modes,chosen,f_after,opt_calls\n")
            start = 0
            for k, end in enumerate(trace.sweep_ends):
                for s in range(start, end):
                    modes, chosen, _ = trace.steps[s]
                    fh.write(
                        f"{k + 1},{s - start},{'+'.join(map(str, modes))},"
                        f"{'' if chosen is None else chosen},"
                        f"{trace.f_after[s]:.17g},{trace.opt_calls[k]}\n"
                    )
                start = end
    print(f"lambda {_fmt(result.lambda_)}")
    print(f"fit {_fmt(result.fit)}")
    print(f"rel_error {_fmt(result.residual / tensor.norm())}")
    print(f"iterations {result.iterations}")
    print(f"opt_calls {result.optimization_calls}")
    print(f"converged_by {result.converged_by}")
    if result.stationarity is not None:
        print(f"stationarity {_fmt(result.stationarity)}")
    return EXIT_OK


def cmd_verify(args):
    from . import diagnostics

    tensor = io.read_tensor_text(args.input)
    axes, adjusted = io.read_tuple_text(args.tuple)
    if adjusted:
        print("warning: tuple vectors were not unit length; normalized", file=sys.stderr)

    # both checks run before the first line, so one that raises prints nothing
    crit = diagnostics.criticality(tensor, axes)
    report = diagnostics.check_semi_max(tensor, axes, level=args.level, tol=args.tol)
    print("lambda_per_mode " + " ".join(_fmt(x) for x in crit.lambda_per_mode))
    print("residual_per_mode " + " ".join(_fmt(x) for x in crit.residual_per_mode))
    print(f"max_residual {_fmt(crit.max_residual)}")
    print(f"lambda_spread {_fmt(crit.lambda_spread)}")
    print(f"semi_max_level {report.level}")
    for check in report.checks:
        print(
            f"check index {check.index} margin {_fmt(check.margin)} "
            f"{'pass' if check.passed else 'fail'}"
        )
    crit_ok = crit.max_residual <= args.tol * tensor.norm()
    print(f"criticality {'pass' if crit_ok else 'fail'}")
    print(f"semi_max {'pass' if report.passed else 'fail'}")
    return EXIT_OK if (report.passed and crit_ok) else EXIT_VERIFY


def cmd_bench(args):
    from . import bench as bench_mod

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    kinds = [k.strip() for k in args.datasets.split(",") if k.strip()]
    specs = [
        bench_mod.DatasetSpec(kind=kind, dims=(n,) * 3, seed=args.seed)
        for kind in kinds
        for n in args.sizes
    ]
    bench_mod.check_run(specs, methods, args.runs)  # before --out is opened
    with open(args.out, "w", encoding="ascii") as fh:
        rows, csv_text = bench_mod.run_bench(specs, methods, runs=args.runs)
        fh.write(csv_text)
    print(
        f"{'method':>7} {'dataset':>16} {'dims':>10} {'runs':>4} "
        f"{'wall_mean':>10} {'calls':>7} {'lambda':>12} {'rel_err':>9}"
    )
    for row in rows:
        print(
            f"{row.method:>7} {row.dataset:>16} {row.dims:>10} {row.runs:>4} "
            f"{row.wall_mean:>10.6f} {row.opt_calls_mean:>7.1f} "
            f"{row.lambda_mean:>12.5g} {row.rel_error_mean:>9.5f}"
        )
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_ami(args):
    from . import ami as ami_mod

    h, sizes = io.read_block_matrix_text(args.input)
    form = ami_mod.BlockQuadraticForm(h, sizes)
    report = ami_mod.analyze(form)
    # the trajectory runs before any output, so a bad start prints nothing
    trajectory = None
    if args.basin:
        xi0 = io.read_vector_text(args.basin)
        trajectory = ami_mod.basin_experiment(form, xi0, sweeps=args.sweeps)
    print(f"order {form.order}")
    print(f"block_sizes {' '.join(str(m) for m in form.block_sizes)}")
    print(f"alpha {report.alpha}")
    print(f"beta {report.beta}")
    print(f"gamma {report.gamma}")
    print(f"pi {report.inertia.positive}")
    print(f"nu {report.inertia.negative}")
    print(f"zeta {report.inertia.zero}")
    print(f"spectral_radius {_fmt(report.spectral_radius)}")
    print(f"diagonal_blocks_definite {report.diagonal_blocks_definite}")
    holds = report.theorem_holds
    print(f"theorem_holds {'not-applicable' if holds is None else holds}")
    print(f"ostrowski {report.ostrowski}")
    print(f"pi_lower_bound_ok {report.pi_lower_bound_ok}")
    print(f"unit_circle_near_one {report.unit_circle_near_one}")
    if trajectory is not None:
        print(f"basin_sweeps {trajectory.sweeps_run}")
        print(f"basin_norm_first {_fmt(trajectory.norms[0])}")
        print(f"basin_norm_last {_fmt(trajectory.norms[-1])}")
        print(f"basin_f_first {_fmt(trajectory.f_values[0])}")
        print(f"basin_f_last {_fmt(trajectory.f_values[-1])}")
        print(f"basin_converged_to_zero {trajectory.converged_to_zero}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="rank1tensor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="best rank-one approximation of a tensor file")
    p.add_argument("--input", required=True, help="tensor text file")
    p.add_argument("--method", default=SolverConfig.method, choices=METHODS)
    p.add_argument("--seed", type=int, default=SolverConfig.seed,
                   help="random-start seed (default %(default)s)")
    p.add_argument("--init", default=SolverConfig.init, choices=INITS)
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iterations,
                   help="sweep cap (default %(default)s)")
    p.add_argument(
        "--tol",
        type=float,
        default=SolverConfig.fitchange_tol,
        help="fit-change stop (default %(default)g); below 1e-6 the solve also takes "
        "Newton steps once the fit change is below 1e-4, and may stop on a "
        "certified stationarity of at most tol^(3/4)|T|",
    )
    p.add_argument("--trace", default=None, help="write per-sub-step CSV here")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="stationarity / semi-maximality checks")
    p.add_argument("--input", required=True, help="tensor text file")
    p.add_argument("--tuple", required=True, help="tuple text file (d vectors)")
    p.add_argument("--level", type=int, default=1, choices=(1, 2))
    p.add_argument(
        "--tol", type=_tolerance, default=1e-6, help="margin tolerance (default 1e-6)"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="timing/quality harness, writes CSV")
    p.add_argument(
        "--sizes", type=_sizes, default="4,8,16", help="cubic sizes (default 4,8,16)"
    )
    p.add_argument(
        "--datasets",
        default="random_uniform",
        help="comma list of: random_uniform, symmetric_random, smooth_blob",
    )
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--runs", type=int, default=10, help="runs per cell (default 10)")
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument("--out", default="bench.csv", help="CSV path (default bench.csv)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ami", help="block Gauss-Seidel spectrum analysis")
    p.add_argument("--input", required=True, help="block matrix text file")
    p.add_argument("--basin", default=None, help="start vector file for a trajectory")
    p.add_argument("--sweeps", type=_count, default=100, help="trajectory length")
    p.set_defaults(func=cmd_ami)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BreakdownError as exc:
        print(f"solver breakdown: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except (MemoryError, OSError, Rank1Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
