"""Layered benchmark for rank1tensor.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve_small --seed 1 --seconds 20 --trace 0

One process, one caller, closed loop: the next item starts only after the
previous one has finished and been checked. ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs a fixed number of
cycles twice, plain and with every layer function wrapped, and reports the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when any output check fails and 2 when the checkout has no package source.
"""

import argparse
import json
import os
import sys

# The BLAS thread count is part of the measured configuration: pin it to the
# CPUs this process may use before NumPy is first imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import rank1tensor from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "rank1tensor", "__init__.py")):
        print(f"no package source under {SRC}; run from a rank1tensor checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import rank1tensor

    where = os.path.realpath(rank1tensor.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        print(f"rank1tensor imported from {where}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return rank1tensor


def main(argv=None):
    args = parse_args(argv)
    package = import_package()

    import harness
    import layers
    import summary
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    os.makedirs(OUT, exist_ok=True)
    meta = harness.machine_metadata(package, NPROC, ROOT)
    print("meta " + json.dumps(meta, sort_keys=True))

    if args.trace:
        result = harness.traced_run(workload, args.seed, OUT)
        units = layers.PER_LAYER
    else:
        result = harness.timed_run(workload, args.seed, args.seconds, SETUP_REPS, OUT)
        units = summary.E2E
    metrics = result["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")

    for note in result["notes"]:
        print(note)
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")
    for name, (unit, _) in units.items():
        extra = result["annotations"].get(name, "")
        print(f"{args.workload:>14} {name:<46} {metrics[name]:>16.6g} {unit:<6} {extra}")

    report = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in units.items()},
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"meta": meta, "report": report}, fh, indent=1)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
