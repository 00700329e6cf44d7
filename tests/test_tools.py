import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))

import perf_ab  # noqa: E402


def canned_output(throughput, latency, failed=0):
    # what perfbench/run.py prints: a meta line, metric lines, the report
    report = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "throughput_per_s": {"value": throughput, "unit": "1/s"},
            "latency_p50_ms": {"value": latency, "unit": "ms"},
        },
    }
    return "\n".join(
        [
            "meta " + json.dumps({"python": "3.11.7", "nproc": 2, "git_commit": "abc"}),
            f"   solve_small throughput_per_s {throughput:>16.6g} 1/s",
            f"   solve_small latency_p50_ms {latency:>16.6g} ms",
            json.dumps(report),
        ]
    )


def runs_from(side, values):
    runs = []
    for seed, (throughput, latency) in enumerate(values, start=801):
        _, report = perf_ab.parse_output(canned_output(throughput, latency))
        metrics = {k: v["value"] for k, v in report["metrics"].items()}
        runs.append({"seed": seed, "side": side, "metrics": metrics, "failed": 0})
    return runs


BETTER = {"throughput_per_s": "higher", "latency_p50_ms": "lower"}


def test_parse_output_reads_meta_and_last_line():
    meta, report = perf_ab.parse_output(canned_output(1000.0, 0.5, failed=2))
    assert meta == {"python": "3.11.7", "nproc": 2, "git_commit": "abc"}
    assert report["failed"] == 2
    assert report["metrics"]["throughput_per_s"]["value"] == 1000.0
    assert perf_ab.parse_output("Traceback (most recent call last):\nboom\n") == (None, None)


def test_parse_seeds():
    assert perf_ab.parse_seeds("801-804") == [801, 802, 803, 804]
    assert perf_ab.parse_seeds("801,803,805-806") == [801, 803, 805, 806]
    assert perf_ab.parse_spec("solve_small:7") == ("solve_small", [7])


def test_quartiles_interpolate_between_order_statistics():
    assert perf_ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert perf_ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert perf_ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_medians_iqr_and_pairs_won():
    parent = runs_from("parent", [(100, 1.0), (110, 1.1), (90, 0.9), (105, 1.0), (95, 1.2)])
    change = runs_from("change", [(120, 0.8), (130, 1.1), (100, 0.7), (99, 0.9), (125, 0.8)])
    summary = perf_ab.summarize(parent + change, BETTER)

    tp = summary["throughput_per_s"]
    assert (tp["parent_q1"], tp["parent_median"], tp["parent_q3"]) == (95, 100, 105)
    assert (tp["change_q1"], tp["change_median"], tp["change_q3"]) == (100, 120, 125)
    assert tp["parent_iqr"] == 10 and tp["change_iqr"] == 25
    assert tp["ratio_change_over_parent"] == pytest.approx(1.2)
    # seed 804 reads 99 against 105: the change loses one pair of five
    assert tp["change_better_pairs"] == 4 and tp["pairs"] == 5
    assert not tp["gain_claimable"]  # 4 of 5 is below nine tenths

    lat = summary["latency_p50_ms"]
    # lower is better: seed 802 ties (1.1 against 1.1) and counts for neither
    assert lat["change_better_pairs"] == 4
    assert lat["parent_median"] == 1.0 and lat["change_median"] == 0.8


def test_gain_claimable_needs_nine_tenths_and_a_gain_beyond_parent_iqr():
    parent = runs_from("parent", [(100 + i, 1.0) for i in range(10)])
    change = runs_from("change", [(120 + i, 1.0) for i in range(10)])
    assert perf_ab.summarize(parent + change, BETTER)["throughput_per_s"]["gain_claimable"]

    # every pair won, but fewer than ten pairs
    assert not perf_ab.summarize(parent[:9] + change[:9], BETTER)["throughput_per_s"][
        "gain_claimable"
    ]

    # every pair won, but the median gain (2) is inside the parent's IQR (4.5)
    change = runs_from("change", [(102 + i, 1.0) for i in range(10)])
    tp = perf_ab.summarize(parent + change, BETTER)["throughput_per_s"]
    assert tp["change_better_pairs"] == 10 and tp["parent_iqr"] == 4.5
    assert not tp["gain_claimable"]


def test_summary_counts_only_seeds_run_on_both_sides():
    parent = runs_from("parent", [(100, 1.0), (110, 1.0)])
    change = runs_from("change", [(120, 1.0)])
    failed_run = {"seed": 803, "side": "change", "exit": 1}
    summary = perf_ab.summarize(parent + change + [failed_run], BETTER)
    assert summary["throughput_per_s"]["pairs"] == 1
    assert summary["throughput_per_s"]["parent_median"] == 100
    assert perf_ab.failed_per_run(parent + change + [failed_run]) == {
        "parent": [0, 0],
        "change": [0, None],
    }


def test_peak_rss_read_against_items_attempted():
    def run(side, seed, rss, attempted):
        return {"seed": seed, "side": side, "attempted": attempted, "metrics": {"peak_rss_mb": rss}}

    runs = [
        run("parent", 801, 55.0, 4000),
        run("parent", 802, 56.0, 4600),
        run("parent", 803, 55.5, 4500),
        run("change", 801, 52.0, 14000),
        run("change", 802, 53.0, 13000),
        run("change", 803, 52.5, 14500),
    ]
    rss = perf_ab.summarize(runs, {"peak_rss_mb": "lower"})["peak_rss_mb"]
    assert (rss["parent_attempted_median"], rss["change_attempted_median"]) == (4500, 14000)
    # (52.5 - 55.5) MB over 9,500 extra items
    assert rss["mb_per_1000_extra_items"] == pytest.approx(-3.0 / 9.5)
    line = perf_ab.rss_line("analysis", {"peak_rss_mb": rss})
    assert line == (
        "analysis peak_rss_mb: parent 55.50 MB at 4,500 items, change 52.50 MB at "
        "14,000 items, -0.316 MB per 1,000 extra items"
    )

    # equal counts, or counts closer than SLOPE_MIN_ITEMS (88 against 90
    # items gave -217 MB per 1,000), give no slope
    for parent_items, change_items in ((4000, 4000), (88, 90), (4000, 4099)):
        close = [run("parent", 801, 55.0, parent_items), run("change", 801, 55.5, change_items)]
        rss = perf_ab.summarize(close, {"peak_rss_mb": "lower"})["peak_rss_mb"]
        assert rss["mb_per_1000_extra_items"] is None
        assert perf_ab.rss_line("w", {"peak_rss_mb": rss}).endswith(
            "item counts differ by fewer than 100, too close for a slope"
        )
    apart = [run("parent", 801, 55.0, 4000), run("change", 801, 55.5, 4100)]
    rss = perf_ab.summarize(apart, {"peak_rss_mb": "lower"})["peak_rss_mb"]
    assert rss["mb_per_1000_extra_items"] == pytest.approx(5.0)
    # no RSS metric, no line
    assert perf_ab.rss_line("w", perf_ab.summarize(runs_from("parent", [(1, 1)]), BETTER)) is None


def test_step_timings_cover_sweeps_and_the_newton_step():
    rows = perf_ab.step_timings(repeats=1, seconds=0.0)
    assert [(r["dims"], r["step"]) for r in rows] == [
        (dims, step)
        for dims in ("8x8x8", "32x32x32")
        for step in ("asvd_sweep", "masvd_sweep", "newton_step")
    ]
    assert all(r["us_per_call"] > 0.0 for r in rows)


def test_masvd_solve_timings_cover_both_shapes():
    rows = perf_ab.masvd_solve_timings(repeats=1, seconds=0.0)
    assert [(r["dims"], r["step"]) for r in rows] == [
        ("8x8x8", "masvd_solve"), ("32x32x32", "masvd_solve")
    ]
    assert all(r["us_per_call"] > 0.0 for r in rows)


def test_update_steps_take_the_sweeps_and_the_masvd_solve(monkeypatch):
    monkeypatch.setattr(perf_ab, "step_timings", lambda: [{"step": "asvd_sweep"}])
    monkeypatch.setattr(perf_ab, "masvd_solve_timings", lambda: [{"step": "masvd_solve"}])
    monkeypatch.setattr(perf_ab, "kernel_timings", lambda: [{"step": "contract_all_but_one(0)"}])
    monkeypatch.setattr(perf_ab, "large_step_timings", lambda: [{"step": "mals_sweep"}])
    assert perf_ab.update_step_rows() == [
        {"step": "asvd_sweep"}, {"step": "masvd_solve"}, {"step": "contract_all_but_one(0)"},
        {"step": "mals_sweep"},
    ]


def test_large_step_timings_cover_the_sweeps_and_pair_steps():
    rows = perf_ab.large_step_timings(repeats=1, seconds=0.0)
    assert [(r["dims"], r["step"]) for r in rows] == [
        ("128x128x128", "mals_sweep"),
        ("32x32x32x32", "mals_sweep"),
        ("32x32x32x32", "asvd_sweep"),
        ("64x64", "top_singular_triple"),
        ("128x128", "top_singular_triple"),
    ]
    assert all(r["us_per_call"] > 0.0 and r["cpu_over_wall"] > 0.0 for r in rows)


def test_tensor_reads_count_whole_tensor_passes_per_sweep():
    from rank1tensor import kernels

    reduce = kernels._reduce
    rows = perf_ab.tensor_reads()
    got = {(r["dims"], r["method"]): r["reads_per_sweep"] for r in rows}
    assert got == {
        ("64x64x64", "als"): [2, 2, 2],
        ("64x64x64", "asvd"): [3, 3, 3],
        ("64x64x64", "mals"): [3, 3, 3],
        ("64x64x64", "masvd"): [6, 5, 5],
        ("32x32x32x32", "als"): [2, 2, 2],
        ("32x32x32x32", "asvd"): [4, 3, 3],
        ("32x32x32x32", "mals"): [3, 3, 3],
        ("8x8x8x8x8", "als"): [2, 2, 2],
        ("8x8x8x8x8", "asvd"): [5, 5, 5],
        ("8x8x8x8x8", "mals"): [3, 3, 3],
    }
    # the spy is taken out again
    assert kernels._reduce is reduce


def test_kernel_timings_cover_the_shapes_and_modes():
    rows = perf_ab.kernel_timings(repeats=1, seconds=0.0)
    partial = (
        "contract_partial(over (0, 1, 2), keep (1, 2))",
        "contract_partial(over (0, 1, 2), keep (1,))",
    )
    assert [(r["dims"], r["step"]) for r in rows] == [
        (dims, step)
        for dims, last, extra in (
            ("64x64x64", 2, ()),
            ("128x128x128", 2, partial),
            ("32x32x32x32", 3, partial),
        )
        for step in (
            "contract_all_but_one(0)",
            f"contract_all_but_one({last})",
            "contract_all_but_two(1, 2)",
            *extra,
        )
    ]
    assert all(r["us_per_call"] > 0.0 and r["cpu_over_wall"] > 0.0 for r in rows)


def test_best_us_takes_the_fastest_batch():
    delays = iter([0.0, 0.02, 0.001, 0.01])

    def call():
        time.sleep(next(delays))

    # one untimed call, then three batches of one call each; the CPU time
    # is the whole process's, which idle BLAS threads of earlier tests may
    # spin up, so only its sign is checked here
    us, cpu_over_wall = perf_ab.best_us(call, repeats=3, seconds=0.0)
    assert 900.0 <= us < 10_000.0
    assert cpu_over_wall >= 0.0


def test_tight_counts_cover_the_tight_cells():
    rows = perf_ab.tight_counts(solves=2)
    assert [(r["dims"], r["method"]) for r in rows] == [
        ("32x32x32", "asvd"), ("8x8x8", "asvd"), ("8x8x8", "masvd")
    ]
    for row in rows:
        assert row["solves"] == 2 and row["stationary"] == 2 and len(row["lambdas"]) == 2
        assert row["sweeps"]["median"] >= 1
        # a certified stop takes one attempt at least, and a step in it
        assert row["newton_attempts"]["mean"] >= 1 and row["newton_steps"]["mean"] >= 1


def test_tight_counts_count_the_finish_calls(monkeypatch):
    from rank1tensor import solvers

    calls = []

    def reject(*args):
        calls.append(args)
        return None

    monkeypatch.setattr(solvers, "_newton_finish", reject)
    rows = perf_ab.tight_counts(solves=3)
    assert sum(3 * r["newton_attempts"]["mean"] for r in rows) == pytest.approx(len(calls))
    assert len(calls) > 0
    assert all(r["stationary"] == 0 and r["newton_steps"]["mean"] == 0 for r in rows)
    # the wrapper is taken out again
    assert solvers._newton_finish is reject


def test_tight_counts_count_opt_calls_and_rejected_attempts(monkeypatch):
    from rank1tensor import solvers

    finish = solvers._newton_finish
    results = []

    def reject_first(*args):
        # each solve's first attempt is rejected; later ones run as shipped
        first = not results or results[-1] is not None
        results.append(None if first else finish(*args))
        return results[-1]

    monkeypatch.setattr(solvers, "_newton_finish", reject_first)
    rows = perf_ab.tight_counts(solves=2)
    rejected = sum(2 * r["rejected_attempts"]["mean"] for r in rows)
    assert rejected == results.count(None) >= 6
    for row in rows:
        assert row["rejected_attempts"]["median"] >= 1
        assert row["newton_attempts"]["mean"] > row["rejected_attempts"]["mean"]
        # the sweeps' calls and each attempt's d + d(d - 1)/2 at least
        assert row["opt_calls"]["median"] >= row["sweeps"]["median"] + 6
    assert solvers._newton_finish is reject_first


def test_tight_counts_count_the_steps_the_finish_records(monkeypatch):
    # newton_steps, read from trace.steps, equals the sub-steps that the
    # finish calls appended to the trace
    from rank1tensor import solvers

    finish = solvers._newton_finish
    recorded = []

    def count(arr, vecs, trace, target, slack):
        before = len(trace.steps)
        s = finish(arr, vecs, trace, target, slack)
        recorded.append(len(trace.steps) - before)
        return s

    monkeypatch.setattr(solvers, "_newton_finish", count)
    rows = perf_ab.tight_counts(solves=2)
    assert sum(2 * r["newton_steps"]["mean"] for r in rows) == sum(recorded) > 0


def test_compare_lambdas_moves_lambdas_out():
    parent = [{"lambdas": [2.0, 4.0]}, {"lambdas": [1.0]}]
    change = [{"lambdas": [2.0, 4.0 + 4e-12]}, {"lambdas": [1.0]}]
    perf_ab.compare_lambdas(parent, change)
    assert parent == [{}, {}]
    assert change[0]["lambda_max_rel_diff"] == pytest.approx(1e-12, rel=1e-3)
    assert change[1] == {"lambda_max_rel_diff": 0.0}


def test_tight_counts_count_the_pair_steps(monkeypatch):
    # pair_steps counts the calls of linalg.top_singular_triple: three per
    # asvd sweep, and fewer than six per masvd sweep, since a masvd sweep
    # after the first looks up the candidate the last one applied
    from rank1tensor import linalg

    triple = linalg.top_singular_triple
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return triple(*args, **kwargs)

    monkeypatch.setattr(linalg, "top_singular_triple", spy)
    rows = perf_ab.tight_counts(solves=2)
    assert sum(2 * r["pair_steps"]["mean"] for r in rows) == len(calls) > 0
    asvd = [r for r in rows if r["method"] == "asvd"]
    assert all(r["pair_steps"]["mean"] == 3 * r["sweeps"]["mean"] for r in asvd)
    (masvd,) = [r for r in rows if r["method"] == "masvd"]
    assert masvd["pair_steps"]["mean"] < 6 * masvd["sweeps"]["mean"]
    # the wrapper is taken out again
    assert linalg.top_singular_triple is spy
