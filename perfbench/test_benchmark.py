"""Tests for the benchmark's own arithmetic, on synthetic spans and
latencies, and for its agreement with BENCHMARK.json. Run from the
repository root:

    python3 -m pytest perfbench/test_benchmark.py
"""

import json
import os
import sys
import types

import pytest

import layers
import summary
from spans import Recorder, Span, has_ancestor, install, self_times


def span(name, start, end, parent=-1):
    return Span(name, start, end, parent, item=0)


class TestSelfTime:
    def test_nested_spans(self):
        # item [0, 10] > solve [1, 9] > {contract [2, 3], svd [4, 7] > contract [5, 6]}
        spans = [
            span("item", 0.0, 10.0),
            span("solvers.solve", 1.0, 9.0, parent=0),
            span("kernels.contract1", 2.0, 3.0, parent=1),
            span("linalg.svd", 4.0, 7.0, parent=1),
            span("kernels.contract1", 5.0, 6.0, parent=3),
        ]
        assert self_times(spans) == pytest.approx([2.0, 4.0, 1.0, 2.0, 1.0])
        assert sum(self_times(spans)) == pytest.approx(spans[0].duration)

    def test_overlapping_children_are_counted_once(self):
        spans = [span("a", 0.0, 10.0), span("b", 1.0, 5.0, 0), span("c", 3.0, 6.0, 0)]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_child_sticking_out_is_clipped(self):
        spans = [span("a", 0.0, 4.0), span("b", 3.0, 6.0, 0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_ancestor_flags(self):
        spans = [
            span("item", 0.0, 10.0),
            span("solvers.solve", 1.0, 9.0, 0),
            span("linalg.svd", 2.0, 3.0, 1),
            span("kernels.contract2", 3.0, 4.0, 2),
            span("linalg.svd", 9.5, 9.9, 0),
        ]
        assert has_ancestor(spans, "solvers.solve") == [False, False, True, True, False]

    def test_layer_self_times_add_up_to_the_wall(self):
        spans = [
            span("item", 1.0, 4.0),
            span("solvers.solve", 1.5, 3.5, 0),
            span("kernels.contract2", 2.0, 2.5, 1),
            span("linalg.svd", 2.5, 3.0, 1),
            span("item", 5.0, 6.0),
        ]
        stats = {"sweeps": 3, "opt_calls": 6, "solves": 1, "fitchange_stops": 1, "stationarity_max": 0.0}
        m = layers.loop_metrics(spans, 6.0, [], stats)
        assert m["layer.kernels.self_s"] == pytest.approx(0.5)
        assert m["layer.linalg.self_s"] == pytest.approx(0.5)
        assert m["layer.solvers.self_s"] == pytest.approx(1.0)
        # item self time (1.0 + 1.0) plus the 2.0 s outside items
        assert m["layer.harness.self_s"] == pytest.approx(4.0)
        assert m["trace.self_sum_frac"] == pytest.approx(1.0)
        assert m["linalg.svd_share_of_pair_step"] == pytest.approx(0.5)
        assert m["solvers.bookkeeping_share"] == pytest.approx(0.5)
        assert m["solvers.us_per_opt_call"] == pytest.approx(2.0 / 6 * 1e6)
        assert set(m) | {"trace.overhead_frac"} >= set(layers.PER_LAYER) - {
            name for name in layers.PER_LAYER if name.startswith(("io.", "cli."))
        }


class TestRecorder:
    def test_wrapped_calls_nest(self):
        rec = Recorder()
        inner = rec.wrap(lambda x: x + 1, "kernels.contract1")
        outer = rec.wrap(lambda x: inner(x) * 2, "solvers.solve")
        rec.item = 7
        assert outer(1) == 4
        assert [(s.name, s.parent, s.item) for s in rec.spans] == [
            ("solvers.solve", -1, 7),
            ("kernels.contract1", 0, 7),
        ]

    def test_span_closes_when_the_call_raises(self):
        rec = Recorder()

        def boom():
            raise ValueError("no")

        with pytest.raises(ValueError):
            rec.wrap(boom, "x.boom")()
        assert rec.spans[0].end is not None and rec._open == []

    def test_missing_layer_function_is_reported_not_fatal(self, monkeypatch):
        module = types.ModuleType("fake_layer")
        module.present = lambda: "ok"
        monkeypatch.setitem(sys.modules, "fake_layer", module)
        rec = Recorder()
        targets = [
            ("fake_layer", "present", "fake.present", None),
            ("fake_layer", "renamed_away", "fake.gone", None),
            ("no_such_module_anywhere", "f", "nowhere.f", None),
        ]
        restore, absent = install(rec, targets)
        try:
            assert module.present() == "ok"
        finally:
            restore()
        assert absent == ["fake.gone", "nowhere.f"]
        assert [s.name for s in rec.spans] == ["fake.present"]
        assert module.present() == "ok" and len(rec.spans) == 1

    def test_name_imported_elsewhere_is_wrapped_and_restored(self, monkeypatch):
        base = types.ModuleType("fake_base")
        base.f = lambda: 1
        user = types.ModuleType("fake_user")
        user.f = base.f
        monkeypatch.setitem(sys.modules, "fake_base", base)
        monkeypatch.setitem(sys.modules, "fake_user", user)
        original = base.f
        rec = Recorder()
        restore, _ = install(rec, [("fake_base", "f", "x.f", None), ("fake_user", "f", "x.f", None)])
        base.f()
        user.f()
        restore()
        assert base.f is original and user.f is original
        assert len(rec.spans) == 2


class TestTail:
    def test_highest_rung_with_ten_beyond(self):
        values = list(range(1, 1001))  # 1000 samples
        p, value, beyond = summary.tail(values)
        # p99 leaves 10 above rank 990; p99.9 would leave 1
        assert (p, value, beyond) == (99.0, 990, 10)

    def test_just_below_a_threshold_falls_back_a_rung(self):
        p, value, beyond = summary.tail(list(range(1, 1000)))  # 999 samples
        assert p == 90.0 and beyond == 999 - 900 and value == 900

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
        assert summary.tail(values) == summary.tail(sorted(values))

    def test_too_few_samples_report_the_median_rank(self):
        p, value, beyond = summary.tail([3.0, 1.0, 2.0])
        assert p == 50.0 and value == 2.0 and beyond == 1

    def test_nearest_rank(self):
        assert summary.nearest_rank(50.0, 4) == 2
        assert summary.nearest_rank(90.0, 100) == 90
        assert summary.nearest_rank(99.9, 100) == 100
        assert summary.nearest_rank(99.9, 1000) == 999
        assert summary.percentile([1, 2, 3, 4], 75.0) == 3


class TestErrorRate:
    def test_denominator_counts_every_attempt(self):
        # 3 failures among 200 attempted items, failed ones included
        assert summary.error_rate(3, 200) == pytest.approx(0.015)
        assert summary.error_rate(0, 5) == 0.0
        assert summary.error_rate(5, 5) == 1.0

    @pytest.mark.parametrize("failed, attempted", [(1, 0), (-1, 3), (4, 3)])
    def test_impossible_counts_are_rejected(self, failed, attempted):
        with pytest.raises(ValueError):
            summary.error_rate(failed, attempted)


def test_benchmark_json_lists_what_the_code_reports():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == summary.E2E
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
