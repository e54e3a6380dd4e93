"""Tests for span tracing, quantile sketches, and profiling hooks."""

import json
import tracemalloc

import pytest

import repro.obs as obs
from repro.errors import DataError
from repro.obs.registry import QuantileSketch
from repro.obs.spans import _NULL_SPAN


def _enable_spans():
    obs.set_enabled(True)
    obs.set_spans_enabled(True)


class TestSpanTree:
    def test_nested_spans_link_parent_and_trace(self):
        _enable_spans()
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        records = {r["name"]: r for r in obs.get_spans()}
        assert records["inner"]["parent_id"] == records["outer"]["span_id"]
        assert records["inner"]["trace_id"] == records["outer"]["trace_id"]

    def test_tree_is_well_formed(self):
        """No orphans, and every child interval nests inside its parent."""
        _enable_spans()
        with obs.span("root"):
            for _ in range(3):
                with obs.span("child"):
                    with obs.span("grandchild"):
                        pass
        records = obs.get_spans()
        by_id = {r["span_id"]: r for r in records}
        for record in records:
            parent_id = record["parent_id"]
            if record["name"] == "root":
                assert parent_id is None
                continue
            assert parent_id in by_id, "orphaned span"
            parent = by_id[parent_id]
            assert parent["start_unix"] <= record["start_unix"]
            assert record["end_unix"] <= parent["end_unix"]

    def test_span_records_error_on_exception(self):
        _enable_spans()
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("nope")
        (record,) = obs.get_spans("boom")
        assert record["error"] == "ValueError"

    def test_span_doubles_as_timer(self):
        _enable_spans()
        with obs.span("phase.dual"):
            pass
        assert obs.get_registry().timer("phase.dual").count == 1

    def test_span_attrs_survive_to_record(self):
        _enable_spans()
        with obs.span("attrs", iteration=3) as handle:
            handle.set(extra="yes")
        (record,) = obs.get_spans("attrs")
        assert record["attrs"] == {"iteration": 3, "extra": "yes"}


def _by_id(records):
    """Chrome export reorders by start time; compare records by identity."""
    return {record["span_id"]: record for record in records}


class TestChromeTrace:
    def test_round_trip_is_lossless(self):
        _enable_spans()
        with obs.span("outer", level=1):
            with obs.span("inner"):
                pass
        records = obs.get_spans()
        chrome = obs.to_chrome_trace(records)
        assert chrome["displayTimeUnit"] == "ms"
        assert all(e["ph"] == "X" for e in chrome["traceEvents"])
        assert _by_id(obs.from_chrome_trace(chrome)) == _by_id(records)

    def test_round_trip_survives_json(self):
        _enable_spans()
        with obs.span("jsonable", k="v"):
            pass
        records = obs.get_spans()
        chrome = json.loads(json.dumps(obs.to_chrome_trace(records)))
        assert _by_id(obs.from_chrome_trace(chrome)) == _by_id(records)


def _sketch_of(values):
    sketch = QuantileSketch()
    for value in values:
        sketch.add(value)
    return sketch


class TestQuantileSketch:
    def test_quantile_relative_error_bound(self):
        sketch = _sketch_of([float(i) for i in range(1, 1001)])
        for q, exact in ((0.5, 500.0), (0.9, 900.0), (0.99, 990.0)):
            assert abs(sketch.quantile(q) - exact) / exact < 0.10

    def test_round_trips_through_dict(self):
        sketch = _sketch_of([0.001, 0.5, 3.0, 3.0])
        back = QuantileSketch.from_dict(sketch.to_dict())
        assert back.to_dict() == sketch.to_dict()
        assert back.count == 4


class TestDisabledFastPath:
    def test_disabled_span_is_shared_singleton(self):
        assert obs.span("a.b") is obs.span("c.d") is _NULL_SPAN

    def test_disabled_span_allocates_nothing(self):
        # Warm up so interned constants and code objects are cached.
        with obs.span("warm"):
            pass
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                with obs.span("hot.path"):
                    pass
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before == 0
        assert obs.get_spans() == []


class TestPrometheus:
    def test_render_includes_quantiles_and_counters(self):
        obs.set_enabled(True)
        obs.inc("serve.cache.hits", 3)
        obs.set_gauge("serve.uptime_s", 1.5)
        obs.observe("serve.http.latency", 0.01)
        text = obs.render_prometheus(obs.get_registry().snapshot())
        assert "repro_serve_cache_hits_total 3.0" in text
        assert "repro_serve_uptime_s 1.5" in text
        assert 'repro_serve_http_latency_seconds{quantile="0.99"}' in text
        assert "repro_serve_http_latency_seconds_count 1" in text

    def test_empty_snapshot_renders_empty(self):
        assert obs.render_prometheus(
            {"counters": {}, "gauges": {}, "timers": {}}) == ""


class TestProfileAndReport:
    def test_profile_report_ranks_spans_by_self_time(self, tmp_path):
        _enable_spans()
        obs.set_profiling_enabled(True)
        with obs.span("profiled.outer"):
            data = [0] * 50_000
            with obs.span("profiled.inner"):
                data.extend(range(10_000))
        obs.set_profiling_enabled(False)
        report = obs.build_profile_report(config={"cmd": "test"})
        obs.validate_profile_report(report)
        assert report["schema"] == obs.PROFILE_SCHEMA
        names = [row["name"] for row in report["spans"]]
        assert {"profiled.outer", "profiled.inner"} <= set(names)
        (outer,) = [r for r in report["spans"]
                    if r["name"] == "profiled.outer"]
        assert outer["rss_peak_bytes"] >= 0
        path = tmp_path / "profile.json"
        obs.write_profile_report(report, str(path))
        assert json.loads(path.read_text())["schema"] == obs.PROFILE_SCHEMA

    def test_run_report_v2_has_resources_and_top_spans(self):
        _enable_spans()
        with obs.span("reported"):
            pass
        report = obs.build_run_report(config={})
        assert report["schema"] == obs.REPORT_SCHEMA
        assert report["resources"]["peak_rss_bytes"] > 0
        assert any(row["name"] == "reported"
                   for row in report["top_spans"])
        obs.validate_report(report)

    def test_v1_report_is_rejected(self):
        report = obs.build_run_report(config={})
        report["schema"] = "repro.obs/run-report/v1"
        del report["resources"]
        del report["top_spans"]
        with pytest.raises(DataError, match="unsupported report schema"):
            obs.validate_report(report)
