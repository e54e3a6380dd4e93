"""repro.obs — structured run telemetry for every iterative solver.

Five pillars, all inert until configured:

* a process-wide **metrics registry** (:mod:`repro.obs.registry`) with
  counters, gauges, and quantile-sketch timers (p50/p90/p99) plus a
  near-zero-overhead :func:`timed` context manager;
* **span tracing** (:mod:`repro.obs.spans`): nested wall/CPU-time spans
  with stable IDs and parent links, exportable to Chrome
  ``trace_event`` JSON (``repro trace-export``);
* a **convergence tracer** (:mod:`repro.obs.tracer`) recording
  per-iteration log-likelihood / residual, iteration wall-time, and the
  termination reason of every iterative loop;
* opt-in **profiling** (:mod:`repro.obs.profile`): per-span peak-RSS
  and ``tracemalloc`` deltas plus a ranked self-time profile report;
* a **structured logger** (:mod:`repro.obs.log`) and a versioned **run
  report** (:mod:`repro.obs.report`) aggregating metrics, spans,
  traces, resource usage, and config for a whole pipeline run.

Typical use::

    import repro.obs as obs

    obs.configure(level="INFO", trace_path="trace.jsonl",
                  report_path="report.json", spans=True)
    result = LatentEntityMiner(config).fit(corpus)   # writes report.json
    obs.get_traces("cathy.hin_em")[0].series("log_likelihood")
    obs.to_chrome_trace(obs.get_spans())             # chrome://tracing

With :func:`configure` never called, every instrumented hot loop pays a
single flag check per call site and allocates nothing.

Metric names are dotted lowercase (``solver.metric_name``); the
convention is machine-enforced by ``repro lint`` rule RL005, and this
package (with :mod:`repro.serve`) is the only place allowed to read the
wall clock under rule RL002.
"""

from __future__ import annotations

from typing import Optional

from .log import (JsonLinesFormatter, configure_logging, get_logger,
                  unconfigure_logging)
from .profile import (PROFILE_SCHEMA, build_profile_report, cpu_time_s,
                      peak_rss_bytes, profiling_enabled,
                      set_profiling_enabled, validate_profile_report,
                      write_profile_report)
from .prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from .prometheus import render_prometheus
from .registry import (MetricsRegistry, QuantileSketch, TimerStats,
                       get_registry, inc, is_enabled, observe,
                       reset_metrics, set_enabled, set_gauge, timed,
                       timed_function)
from .report import (REPORT_SCHEMA, build_run_report, cache_ratios,
                     get_report_path, set_report_path, validate_report,
                     write_report)
from .spans import (SpanHandle, clear_spans, current_span_id,
                    current_trace_id, from_chrome_trace, get_spans,
                    reset_spans, self_times, set_spans_enabled,
                    set_trace_id, span, span_totals, spans_enabled,
                    spans_from_jsonl, to_chrome_trace, top_spans)
from .tracer import (ConvergenceTrace, clear_traces, get_trace_path,
                     get_traces, set_trace_path, trace)

__all__ = [
    "ConvergenceTrace",
    "JsonLinesFormatter",
    "MetricsRegistry",
    "PROFILE_SCHEMA",
    "PROMETHEUS_CONTENT_TYPE",
    "QuantileSketch",
    "REPORT_SCHEMA",
    "SpanHandle",
    "TimerStats",
    "build_profile_report",
    "build_run_report",
    "cache_ratios",
    "clear_spans",
    "clear_traces",
    "configure",
    "configure_logging",
    "cpu_time_s",
    "current_span_id",
    "current_trace_id",
    "from_chrome_trace",
    "get_logger",
    "get_registry",
    "get_report_path",
    "get_spans",
    "get_trace_path",
    "get_traces",
    "inc",
    "is_enabled",
    "observe",
    "peak_rss_bytes",
    "profiling_enabled",
    "render_prometheus",
    "reset",
    "reset_metrics",
    "reset_spans",
    "self_times",
    "set_enabled",
    "set_gauge",
    "set_profiling_enabled",
    "set_report_path",
    "set_spans_enabled",
    "set_trace_id",
    "set_trace_path",
    "span",
    "span_totals",
    "spans_enabled",
    "spans_from_jsonl",
    "timed",
    "timed_function",
    "to_chrome_trace",
    "top_spans",
    "trace",
    "validate_profile_report",
    "validate_report",
    "write_profile_report",
    "write_report",
]


def configure(level: Optional[str] = None,
              trace_path: Optional[str] = None,
              report_path: Optional[str] = None,
              json_logs: bool = False,
              metrics: bool = True,
              spans: Optional[bool] = None,
              profile: bool = False) -> None:
    """Single entry point switching observability on.

    Args:
        level: when given, attach a log handler at this level
            (``"DEBUG"`` / ``"INFO"`` / ...).
        trace_path: stream finished convergence traces and spans to
            this JSON-lines file.
        report_path: where :meth:`LatentEntityMiner.fit` and the CLI
            write the aggregated run report.
        json_logs: emit log records as JSON lines instead of text.
        metrics: enable the metrics registry and tracer (default True).
        spans: enable span tracing; defaults to on whenever a trace
            path is given or profiling is requested (profiling hooks
            fire per span, so they need spans to attach to).
        profile: install per-span RSS/allocation profiling hooks.
    """
    if metrics:
        set_enabled(True)
    if level is not None:
        configure_logging(level, json_lines=json_logs)
    if trace_path is not None:
        set_trace_path(trace_path)
    if spans is None:
        spans = trace_path is not None or profile
    if spans:
        set_spans_enabled(True)
    if profile:
        set_profiling_enabled(True)
    if report_path is not None:
        set_report_path(report_path)


def reset() -> None:
    """Disable observability and drop all collected state (test helper)."""
    set_profiling_enabled(False)
    set_enabled(False)
    reset_metrics()
    clear_traces()
    reset_spans()
    set_trace_path(None)
    set_report_path(None)
    unconfigure_logging()
