"""Nested span tracing with Chrome export.

A *span* is one timed region of the pipeline — a solver phase, one
E-step, one Gibbs sweep, one HTTP request — carrying wall-clock start
and end, CPU time, a stable span ID, a parent link, and the trace ID of
the run it belongs to.  Spans nest: :func:`span` consults a thread-local
stack, so the E-step span opened inside ``cathy.em.fit`` automatically
records that span as its parent, and the finished records form a
well-formed tree (child intervals inside parent intervals).

Three activity tiers keep the hot path free:

* spans enabled (:func:`set_spans_enabled`) — full record, plus the
  span's duration is folded into the metrics registry under the span
  name, so every ``span("x")`` is also a ``timed("x")``;
* only metrics enabled — :func:`span` degrades to a timer-observing
  handle, identical in cost to :func:`repro.obs.timed`;
* both disabled — a shared no-op singleton; zero allocations.

Wall-clock timestamps come from a per-process anchor
(``time.time() - time.perf_counter()`` sampled at import) plus
``perf_counter`` offsets, so sibling and nested spans within a process
are perfectly ordered even when the system clock steps.

Finished spans stream to the configured trace path (one
``{"event": "span", ...}`` JSON line each) and export to Chrome
``trace_event`` JSON via :func:`to_chrome_trace` /
``repro trace-export`` for chrome://tracing flamegraph viewing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .registry import get_registry, is_enabled
from .tracer import get_trace_path

__all__ = [
    "SpanHandle",
    "clear_spans",
    "current_span_id",
    "current_trace_id",
    "from_chrome_trace",
    "get_spans",
    "reset_spans",
    "self_times",
    "set_profile_hooks",
    "set_spans_enabled",
    "set_trace_id",
    "span",
    "spans_enabled",
    "to_chrome_trace",
    "top_spans",
]

#: Per-process wall-clock anchor: span start = anchor + perf_counter().
#: Sampling the pair once keeps all spans of a process on one monotonic
#: axis, so child intervals always sit inside their parents.
_ANCHOR_UNIX = time.time() - time.perf_counter()

_SPANS_ENABLED = False
_FINISHED: List[Dict[str, Any]] = []
_FINISHED_LOCK = threading.Lock()
_LOCAL = threading.local()

_ID_LOCK = threading.Lock()
_NEXT_ID = 0

#: Trace ID shared by every span of this process unless a thread
#: overrides it (e.g. one ID per HTTP request).  Derived from pid and
#: the anchor.
_PROCESS_TRACE_ID = f"{os.getpid():x}-{int(_ANCHOR_UNIX * 1e6):x}"

#: Optional profiling hooks installed by :mod:`repro.obs.profile`
#: (kept as injected callables to avoid an import cycle).  The start
#: hook returns an opaque token; the end hook turns it into extra
#: fields merged into the finished span record.
_PROFILE_START: Optional[Callable[[], Any]] = None
_PROFILE_END: Optional[Callable[[Any], Dict[str, Any]]] = None


def spans_enabled() -> bool:
    """True when span collection is active in this process."""
    return _SPANS_ENABLED


def set_spans_enabled(enabled: bool) -> None:
    """Turn span collection on or off process-wide."""
    global _SPANS_ENABLED
    _SPANS_ENABLED = bool(enabled)


def set_profile_hooks(start: Optional[Callable[[], Any]],
                      end: Optional[Callable[[Any], Dict[str, Any]]],
                      ) -> None:
    """Install (or clear) the per-span profiling hooks."""
    global _PROFILE_START, _PROFILE_END
    _PROFILE_START = start
    _PROFILE_END = end


def _next_span_id() -> str:
    global _NEXT_ID
    with _ID_LOCK:
        _NEXT_ID += 1
        serial = _NEXT_ID
    return f"{os.getpid():x}.{serial:x}"


def _stack() -> List["_LiveSpan"]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def current_span_id() -> Optional[str]:
    """Span ID of the innermost live span on this thread, if any."""
    stack = _stack()
    return stack[-1].span_id if stack else None


def current_trace_id() -> str:
    """Trace ID new spans on this thread will carry."""
    override = getattr(_LOCAL, "trace_id", None)
    return override if override is not None else _PROCESS_TRACE_ID


def set_trace_id(trace_id: Optional[str]) -> None:
    """Override the trace ID for this thread (None restores the default).

    The serving layer assigns one trace ID per HTTP request this way, so
    every span opened while handling the request shares its ID.
    """
    _LOCAL.trace_id = trace_id


class SpanHandle:
    """Context-manager interface returned by :func:`span`.

    The shared base gives strictly typed call sites one nominal type
    whether they received the live span, the metrics-only degradation,
    or the disabled-path no-op (which this class itself is).
    """

    __slots__ = ()

    #: Costly attributes may be computed only when this is True.
    active = False
    #: Stable span ID; None on the no-op and metrics-only tiers.
    span_id: Optional[str] = None

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, exc_type: Optional[type],
                 exc: Optional[BaseException], tb: object) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (no-op unless live)."""


class _MetricSpan(SpanHandle):
    """Metrics-only tier: records the duration as a registry timer."""

    __slots__ = ("_name", "_start")

    def __init__(self, name: str) -> None:
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_MetricSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Optional[type],
                 exc: Optional[BaseException], tb: object) -> bool:
        get_registry().observe(self._name,
                               time.perf_counter() - self._start)
        return False


class _LiveSpan(SpanHandle):
    """Full span: tree-linked record plus the registry timer."""

    __slots__ = ("name", "span_id", "parent_id", "trace_id", "attrs",
                 "_start_perf", "_start_cpu", "_profile_token")

    active = True

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.span_id = _next_span_id()
        self.parent_id = current_span_id()
        self.trace_id = current_trace_id()
        self.attrs = attrs
        self._start_perf = 0.0
        self._start_cpu = 0.0
        self._profile_token: Any = None

    def __enter__(self) -> "_LiveSpan":
        _stack().append(self)
        if _PROFILE_START is not None:
            self._profile_token = _PROFILE_START()
        self._start_cpu = time.process_time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type: Optional[type],
                 exc: Optional[BaseException], tb: object) -> bool:
        end_perf = time.perf_counter()
        cpu_s = time.process_time() - self._start_cpu
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        record: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "start_unix": _ANCHOR_UNIX + self._start_perf,
            "end_unix": _ANCHOR_UNIX + end_perf,
            "dur_s": end_perf - self._start_perf,
            "cpu_s": cpu_s,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self.attrs:
            record["attrs"] = self.attrs
        if _PROFILE_END is not None:
            record.update(_PROFILE_END(self._profile_token))
        _record_finished(record)
        if is_enabled():
            get_registry().observe(self.name, record["dur_s"])
        return False

    def set(self, **attrs: Any) -> None:
        """Attach attributes carried into the finished record."""
        self.attrs.update(attrs)


#: Shared do-nothing span for the fully disabled fast path.
_NULL_SPAN = SpanHandle()


def span(name: str, **attrs: Any) -> SpanHandle:
    """Open a span named ``name`` around a ``with`` block.

    Tier selection happens per call: live span while span tracing is
    on, plain registry timer while only metrics are on, shared no-op
    singleton otherwise.
    """
    if _SPANS_ENABLED:
        return _LiveSpan(name, attrs)
    if is_enabled():
        return _MetricSpan(name)
    return _NULL_SPAN


def _record_finished(record: Dict[str, Any]) -> None:
    """Register a finished record and stream it to the trace path."""
    with _FINISHED_LOCK:
        _FINISHED.append(record)
    path = get_trace_path()
    if path is not None:
        event = {"event": "span"}
        event.update(record)
        # repro: noqa-RL003  append-only JSONL stream shared with the
        # convergence tracer: each finished span is one appended line.
        with open(path, "a") as handle:
            handle.write(json.dumps(event, default=repr) + "\n")


def get_spans(name: Optional[str] = None) -> List[Dict[str, Any]]:
    """All finished span records (optionally filtered by span name)."""
    with _FINISHED_LOCK:
        records = list(_FINISHED)
    if name is None:
        return records
    return [r for r in records if r["name"] == name]


def clear_spans() -> None:
    """Forget every finished span record."""
    with _FINISHED_LOCK:
        del _FINISHED[:]


def reset_spans() -> None:
    """Disable span tracing and drop all span state (test helper)."""
    set_spans_enabled(False)
    clear_spans()
    set_trace_id(None)
    _LOCAL.stack = []


# ------------------------------------------------------------ span analysis
def self_times(records: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Self-time (duration minus direct children) per span ID."""
    batch = list(records)
    child_total: Dict[Optional[str], float] = {}
    for record in batch:
        parent = record.get("parent_id")
        child_total[parent] = child_total.get(parent, 0.0) \
            + float(record["dur_s"])
    return {record["span_id"]:
            max(0.0, float(record["dur_s"])
                - child_total.get(record["span_id"], 0.0))
            for record in batch}


def top_spans(records: Iterable[Dict[str, Any]],
              limit: int = 10) -> List[Dict[str, Any]]:
    """Per-name aggregates ranked by total self-time (descending).

    Each row carries ``name``, ``count``, ``total_s``, ``self_s``,
    ``cpu_s``, and — when profiling populated them — the maximum
    ``rss_peak_bytes`` and summed ``alloc_bytes`` over the name's spans.
    """
    batch = list(records)
    per_span_self = self_times(batch)
    rows: Dict[str, Dict[str, Any]] = {}
    for record in batch:
        row = rows.get(record["name"])
        if row is None:
            row = rows[record["name"]] = {
                "name": record["name"], "count": 0, "total_s": 0.0,
                "self_s": 0.0, "cpu_s": 0.0}
        row["count"] += 1
        row["total_s"] += float(record["dur_s"])
        row["self_s"] += per_span_self[record["span_id"]]
        row["cpu_s"] += float(record.get("cpu_s", 0.0))
        if "rss_peak_bytes" in record:
            row["rss_peak_bytes"] = max(row.get("rss_peak_bytes", 0),
                                        int(record["rss_peak_bytes"]))
        if "alloc_bytes" in record:
            row["alloc_bytes"] = row.get("alloc_bytes", 0) \
                + int(record["alloc_bytes"])
    ranked = sorted(rows.values(),
                    key=lambda row: (-row["self_s"], row["name"]))
    return ranked[:limit]


# ------------------------------------------------------------ Chrome export
#: Fields lifted to Chrome top-level; everything else rides in ``args``
#: so :func:`from_chrome_trace` can reconstruct records losslessly.
_CHROME_TOP = ("name", "pid", "tid")


def to_chrome_trace(records: Iterable[Dict[str, Any]],
                    ) -> Dict[str, Any]:
    """Render span records as a Chrome ``trace_event`` JSON document.

    Complete events (``"ph": "X"``) with microsecond timestamps; the
    exact original floats and IDs travel in each event's ``args``, so
    the export round-trips through :func:`from_chrome_trace`.
    """
    events = []
    for record in sorted(list(records),
                         key=lambda r: float(r["start_unix"])):
        args = {key: value for key, value in record.items()
                if key not in _CHROME_TOP}
        events.append({
            "ph": "X",
            "name": record["name"],
            "cat": "repro",
            "ts": float(record["start_unix"]) * 1e6,
            "dur": float(record["dur_s"]) * 1e6,
            "pid": record["pid"],
            "tid": record["tid"],
            "args": args,
        })
    return {"displayTimeUnit": "ms", "traceEvents": events}


def from_chrome_trace(document: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Reconstruct span records from :func:`to_chrome_trace` output."""
    records = []
    for event in document.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        record: Dict[str, Any] = dict(event.get("args", {}))
        record["name"] = event["name"]
        record["pid"] = event["pid"]
        record["tid"] = event["tid"]
        records.append(record)
    return records


def spans_from_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read the ``event: span`` lines of a trace JSONL file as records."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            if event.get("event") != "span":
                continue
            record = dict(event)
            record.pop("event")
            records.append(record)
    return records


def span_totals(records: Iterable[Dict[str, Any]],
                ) -> Tuple[float, float]:
    """(root wall-time, total CPU time) over a batch of records.

    Root wall-time sums only spans without an in-batch parent, so
    nested spans are not double counted — the denominator for the
    "span tree covers N% of wall time" acceptance check.
    """
    batch = list(records)
    ids = {record["span_id"] for record in batch}
    wall = sum(float(record["dur_s"]) for record in batch
               if record.get("parent_id") not in ids)
    cpu = sum(float(record.get("cpu_s", 0.0)) for record in batch)
    return wall, cpu
