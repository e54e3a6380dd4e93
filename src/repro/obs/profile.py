"""Opt-in profiling: per-span memory deltas and a ranked profile report.

Profiling piggybacks on span tracing: :func:`set_profiling_enabled`
installs hooks into :mod:`repro.obs.spans` (injected callables — the
two modules must not import each other) that stamp every finished span
with its peak-RSS watermark and the ``tracemalloc`` allocation delta
across the span.  Both measurements are process-wide, so a span's
numbers include whatever its children did — exactly what the self-time
ranking in :func:`build_profile_report` needs.

Costs are honest: ``tracemalloc`` typically slows allocation-heavy code
by 2-4x, which is why profiling is opt-in (``--profile``) and separate
from span tracing (``--trace``), which stays cheap.

The profile report (``repro.obs/profile/v1``) ranks span names by
total self-time and carries the process peak RSS and CPU totals, so a
benchmark or CI artifact answers "where did this run spend time and
memory" without loading the full trace.
"""

from __future__ import annotations

import resource
import sys
import time
import tracemalloc
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..contracts import PROFILE_V1
from ..errors import DataError
from .spans import get_spans, set_profile_hooks, top_spans

__all__ = [
    "PROFILE_SCHEMA",
    "build_profile_report",
    "cpu_time_s",
    "peak_rss_bytes",
    "profiling_enabled",
    "set_profiling_enabled",
    "validate_profile_report",
    "write_profile_report",
]

PROFILE_SCHEMA = PROFILE_V1

_PROFILING = False

#: ru_maxrss unit: bytes on macOS, kilobytes everywhere else.
_RSS_SCALE = 1 if sys.platform == "darwin" else 1024


def peak_rss_bytes() -> int:
    """Peak resident set size of this process so far, in bytes."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return int(usage.ru_maxrss) * _RSS_SCALE


def cpu_time_s() -> float:
    """Total CPU seconds (user+system) of this process and its reaped
    children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def profiling_enabled() -> bool:
    """True when the per-span profiling hooks are installed."""
    return _PROFILING


def set_profiling_enabled(enabled: bool) -> None:
    """Install or remove the per-span profiling hooks.

    Enabling starts ``tracemalloc`` (if not already tracing); disabling
    stops it only if this module started it, so an outer profiler's
    tracing session is left alone.
    """
    global _PROFILING, _STARTED_TRACEMALLOC
    enabled = bool(enabled)
    if enabled == _PROFILING:
        return
    _PROFILING = enabled
    if enabled:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            _STARTED_TRACEMALLOC = True
        set_profile_hooks(_span_start, _span_end)
    else:
        set_profile_hooks(None, None)
        if _STARTED_TRACEMALLOC and tracemalloc.is_tracing():
            tracemalloc.stop()
        _STARTED_TRACEMALLOC = False


_STARTED_TRACEMALLOC = False


def _span_start() -> Tuple[int, int]:
    """Profiling start hook: (traced bytes now, peak RSS now)."""
    current = tracemalloc.get_traced_memory()[0] \
        if tracemalloc.is_tracing() else 0
    return current, peak_rss_bytes()


def _span_end(token: Any) -> Dict[str, Any]:
    """Profiling end hook: fields merged into the finished record."""
    if not isinstance(token, tuple):
        return {}
    start_traced, _ = token
    current = tracemalloc.get_traced_memory()[0] \
        if tracemalloc.is_tracing() else 0
    return {
        "rss_peak_bytes": peak_rss_bytes(),
        "alloc_bytes": current - start_traced,
    }


def build_profile_report(records: Optional[Iterable[Dict[str, Any]]]
                         = None,
                         config: Optional[Dict[str, Any]] = None,
                         limit: int = 25) -> Dict[str, Any]:
    """Rank span names by self-time into a ``repro.obs/profile/v1`` doc.

    Args:
        records: span records to profile (default: every finished span).
        config: run configuration echoed into the report.
        limit: how many ranked span names to keep.
    """
    from .. import get_version
    from .report import _jsonable

    batch = list(records) if records is not None else get_spans()
    return {
        "schema": PROFILE_SCHEMA,
        "generated_unix": time.time(),
        "repro_version": get_version(),
        "config": _jsonable(config or {}),
        "peak_rss_bytes": peak_rss_bytes(),
        "cpu_time_s": cpu_time_s(),
        "num_spans": len(batch),
        "spans": top_spans(batch, limit=limit),
    }


def write_profile_report(report: Dict[str, Any], path: str) -> None:
    """Write a profile report as indented JSON (atomic replace)."""
    from ..resilience.atomic import atomic_write_json

    atomic_write_json(path, report, indent=2, default=repr,
                      trailing_newline=True)


def validate_profile_report(data: Dict[str, Any]) -> None:
    """Check ``data`` against the profile-report schema.

    Raises:
        DataError: on any structural mismatch, with a one-line reason.
    """
    if not isinstance(data, dict):
        raise DataError("profile report must be a JSON object")
    if data.get("schema") != PROFILE_SCHEMA:
        raise DataError(
            f"unsupported profile schema: {data.get('schema')!r}")
    for key in ("peak_rss_bytes", "cpu_time_s", "num_spans"):
        if not isinstance(data.get(key), (int, float)):
            raise DataError(f"profile field {key!r} must be a number")
    spans: Any = data.get("spans")
    if not isinstance(spans, list):
        raise DataError("profile field 'spans' must be an array")
    rows: List[Any] = spans
    for row in rows:
        if not isinstance(row, dict):
            raise DataError("every profile span row must be an object")
        for key in ("name", "count", "total_s", "self_s"):
            if key not in row:
                raise DataError(f"profile span row missing {key!r}")
