"""Run reports: one JSON document aggregating a pipeline run.

A run report bundles the metrics snapshot (counters, gauges, per-phase
timers), every finished convergence trace, and the run's configuration
under a versioned schema, so ``BENCH_*.json`` perf entries and CI smoke
checks consume measured numbers instead of nothing.

Schema (``repro.obs/run-report/v2``)::

    {
      "schema": "repro.obs/run-report/v2",
      "generated_unix": 1722945600.0,
      "config": {...},                      # sanitized, run-specific
      "metrics": {"counters": {}, "gauges": {}, "timers": {}},
      "phases": {"miner.hierarchy": {"count": 1, "total_s": ...}, ...},
      "cache_ratios": {"topmine.merge_cache": {"hits": ..., "misses": ...,
                       "hit_ratio": ...}, ...},
      "resources": {"peak_rss_bytes": ..., "cpu_time_s": ...},
      "top_spans": [{"name": ..., "count": ..., "total_s": ...,
                     "self_s": ..., "cpu_s": ...}, ...],   # top 10
      "traces": [{"name": "cathy.hin_em", "termination": "converged",
                  "num_iterations": 12, "total_time_s": ...,
                  "iterations": [{"iteration": 0, "time_s": ...,
                                  "log_likelihood": ...}, ...]}, ...]
    }

``phases`` mirrors ``metrics.timers`` (one entry per :func:`~repro.obs.timed`
name) and exists so report consumers need no knowledge of the registry.
``cache_ratios`` is derived: every counter pair ``<name>.hits`` /
``<name>.misses`` becomes one entry with its hit ratio, so any cache
that follows the naming convention (the ToPMine merge-significance LRU,
serving query caches) reports effectiveness without report-layer code
knowing it exists.
v2 added ``resources`` and ``top_spans``; :func:`validate_report`
rejects a v1 report (without them) as an unsupported schema.

Run ``python -m repro.obs.report <path>`` to validate a report file.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

from ..contracts import RUN_REPORT_V2
from ..errors import DataError
from .registry import get_registry
from .tracer import get_traces

__all__ = [
    "REPORT_SCHEMA",
    "build_run_report",
    "cache_ratios",
    "get_report_path",
    "set_report_path",
    "validate_report",
    "write_report",
]

REPORT_SCHEMA = RUN_REPORT_V2

_REPORT_PATH: Optional[str] = None


def set_report_path(path: Optional[str]) -> None:
    """Where :meth:`LatentEntityMiner.fit` and the CLI write run reports."""
    global _REPORT_PATH
    _REPORT_PATH = path


def get_report_path() -> Optional[str]:
    """The configured run-report path, if any."""
    return _REPORT_PATH


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of config values to JSON-encodable data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)


def cache_ratios(counters: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Derive hit ratios from ``<name>.hits`` / ``<name>.misses`` pairs.

    Any counter namespace following the hits/misses convention yields an
    entry ``{hits, misses, hit_ratio}``; a namespace with only one of
    the pair still appears (the missing side counts as zero) so a cache
    that never misses — or never hits — is visible rather than dropped.
    """
    names = set()
    for key in counters:
        if key.endswith(".hits"):
            names.add(key[:-len(".hits")])
        elif key.endswith(".misses"):
            names.add(key[:-len(".misses")])
    ratios: Dict[str, Dict[str, float]] = {}
    for name in sorted(names):
        hits = float(counters.get(name + ".hits", 0))
        misses = float(counters.get(name + ".misses", 0))
        total = hits + misses
        ratios[name] = {
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / total if total else 0.0,
        }
    return ratios


def build_run_report(config: Optional[Dict[str, Any]] = None,
                     ) -> Dict[str, Any]:
    """Aggregate the current metrics and traces into a report document.

    The producing library version is stamped into every report so a
    stored report is traceable to the code that generated it.
    """
    from .. import get_version
    from .profile import cpu_time_s, peak_rss_bytes
    from .spans import get_spans, top_spans

    metrics = get_registry().snapshot()
    return {
        "schema": REPORT_SCHEMA,
        "generated_unix": time.time(),
        "repro_version": get_version(),
        "config": _jsonable(config or {}),
        "metrics": metrics,
        "phases": metrics["timers"],
        "cache_ratios": cache_ratios(metrics["counters"]),
        "resources": {
            "peak_rss_bytes": peak_rss_bytes(),
            "cpu_time_s": cpu_time_s(),
        },
        "top_spans": top_spans(get_spans(), limit=10),
        "traces": [t.to_dict() for t in get_traces()],
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write a report document as indented JSON.

    The write is atomic (temp file + rename), so a crash mid-write never
    leaves a truncated report for CI consumers to choke on.
    """
    from ..resilience.atomic import atomic_write_json

    atomic_write_json(path, report, indent=2, default=repr,
                      trailing_newline=True)


def validate_report(data: Dict[str, Any]) -> None:
    """Check ``data`` against the documented run-report schema (v2).

    Raises:
        DataError: on any structural mismatch, with a one-line reason;
            any other schema, v1 included, is unsupported.
    """
    if not isinstance(data, dict):
        raise DataError("run report must be a JSON object")
    if data.get("schema") != REPORT_SCHEMA:
        raise DataError(f"unsupported report schema: {data.get('schema')!r}")
    resources = data.get("resources")
    if not isinstance(resources, dict):
        raise DataError("report field 'resources' must be an object")
    for key in ("peak_rss_bytes", "cpu_time_s"):
        if not isinstance(resources.get(key), (int, float)):
            raise DataError(f"resources field {key!r} must be a number")
    top = data.get("top_spans")
    if not isinstance(top, list):
        raise DataError("report field 'top_spans' must be an array")
    for row in top:
        if not isinstance(row, dict) or "name" not in row \
                or "self_s" not in row:
            raise DataError("every top_spans row must carry "
                            "'name' and 'self_s'")
    for key in ("config", "metrics", "phases"):
        if not isinstance(data.get(key), dict):
            raise DataError(f"report field {key!r} must be an object")
    ratios = data.get("cache_ratios")
    if ratios is not None:
        if not isinstance(ratios, dict):
            raise DataError("report field 'cache_ratios' must be an object")
        for name, entry in ratios.items():
            if not isinstance(entry, dict) \
                    or not isinstance(entry.get("hit_ratio"), (int, float)):
                raise DataError(f"cache_ratios entry {name!r} must carry "
                                "a numeric hit_ratio")
    metrics = data["metrics"]
    for key in ("counters", "gauges", "timers"):
        if not isinstance(metrics.get(key), dict):
            raise DataError(f"metrics field {key!r} must be an object")
    for name, stats in data["phases"].items():
        if not isinstance(stats, dict) or "count" not in stats \
                or "total_s" not in stats:
            raise DataError(f"phase {name!r} must carry count and total_s")
    traces = data.get("traces")
    if not isinstance(traces, list):
        raise DataError("report field 'traces' must be an array")
    for entry in traces:
        if not isinstance(entry, dict):
            raise DataError("every trace must be an object")
        for key in ("name", "termination", "iterations"):
            if key not in entry:
                raise DataError(f"trace missing field {key!r}")
        if not isinstance(entry["iterations"], list):
            raise DataError("trace field 'iterations' must be an array")
        for rec in entry["iterations"]:
            if not isinstance(rec, dict) or "iteration" not in rec \
                    or "time_s" not in rec:
                raise DataError("every trace iteration must carry "
                                "'iteration' and 'time_s'")


def _main(argv: Optional[List[str]] = None) -> int:
    """Validate report files given on the command line."""
    import sys
    paths = argv if argv is not None else sys.argv[1:]
    if not paths:
        print("usage: python -m repro.obs.report REPORT.json [...]",
              file=sys.stderr)
        return 2
    for path in paths:
        try:
            with open(path) as handle:
                validate_report(json.load(handle))
        except (OSError, ValueError, DataError) as exc:
            print(f"{path}: INVALID: {exc}", file=sys.stderr)
            return 1
        print(f"{path}: ok ({REPORT_SCHEMA})")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI smoke job
    raise SystemExit(_main())
