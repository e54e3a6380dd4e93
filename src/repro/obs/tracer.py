"""Convergence tracing for iterative solvers.

Every iterative loop in the library opens a trace with :func:`trace`,
calls ``tracer.record(...)`` once per iteration with whatever scalar
diagnostics it already computes (log-likelihood, residual, perplexity),
and closes with ``tracer.finish(reason)`` where ``reason`` states *why*
the loop terminated (``"converged"`` vs ``"max_iter"`` vs
``"completed"`` for fixed-budget loops).

Finished traces accumulate in a process-wide list (harvested by run
reports) and, when a trace path is configured, stream to a JSON-lines
file with one line per iteration plus one ``end`` line per trace.

While observability is disabled, :func:`trace` returns a shared no-op
tracer, so instrumented loops pay one method call per iteration and
allocate nothing beyond the call's (empty) kwargs.  Loops that would
need *extra work* to produce a diagnostic (e.g. an otherwise-skipped
likelihood evaluation) should guard it with ``tracer.active``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .registry import is_enabled

__all__ = [
    "ConvergenceTrace",
    "clear_traces",
    "get_trace_path",
    "get_traces",
    "set_trace_path",
    "trace",
]

#: Termination reasons used by the library's own solvers.
TERMINATION_CONVERGED = "converged"
TERMINATION_MAX_ITER = "max_iter"
TERMINATION_COMPLETED = "completed"

_TRACES: List["ConvergenceTrace"] = []
_TRACE_PATH: Optional[str] = None


@dataclass
class ConvergenceTrace:
    """One finished per-iteration trace of an iterative solver.

    Attributes:
        name: solver identifier (e.g. ``"cathy.em"``).
        context: static facts about the run (num_topics, sizes, ...).
        iterations: one record per iteration; every record carries
            ``iteration`` (0-based) and ``time_s`` (wall-time of that
            iteration) plus the solver's diagnostics.
        termination: why the loop stopped.
        total_time_s: wall-time from trace open to finish.
    """

    name: str
    context: Dict[str, Any] = field(default_factory=dict)
    iterations: List[Dict[str, Any]] = field(default_factory=list)
    termination: str = "unknown"
    total_time_s: float = 0.0

    @property
    def num_iterations(self) -> int:
        """Number of recorded iterations."""
        return len(self.iterations)

    def series(self, key: str) -> List[float]:
        """The per-iteration sequence of diagnostic ``key`` (gaps skipped)."""
        return [rec[key] for rec in self.iterations if key in rec]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form used by run reports."""
        return {
            "name": self.name,
            "context": dict(self.context),
            "termination": self.termination,
            "num_iterations": self.num_iterations,
            "total_time_s": self.total_time_s,
            "iterations": [dict(rec) for rec in self.iterations],
        }


class Tracer:
    """Interface returned by :func:`trace` (live or no-op).

    The shared base gives strictly typed call sites one nominal type;
    the class itself is the do-nothing tracer of the disabled path.
    """

    __slots__ = ()

    #: Costly diagnostics may be computed only when this is True.
    active = False

    def record(self, **values: float) -> None:
        """Append one iteration record (no-op while disabled)."""

    def finish(self, termination: str = TERMINATION_COMPLETED,
               ) -> Optional[ConvergenceTrace]:
        """Close the trace (no-op while disabled)."""
        return None


class _LiveTracer(Tracer):
    """Collecting tracer returned while observability is enabled."""

    __slots__ = ("_name", "_context", "_records", "_start", "_last",
                 "_finished")

    active = True

    def __init__(self, name: str, context: Dict[str, Any]) -> None:
        self._name = name
        self._context = context
        self._records: List[Dict[str, Any]] = []
        self._start = time.perf_counter()
        self._last = self._start
        self._finished = False

    def record(self, **values: float) -> None:
        """Append one iteration record; stamps index and iteration time."""
        now = time.perf_counter()
        rec: Dict[str, Any] = {"iteration": len(self._records),
                               "time_s": now - self._last}
        rec.update(values)
        self._records.append(rec)
        self._last = now

    def finish(self, termination: str = TERMINATION_COMPLETED,
               ) -> Optional[ConvergenceTrace]:
        """Close the trace, register it globally, and stream it if set."""
        if self._finished:
            return None
        self._finished = True
        result = ConvergenceTrace(
            name=self._name, context=self._context,
            iterations=self._records, termination=termination,
            total_time_s=time.perf_counter() - self._start)
        _TRACES.append(result)
        if _TRACE_PATH is not None:
            _write_jsonl(result, _TRACE_PATH)
        return result


#: Shared do-nothing tracer for the disabled fast path.
_NULL_TRACER = Tracer()


def trace(name: str, **context: Any) -> Tracer:
    """Open a convergence trace for one iterative-solver run.

    Returns the shared no-op tracer while observability is disabled.
    """
    if not is_enabled():
        return _NULL_TRACER
    return _LiveTracer(name, context)


def get_traces(name: Optional[str] = None) -> List[ConvergenceTrace]:
    """All finished traces (optionally filtered by solver name)."""
    if name is None:
        return list(_TRACES)
    return [t for t in _TRACES if t.name == name]


def clear_traces() -> None:
    """Forget every finished trace."""
    del _TRACES[:]


def set_trace_path(path: Optional[str]) -> None:
    """Stream finished traces to ``path`` as JSON lines (None disables)."""
    global _TRACE_PATH
    _TRACE_PATH = path


def get_trace_path() -> Optional[str]:
    """The configured JSON-lines trace path, if any."""
    return _TRACE_PATH


def _write_jsonl(result: ConvergenceTrace, path: str) -> None:
    lines = []
    for rec in result.iterations:
        event = {"trace": result.name, "event": "iteration"}
        event.update(rec)
        lines.append(json.dumps(event))
    lines.append(json.dumps({
        "trace": result.name,
        "event": "end",
        "termination": result.termination,
        "num_iterations": result.num_iterations,
        "total_time_s": result.total_time_s,
        "context": result.context,
    }, default=repr))
    # repro: noqa-RL003  append-only JSONL stream: each trace is one
    # appended line; atomic replace would rewrite prior history on
    # every event and lose it on interleaved writers.
    with open(path, "a") as handle:
        handle.write("\n".join(lines) + "\n")
