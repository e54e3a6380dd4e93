"""Process-wide metrics registry: counters, gauges, and histogram timers.

The registry is the accumulation point for everything the instrumented
solvers emit.  Instrumentation is free when observability is disabled
(the default): :func:`timed` returns a shared no-op context manager and
:func:`inc` / :func:`set_gauge` return immediately, so hot loops carry no
more than a module-global check per call and allocate nothing.

Every :class:`TimerStats` carries a :class:`QuantileSketch` — a
fixed-memory log-bucketed histogram exposing p50/p90/p99.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from typing import Any, Callable, Dict, Mapping, Optional

__all__ = [
    "MetricsRegistry",
    "QuantileSketch",
    "TimerStats",
    "get_registry",
    "inc",
    "is_enabled",
    "observe",
    "reset_metrics",
    "set_enabled",
    "set_gauge",
    "timed",
    "timed_function",
]

#: Module-global enable flag; flipped by :func:`repro.obs.configure`.
_ENABLED = False


def is_enabled() -> bool:
    """True when metric and trace collection is active."""
    return _ENABLED


def set_enabled(enabled: bool) -> None:
    """Turn metric and trace collection on or off process-wide."""
    global _ENABLED
    _ENABLED = bool(enabled)


class QuantileSketch:
    """Fixed-memory streaming quantile estimate over positive values.

    A log-bucketed histogram: bucket ``b`` covers
    ``[MIN_VALUE * GROWTH**b, MIN_VALUE * GROWTH**(b+1))``, so relative
    quantile error is bounded by the bucket width (~9% at the default
    growth factor) while memory stays bounded by :data:`NUM_BUCKETS`
    integers regardless of observation count.  Buckets are stored
    sparsely (``index -> count``), which keeps snapshots tiny for the
    typical timer that spans a few decades.
    """

    #: Lower edge of bucket 0 (100 ns — below any duration we time).
    MIN_VALUE = 1e-7
    #: Geometric bucket growth; 2**(1/4) gives 4 buckets per octave.
    GROWTH = 2.0 ** 0.25
    #: Bucket count; covers 1e-7 s .. ~3.6e4 s (10 hours) at GROWTH.
    NUM_BUCKETS = 160

    __slots__ = ("_buckets",)

    _LOG_GROWTH = math.log(GROWTH)

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}

    def _bucket_of(self, value: float) -> int:
        if value <= self.MIN_VALUE:
            return 0
        index = int(math.log(value / self.MIN_VALUE) / self._LOG_GROWTH)
        return min(index, self.NUM_BUCKETS - 1)

    def add(self, value: float) -> None:
        """Fold one observation into the sketch."""
        index = self._bucket_of(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def count(self) -> int:
        """Total number of observations folded in."""
        return sum(self._buckets.values())

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 < q <= 1; 0.0 when empty).

        Returns the geometric midpoint of the bucket holding the
        rank-``ceil(q * count)`` observation.
        """
        total = self.count
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(q * total))
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                lower = self.MIN_VALUE * self.GROWTH ** index
                return lower * math.sqrt(self.GROWTH)
        return self.MIN_VALUE * self.GROWTH ** self.NUM_BUCKETS

    def to_dict(self) -> Dict[str, int]:
        """Sparse bucket map with string keys (JSON/snapshot currency)."""
        return {str(index): count
                for index, count in sorted(self._buckets.items())}

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`to_dict` output."""
        sketch = cls()
        for key, count in data.items():
            index = min(max(int(key), 0), cls.NUM_BUCKETS - 1)
            sketch._buckets[index] = sketch._buckets.get(index, 0) \
                + int(count)
        return sketch


class TimerStats:
    """Aggregate statistics of one named timer (a tiny histogram).

    Attributes:
        count: number of observations.
        total: summed duration in seconds.
        min / max: extreme observations in seconds.
        last: the most recent observation in seconds.
        sketch: fixed-memory quantile sketch over the observations.
    """

    __slots__ = ("count", "total", "min", "max", "last", "sketch")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.last = 0.0
        self.sketch = QuantileSketch()

    def observe(self, seconds: float) -> None:
        """Fold one duration into the aggregate."""
        self.count += 1
        self.total += seconds
        self.last = seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        self.sketch.add(seconds)

    @property
    def mean(self) -> float:
        """Average observed duration in seconds (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile of the observed durations."""
        return self.sketch.quantile(q)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form used by run reports and metric snapshots."""
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
            "last_s": self.last,
            "p50_s": self.quantile(0.50),
            "p90_s": self.quantile(0.90),
            "p99_s": self.quantile(0.99),
            "sketch": self.sketch.to_dict(),
        }


class MetricsRegistry:
    """Thread-safe container of named counters, gauges, and timers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, TimerStats] = {}

    # ------------------------------------------------------------ mutation
    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration under timer ``name``."""
        with self._lock:
            stats = self._timers.get(name)
            if stats is None:
                stats = self._timers[name] = TimerStats()
            stats.observe(seconds)

    def reset(self) -> None:
        """Drop every collected metric."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()

    # ------------------------------------------------------------- queries
    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> Optional[float]:
        """Latest value of gauge ``name`` (None when never set)."""
        with self._lock:
            return self._gauges.get(name)

    def timer(self, name: str) -> Optional[TimerStats]:
        """Aggregate stats of timer ``name`` (None when never observed)."""
        with self._lock:
            return self._timers.get(name)

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-data snapshot of every metric (run-report currency)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {name: stats.to_dict()
                           for name, stats in self._timers.items()},
            }


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (always available, even when disabled)."""
    return _REGISTRY


def reset_metrics() -> None:
    """Clear the process-wide registry."""
    _REGISTRY.reset()


# ------------------------------------------------------------------ timing
class Timer:
    """Context-manager interface returned by :func:`timed`.

    The shared base exists so strictly typed call sites see one nominal
    type whether they got the live timer or the disabled-path no-op.
    """

    __slots__ = ()

    def __enter__(self) -> "Timer":
        return self

    def __exit__(self, exc_type: Optional[type],
                 exc: Optional[BaseException], tb: object) -> bool:
        return False


class _Timer(Timer):
    """Context manager recording its block's duration into the registry."""

    __slots__ = ("_name", "_start")

    def __init__(self, name: str) -> None:
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Optional[type],
                 exc: Optional[BaseException], tb: object) -> bool:
        _REGISTRY.observe(self._name, time.perf_counter() - self._start)
        return False


#: Shared do-nothing context manager for the disabled fast path.
_NULL_TIMER = Timer()


def timed(name: str) -> Timer:
    """Context manager timing a block under ``name``.

    When observability is disabled this returns a shared no-op object, so
    instrumented call sites allocate nothing and pay only the flag check.
    """
    if not _ENABLED:
        return _NULL_TIMER
    return _Timer(name)


def timed_function(name: str) -> Callable[[Callable[..., Any]],
                                          Callable[..., Any]]:
    """Decorator form of :func:`timed`; the flag is checked per call."""
    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with timed(name):
                return func(*args, **kwargs)
        return wrapper
    return decorate


# ------------------------------------------------- module-level convenience
def inc(name: str, amount: float = 1.0) -> None:
    """Increment a counter; no-op while disabled."""
    if _ENABLED:
        _REGISTRY.inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge; no-op while disabled."""
    if _ENABLED:
        _REGISTRY.set_gauge(name, value)


def observe(name: str, seconds: float) -> None:
    """Record a duration; no-op while disabled."""
    if _ENABLED:
        _REGISTRY.observe(name, seconds)
