"""Latency summaries, the ten-beyond percentile rule and the rate ladder.

Failed requests and wrong answers are recorded as ``inf``: they miss
every latency limit, and a percentile that lands on one reads ``inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

#: Tail percentiles tried, highest first.
TAIL_QUANTILES = (0.99, 0.95, 0.9, 0.5)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the nearest-rank ``q``."""
    return n - max(1, math.ceil(q * n))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of unsorted ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def tail_quantile(n: int) -> Optional[float]:
    """The highest of :data:`TAIL_QUANTILES` with :data:`MIN_BEYOND`
    samples above it, or None when even the median has fewer."""
    for q in TAIL_QUANTILES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def checked_percentile(values: Sequence[float], q: float) -> float:
    """:func:`percentile`, refusing a tail estimated from too few samples."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(values)} samples has "
            f"{samples_beyond(len(values), q)} beyond it; need "
            f"{MIN_BEYOND}")
    return percentile(values, q)


@dataclass
class Step:
    """One rung of the rate ladder as the generator saw it."""

    rate: float           # scheduled requests per second
    achieved: float       # completed requests per second of the step
    tail_ms: float        # tail latency from due time, failures as inf
    lateness_start_ms: float  # median send lateness, first third
    lateness_end_ms: float    # median send lateness, last third


def step_passes(step: Step, limit_ms: float,
                lateness_growth_ms: float) -> bool:
    """A step passes when its tail meets the limit and the generator's
    lateness, zero when the step starts on schedule, grew to no more
    than ``lateness_growth_ms`` by its last third: a growing backlog
    means the server fell behind the schedule.  (Comparing the last
    third with the first would pass a step whose backlog built up
    within its first third.)"""
    return (step.tail_ms <= limit_ms
            and step.lateness_end_ms <= lateness_growth_ms)


def ladder_max_rate(steps: Sequence[Step], limit_ms: float,
                    lateness_growth_ms: float) -> Optional[Step]:
    """The highest step passed before the first failing one, if any.

    The ladder stops at its first failure: a higher step that happens to
    pass after a failing one does not count.
    """
    best = None
    for step in steps:
        if not step_passes(step, limit_ms, lateness_growth_ms):
            break
        best = step
    return best


def finite(value: float) -> float:
    """``value`` as a JSON-safe number: ``inf`` becomes the largest double,
    which still compares as worse than any measured time."""
    return value if math.isfinite(value) else 1.7976931348623157e308
