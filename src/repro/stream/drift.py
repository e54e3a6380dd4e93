"""Drift detection: when does the stream warrant a re-inference?

Re-running whitening + tensor power after every batch would make the
stream no cheaper than batch refits.  Instead the pipeline keeps a
**baseline snapshot** of the sketch at the last solve (its first
moment, vocab size, and document count) and compares the live sketch
against it after each batch with three configurable detectors:

* **moment delta** — relative L1 change of the first moment M1 (the
  word distribution), with the baseline padded to the grown vocabulary;
* **vocab growth** — fraction of words the baseline has never seen;
* **document count** — absolute number of documents since the solve.

Any detector crossing its threshold marks the batch as drifted; the
report carries every metric either way, so ``repro ingest`` can log
them and tests can pin the arithmetic.  No wall clock is involved —
drift is a function of data deltas, never of elapsed time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..strod import MomentSketch

__all__ = [
    "DriftConfig",
    "DriftReport",
    "baseline_from_sketch",
    "detect_drift",
]

_EPS = 1e-12


@dataclass
class DriftConfig:
    """Thresholds for the three drift detectors.

    A non-positive ``doc_count`` disables that detector; a ratio
    detector is disabled by an infinite threshold (``float("inf")``,
    ``repro ingest --drift-moment inf``).  A NaN threshold is refused.
    """

    moment_delta: float = 0.05
    vocab_growth: float = 0.10
    doc_count: int = 0

    def __post_init__(self) -> None:
        for name in ("moment_delta", "vocab_growth"):
            value = getattr(self, name)
            if math.isnan(value):
                raise ConfigurationError(
                    f"{name} must be a number (inf disables the "
                    f"detector), not NaN")
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0")

    def to_config(self) -> Dict[str, Any]:
        """Plain-data form for checkpoint fingerprinting."""
        return {"moment_delta": self.moment_delta,
                "vocab_growth": self.vocab_growth,
                "doc_count": self.doc_count}


@dataclass
class DriftReport:
    """Outcome of one detection pass.

    Attributes:
        triggered: True when any detector crossed its threshold.
        reasons: which detectors fired, human-readable.
        metrics: every detector's measured value (always populated).
    """

    triggered: bool
    reasons: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"triggered": self.triggered, "reasons": list(self.reasons),
                "metrics": dict(self.metrics)}


def baseline_from_sketch(sketch: MomentSketch) -> Dict[str, Any]:
    """Snapshot the sketch state the next detection compares against."""
    return {
        "m1": sketch.first_moment().tolist(),
        "vocab_size": sketch.vocab_size,
        "num_docs": sketch.num_docs,
    }


def detect_drift(baseline: Optional[Dict[str, Any]],
                 sketch: MomentSketch,
                 config: DriftConfig) -> DriftReport:
    """Compare the live sketch against the last-solve baseline.

    A missing baseline (no model solved yet) always triggers: the first
    batch must produce a model before drift is even definable.
    """
    if baseline is None:
        return DriftReport(triggered=True, reasons=["no baseline model"],
                           metrics={"moment_delta": float("inf"),
                                    "vocab_growth": float("inf"),
                                    "new_docs": float(sketch.num_docs)})
    old_m1 = np.asarray(baseline["m1"], dtype=float)
    new_m1 = sketch.first_moment()
    padded = np.zeros_like(new_m1)
    padded[:len(old_m1)] = old_m1
    moment_delta = float(np.abs(new_m1 - padded).sum()
                         / max(np.abs(padded).sum(), _EPS))
    old_vocab = int(baseline["vocab_size"])
    vocab_growth = float((sketch.vocab_size - old_vocab)
                         / max(old_vocab, 1))
    new_docs = sketch.num_docs - int(baseline["num_docs"])

    reasons = []
    if moment_delta >= config.moment_delta:
        reasons.append(f"moment delta {moment_delta:.4f} >= "
                       f"{config.moment_delta:.4f}")
    if vocab_growth >= config.vocab_growth:
        reasons.append(f"vocab growth {vocab_growth:.4f} >= "
                       f"{config.vocab_growth:.4f}")
    if config.doc_count > 0 and new_docs >= config.doc_count:
        reasons.append(f"{new_docs} new documents >= {config.doc_count}")
    return DriftReport(triggered=bool(reasons), reasons=reasons,
                       metrics={"moment_delta": moment_delta,
                                "vocab_growth": vocab_growth,
                                "new_docs": float(new_docs)})
