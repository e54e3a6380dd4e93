"""The streaming ingest loop: shard -> sketch -> drift -> refit -> export.

:class:`IngestPipeline` drives one batch end to end:

1. the raw documents are committed to the :class:`ShardStore` (shard
   file + vocab delta + manifest, atomically), keyed by a content hash
   so a retried batch is committed exactly once;
2. the committed shard — held by the store as arrays, not read back —
   is sketched and merged into the running
   :class:`~repro.strod.MomentSketch` — an exactly-associative merge, so
   the running sketch equals a from-scratch sketch of the whole log;
3. the drift detectors compare the sketch against the last-solve
   baseline and, together with the ``refit_policy``
   (``drift`` / ``always`` / ``never``), decide whether to re-infer;
4. a triggered refit patches the dirty subtrees
   (:class:`~repro.stream.refit.StreamRefitter`), bumps the model
   version, and exports a fresh artifact for the servers to hot-swap;
5. the pipeline state (baseline, tree state, model version, synced
   shard count and the sketch's fingerprint) is checkpointed under the
   fingerprint-guarded :class:`~repro.resilience.CheckpointWriter`
   protocol.  The sketch itself is not: the shard log already holds
   every row of it, so the checkpoint's size follows the tree, not the
   stream.

Crash safety: the shard commit and the checkpoint are both atomic, with
the checkpoint written *after* the commit.  On restart the pipeline
rebuilds the sketch from the checkpointed shard prefix and checks it
against the recorded fingerprint.  A crash between commit and
checkpoint leaves the store ahead of the checkpoint; the pipeline then
**re-processes** the committed-but-unprocessed shards one by one —
sketch merge, drift detection, refit decision and all, against the
per-shard vocabulary recorded in the log — so a killed-and-resumed
ingest lands in exactly the state an uninterrupted run would have
reached.  That bit-identity is what the fault-injection suite pins.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, DataError
from ..obs import get_logger, inc, set_gauge, span
from ..resilience import CheckpointWriter
from ..strod import MomentSketch
from ..strod.hierarchy import STRODTreeConfig
from .drift import DriftConfig, DriftReport, baseline_from_sketch, detect_drift
from .refit import StreamRefitter, entity_role_counts
from .shards import ShardStore
from .sketch import build_shard_sketches, merge_sketches, sketch_fingerprint

__all__ = [
    "PIPELINE_SOLVER",
    "IngestConfig",
    "IngestPipeline",
    "IngestReport",
    "batch_key",
]

#: Solver name stamped into the pipeline checkpoint (RL006 guard).
PIPELINE_SOLVER = "stream.pipeline"

REFIT_POLICIES = ("drift", "always", "never")

logger = get_logger("stream.ingest")


def batch_key(documents: Sequence[Dict[str, Any]]) -> str:
    """Content fingerprint of a raw batch (exactly-once commit key)."""
    blob = json.dumps(list(documents), sort_keys=True,
                      separators=(",", ":"), default=str).encode("utf-8")
    return "sha256:" + hashlib.sha256(blob).hexdigest()


@dataclass
class IngestConfig:
    """Everything one ingest loop is parameterized by.

    Attributes:
        refit_policy: ``drift`` (detectors decide), ``always`` (every
            batch re-infers) or ``never`` (sketch-only ingestion).
        drift: detector thresholds.
        tree: hierarchy shape and solver budget.
        seed: refit seed (fresh generator per refit).
        dirty_threshold: fractional node-subset change at which a node
            re-solves (0.0 = full re-solve, exactly the batch build).
        min_length: shortest document the sketch keeps (>= 3).
        export_path: v2 artifact path rewritten after every refit
            (None skips exporting).
        export_format: must be ``"v2"``, the only format a save writes.
    """

    refit_policy: str = "drift"
    drift: DriftConfig = field(default_factory=DriftConfig)
    tree: STRODTreeConfig = field(default_factory=STRODTreeConfig)
    seed: int = 0
    dirty_threshold: float = 0.25
    min_length: int = 3
    export_path: Optional[str] = None
    export_format: str = "v2"

    def __post_init__(self) -> None:
        from ..serve.artifact import check_artifact_format

        if self.refit_policy not in REFIT_POLICIES:
            raise ConfigurationError(
                f"unsupported refit policy {self.refit_policy!r} "
                f"(one of {REFIT_POLICIES})")
        check_artifact_format(self.export_format)

    def to_config(self) -> Dict[str, Any]:
        """Plain-data fingerprint (checkpoint ``config=`` guard).

        ``export_path`` is deliberately excluded: re-pointing the
        artifact does not change any computed state, so it must not
        invalidate a resume.
        """
        return {
            "refit_policy": self.refit_policy,
            "drift": self.drift.to_config(),
            "tree": {
                "num_children": self.tree.num_children,
                "max_depth": self.tree.max_depth,
                "min_documents": self.tree.min_documents,
                "alpha0": self.tree.alpha0,
                "num_restarts": self.tree.num_restarts,
                "num_iterations": self.tree.num_iterations,
            },
            "seed": self.seed,
            "dirty_threshold": self.dirty_threshold,
            "min_length": self.min_length,
        }

    def manifest_config(self) -> Dict[str, Any]:
        """:meth:`to_config` in the JSON form an exported artifact's
        manifest stores: a disabled (infinite) drift threshold is
        ``None``, since canonical JSON has no infinity."""
        config = self.to_config()
        config["drift"] = {name: None if math.isinf(value) else value
                           for name, value in config["drift"].items()}
        return config


@dataclass
class IngestReport:
    """What one :meth:`IngestPipeline.ingest_batch` call did."""

    shard_id: int
    num_documents: int
    vocab_size: int
    drift: DriftReport
    refit_ran: bool
    model_version: int
    deduplicated: bool = False
    refit_stats: Optional[Dict[str, int]] = None
    export_path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"shard_id": self.shard_id,
                "num_documents": self.num_documents,
                "vocab_size": self.vocab_size,
                "drift": self.drift.to_dict(),
                "refit_ran": self.refit_ran,
                "model_version": self.model_version,
                "deduplicated": self.deduplicated,
                "refit_stats": self.refit_stats,
                "export_path": self.export_path}


class IngestPipeline:
    """Stateful train-while-serving loop over one shard store.

    Args:
        store: the append-only document log.
        config: loop parameters.
        checkpoint_dir: directory for the pipeline checkpoint (None
            keeps the state in memory only).

    A pipeline resumed from a checkpoint rebuilds its sketch from the
    shards the checkpoint covers and refuses a log whose sketch does not
    match the checkpoint's fingerprint.  A fresh pipeline over a
    non-empty store — or one resumed from a checkpoint older than the
    store — re-processes the outstanding shards (sketch, drift, refit
    decision) before accepting new batches, so its state always
    describes the full committed log and matches what an uninterrupted
    run would hold.
    """

    def __init__(self, store: ShardStore,
                 config: Optional[IngestConfig] = None,
                 checkpoint_dir: Optional[str] = None) -> None:
        self.store = store
        self.config = config or IngestConfig()
        self._sketch: Optional[MomentSketch] = None
        self._baseline: Optional[Dict[str, Any]] = None
        self._tree_state: Optional[Dict[str, Any]] = None
        self._model_version = 0
        self._synced_shards = 0
        self._synced_vocab_version = 0
        self._writer: Optional[CheckpointWriter] = None
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
            # No archive is ever read back (a checkpoint behind the
            # store replays shards instead), so keep one, not one per
            # batch.
            self._writer = CheckpointWriter(
                os.path.join(checkpoint_dir, "stream-pipeline.ckpt"),
                PIPELINE_SOLVER, config=self.config.to_config(),
                keep_last=1)
            document = self._writer.load()
            if document is not None:
                self._restore(document["state"])
        behind = self.store.num_shards - self._synced_shards
        if behind > 0:
            logger.info("pipeline is %d shard(s) behind the store; "
                        "re-processing", behind)
            inc("stream.shards_replayed", behind)
            self._process_pending()

    # --------------------------------------------------------------- state
    @property
    def model_version(self) -> int:
        return self._model_version

    @property
    def sketch(self) -> Optional[MomentSketch]:
        return self._sketch

    @property
    def synced_shards(self) -> int:
        return self._synced_shards

    def _state(self) -> Dict[str, Any]:
        return {
            "baseline": self._baseline,
            "tree_state": self._tree_state,
            "model_version": self._model_version,
            "synced_shards": self._synced_shards,
            "synced_vocab_version": self._synced_vocab_version,
            "fingerprint": (None if self._sketch is None else
                            sketch_fingerprint(
                                self._sketch, self._synced_shards,
                                self._synced_vocab_version)),
        }

    def _restore(self, state: Dict[str, Any]) -> None:
        """Adopt a checkpointed state; the sketch comes from the log.

        A checkpoint that still carries its sketch (written before the
        sketch left the checkpoint) resumes the same way: the rows it
        holds are the log's, which the fingerprint check confirms.
        """
        self._baseline = state.get("baseline")
        self._tree_state = state.get("tree_state")
        self._model_version = int(state.get("model_version", 0))
        self._synced_shards = int(state.get("synced_shards", 0))
        self._synced_vocab_version = int(
            state.get("synced_vocab_version", 0))
        if self._synced_shards > self.store.num_shards:
            raise DataError(
                f"pipeline checkpoint is ahead of the shard store "
                f"({self._synced_shards} > {self.store.num_shards}); "
                f"the store and checkpoint do not belong together")
        if not self._synced_shards:
            return
        shards = [self.store.shard(shard_id)
                  for shard_id in range(self._synced_shards)]
        self._sketch = merge_sketches(build_shard_sketches(
            [shard.corpus for shard in shards], shards[-1].vocab_size,
            min_length=self.config.min_length))
        rebuilt = sketch_fingerprint(self._sketch, self._synced_shards,
                                     shards[-1].vocab_version)
        if rebuilt != state.get("fingerprint"):
            raise DataError(
                f"pipeline checkpoint does not describe the shard store: "
                f"its sketch fingerprint is {state.get('fingerprint')!r} "
                f"but the first {self._synced_shards} shard(s) sketch to "
                f"{rebuilt!r}")

    def _checkpoint(self) -> None:
        if self._writer is not None:
            with span("stream.checkpoint"):
                self._writer.save(self._synced_shards, self._state())

    # --------------------------------------------------------------- ingest
    def ingest_batch(self, documents: Sequence[Dict[str, Any]],
                     ) -> IngestReport:
        """Run one batch through the full loop; returns what happened.

        Committing is idempotent: a batch whose content hash matches an
        already-committed shard (a retry after a crash, or the same
        JSONL fed twice) is not appended again.
        """
        with span("stream.ingest_batch", num_documents=len(documents)):
            with span("stream.batch_key"):
                key = batch_key(documents)
            info = self.store.append_batch(documents, batch_key=key)
            if info["already_committed"]:
                inc("stream.batches_deduped")
            outcome = self._process_pending()
        if outcome is None:
            # Deduplicated batch whose shard was already processed too:
            # nothing changed, report the standing state.
            report = IngestReport(
                shard_id=info["shard_id"],
                num_documents=info["num_documents"],
                vocab_size=len(self.store.vocabulary),
                drift=DriftReport(triggered=False,
                                  reasons=["batch already committed "
                                           "and processed"]),
                refit_ran=False, model_version=self._model_version,
                deduplicated=True)
        else:
            report = IngestReport(
                shard_id=info["shard_id"],
                num_documents=info["num_documents"],
                vocab_size=len(self.store.vocabulary),
                drift=outcome["drift"],
                refit_ran=outcome["refit_ran"],
                model_version=self._model_version,
                deduplicated=info["already_committed"],
                refit_stats=outcome["refit_stats"],
                export_path=(self.config.export_path
                             if outcome["refit_ran"] else None))
        logger.info("batch -> shard %d: drift=%s refit=%s "
                    "model_version=%d", report.shard_id,
                    report.drift.triggered, report.refit_ran,
                    self._model_version)
        return report

    def _process_pending(self) -> Optional[Dict[str, Any]]:
        """Process every committed-but-unprocessed shard, in order.

        Returns the outcome of the last shard processed, or None when
        the pipeline was already in sync with the store.
        """
        outcome = None
        while self._synced_shards < self.store.num_shards:
            outcome = self._process_shard(self._synced_shards)
        return outcome

    def _process_shard(self, shard_id: int) -> Dict[str, Any]:
        """Sketch one shard, detect drift, maybe refit, checkpoint."""
        # The vocab as of *this* shard's commit — not the store's
        # current one — so re-processing history after a crash walks
        # through the same intermediate states as the original run.
        shard = self.store.shard(shard_id)
        with span("stream.sketch"):
            shard_sketch = build_shard_sketches(
                [shard.corpus], shard.vocab_size,
                min_length=self.config.min_length)[0]
            self._sketch = (shard_sketch if self._sketch is None
                            else self._sketch.merge(shard_sketch))
        self._synced_shards = shard_id + 1
        self._synced_vocab_version = shard.vocab_version
        set_gauge("stream.sketch.num_docs", self._sketch.num_docs)
        set_gauge("stream.sketch.vocab_size", self._sketch.vocab_size)

        with span("stream.drift"):
            drift = detect_drift(self._baseline, self._sketch,
                                 self.config.drift)
            for metric, value in drift.metrics.items():
                if value != float("inf"):
                    set_gauge(f"stream.drift.{metric}", value)
            policy = self.config.refit_policy
            refit_ran = (policy == "always"
                         or (policy == "drift" and drift.triggered))
            # The snapshot the next batch's detection compares against.
            baseline = baseline_from_sketch(self._sketch) \
                if refit_ran else None
        refit_stats = None
        if baseline is not None:
            refit_stats = self._refit(baseline)
        else:
            inc("stream.refit.skipped")
        self._checkpoint()
        return {"drift": drift, "refit_ran": refit_ran,
                "refit_stats": refit_stats}

    # ---------------------------------------------------------------- refit
    def _refit(self, baseline: Dict[str, Any]) -> Dict[str, int]:
        """Re-infer dirty subtrees, adopt ``baseline``, bump the version,
        export."""
        corpus = self.store.load_corpus(num_shards=self._synced_shards)
        refitter = StreamRefitter(self.config.tree, seed=self.config.seed,
                                  dirty_threshold=self.config.dirty_threshold)
        hierarchy, tree_state, doc_topics, stats = refitter.refit(
            corpus, self._tree_state)
        self._tree_state = tree_state
        self._baseline = baseline
        self._model_version += 1
        inc("stream.refits")
        set_gauge("stream.model_version", self._model_version)
        if self.config.export_path is not None:
            self.export(hierarchy, doc_topics, corpus)
        return stats.to_dict()

    def export(self, hierarchy, doc_topics: np.ndarray,
               corpus) -> Dict[str, Any]:
        """Write the artifact the servers hot-swap to (atomic).

        ``doc_topics`` indexes ``hierarchy.topics()`` in pre-order, one
        entry per document of ``corpus``.
        """
        from ..serve.artifact import model_parts, save_model_document

        assert self.config.export_path is not None
        with span("stream.export"):
            parts = model_parts(
                vocabulary=corpus.vocabulary,
                hierarchy=hierarchy,
                entity_roles=entity_role_counts(
                    corpus, doc_topics,
                    [topic.notation for topic in hierarchy.topics()]),
                num_documents=len(corpus),
                config=self.config.manifest_config(),
                extra_manifest={
                    "model_version": self._model_version,
                    "stream": sketch_fingerprint(
                        self._sketch, self._synced_shards,
                        self._synced_vocab_version),
                })
            manifest = save_model_document(
                parts, self.config.export_path,
                format=self.config.export_format)
        inc("stream.exports")
        logger.info("exported model v%d (%d topics) -> %s",
                    self._model_version, manifest["num_topics"],
                    self.config.export_path)
        return manifest
