"""Per-layer timing from outside the program.

The traced run wraps public functions of each layer with a stopwatch;
nothing inside ``src/`` changes.  Wrapped calls nest (``save_model``
calls into the roles layer), so each layer is charged its *self* time:
its calls' wall time minus the time spent in wrapped calls below them.
The self times of a run therefore add up to at most its wall time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple


class LayerClock:
    """Self time and counters per layer, recorded around wrapped calls."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._children: List[float] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def timed(self, layer: str, fn: Callable,
              count: Callable[[Any], Dict[str, float]] = None) -> Callable:
        """``fn`` wrapped to charge its self time to ``layer``.

        ``count`` maps the call's result to counters to add (e.g. the
        number of links a network collapse produced).
        """
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            self._children.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._children.pop()
                self.self_s[layer] += elapsed - child
                if self._children:
                    self._children[-1] += elapsed
            if count is not None:
                for name, value in count(result).items():
                    self.counts[name] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner: Any, attr: str, layer: str,
             count: Callable[[Any], Dict[str, float]] = None) -> None:
        """Replace ``owner.attr`` by its timed version until :meth:`restore`.

        ``owner`` is a module (for a function looked up by name at call
        time) or a class (for a method).  Class- and static methods are
        wrapped in their bound form, which is how callers reach them.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            target = getattr(owner, attr)
            patched = staticmethod(self.timed(layer, target, count))
        else:
            patched = self.timed(layer, original, count)
        setattr(owner, attr, patched)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _count_of(value: Any) -> float:
    return float(value() if callable(value) else value)


def instrument_mining(clock: LayerClock) -> None:
    """Wrap the calls ``mine_dblp`` makes into each mining layer."""
    import repro.core.miner as miner
    import repro.serve as serve
    from repro.cathy import HierarchyBuilder
    from repro.corpus import Corpus
    from repro.relations import TPFG, CollaborationNetwork
    from repro.roles import RoleAnalyzer

    clock.wrap(Corpus, "from_texts", "corpus.build_s")
    clock.wrap(miner, "build_collapsed_network", "network.collapse_s",
               lambda net: {"network.links": _count_of(net.num_links)})
    clock.wrap(HierarchyBuilder, "build", "cathy.build_s",
               lambda tree: {"cathy.topics": _count_of(tree.num_topics)})
    clock.wrap(miner, "attach_phrases", "phrases.attach_s")
    clock.wrap(miner, "attach_entity_rankings", "phrases.entity_rank_s")
    clock.wrap(RoleAnalyzer, "__init__", "roles.build_s")
    clock.wrap(RoleAnalyzer, "entity_topic_frequencies",
               "roles.entity_frequencies_s")
    clock.wrap(CollaborationNetwork, "from_corpus", "relations.collab_s")
    clock.wrap(miner, "build_candidate_graph", "relations.candidates_s",
               lambda graph: {"relations.candidate_edges":
                              _count_of(graph.num_edges)})
    clock.wrap(TPFG, "fit", "relations.tpfg_s")
    clock.wrap(serve, "save_model", "serve.artifact.save_s")


def instrument_stream(clock: LayerClock) -> None:
    """Wrap the calls one ``IngestPipeline.ingest_batch`` makes."""
    import repro.serve.artifact as artifact
    import repro.stream.ingest as ingest
    from repro.resilience import CheckpointWriter
    from repro.stream.refit import StreamRefitter
    from repro.stream.shards import ShardStore
    from repro.strod import MomentSketch

    clock.wrap(ShardStore, "append_batch", "stream.shards.append_s")
    clock.wrap(ingest, "build_shard_sketches", "stream.sketch.build_s")
    clock.wrap(MomentSketch, "merge", "stream.sketch.merge_s")
    clock.wrap(ingest, "detect_drift", "stream.drift.detect_s",
               lambda report: {"stream.drift.triggers":
                               float(bool(report.triggered))})
    clock.wrap(ShardStore, "load_corpus", "stream.refit.load_corpus_s")
    clock.wrap(StreamRefitter, "refit", "stream.refit.s",
               lambda out: {"stream.refit.nodes_solved":
                            float(out[3].nodes_solved),
                            "stream.refit.nodes_reused":
                            float(out[3].nodes_reused)})
    clock.wrap(ingest.IngestPipeline, "export", "stream.export_s")
    clock.wrap(artifact, "save_model_document", "serve.artifact.save_s")
    clock.wrap(CheckpointWriter, "save", "resilience.checkpoint.save_s")
