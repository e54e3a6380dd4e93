"""Drift-triggered re-inference that patches only dirty subtrees.

:class:`StreamRefitter` maintains the recursive STROD topic tree of
:class:`~repro.strod.STRODHierarchyBuilder` across stream updates.  Per
node it decides between:

* **solve** — re-run the full moment pipeline (whitening + tensor
  power + recovery) on the node's current document subset.  A node is
  solved when it has no previous model or its subset size changed by at
  least ``dirty_threshold`` (fractionally) since that model was fit;
* **reuse** — keep the previous model, zero-padding its topic-word
  rows to the grown vocabulary (unseen words simply cast no votes in
  the fold-in), and only re-assign documents to children.

With ``dirty_threshold=0.0`` every node with any change re-solves, and
because the refitter walks the tree in exactly the batch builder's
depth-first order with a fresh seeded generator per call, a full-solve
refit reproduces ``STRODHierarchyBuilder(config, seed).build(corpus)``
**bit for bit** — the equivalence the stream test suite pins.  With a
positive threshold the result is approximate on reused subtrees, by
design: that is where the incremental speedup comes from.

Every node's documents are rows sliced from one documents x words count
matrix built from the corpus's token array, and the document -> topic
assignment is one int array over the tree's topics in pre-order.  The
per-node models live in a plain-data tree state (JSON/pickle safe) so
the ingest pipeline can checkpoint and resume them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from ..corpus import Corpus
from ..errors import ConfigurationError
from ..hierarchy import Topic, TopicalHierarchy
from ..obs import get_logger, inc, span
from ..strod import STROD
from ..strod.hierarchy import STRODTreeConfig, child_topic
from ..strod.moments import document_counts
from ..strod.strod import STRODModel
from ..utils import ensure_rng

__all__ = [
    "RefitStats",
    "StreamRefitter",
    "entity_role_counts",
]

logger = get_logger("stream.refit")


@dataclass
class RefitStats:
    """What one refit pass actually did."""

    nodes_solved: int = 0
    nodes_reused: int = 0
    num_documents: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"nodes_solved": self.nodes_solved,
                "nodes_reused": self.nodes_reused,
                "num_documents": self.num_documents}


def _model_to_state(model: STRODModel, num_docs: int) -> Dict[str, Any]:
    return {
        "num_docs": int(num_docs),
        "vocab_size": int(model.phi.shape[1]),
        "alpha": model.alpha.tolist(),
        "phi": model.phi.tolist(),
        "alpha0": float(model.alpha0),
        "eigenvalues": model.eigenvalues.tolist(),
        "residual": float(model.residual),
    }


def _model_from_state(state: Dict[str, Any],
                      vocab_size: int) -> STRODModel:
    """Rebuild a node model, zero-padding phi to the grown vocabulary."""
    phi_old = np.asarray(state["phi"], dtype=float)
    if vocab_size < phi_old.shape[1]:
        raise ConfigurationError(
            f"cannot shrink a node model vocabulary "
            f"({phi_old.shape[1]} -> {vocab_size})")
    phi = np.zeros((phi_old.shape[0], vocab_size))
    phi[:, :phi_old.shape[1]] = phi_old
    return STRODModel(alpha=np.asarray(state["alpha"], dtype=float),
                      phi=phi, alpha0=float(state["alpha0"]),
                      eigenvalues=np.asarray(state["eigenvalues"],
                                             dtype=float),
                      residual=float(state["residual"]))


class StreamRefitter:
    """Incrementally maintained recursive STROD hierarchy.

    Args:
        config: the tree shape / solver budget (same knobs as the
            batch builder).
        seed: base seed; each :meth:`refit` call starts a fresh
            generator from it, so a full-solve refit is reproducible
            and equal to the batch build under the same seed.
        dirty_threshold: fractional subset-size change at which a node
            with a previous model re-solves (0.0 = always re-solve).
    """

    def __init__(self, config: Optional[STRODTreeConfig] = None,
                 seed: int = 0, dirty_threshold: float = 0.25) -> None:
        if dirty_threshold < 0:
            raise ConfigurationError("dirty_threshold must be >= 0")
        self.config = config or STRODTreeConfig()
        self.seed = seed
        self.dirty_threshold = dirty_threshold

    def refit(self, corpus: Corpus,
              previous: Optional[Dict[str, Any]] = None,
              ) -> Tuple[TopicalHierarchy, Dict[str, Any], List[str],
                         RefitStats]:
        """Rebuild / patch the hierarchy for the corpus as it stands.

        Args:
            corpus: the full materialized stream corpus.
            previous: the tree state a prior refit returned (None for a
                from-scratch build).

        Returns ``(hierarchy, tree_state, doc_topics, stats)`` where
        ``doc_topics[i]`` is the index, in ``hierarchy.topics()``
        pre-order, of the deepest topic document ``i`` was assigned to
        (0, the root, when the tree has no children) and ``tree_state``
        is the plain-data per-node model map to pass to the next refit.
        """
        with span("stream.refit", num_documents=len(corpus)):
            prev_nodes = (previous or {}).get("nodes", {})
            stats = RefitStats(num_documents=len(corpus))
            hierarchy = TopicalHierarchy()
            doc_topics = np.zeros(len(corpus), dtype=np.int64)
            state: Dict[str, Any] = {"nodes": {}}
            rng = ensure_rng(self.seed)
            counts = document_counts(corpus.tokens, corpus.doc_offsets,
                                     len(corpus.vocabulary), min_length=0)
            self._expand(hierarchy.root, list(corpus.vocabulary), counts,
                         np.diff(corpus.doc_offsets),
                         np.arange(len(corpus)), 0, prev_nodes, state,
                         doc_topics, [hierarchy.root], stats, rng)
            inc("stream.refit.nodes_solved", stats.nodes_solved)
            inc("stream.refit.nodes_reused", stats.nodes_reused)
            logger.info("refit over %d documents: %d nodes solved, "
                        "%d reused", len(corpus), stats.nodes_solved,
                        stats.nodes_reused)
        return hierarchy, state, doc_topics, stats

    # ------------------------------------------------------------ internals
    def _expand(self, topic: Topic, words: List[str], counts: csr_matrix,
                lengths: np.ndarray, doc_ids: np.ndarray, level: int,
                prev_nodes: Dict[str, Any], state: Dict[str, Any],
                doc_topics: np.ndarray, topics: List[Topic],
                stats: RefitStats, rng) -> None:
        """The batch builder's recursion, with a solve-or-reuse gate.

        ``topics`` lists the topics made so far, in pre-order, so a new
        child's index is its position there.
        """
        config = self.config
        if level >= config.max_depth:
            return
        if int((lengths[doc_ids] >= 3).sum()) < max(config.min_documents,
                                                    config.num_children):
            return

        subset = counts[doc_ids]
        vocab_size = len(words)
        notation = topic.notation
        prev = prev_nodes.get(notation)
        estimator = STROD(num_topics=config.num_children,
                          alpha0=config.alpha0,
                          num_restarts=config.num_restarts,
                          num_iterations=config.num_iterations,
                          seed=rng)
        if prev is not None and not self._is_dirty(prev, len(doc_ids)):
            estimator.model_ = _model_from_state(prev, vocab_size)
            model = estimator.model_
            stats.nodes_reused += 1
        else:
            model = estimator.fit(subset, vocab_size=vocab_size)
            stats.nodes_solved += 1
        state["nodes"][notation] = _model_to_state(model, len(doc_ids))
        responsibilities = estimator.document_topics(subset)
        assignment = responsibilities.argmax(axis=1)

        for z in range(config.num_children):
            child = child_topic(model, z, words)
            topic.add_child(child)
            child_doc_ids = doc_ids[np.flatnonzero(assignment == z)]
            doc_topics[child_doc_ids] = len(topics)
            topics.append(child)
            self._expand(child, words, counts, lengths, child_doc_ids,
                         level + 1, prev_nodes, state, doc_topics, topics,
                         stats, rng)

    def _is_dirty(self, prev: Dict[str, Any], subset_size: int) -> bool:
        """Has the node's document subset changed enough to re-solve?"""
        prev_docs = int(prev["num_docs"])
        change = abs(subset_size - prev_docs) / max(prev_docs, 1)
        return change >= self.dirty_threshold


def entity_role_counts(corpus: Corpus, doc_topics: np.ndarray,
                       topics: Sequence[str],
                       ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Entity -> topic frequency tables from the stream assignment.

    Document ``d`` is assigned to the topic of notation
    ``topics[doc_topics[d]]``.  Each document votes once for every
    ancestor of its assigned topic (root ``"o"`` included), for every
    entity linked to it — the same shape the batch role analyzer feeds
    the serve artifact (``{etype: {name: {notation: count}}}``), derived
    purely from the refit's document assignment so the streamed artifact
    needs no separate EM pass.  Per entity type, every (link, ancestor)
    pair is one key ``entity * A + ancestor`` over the ``A`` distinct
    ancestors, and one ``np.unique`` counts them all.
    """
    doc_topic = np.asarray(doc_topics, dtype=np.int64)
    lineages = []
    for notation in topics:
        parts = notation.split("/")
        lineages.append(["/".join(parts[:i + 1]) for i in range(len(parts))])
    ancestors = list(dict.fromkeys(a for lineage in lineages
                                   for a in lineage))
    ancestor_of = dict(zip(ancestors, range(len(ancestors))))
    depth = np.array([len(lineage) for lineage in lineages], dtype=np.int64)
    starts = np.zeros(len(topics) + 1, dtype=np.int64)
    np.cumsum(depth, out=starts[1:])
    lineage_ids = np.array([ancestor_of[a] for lineage in lineages
                            for a in lineage], dtype=np.int64)
    width = max(len(ancestors), 1)
    roles: Dict[str, Dict[str, Dict[str, float]]] = {}
    for etype, links in corpus.entity_relations().items():
        link_topic = doc_topic[links.documents()]
        per_link = depth[link_topic]
        first = np.cumsum(per_link) - per_link
        rank = np.arange(int(per_link.sum())) - np.repeat(first, per_link)
        pair_ancestor = lineage_ids[np.repeat(starts[link_topic], per_link)
                                    + rank]
        keys, counts = np.unique(
            np.repeat(links.ids, per_link) * width + pair_ancestor,
            return_counts=True)
        entities, heads = np.unique(keys // width, return_index=True)
        held = [ancestors[a] for a in (keys % width).tolist()]
        values = counts.astype(float).tolist()
        edges = heads.tolist() + [len(keys)]
        roles[etype] = {links.names[e]: dict(zip(held[lo:hi], values[lo:hi]))
                        for e, lo, hi in zip(entities.tolist(), edges[:-1],
                                             edges[1:])}
    return roles
