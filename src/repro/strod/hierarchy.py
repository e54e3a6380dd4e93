"""Recursive topic-tree construction with STROD (Section 7.2).

Chapter 7 replaces CATHY's EM clustering with moment-based inference to
scale the recursive hierarchy construction: STROD is run at the root,
documents are assigned to their dominant subtopic, and the construction
recurses into each subtopic's document subset.  Each node's documents
are rows sliced from one documents x words count matrix built from the
corpus's token array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.sparse import csr_matrix

from ..corpus import Corpus
from ..hierarchy import Topic, TopicalHierarchy
from ..utils import RandomState, ensure_rng
from .moments import document_counts
from .strod import STROD, STRODModel


@dataclass
class STRODTreeConfig:
    """Knobs for :class:`STRODHierarchyBuilder`.

    Attributes:
        num_children: subtopics per node.
        max_depth: maximal topic level.
        min_documents: stop recursing below this subset size.
        alpha0: Dirichlet concentration per level (None learns it).
        num_restarts / num_iterations: tensor power budget.
    """

    num_children: int = 4
    max_depth: int = 2
    min_documents: int = 50
    alpha0: Optional[float] = 1.0
    num_restarts: int = 8
    num_iterations: int = 25


class STRODHierarchyBuilder:
    """Builds a topic tree by recursive moment-based inference."""

    def __init__(self, config: Optional[STRODTreeConfig] = None,
                 seed: RandomState = None) -> None:
        self.config = config or STRODTreeConfig()
        self._rng = ensure_rng(seed)

    def build(self, corpus: Corpus) -> TopicalHierarchy:
        """Construct the hierarchy for ``corpus``."""
        hierarchy = TopicalHierarchy()
        counts = document_counts(corpus.tokens, corpus.doc_offsets,
                                 len(corpus.vocabulary), min_length=0)
        self._expand(hierarchy.root, list(corpus.vocabulary), counts,
                     np.diff(corpus.doc_offsets), np.arange(len(corpus)),
                     level=0)
        return hierarchy

    def _expand(self, topic: Topic, words: List[str], counts: csr_matrix,
                lengths: np.ndarray, doc_ids: np.ndarray,
                level: int) -> None:
        config = self.config
        if level >= config.max_depth:
            return
        if int((lengths[doc_ids] >= 3).sum()) < max(config.min_documents,
                                                    config.num_children):
            return

        subset = counts[doc_ids]
        estimator = STROD(num_topics=config.num_children,
                          alpha0=config.alpha0,
                          num_restarts=config.num_restarts,
                          num_iterations=config.num_iterations,
                          seed=self._rng)
        model = estimator.fit(subset, vocab_size=len(words))
        responsibilities = estimator.document_topics(subset)
        assignment = responsibilities.argmax(axis=1)

        for z in range(config.num_children):
            child = child_topic(model, z, words)
            topic.add_child(child)
            child_doc_ids = doc_ids[np.flatnonzero(assignment == z)]
            self._expand(child, words, counts, lengths, child_doc_ids,
                         level + 1)


def child_topic(model: STRODModel, z: int, words: List[str]) -> Topic:
    """Subtopic ``z`` of a node's model: weight alpha_z / sum(alpha) and
    its word distribution, words of probability above 1e-6 only, in id
    order."""
    row = model.phi[z]
    kept = np.flatnonzero(row > 1e-6)
    phi = dict(zip([words[w] for w in kept.tolist()], row[kept].tolist()))
    return Topic(rho=float(model.alpha[z] / model.alpha.sum()),
                 phi={"term": phi})
