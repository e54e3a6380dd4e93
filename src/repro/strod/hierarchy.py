"""Recursive topic-tree construction with STROD (Section 7.2).

Chapter 7 replaces CATHY's EM clustering with moment-based inference to
scale the recursive hierarchy construction: STROD is run at the root,
documents are assigned to their dominant subtopic, and the construction
recurses into each subtopic's document subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..corpus import Corpus
from ..hierarchy import Topic, TopicalHierarchy
from ..utils import RandomState, ensure_rng
from .strod import STROD


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
        docs = corpus.token_lists()
        doc_ids = np.arange(len(docs))
        self._expand(hierarchy.root, corpus, docs, doc_ids, level=0)
        return hierarchy

    def _expand(self, topic: Topic, corpus: Corpus,
                docs: List[List[int]], doc_ids: np.ndarray,
                level: int) -> None:
        config = self.config
        if level >= config.max_depth:
            return
        subset = [docs[i] for i in doc_ids.tolist()]
        long_enough = [d for d in subset if len(d) >= 3]
        if len(long_enough) < max(config.min_documents,
                                  config.num_children):
            return

        estimator = STROD(num_topics=config.num_children,
                          alpha0=config.alpha0,
                          num_restarts=config.num_restarts,
                          num_iterations=config.num_iterations,
                          seed=self._rng)
        model = estimator.fit(subset, vocab_size=len(corpus.vocabulary))
        responsibilities = estimator.document_topics(subset)
        assignment = responsibilities.argmax(axis=1)

        vocabulary = corpus.vocabulary
        for z in range(config.num_children):
            phi_dict = {vocabulary.word_of(w): float(p)
                        for w, p in enumerate(model.phi[z]) if p > 1e-6}
            child = Topic(rho=float(model.alpha[z] / model.alpha.sum()),
                          phi={"term": phi_dict})
            topic.add_child(child)
            child_doc_ids = doc_ids[np.flatnonzero(assignment == z)]
            self._expand(child, corpus, docs, child_doc_ids, level + 1)
