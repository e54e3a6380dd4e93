"""Entity topical role analysis (Chapter 5).

Answers the two question types of Section 1.3.1 against a constructed
topical hierarchy:

* **Type A** (role of given entities): entity-specific phrase ranking
  (Eq. 5.1, combined with phrase quality as Eq. 5.2) and the entity's
  frequency distribution over subtopics (Eq. 5.3–5.6).
* **Type B** (entities for given roles): ranking the entities of a type
  within a topic by popularity x purity (ERankPop+Pur, Section 5.2).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from ..corpus import Corpus
from ..errors import ConfigurationError
from ..hierarchy import Topic, TopicalHierarchy
from ..phrases import (PhraseCounts, compute_topic_phrase_frequencies,
                       document_phrase_instances, phrase_rank_score,
                       render_phrase)
from ..phrases.frequent import Phrase
from ..phrases.hierarchy_ranking import TopicPhraseFrequencies
from ..utils import EPS


class RoleAnalyzer:
    """Role analysis over a phrase-decorated topical hierarchy.

    Args:
        hierarchy: a built hierarchy whose topics carry term phi
            distributions (from :class:`~repro.cathy.HierarchyBuilder`).
        corpus: the text-attached corpus the hierarchy was mined from.
        counts: pre-mined phrase counts (mined here when omitted).
        min_support / max_phrase_length / gamma: forwarded to phrase
            frequency computation.
    """

    def __init__(self, hierarchy: TopicalHierarchy, corpus: Corpus,
                 counts: Optional[PhraseCounts] = None,
                 min_support: int = 5, max_phrase_length: int = 6,
                 gamma: float = 0.5) -> None:
        self.hierarchy = hierarchy
        self.corpus = corpus
        self._table, self.counts = compute_topic_phrase_frequencies(
            hierarchy, corpus, counts=counts, min_support=min_support,
            max_phrase_length=max_phrase_length, gamma=gamma)
        self._doc_instances = document_phrase_instances(
            corpus, self.counts, max_length=max_phrase_length)
        self._doc_freq: Optional[List[Dict[str, float]]] = None
        self._entity_freq_cache: Dict[str, Dict[str, Dict[str, float]]] = {}

    # ----------------------------------------------------- document position
    def document_topic_frequencies(self) -> List[Dict[str, float]]:
        """f_t(d) per document and topic notation (Eq. 5.4–5.5).

        The root frequency of every document is 1; a topic's frequency
        splits among its children in proportion to the total normalized
        phrase frequency TPF, and documents with no frequent phrase in
        any child contribute nothing below that topic.
        """
        if self._doc_freq is None:
            self._doc_freq = attribute_documents(
                self.hierarchy.root, self._table, self._doc_instances)
        return self._doc_freq

    # ------------------------------------------------------- entity position
    def entity_topic_frequencies(self, entity_type: str,
                                 ) -> Dict[str, Dict[str, float]]:
        """f_t(E) per entity: summed document frequencies (Eq. 5.6).

        Returns ``{entity name: {topic notation: frequency}}``; the root
        entry is the entity's total document count.  Cached per entity
        type (the underlying document attribution never changes).
        """
        cached = self._entity_freq_cache.get(entity_type)
        if cached is not None:
            return cached
        doc_freqs = self.document_topic_frequencies()
        result: Dict[str, Dict[str, float]] = {}
        for doc_id, doc in enumerate(self.corpus):
            for name in doc.entity_list(entity_type):
                bucket = result.setdefault(name, {})
                for notation, f in doc_freqs[doc_id].items():
                    bucket[notation] = bucket.get(notation, 0.0) + f
        self._entity_freq_cache[entity_type] = result
        return result

    def entity_distribution(self, entity_type: str, name: str,
                            topic: str = "o") -> Dict[str, float]:
        """The entity's normalized distribution over ``topic``'s children."""
        frequencies = self.entity_topic_frequencies(entity_type).get(name, {})
        node = self.hierarchy.topic(topic)
        shares = {child.notation: frequencies.get(child.notation, 0.0)
                  for child in node.children}
        total = sum(shares.values())
        if total <= 0:
            return {notation: 0.0 for notation in shares}
        return {notation: value / total for notation, value in shares.items()}

    # -------------------------------------------- entity-specific phrases (A)
    def entity_phrases(self, topic: str, entity_type: str,
                       names: Sequence[str], alpha: float = 0.5,
                       top_k: int = 10) -> List[Tuple[str, float]]:
        """Phrases characterizing entities' role in a topic (Eq. 5.1–5.2).

        Combines the entity-specific pointwise KL uprank r(P|t,E) with the
        generic phrase quality r(P|t), weighted by ``alpha``.
        """
        if not 0 <= alpha <= 1:
            raise ConfigurationError("alpha must be in [0, 1]")
        node = self.hierarchy.topic(topic)
        freq = self._table.get(node.notation, {})
        if not freq:
            return []
        total = max(sum(freq.values()), EPS)

        parent = self.hierarchy.parent_of(node)
        if parent is None:
            parent_freq: Dict[Phrase, float] = freq
        else:
            parent_freq = self._table.get(parent.notation, {})
        parent_total = max(sum(parent_freq.values()), EPS)

        doc_freqs = self.document_topic_frequencies()
        name_set = set(names)
        entity_doc_ids = [doc.doc_id for doc in self.corpus
                          if name_set & set(doc.entity_list(entity_type))]

        # f_t(P, E): topic-t mass of E's documents containing P.
        entity_phrase_freq: Dict[Phrase, float] = {}
        entity_total = 0.0
        for doc_id in entity_doc_ids:
            doc_mass = doc_freqs[doc_id].get(node.notation, 0.0)
            if doc_mass <= 0:
                continue
            entity_total += doc_mass
            for phrase in set(self._doc_instances[doc_id]):
                if phrase in freq:
                    entity_phrase_freq[phrase] = \
                        entity_phrase_freq.get(phrase, 0.0) + doc_mass
        entity_total = max(entity_total, EPS)

        scored: List[Tuple[Phrase, float]] = []
        for phrase, f in freq.items():
            p_t = f / total
            quality = phrase_rank_score(f, total,
                                        parent_freq.get(phrase, 0.0),
                                        parent_total)
            p_te = entity_phrase_freq.get(phrase, 0.0) / entity_total
            specific = p_t * float(np.log(max(p_te, EPS) / max(p_t, EPS)))
            combined = alpha * specific + (1 - alpha) * quality
            scored.append((phrase, combined))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return [(render_phrase(p, self.corpus.vocabulary), s)
                for p, s in scored[:top_k]]

    # ----------------------------------------------- entities for a role (B)
    def rank_entities(self, topic: str, entity_type: str,
                      top_k: int = 10, purity: bool = True,
                      ) -> List[Tuple[str, float]]:
        """ERankPop+Pur over the siblings of ``topic`` (Section 5.2).

        With ``purity=False`` this degenerates to ranking by coverage
        p(e|t) alone — the comparison row of Table 5.3.
        """
        node = self.hierarchy.topic(topic)
        parent = self.hierarchy.parent_of(node)
        siblings = ([] if parent is None else
                    [c for c in parent.children if c.notation != node.notation])

        frequencies = self.entity_topic_frequencies(entity_type)
        totals: Dict[str, float] = {}
        for notation in [node.notation] + [s.notation for s in siblings]:
            totals[notation] = sum(
                bucket.get(notation, 0.0) for bucket in frequencies.values())

        scored: List[Tuple[str, float]] = []
        for name, bucket in frequencies.items():
            f_t = bucket.get(node.notation, 0.0)
            if f_t <= 0:
                continue
            p_t = f_t / max(totals[node.notation], EPS)
            if not purity or not siblings:
                scored.append((name, p_t))
                continue
            contrast = 0.0
            for sibling in siblings:
                f_s = bucket.get(sibling.notation, 0.0)
                mixed_total = totals[node.notation] + totals[sibling.notation]
                contrast = max(contrast,
                               (f_t + f_s) / max(mixed_total, EPS))
            score = p_t * float(np.log(max(p_t, EPS) / max(contrast, EPS)))
            scored.append((name, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:top_k]


def attribute_documents(root: Topic, table: TopicPhraseFrequencies,
                        doc_instances: Sequence[Sequence[Phrase]],
                        ) -> List[Dict[str, float]]:
    """Eq. 5.4–5.5 for every document at once, topic by topic.

    Each internal topic costs one sparse product: a document x phrase
    CSR with one unit entry per phrase instance times the phrase x child
    share matrix (each phrase's child frequencies over their sum) gives
    every document's TPF row.  Masses and key presence then pass down
    the tree as arrays.

    The CSR keeps its entries in document order and is never
    duplicate-summed, so scipy's ``csr @ dense`` adds each document's
    instances one by one in the order the per-document descent does:
    the returned dicts equal that loop's bit for bit, key order (topic
    pre-order) included.
    """
    num_docs = len(doc_instances)
    phrase_ids: Dict[Phrase, int] = {}
    columns = [phrase_ids.setdefault(phrase, len(phrase_ids))
               for phrases in doc_instances for phrase in phrases]
    indptr = np.zeros(num_docs + 1, dtype=np.int64)
    np.cumsum([len(phrases) for phrases in doc_instances], out=indptr[1:])
    instances = csr_matrix(
        (np.ones(len(columns)), np.asarray(columns, dtype=np.int64), indptr),
        shape=(num_docs, len(phrase_ids)))

    result: List[Dict[str, float]] = [{} for _ in range(num_docs)]
    stack = [(root, np.ones(num_docs), np.ones(num_docs, dtype=bool))]
    while stack:
        topic, mass, present = stack.pop()
        notation = topic.notation
        rows = np.flatnonzero(present)
        for doc_id, value in zip(rows.tolist(), mass[rows].tolist()):
            result[doc_id][notation] = value
        if not topic.children:
            continue
        shares = np.column_stack([
            np.fromiter(map(table.get(child.notation, {}).get, phrase_ids,
                            repeat(0.0)),
                        dtype=np.float64, count=len(phrase_ids))
            for child in topic.children])
        totals = shares.sum(axis=1)
        hit = totals > 0
        shares[hit] /= totals[hit, None]
        shares[~hit] = 0.0
        tpf = instances @ shares
        tpf_total = tpf.sum(axis=1)
        descend = present & (mass > 0) & (tpf_total > 0)
        rows = np.flatnonzero(descend)
        child_mass = np.zeros((num_docs, len(topic.children)))
        child_mass[rows] = mass[rows, None] * (tpf[rows]
                                              / tpf_total[rows, None])
        for index in reversed(range(len(topic.children))):
            stack.append((topic.children[index], child_mass[:, index],
                          descend))
    return result
