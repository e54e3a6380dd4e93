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

from functools import cached_property
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import csr_matrix

from ..corpus import Corpus, EntityLinks
from ..errors import ConfigurationError
from ..hierarchy import Topic, TopicalHierarchy
from ..phrases import (PhraseCounts, PhraseInstances, document_phrase_index,
                       phrase_rank_score, render_phrase)
from ..phrases.frequent import Phrase
from ..phrases.hierarchy_ranking import TopicPhraseFrequencies
from ..utils import EPS

#: Topic notations in pre-order, then per document x topic the frequency
#: f_t(d) and whether the document's descent reaches the topic.
Attribution = Tuple[List[str], np.ndarray, np.ndarray]


class RoleAnalyzer:
    """Role analysis over a phrase-decorated topical hierarchy.

    The per-topic phrase frequencies f_t(P) are read from
    ``hierarchy.phrase_frequencies``, the table the phrase decoration
    ranked each topic's phrases from.

    Args:
        hierarchy: a built hierarchy whose topics carry term phi
            distributions (from :class:`~repro.cathy.HierarchyBuilder`)
            and phrases (from :func:`~repro.phrases.attach_phrases`).
        corpus: the text-attached corpus the hierarchy was mined from.
        counts: the phrase counts ``attach_phrases`` returned.
        max_phrase_length: longest phrase instance to find in documents.

    Raises:
        ConfigurationError: ``hierarchy`` has not been decorated with
            phrases.
    """

    def __init__(self, hierarchy: TopicalHierarchy, corpus: Corpus,
                 counts: PhraseCounts, max_phrase_length: int = 6) -> None:
        if hierarchy.phrase_frequencies is None:
            raise ConfigurationError(
                "role analysis needs a phrase-decorated hierarchy; "
                "run attach_phrases first")
        self.hierarchy = hierarchy
        self.corpus = corpus
        self.counts = counts
        self._table = hierarchy.phrase_frequencies
        self._instances = document_phrase_index(
            corpus, self.counts, max_length=max_phrase_length)
        self._attribution: Optional[Attribution] = None
        self._doc_freq: Optional[List[Dict[str, float]]] = None
        self._entity_freq_cache: Dict[str, Dict[str, Dict[str, float]]] = {}

    @cached_property
    def _doc_instances(self) -> List[List[Phrase]]:
        """Per document, its phrase instances as tuples (built on first
        use: attribution reads the flat form)."""
        return self._instances.per_document()

    # ----------------------------------------------------- document position
    def document_topic_frequencies(self) -> List[Dict[str, float]]:
        """f_t(d) per document and topic notation (Eq. 5.4–5.5).

        The root frequency of every document is 1; a topic's frequency
        splits among its children in proportion to the total normalized
        phrase frequency TPF, and documents with no frequent phrase in
        any child contribute nothing below that topic.
        """
        if self._doc_freq is None:
            self._doc_freq = _frequency_dicts(*self._attributed())
        return self._doc_freq

    def _attributed(self) -> Attribution:
        if self._attribution is None:
            self._attribution = attribute_document_arrays(
                self.hierarchy.root, self._table, self._instances)
        return self._attribution

    # ------------------------------------------------------- entity position
    def entity_topic_frequencies(self, entity_type: str,
                                 ) -> Dict[str, Dict[str, float]]:
        """f_t(E) per entity: summed document frequencies (Eq. 5.6).

        Returns ``{entity name: {topic notation: frequency}}``; the root
        entry is the entity's total document count.  Cached per entity
        type (the underlying document attribution never changes).
        """
        cached = self._entity_freq_cache.get(entity_type)
        if cached is None:
            cached = self._entity_freq_cache[entity_type] = \
                sum_entity_frequencies(
                    self.corpus.entity_links(entity_type),
                    self._attributed())
        return cached

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
        entity_doc_ids = self.corpus.entity_links(
            entity_type).documents_of(names).tolist()

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
    """Eq. 5.4–5.5 for every document: ``{topic notation: f_t(d)}``.

    Each dict holds the topics the document's descent reaches, in topic
    pre-order (see :func:`attribute_document_arrays`).
    """
    return _frequency_dicts(*attribute_document_arrays(root, table,
                                                       doc_instances))


def sum_entity_frequencies(links: EntityLinks, attribution: Attribution,
                           ) -> Dict[str, Dict[str, float]]:
    """Eq. 5.6: f_t(E), each entity's document frequencies summed.

    ``links`` is the corpus's document → entity CSR of one entity type
    (a name listed twice in a document counts twice).  Entities come in
    order of first mention, and each entity's topics in the order its
    documents first reach them.  The sums are the transposed CSR, an
    entity x document matrix, times the document x topic frequencies;
    its entries stay in document order, so scipy adds each entity's
    documents one by one in corpus order, bit for bit as a per-document
    accumulation does.
    """
    notations, mass, present = attribution
    if not len(links.ids):
        return {}
    order = np.argsort(links.ids, kind="stable")
    docs = links.documents()[order]
    indptr = np.zeros(len(links.names) + 1, dtype=np.int64)
    np.cumsum(np.bincount(links.ids, minlength=len(links.names)),
              out=indptr[1:])
    matrix = csr_matrix((np.ones(len(docs)), docs, indptr),
                        shape=(len(links.names), len(mass)))
    sums = matrix @ mass
    # Per (entity, topic): the first of the entity's mentions to reach it.
    first = np.minimum.reduceat(
        np.where(present[docs], np.arange(len(docs))[:, None], len(docs)),
        indptr[:-1], axis=0)
    rows, cols = np.nonzero(first < len(docs))
    order = np.lexsort((cols, first[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    keys = [notations[t] for t in cols.tolist()]
    values = sums[rows, cols].tolist()
    bounds = np.cumsum(np.bincount(
        rows, minlength=len(links.names))).tolist()
    return {name: dict(zip(keys[lo:hi], values[lo:hi]))
            for name, lo, hi in zip(links.names, [0] + bounds[:-1], bounds)}


def _frequency_dicts(notations: List[str], mass: np.ndarray,
                     present: np.ndarray) -> List[Dict[str, float]]:
    result: List[Dict[str, float]] = [{} for _ in range(len(mass))]
    for column, notation in enumerate(notations):
        rows = np.flatnonzero(present[:, column])
        for doc_id, value in zip(rows.tolist(), mass[rows, column].tolist()):
            result[doc_id][notation] = value
    return result


def attribute_document_arrays(
        root: Topic, table: TopicPhraseFrequencies,
        instances: Union[PhraseInstances, Sequence[Sequence[Phrase]]],
        ) -> Attribution:
    """Eq. 5.4–5.5 for every document at once, topic by topic.

    ``instances`` is the flat form that
    :func:`~repro.phrases.document_phrase_index` returns, or
    per-document phrase lists, which are flattened first.  Each internal
    topic costs one sparse product:
    a document x phrase CSR with one unit entry per phrase instance
    times the phrase x child share matrix (each phrase's child
    frequencies over their sum) gives every document's TPF row.  Masses
    and key presence then pass down the tree as arrays.  A document
    absent from a topic has mass 0 there.

    The CSR keeps its entries in document order and is never
    duplicate-summed, so scipy's ``csr @ dense`` adds each document's
    instances one by one in the order the per-document descent does:
    the masses equal that loop's bit for bit, whatever the phrases'
    column numbering.
    """
    if not isinstance(instances, PhraseInstances):
        instances = PhraseInstances.from_lists(instances)
    phrases = instances.phrases
    num_docs = len(instances.bounds) - 1
    matrix = csr_matrix(
        (np.ones(len(instances.index)), instances.index, instances.bounds),
        shape=(num_docs, len(phrases)))

    notations: List[str] = []
    masses: List[np.ndarray] = []
    reached: List[np.ndarray] = []
    stack = [(root, np.ones(num_docs), np.ones(num_docs, dtype=bool))]
    while stack:
        topic, mass, present = stack.pop()
        notations.append(topic.notation)
        masses.append(mass)
        reached.append(present)
        if not topic.children:
            continue
        shares = np.column_stack([
            np.fromiter(map(table.get(child.notation, {}).get, phrases,
                            repeat(0.0)),
                        dtype=np.float64, count=len(phrases))
            for child in topic.children])
        totals = shares.sum(axis=1)
        hit = totals > 0
        shares[hit] /= totals[hit, None]
        shares[~hit] = 0.0
        tpf = matrix @ shares
        tpf_total = tpf.sum(axis=1)
        descend = present & (mass > 0) & (tpf_total > 0)
        rows = np.flatnonzero(descend)
        child_mass = np.zeros((num_docs, len(topic.children)))
        child_mass[rows] = mass[rows, None] * (tpf[rows]
                                              / tpf_total[rows, None])
        for index in reversed(range(len(topic.children))):
            stack.append((topic.children[index], child_mass[:, index],
                          descend))
    return notations, np.column_stack(masses), np.column_stack(reached)
