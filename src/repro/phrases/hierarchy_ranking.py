"""Phrase and entity decoration of a topical hierarchy (Chapters 3-4).

After CATHY/CATHYHIN builds a hierarchy, each topic is visualized with a
ranked phrase list.  Topical frequency flows down the tree by Definition 3
and Eq. 4.3: a phrase's frequency at a topic splits among the children in
proportion to ``rho_z * prod_v phi_z(v)``.  Within each topic, phrases are
ranked by pointwise KL popularity x purity against the parent (Eq. 4.9),
after a completeness filter (Eq. 4.2).

:func:`compute_topic_phrase_frequencies` exposes the per-topic frequency
tables directly; entity role analysis (Chapter 5) builds on them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..corpus import Corpus
from ..hierarchy import Topic, TopicalHierarchy
from ..network import TERM_TYPE
from ..obs import timed
from ..utils import EPS
from .frequent import (Phrase, PhraseCounts, mine_frequent_phrases,
                       phrase_matrix)
from .kert import completeness_scores
from .ranking import render_phrase

TopicPhraseFrequencies = Dict[str, Dict[Phrase, float]]


def compute_topic_phrase_frequencies(hierarchy: TopicalHierarchy,
                                     corpus: Corpus,
                                     counts: Optional[PhraseCounts] = None,
                                     min_support: int = 5,
                                     max_phrase_length: int = 6,
                                     min_topical_frequency: float = 2.0,
                                     gamma: float = 0.5,
                                     max_phrase_tokens: Optional[int] = None,
                                     ) -> Tuple[TopicPhraseFrequencies,
                                                PhraseCounts]:
    """f_t(P) for every topic of the hierarchy (Definition 3 / Eq. 4.3).

    Returns (frequencies keyed by topic notation, the phrase counts used).
    Phrases failing the completeness filter (Eq. 4.2, threshold ``gamma``)
    are excluded at the root and therefore everywhere.
    """
    if counts is None:
        counts = mine_frequent_phrases(corpus, min_support=min_support,
                                       max_length=max_phrase_length)
    complete = completeness_scores(counts)
    root_freq: Dict[Phrase, float] = {
        p: float(c) for p, c in counts.counts.items()
        if complete.get(p, 1.0) > gamma
        and (max_phrase_tokens is None or len(p) <= max_phrase_tokens)}

    table: TopicPhraseFrequencies = {}

    def descend(topic: Topic, freq: Dict[Phrase, float]) -> None:
        table[topic.notation] = freq
        if not topic.children:
            return
        child_freqs = split_frequencies(topic, freq, corpus)
        for child, child_freq in zip(topic.children, child_freqs):
            kept = {p: f for p, f in child_freq.items()
                    if f >= min_topical_frequency}
            descend(child, kept)

    descend(hierarchy.root, root_freq)
    return table, counts


def split_frequencies(topic: Topic, freq: Dict[Phrase, float],
                      corpus: Corpus) -> List[Dict[Phrase, float]]:
    """Eq. 4.3: split each phrase's topic-t frequency among the children.

    One phrase x child log-score matrix: ``log rho`` plus, position by
    position, the rows of a word x child ``log phi`` matrix.  Each
    phrase adds its words in ascending word-id order, so permutations of
    one word multiset get bit-equal shares and rank by their phrase
    tuples, not by float rounding.
    """
    children = topic.children
    phrases = list(freq)
    if not phrases or not children:
        return [{} for _ in children]
    # Padding sorts after every word id, then holds word 0; no phrase
    # sums past its own length.
    pad = np.iinfo(np.int64).max
    size, padded = phrase_matrix(phrases, fill=pad)
    padded.sort(axis=1)
    padded[padded == pad] = 0
    word_ids, inverse = np.unique(padded, return_inverse=True)
    rows_of_words = inverse.reshape(padded.shape)
    words = map(corpus.vocabulary.word_of, word_ids.tolist())
    child_phi = [child.phi.get(TERM_TYPE, {}) for child in children]
    log_phi = np.log(np.maximum(np.array(
        [[phi.get(word, EPS) for phi in child_phi] for word in words],
        dtype=float).reshape(len(word_ids), len(children)), EPS))

    log_scores = np.tile(np.log(np.array(
        [max(child.rho, EPS) for child in children])), (len(phrases), 1))
    for position in range(padded.shape[1]):
        rows = np.flatnonzero(size > position)
        log_scores[rows] = log_scores[rows] \
            + log_phi[rows_of_words[rows, position]]
    log_scores -= log_scores.max(axis=1, keepdims=True)
    scores = np.exp(log_scores)
    total = scores.sum(axis=1)
    shares = np.fromiter(freq.values(), dtype=float,
                         count=len(phrases))[:, None] * scores \
        / total[:, None]
    shares[total <= 0] = 0.0
    return [{phrase: share for phrase, share in zip(phrases, column)
             if share > 0} for column in shares.T.tolist()]


def phrase_rank_score(phrase_freq: float, topic_total: float,
                      parent_freq: float, parent_total: float) -> float:
    """r_t(P) of Eq. 4.9: pointwise KL of p(P|t) against p(P|parent)."""
    p_t = phrase_freq / max(topic_total, EPS)
    p_parent = parent_freq / max(parent_total, EPS)
    return p_t * float(np.log(max(p_t, EPS) / max(p_parent, EPS)))


def attach_phrases(hierarchy: TopicalHierarchy,
                   corpus: Corpus,
                   counts: Optional[PhraseCounts] = None,
                   min_support: int = 5,
                   max_phrase_length: int = 6,
                   min_topical_frequency: float = 2.0,
                   gamma: float = 0.5,
                   top_k: int = 20,
                   max_phrase_tokens: Optional[int] = None) -> PhraseCounts:
    """Populate ``topic.phrases`` for every topic of ``hierarchy``.

    The per-topic frequency table the rankings come from is kept as
    ``hierarchy.phrase_frequencies``, so role analysis over the same
    counts can reuse it.

    Args:
        counts: pre-mined frequent phrases (mined here when omitted).
        min_topical_frequency: phrases whose estimated frequency at a
            topic falls below this are dropped from that subtree.
        gamma: completeness filter threshold (Eq. 4.6).
        max_phrase_tokens: restrict phrase length (1 reproduces the
            unigram-only CATHY1/CATHYHIN1 variants of Table 3.5).

    Returns:
        The phrase counts used (for reuse by role analysis).
    """
    with timed("phrases.topical_frequency"):
        table, counts = compute_topic_phrase_frequencies(
            hierarchy, corpus, counts=counts, min_support=min_support,
            max_phrase_length=max_phrase_length,
            min_topical_frequency=min_topical_frequency, gamma=gamma,
            max_phrase_tokens=max_phrase_tokens)

    with timed("phrases.ranking"):
        _rank_topics(hierarchy, corpus, table, top_k)
    hierarchy.phrase_frequencies = table
    return counts


def _rank_topics(hierarchy: TopicalHierarchy, corpus: Corpus,
                 table: TopicPhraseFrequencies, top_k: int) -> None:
    for topic in hierarchy.topics():
        freq = table.get(topic.notation, {})
        total = max(sum(freq.values()), EPS)
        scored: List[Tuple[Phrase, float]] = []
        if topic.path == ():
            # Root: rank by popularity alone (no contrastive parent).
            scored = [(p, f / total) for p, f in freq.items()]
        else:
            parent_notation = hierarchy.parent_of(topic).notation
            parent_freq = table.get(parent_notation, {})
            parent_total = max(sum(parent_freq.values()), EPS)
            for phrase, f in freq.items():
                score = phrase_rank_score(f, total,
                                          parent_freq.get(phrase, 0.0),
                                          parent_total)
                if score > 0:
                    scored.append((phrase, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        topic.phrases = [(render_phrase(p, corpus.vocabulary), s)
                         for p, s in scored[:top_k]]


def attach_entity_rankings(hierarchy: TopicalHierarchy,
                           entity_types: Optional[List[str]] = None,
                           top_k: int = 20) -> None:
    """Populate ``topic.entity_ranks`` from the fitted phi distributions.

    CATHYHIN already ranks every node type per topic (Section 3.2.1);
    this just materializes ordered lists for the requested entity types.
    """
    for topic in hierarchy.topics():
        types = entity_types
        if types is None:
            types = [t for t in topic.phi if t != TERM_TYPE]
        for etype in types:
            dist = topic.phi.get(etype, {})
            ranked = sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))
            topic.entity_ranks[etype] = [(name, float(p))
                                         for name, p in ranked[:top_k]]
