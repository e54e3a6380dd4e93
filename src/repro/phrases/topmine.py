"""ToPMine: phrase mining + segmentation + topical ranking (Section 4.3).

The three stages:

1. frequent contiguous phrase mining (Algorithm 1),
2. significance-guided bottom-up segmentation of every document into a
   bag of phrases (Algorithm 2),
3. phrase-constrained LDA over the bags, then topical phrase ranking by
   pointwise KL popularity x purity (Eq. 4.9) mixed with the phrase
   significance term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..corpus import Corpus
from ..errors import ConfigurationError
from ..obs import span
from ..utils import EPS, RandomState, ensure_rng
from .frequent import (MERGE_CACHE_CAPACITY, Phrase, PhraseCounts,
                       mine_frequent_phrases)
from .ranking import FlatTopicModel, render_phrase
from .segmentation import segment_corpus
from .significance import make_merge_scorer, phrase_significance


@dataclass
class ToPMineConfig:
    """Knobs for :class:`ToPMine`.

    Attributes:
        num_topics: k for the phrase-constrained topic model.
        min_support: mu for frequent phrase mining.
        max_phrase_length: cap on mined phrase length.
        merge_threshold: alpha, the minimum merge significance
            (Algorithm 2 stops below it).
        omega: weight of the significance term in the final ranking
            ``(1-omega) * r_t(P) + omega * p(P|t) * log sig(P)``.
        lda_alpha / lda_beta / lda_iterations: PhraseLDA hyperparameters.
        merge_cache_capacity: LRU bound of the merge-significance memo
            (``topmine.merge_cache.{hits,misses}`` metrics track its
            effectiveness; run reports derive the hit ratio).
    """

    num_topics: int = 5
    min_support: int = 5
    max_phrase_length: int = 6
    merge_threshold: float = 2.0
    omega: float = 0.5
    lda_alpha: float = 0.1
    lda_beta: float = 0.01
    lda_iterations: int = 100
    merge_cache_capacity: int = MERGE_CACHE_CAPACITY


@dataclass
class ToPMineResult:
    """Everything ToPMine produces.

    Attributes:
        counts: mined frequent phrases.
        partitions: bag-of-phrases partition per document.
        model: the fitted phrase-constrained LDA in flat-array form.
        doc_topics: per-document topic mixture (D, k).
        rankings: per topic, ranked (phrase, score) pairs.
        phrase_topic_counts: c_P(t): per phrase, its topical count vector.
    """

    counts: PhraseCounts
    partitions: List[List[Phrase]]
    model: FlatTopicModel
    doc_topics: np.ndarray
    rankings: List[List[Tuple[Phrase, float]]] = field(default_factory=list)
    phrase_topic_counts: Dict[Phrase, np.ndarray] = field(default_factory=dict)

    def top_phrases(self, topic: int, k: int = 10,
                    corpus: Optional[Corpus] = None) -> List[str]:
        """Top-k phrases of a topic, rendered as strings when possible."""
        ranked = self.rankings[topic][:k]
        if corpus is None:
            return [" ".join(map(str, p)) for p, _ in ranked]
        return [render_phrase(p, corpus.vocabulary) for p, _ in ranked]


class ToPMine:
    """The full ToPMine pipeline."""

    def __init__(self, config: Optional[ToPMineConfig] = None,
                 seed: RandomState = None) -> None:
        self.config = config or ToPMineConfig()
        if self.config.num_topics < 1:
            raise ConfigurationError("num_topics must be >= 1")
        self._rng = ensure_rng(seed)

    def mine(self, corpus: Corpus) -> Tuple[PhraseCounts, List[List[Phrase]]]:
        """Stages 1-2 only: frequent phrases and document partitions."""
        counts = mine_frequent_phrases(
            corpus, min_support=self.config.min_support,
            max_length=self.config.max_phrase_length,
            merge_cache_capacity=self.config.merge_cache_capacity)
        partitions = segment_corpus(
            corpus, counts, alpha=self.config.merge_threshold)
        return counts, partitions

    def fit(self, corpus: Corpus, checkpoint_dir: Optional[str] = None,
            resume: bool = False) -> ToPMineResult:
        """Run all three stages.

        Args:
            corpus: the tokenized corpus.
            checkpoint_dir: when given, the Gibbs sampler persists its
                chain state there (mining and segmentation are
                deterministic re-runs, so only the sampler needs
                checkpoints); a resumed fit reproduces the uninterrupted
                one bit for bit.
            resume: continue from an existing sampler checkpoint.
        """
        from ..baselines.lda_gibbs import LDAGibbs
        from ..resilience import checkpoint_in

        config = self.config
        counts, partitions = self.mine(corpus)

        writer = checkpoint_in(
            checkpoint_dir, "lda_gibbs", "lda.gibbs",
            config={"num_topics": config.num_topics,
                    "alpha": config.lda_alpha, "beta": config.lda_beta,
                    "iterations": config.lda_iterations})
        sampler = LDAGibbs(num_topics=config.num_topics,
                           alpha=config.lda_alpha, beta=config.lda_beta,
                           iterations=config.lda_iterations, seed=self._rng,
                           checkpoint=writer, resume=resume)
        docs = corpus.token_lists()
        with span("topmine.lda"):
            lda = sampler.fit(docs, vocab_size=len(corpus.vocabulary),
                              partitions=partitions)
        model = lda.to_flat()

        with span("topmine.ranking"):
            phrase_topic_counts = self._phrase_topic_counts(
                partitions, model, lda.theta)
            rankings = self._rank(phrase_topic_counts, counts, model)
        return ToPMineResult(counts=counts, partitions=partitions,
                             model=model, doc_topics=lda.theta,
                             rankings=rankings,
                             phrase_topic_counts=phrase_topic_counts)

    # ------------------------------------------------------------- internals
    @staticmethod
    def _phrase_topic_counts(partitions: List[List[Phrase]],
                             model: FlatTopicModel,
                             theta: np.ndarray) -> Dict[Phrase, np.ndarray]:
        """c_P(t): topical count of each phrase instance (Eq. 4.8).

        Each instance contributes its posterior topic distribution
        p(t | P, d) proportional to theta[d, t] * prod_w phi[t, w] —
        smoother than raw single-sample Gibbs assignments.
        """
        counts: Dict[Phrase, np.ndarray] = {}
        log_phi = np.log(np.maximum(model.phi, EPS))
        log_theta = np.log(np.maximum(theta, EPS))
        for d, doc_partition in enumerate(partitions):
            for phrase in doc_partition:
                log_post = log_theta[d] + log_phi[:, list(phrase)].sum(axis=1)
                log_post -= log_post.max()
                post = np.exp(log_post)
                post /= max(post.sum(), EPS)
                vec = counts.get(phrase)
                if vec is None:
                    vec = np.zeros(model.num_topics)
                    counts[phrase] = vec
                vec += post
        return counts

    def _rank(self, phrase_topic_counts: Dict[Phrase, np.ndarray],
              counts: PhraseCounts,
              model: FlatTopicModel) -> List[List[Tuple[Phrase, float]]]:
        """Eq. 4.9 ranking with the significance mixing term.

        For flat topics the parent is the root, so the purity contrast
        p(P | pi_t) is the phrase's overall relative frequency.
        """
        config = self.config
        k = model.num_topics
        column_totals = np.zeros(k)
        overall_total = 0.0
        for vec in phrase_topic_counts.values():
            column_totals += vec
            overall_total += vec.sum()
        column_totals = np.maximum(column_totals, EPS)
        overall_total = max(overall_total, EPS)

        scorer = make_merge_scorer(counts)
        rankings: List[List[Tuple[Phrase, float]]] = []
        for t in range(k):
            scored = []
            for phrase, vec in phrase_topic_counts.items():
                if vec[t] < 1:
                    continue
                p_t = vec[t] / column_totals[t]
                p_parent = vec.sum() / overall_total
                r = p_t * float(np.log(max(p_t, EPS) / max(p_parent, EPS)))
                sig = phrase_significance(counts, phrase, scorer=scorer)
                sig_term = p_t * float(np.log(max(sig, 1.0)))
                score = (1 - config.omega) * r + config.omega * sig_term
                if score > 0:
                    scored.append((phrase, score))
            scored.sort(key=lambda pair: (-pair[1], pair[0]))
            rankings.append(scored)
        scorer.flush()
        return rankings
