"""Topical phrase mining: KERT and ToPMine (Chapter 4)."""

from .frequent import (Phrase, PhraseCounts, mine_frequent_phrases,
                       mine_frequent_phrases_from_chunks)
from .hierarchy_ranking import (attach_entity_rankings, attach_phrases,
                                compute_topic_phrase_frequencies,
                                phrase_rank_score, split_frequencies)
from .itemsets import (canonical_orders, itemsets_as_phrase_counts,
                       mine_frequent_itemsets)
from .kert import KERT, KERTConfig, TopicalPhraseScores, completeness_scores
from .ranking import (FlatTopicModel, PhraseInstances,
                      document_phrase_index, document_phrase_instances,
                      phrase_topic_posterior, render_phrase,
                      term_model_from_hin, topical_frequencies)
from .segmentation import (partition_is_valid, segment_chunk,
                           segment_corpus, segment_document)
from .significance import (MergeScorer, make_merge_scorer,
                           merge_significance, phrase_significance)
from .topmine import ToPMine, ToPMineConfig, ToPMineResult

__all__ = [
    "Phrase",
    "PhraseCounts",
    "mine_frequent_phrases",
    "mine_frequent_phrases_from_chunks",
    "mine_frequent_itemsets",
    "itemsets_as_phrase_counts",
    "canonical_orders",
    "KERT",
    "KERTConfig",
    "TopicalPhraseScores",
    "completeness_scores",
    "ToPMine",
    "ToPMineConfig",
    "ToPMineResult",
    "FlatTopicModel",
    "term_model_from_hin",
    "topical_frequencies",
    "phrase_topic_posterior",
    "document_phrase_index",
    "document_phrase_instances",
    "PhraseInstances",
    "render_phrase",
    "segment_chunk",
    "segment_document",
    "segment_corpus",
    "partition_is_valid",
    "MergeScorer",
    "make_merge_scorer",
    "merge_significance",
    "phrase_significance",
    "attach_phrases",
    "attach_entity_rankings",
    "compute_topic_phrase_frequencies",
    "phrase_rank_score",
    "split_frequencies",
]
