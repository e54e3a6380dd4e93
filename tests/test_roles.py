"""Tests for entity topical role analysis (Chapter 5)."""

import pytest

from repro.errors import ConfigurationError
from repro.hierarchy import TopicalHierarchy
from repro.roles import RoleAnalyzer


class TestConstruction:
    def test_requires_phrase_decoration(self, mined):
        dataset, result = mined
        with pytest.raises(ConfigurationError, match="attach_phrases"):
            RoleAnalyzer(TopicalHierarchy(), dataset.corpus, result.counts)


class TestDocumentDistribution:
    def test_root_mass_is_one(self, mined):
        _, result = mined
        for doc_freq in result.roles.document_topic_frequencies():
            assert doc_freq.get("o") == pytest.approx(1.0)

    def test_child_masses_bounded_by_parent(self, mined):
        _, result = mined
        hierarchy = result.hierarchy
        for doc_freq in result.roles.document_topic_frequencies()[:200]:
            for topic in hierarchy.topics():
                if not topic.children:
                    continue
                parent_mass = doc_freq.get(topic.notation, 0.0)
                child_mass = sum(doc_freq.get(c.notation, 0.0)
                                 for c in topic.children)
                assert child_mass <= parent_mass + 1e-9


class TestEntityDistribution:
    def test_distribution_sums_to_one_or_zero(self, mined):
        _, result = mined
        freqs = result.roles.entity_topic_frequencies("author")
        name = next(iter(freqs))
        dist = result.roles.entity_distribution("author", name)
        assert sum(dist.values()) in (pytest.approx(1.0), 0.0)

    def test_root_frequency_counts_documents(self, mined):
        dataset, result = mined
        freqs = result.roles.entity_topic_frequencies("author")
        doc_counts = {}
        for doc in dataset.corpus:
            for author in doc.entity_list("author"):
                doc_counts[author] = doc_counts.get(author, 0) + 1
        for name, bucket in list(freqs.items())[:20]:
            assert bucket.get("o", 0.0) == pytest.approx(doc_counts[name])

    def test_prolific_author_concentrates_in_home_topic(self, mined):
        dataset, result = mined
        truth = dataset.ground_truth
        counts = {}
        for doc in dataset.corpus:
            for author in doc.entity_list("author"):
                counts[author] = counts.get(author, 0) + 1
        top_author = max(counts, key=counts.get)
        dist = result.roles.entity_distribution("author", top_author)
        assert max(dist.values()) > 0.4


class TestEntityPhrases:
    def test_combined_ranking_returns_topic_phrases(self, mined):
        _, result = mined
        topic = result.hierarchy.root.children[0].notation
        ranked = result.roles.entity_phrases(
            topic, "author",
            [result.hierarchy.root.children[0]
             .entity_ranks["author"][0][0]],
            top_k=5)
        assert len(ranked) == 5
        assert all(isinstance(p, str) for p, _ in ranked)

    def test_alpha_validation(self, mined):
        _, result = mined
        with pytest.raises(ConfigurationError):
            result.roles.entity_phrases("o/1", "author", ["x"], alpha=1.5)

    def test_alpha_zero_matches_generic_ranking_order(self, mined):
        _, result = mined
        topic = result.hierarchy.root.children[0]
        generic = [p for p, _ in topic.phrases[:5]]
        ranked = result.roles.entity_phrases(topic.notation, "author",
                                             ["nonexistent-author"],
                                             alpha=0.0, top_k=5)
        assert [p for p, _ in ranked] == generic


class TestEntityRanking:
    def test_top_authors_belong_to_topic(self, mined):
        dataset, result = mined
        truth = dataset.ground_truth
        hits = total = 0
        for child in result.hierarchy.root.children:
            ranked = result.roles.rank_entities(child.notation, "author",
                                                top_k=5)
            # Determine the topic's dominant true area via its venues.
            venues = child.top_entities("venue", 2)
            if not venues:
                continue
            area = truth.topic_of_entity("venue", venues[0])
            for name, _ in ranked:
                true_leaf = truth.topic_of_entity("author", name)
                if true_leaf is None:
                    continue
                total += 1
                if true_leaf[:1] == area:
                    hits += 1
        assert total > 0
        assert hits / total > 0.6

    def test_purity_reduces_cross_topic_overlap(self, mined):
        _, result = mined
        children = result.hierarchy.root.children
        pure_sets = [set(n for n, _ in
                         result.roles.rank_entities(c.notation, "author",
                                                    top_k=5))
                     for c in children]
        cov_sets = [set(n for n, _ in
                        result.roles.rank_entities(c.notation, "author",
                                                   top_k=5, purity=False))
                    for c in children]
        pure_overlap = sum(len(a & b) for i, a in enumerate(pure_sets)
                           for b in pure_sets[i + 1:])
        cov_overlap = sum(len(a & b) for i, a in enumerate(cov_sets)
                          for b in cov_sets[i + 1:])
        assert pure_overlap <= cov_overlap

    def test_scores_sorted(self, mined):
        _, result = mined
        ranked = result.roles.rank_entities("o/1", "venue", top_k=10)
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)
