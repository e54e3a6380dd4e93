"""Tests for repro.network.build."""

import pytest

from repro.corpus import Corpus
from repro.errors import DataError
from repro.network import (TERM_TYPE, build_collapsed_network,
                           build_term_network, network_statistics)


class TestTermNetwork:
    def test_cooccurrence_counts(self):
        corpus = Corpus.from_texts(["alpha beta", "alpha beta", "alpha gamma"])
        net = build_term_network(corpus)
        a = net.node_id(TERM_TYPE, "alpha")
        b = net.node_id(TERM_TYPE, "beta")
        g = net.node_id(TERM_TYPE, "gamma")
        assert net.link_weight(TERM_TYPE, a, TERM_TYPE, b) == 2.0
        assert net.link_weight(TERM_TYPE, a, TERM_TYPE, g) == 1.0

    def test_min_count_filters_rare_terms(self):
        corpus = Corpus.from_texts(["alpha beta", "alpha beta", "alpha rare"])
        net = build_term_network(corpus, min_count=2)
        assert net.node_names(TERM_TYPE) == ["alpha", "beta"]

    def test_duplicate_words_counted_once_per_doc(self):
        corpus = Corpus.from_texts(["alpha alpha beta"])
        net = build_term_network(corpus)
        a = net.node_id(TERM_TYPE, "alpha")
        b = net.node_id(TERM_TYPE, "beta")
        assert net.link_weight(TERM_TYPE, a, TERM_TYPE, b) == 1.0


class TestCollapsedNetwork:
    def test_example_3_1_link_types(self, tiny_corpus):
        net = build_collapsed_network(tiny_corpus)
        types = {"-".join(lt) for lt in net.link_types()}
        assert "term-term" in types
        assert "author-term" in types
        assert "term-venue" in types
        assert "author-venue" in types

    def test_no_venue_venue_links_with_single_venue_per_doc(self,
                                                            tiny_corpus):
        net = build_collapsed_network(tiny_corpus)
        assert ("venue", "venue") not in net.link_types()

    def test_entity_term_weight_counts_documents(self):
        corpus = Corpus.from_texts(
            ["alpha beta", "alpha gamma"],
            entities=[{"author": ["a1"]}, {"author": ["a1"]}])
        net = build_collapsed_network(corpus)
        a1 = net.node_id("author", "a1")
        alpha = net.node_id(TERM_TYPE, "alpha")
        assert net.link_weight("author", a1, TERM_TYPE, alpha) == 2.0

    def test_author_author_links(self, tiny_corpus):
        net = build_collapsed_network(tiny_corpus)
        alice = net.node_id("author", "alice")
        bob = net.node_id("author", "bob")
        assert net.link_weight("author", alice, "author", bob) == 2.0

    def test_text_absent_mode(self, tiny_corpus):
        net = build_collapsed_network(tiny_corpus, include_text=False)
        assert TERM_TYPE not in net.node_types()
        assert net.num_links() > 0

    def test_entity_type_restriction(self, tiny_corpus):
        net = build_collapsed_network(tiny_corpus, entity_types=["venue"])
        assert "author" not in net.node_types()

    def test_term_entity_type_clashes_with_words(self):
        # Entity "graph" would otherwise become the word "graph" and the
        # document would gain a term-term self-link.
        corpus = Corpus.from_texts(["graph mining"],
                                   entities=[{"term": ["graph"],
                                              "author": ["ann"]}])
        with pytest.raises(DataError, match="entity type 'term' clashes"):
            build_collapsed_network(corpus)
        with pytest.raises(DataError, match="entity type 'term' clashes"):
            build_collapsed_network(corpus, entity_types=["author", "term"])
        net = build_collapsed_network(corpus, entity_types=["author"])
        assert net.node_names(TERM_TYPE) == ["graph", "mining"]
        net = build_collapsed_network(corpus, include_text=False)
        assert net.node_names("term") == ["graph"]
        assert net.link_weight("author", 0, "term", 0) == 1.0


    def test_repeated_entity_type_counts_once(self):
        corpus = Corpus.from_texts(
            ["graph mining data", "graph data"],
            entities=[{"author": ["Ann", "Bob"]}, {"author": ["Ann"]}])
        once = build_collapsed_network(corpus, entity_types=["author"])
        ann = once.node_id("author", "Ann")
        bob = once.node_id("author", "Bob")
        graph = once.node_id(TERM_TYPE, "graph")
        assert once.link_weight("author", ann, "author", bob) == 1.0
        assert once.link_weight("author", ann, TERM_TYPE, graph) == 2.0
        assert once.total_weight() == 13.0
        twice = build_collapsed_network(corpus,
                                        entity_types=["author", "author"])
        assert twice.node_types() == once.node_types()
        assert twice.node_names("author") == once.node_names("author")
        for name in ("rows", "cols", "weights", "type_id"):
            assert getattr(twice, name).tolist() == \
                getattr(once, name).tolist()

    def test_name_listed_twice_counts_twice(self):
        corpus = Corpus.from_texts(["graph", "graph"],
                                   entities=[{"author": ["Ann", "Ann"]},
                                             {"author": ["Ann"]}])
        net = build_collapsed_network(corpus)
        assert net.link_weight("author", 0, TERM_TYPE, 0) == 3.0
        assert net.link_types() == [("author", "term")]


class TestStatistics:
    def test_table_3_4_shape(self, tiny_corpus):
        net = build_collapsed_network(tiny_corpus)
        stats = network_statistics(net)
        assert stats["nodes"]["author"] == 4
        assert stats["nodes"]["venue"] == 2
        assert all({"pairs", "weight"} == set(v)
                   for v in stats["links"].values())
