"""Tests for model selection and the recursive hierarchy builder."""

import numpy as np
import pytest

from repro.cathy import (BuilderConfig, HierarchyBuilder, select_num_topics,
                         split_network)
from repro.corpus import Corpus
from repro.errors import ConfigurationError
from repro.network import build_collapsed_network


@pytest.fixture
def three_topic_network():
    texts = (["red green blue"] * 10 + ["cat dog bird"] * 10
             + ["sun moon star"] * 10)
    entities = ([{"venue": ["A"]}] * 10 + [{"venue": ["B"]}] * 10
                + [{"venue": ["C"]}] * 10)
    corpus = Corpus.from_texts(texts, entities=entities)
    return build_collapsed_network(corpus)


class TestSplitNetwork:
    def test_partition_is_complete(self, three_topic_network):
        train, held_out = split_network(three_topic_network, 0.3, seed=0)
        total = train.total_weight() + sum(w for *_, w in held_out)
        assert total == pytest.approx(three_topic_network.total_weight())

    def test_train_keeps_all_nodes(self, three_topic_network):
        train, _ = split_network(three_topic_network, 0.3, seed=0)
        for node_type in three_topic_network.node_types():
            assert train.node_count(node_type) == \
                three_topic_network.node_count(node_type)

    def test_train_is_the_unmasked_links(self, three_topic_network):
        """Same node space; each link type's links drawn in link order by
        one batched uniform draw, held out below the fraction."""
        network = three_topic_network
        train, held_out = split_network(network, 0.3, seed=4)
        assert train.node_types() == network.node_types()
        for node_type in network.node_types():
            assert train.node_names(node_type) == \
                network.node_names(node_type)
        rng = np.random.default_rng(4)
        expected = []
        for link_type in network.link_types():
            i_idx, j_idx, weights = network.link_arrays(link_type)
            held = rng.random(len(weights)) < 0.3
            expected.extend(zip([link_type] * int(held.sum()),
                                i_idx[held].tolist(), j_idx[held].tolist(),
                                weights[held].tolist()))
            kept = train.link_arrays(link_type)
            for got, want in zip(kept, (i_idx, j_idx, weights)):
                assert np.array_equal(got, want[~held])
        assert held_out == expected
        assert 0 < len(held_out) < network.num_links()
        assert train.num_links() + len(held_out) == network.num_links()

    def test_invalid_fraction(self, three_topic_network):
        with pytest.raises(ConfigurationError):
            split_network(three_topic_network, 1.5)


class TestSelectNumTopics:
    def test_bic_prefers_true_k(self, three_topic_network):
        best, scores = select_num_topics(
            three_topic_network, candidates=[2, 3, 5], method="bic",
            seed=0, max_iter=60)
        assert set(scores) == {2, 3, 5}
        assert best == 3

    def test_cv_returns_scores_for_all_candidates(self, three_topic_network):
        best, scores = select_num_topics(
            three_topic_network, candidates=[2, 3], method="cv",
            seed=0, max_iter=40)
        assert set(scores) == {2, 3}
        assert best in (2, 3)

    def test_unknown_method(self, three_topic_network):
        with pytest.raises(ConfigurationError):
            select_num_topics(three_topic_network, method="aic")

    def test_empty_candidates(self, three_topic_network):
        with pytest.raises(ConfigurationError):
            select_num_topics(three_topic_network, candidates=[])


class TestHierarchyBuilder:
    def test_zero_restarts_rejected(self, three_topic_network):
        # A typed error at the estimator, not an AttributeError on a
        # missing model deep in the recursion.
        builder = HierarchyBuilder(BuilderConfig(num_children=3, max_depth=1,
                                                 restarts=0))
        with pytest.raises(ConfigurationError, match="restarts"):
            builder.build(three_topic_network)

    def test_builds_requested_shape(self, dblp_network):
        builder = HierarchyBuilder(
            BuilderConfig(num_children=[4, 2], max_depth=2, max_iter=40),
            seed=0)
        hierarchy = builder.build(dblp_network)
        assert len(hierarchy.root.children) == 4
        assert hierarchy.height == 2
        for child in hierarchy.root.children:
            assert len(child.children) in (0, 2)

    def test_children_sorted_by_rho(self, dblp_network):
        builder = HierarchyBuilder(
            BuilderConfig(num_children=4, max_depth=1, max_iter=40), seed=0)
        hierarchy = builder.build(dblp_network)
        rhos = [c.rho for c in hierarchy.root.children]
        assert rhos == sorted(rhos, reverse=True)

    def test_topics_carry_phi_and_networks(self, dblp_network):
        builder = HierarchyBuilder(
            BuilderConfig(num_children=3, max_depth=1, max_iter=40), seed=0)
        hierarchy = builder.build(dblp_network)
        for child in hierarchy.root.children:
            assert "term" in child.phi
            assert child.network is not None

    def test_root_phi_from_degrees(self, dblp_network):
        builder = HierarchyBuilder(
            BuilderConfig(num_children=2, max_depth=1, max_iter=20), seed=0)
        hierarchy = builder.build(dblp_network)
        root_phi = hierarchy.root.phi["term"]
        assert sum(root_phi.values()) == pytest.approx(1.0, abs=1e-6)

    def test_expand_topic_regrows_subtree(self, dblp_network):
        builder = HierarchyBuilder(
            BuilderConfig(num_children=[3, 2], max_depth=2, max_iter=30),
            seed=0)
        hierarchy = builder.build(dblp_network)
        target = hierarchy.root.children[0]
        old_children = list(target.children)
        builder.expand_topic(hierarchy, target)
        assert len(target.children) == len(old_children)
        assert target.children is not old_children

    def test_expand_topic_requires_network(self, dblp_network):
        builder = HierarchyBuilder(seed=0)
        hierarchy = builder.build(dblp_network)
        orphan = hierarchy.root.children[0]
        orphan.network = None
        with pytest.raises(ConfigurationError):
            builder.expand_topic(hierarchy, orphan)

    def test_min_network_weight_stops_recursion(self, dblp_network):
        builder = HierarchyBuilder(
            BuilderConfig(num_children=3, max_depth=3, max_iter=20,
                          min_network_weight=10 ** 9), seed=0)
        hierarchy = builder.build(dblp_network)
        assert hierarchy.height == 0


class TestExpandTopicOverride:
    def test_num_children_override(self, dblp_network):
        builder = HierarchyBuilder(
            BuilderConfig(num_children=[3, 2], max_depth=2, max_iter=30),
            seed=0)
        hierarchy = builder.build(dblp_network)
        target = hierarchy.root.children[0]
        builder.expand_topic(hierarchy, target, num_children=4)
        assert len(target.children) == 4
        # Config restored afterwards.
        assert builder.config.num_children == [3, 2]
        assert builder.config.max_depth == 2

    def test_override_does_not_recurse(self, dblp_network):
        builder = HierarchyBuilder(
            BuilderConfig(num_children=[3, 2, 2], max_depth=3,
                          max_iter=30), seed=0)
        hierarchy = builder.build(dblp_network)
        target = hierarchy.root.children[0]
        builder.expand_topic(hierarchy, target, num_children=2)
        for child in target.children:
            assert child.children == []
