"""Tests for the homogeneous CATHY EM (Section 3.1)."""

import numpy as np
import pytest

from repro.cathy import CathyEM
from repro.corpus import Corpus
from repro.errors import ConfigurationError, NotFittedError
from repro.network import TERM_TYPE, build_term_network


@pytest.fixture
def two_topic_network():
    """Two cliques of terms with no cross links: a trivially separable
    two-topic network."""
    texts = (["red green blue"] * 10) + (["cat dog bird"] * 10)
    corpus = Corpus.from_texts(texts)
    return build_term_network(corpus)


class TestFit:
    def test_recovers_separable_clusters(self, two_topic_network):
        estimator = CathyEM(num_topics=2, seed=0)
        model = estimator.fit(two_topic_network)
        top0 = set(np.argsort(-model.phi[0])[:3])
        top1 = set(np.argsort(-model.phi[1])[:3])
        assert top0.isdisjoint(top1)
        names0 = {model.node_names[i] for i in top0}
        assert names0 in ({"red", "green", "blue"}, {"cat", "dog", "bird"})

    def test_phi_rows_are_distributions(self, two_topic_network):
        model = CathyEM(num_topics=2, seed=0).fit(two_topic_network)
        assert np.allclose(model.phi.sum(axis=1), 1.0)

    def test_rho_sums_to_total_weight(self, two_topic_network):
        model = CathyEM(num_topics=2, seed=0).fit(two_topic_network)
        assert model.rho.sum() == pytest.approx(
            two_topic_network.total_weight(), rel=1e-3)

    def test_likelihood_improves_with_restarts(self, two_topic_network):
        single = CathyEM(num_topics=3, restarts=1, seed=1).fit(
            two_topic_network)
        multi = CathyEM(num_topics=3, restarts=5, seed=1).fit(
            two_topic_network)
        assert multi.log_likelihood >= single.log_likelihood - 1e-9

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            CathyEM(num_topics=0)
        with pytest.raises(ConfigurationError):
            CathyEM(num_topics=2, restarts=0)

    def test_empty_network_rejected(self):
        corpus = Corpus.from_texts(["single"])
        network = build_term_network(corpus)
        with pytest.raises(ConfigurationError):
            CathyEM(num_topics=2).fit(network)


class TestMonotoneLikelihood:
    def test_em_monotone(self, two_topic_network):
        """EM likelihood is non-decreasing across iteration budgets."""
        values = []
        for iterations in (1, 3, 10, 50):
            estimator = CathyEM(num_topics=2, max_iter=iterations, seed=7)
            model = estimator.fit(two_topic_network)
            values.append(model.log_likelihood)
        assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))


class TestSubnetworks:
    def test_expected_weights_sum_to_observed(self, two_topic_network):
        estimator = CathyEM(num_topics=2, seed=0)
        estimator.fit(two_topic_network)
        per_topic = estimator.expected_link_weights(two_topic_network)
        for i, j, weight in zip(*(a.tolist() for a in
                                  two_topic_network.link_arrays(
                                      (TERM_TYPE, TERM_TYPE)))):
            total = sum(bucket.get((i, j), 0.0) for bucket in per_topic)
            assert total == pytest.approx(weight, rel=1e-6)

    def test_subnetworks_partition_cliques(self, two_topic_network):
        estimator = CathyEM(num_topics=2, seed=0)
        estimator.fit(two_topic_network)
        subs = estimator.subnetworks(two_topic_network)
        names = [set(sub.node_names(TERM_TYPE)) for sub in subs]
        assert {"red", "green", "blue"} in names
        assert {"cat", "dog", "bird"} in names

    def test_requires_fit(self, two_topic_network):
        with pytest.raises(NotFittedError):
            CathyEM(num_topics=2).expected_link_weights(two_topic_network)

    def test_topic_distribution_dict(self, two_topic_network):
        model = CathyEM(num_topics=2, seed=0).fit(two_topic_network)
        dist = model.topic_distribution(0)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-6)
