"""Vectorized CATHY kernel equivalence tests.

The vectorized solver kernels promise to match the original loop
implementations (kept in :mod:`tests.reference_kernels`) to
floating-point noise, count degenerate links instead of dropping them,
and memoize merge significance without changing its values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.cathy import CathyEM, CathyHIN
from repro.cathy.em import posterior_link_split, sparse_topic_buckets
from repro.corpus import Corpus
from repro.network import build_term_network
from repro.phrases import mine_frequent_phrases
from repro.phrases.frequent import PhraseCounts
from repro.phrases.significance import merge_significance

from .reference_kernels import (reference_expected_link_weights,
                                reference_posterior_link_split)


@pytest.fixture
def clique_network():
    texts = (["red green blue"] * 10) + (["cat dog bird"] * 10)
    return build_term_network(Corpus.from_texts(texts))


class TestVectorizedKernels:
    """Vectorized kernels match the reference loops to 1e-12."""

    @staticmethod
    def _random_problem(rng, k, num_nodes, num_links, zero_node=False):
        phi = rng.dirichlet(np.ones(num_nodes), size=k)
        rho = rng.uniform(0.1, 5.0, size=k)
        i_idx = rng.integers(0, num_nodes, size=num_links)
        j_idx = rng.integers(0, num_nodes, size=num_links)
        weights = rng.uniform(0.0, 3.0, size=num_links)
        if zero_node:
            # Make every link touching node 0 degenerate.
            phi[:, 0] = 0.0
            phi /= phi.sum(axis=1, keepdims=True)
            i_idx[0] = 0
        return rho, phi, i_idx, j_idx, weights

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
           num_nodes=st.integers(2, 20), num_links=st.integers(1, 60),
           zero_node=st.booleans())
    def test_posterior_link_split_matches_reference(
            self, seed, k, num_nodes, num_links, zero_node):
        rng = np.random.default_rng(seed)
        rho, phi, i_idx, j_idx, weights = self._random_problem(
            rng, k, num_nodes, num_links, zero_node)
        fast = posterior_link_split(rho, phi, i_idx, j_idx, weights,
                                    counter=None)
        slow = reference_posterior_link_split(rho, phi, i_idx, j_idx,
                                              weights)
        assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_bucketed_split_matches_reference_dicts(self):
        rng = np.random.default_rng(0)
        rho, phi, i_idx, j_idx, weights = self._random_problem(
            rng, 3, 12, 40)
        links = [(int(i), int(j), float(w))
                 for i, j, w in zip(i_idx, j_idx, weights)]
        expected = posterior_link_split(rho, phi, i_idx, j_idx, weights)
        fast = sparse_topic_buckets(expected, i_idx, j_idx)
        slow = reference_expected_link_weights(rho, phi, links)
        assert len(fast) == len(slow)
        for fast_bucket, slow_bucket in zip(fast, slow):
            assert set(fast_bucket) == set(slow_bucket)
            for key in slow_bucket:
                # Duplicate (i, j) links collapse to the last value in
                # both implementations.
                assert fast_bucket[key] == pytest.approx(
                    slow_bucket[key], abs=1e-12)

    def test_em_fit_matches_prevectorization_semantics(self, clique_network):
        # Single-restart fits through the public API stay deterministic
        # and produce proper distributions (the reference-EM invariants).
        model = CathyEM(num_topics=2, seed=3).fit(clique_network)
        again = CathyEM(num_topics=2, seed=3).fit(clique_network)
        assert np.array_equal(model.phi, again.phi)
        assert np.allclose(model.phi.sum(axis=1), 1.0)
        assert model.rho.sum() == pytest.approx(
            clique_network.total_weight(), rel=1e-3)


class TestDegenerateLinkCounter:
    def test_em_counts_degenerate_links(self, clique_network):
        obs.set_enabled(True)
        estimator = CathyEM(num_topics=2, seed=0)
        model = estimator.fit(clique_network)
        # Zero one node's mass in every subtopic: its links degenerate.
        model.phi[:, 0] = 0.0
        before = obs.get_registry().counter("cathy.degenerate_links")
        buckets = estimator.expected_link_weights(clique_network)
        after = obs.get_registry().counter("cathy.degenerate_links")
        assert after > before
        for bucket in buckets:
            assert all(i != 0 and j != 0 for i, j in bucket)

    def test_hin_counts_degenerate_links(self, dblp_network):
        obs.set_enabled(True)
        estimator = CathyHIN(num_topics=3, background=False, max_iter=20,
                             seed=0)
        model = estimator.fit(dblp_network)
        for node_type in model.phi:
            model.phi[node_type][:, 0] = 0.0
        before = obs.get_registry().counter("cathy.degenerate_links")
        estimator.expected_link_weights(0)
        after = obs.get_registry().counter("cathy.degenerate_links")
        assert after > before


class TestMergeCache:
    def test_hit_and_miss_counters(self):
        obs.set_enabled(True)
        corpus = Corpus.from_texts(["support vector machines"] * 6)
        counts = mine_frequent_phrases(corpus, min_support=2)
        tokens = corpus[0].tokens
        registry = obs.get_registry()
        merge_significance(counts, (tokens[0],), (tokens[1],))
        assert registry.counter("topmine.merge_cache.misses") == 1
        assert registry.counter("topmine.merge_cache.hits") == 0
        first = merge_significance(counts, (tokens[0],), (tokens[1],))
        assert registry.counter("topmine.merge_cache.hits") == 1
        second = merge_significance(counts, (tokens[0],), (tokens[1],))
        assert first == second
        assert registry.counter("topmine.merge_cache.hits") == 2
        assert registry.counter("topmine.merge_cache.misses") == 1

    def test_lru_eviction_respects_capacity(self):
        counts = PhraseCounts(counts={(1,): 5, (2,): 5, (3,): 5, (4,): 5},
                              min_support=1, num_documents=4, num_tokens=20,
                              merge_cache_capacity=2)
        merge_significance(counts, (1,), (2,))
        merge_significance(counts, (2,), (3,))
        merge_significance(counts, (3,), (4,))
        assert len(counts.merge_cache) == 2
        assert ((1,), (2,)) not in counts.merge_cache

    def test_cache_dropped_on_pickle(self):
        import pickle

        counts = PhraseCounts(counts={(1,): 5}, min_support=1,
                              num_documents=1, num_tokens=5)
        merge_significance(counts, (1,), (1,))
        assert counts.merge_cache
        clone = pickle.loads(pickle.dumps(counts))
        assert clone.merge_cache == {}
        assert clone.counts == counts.counts
        assert clone.merge_cache_capacity == counts.merge_cache_capacity

    def test_cached_values_match_uncached(self):
        corpus = Corpus.from_texts(
            ["query processing in database systems"] * 8)
        counts = mine_frequent_phrases(corpus, min_support=2)
        cold = PhraseCounts(counts=dict(counts.counts),
                            min_support=counts.min_support,
                            num_documents=counts.num_documents,
                            num_tokens=counts.num_tokens)
        tokens = corpus[0].tokens
        for cut in range(1, len(tokens)):
            left, right = tuple(tokens[:cut]), tuple(tokens[cut:])
            warm_value = merge_significance(counts, left, right)
            warm_again = merge_significance(counts, left, right)
            cold_value = merge_significance(cold, left, right)
            assert warm_value == warm_again == cold_value
