"""Equivalence tests: fast kernels vs the retained reference kernels.

Every vectorized/blocked/sparse hot path must reproduce its reference
implementation from :mod:`tests.reference_kernels` — to 1e-12 for float
results, bit-identically for integer count state and RNG-consuming
draws.  These tests are the contract that lets ``bench_hotpaths.py``
honestly claim speedups: same numbers, less time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.lda_gibbs import ENV_REFERENCE_SWEEP, LDAGibbs
from repro.cathy.em import endpoint_one_hot, link_incidence
from repro.hierarchy import Topic
from repro.phrases import (make_merge_scorer, merge_significance,
                           mine_frequent_phrases_from_chunks, segment_chunk)
from repro.relations import (ROOT, TPFG, Candidate, CandidateGraph,
                             CollaborationNetwork, TPFGResult,
                             build_candidate_graph)
from repro.roles.analyzer import attribute_documents
from .reference_kernels import (legacy_gibbs_sweep,
                                reference_document_topic_frequencies,
                                reference_gibbs_conditional,
                                reference_log_likelihood,
                                reference_scatter, reference_segment_chunk,
                                reference_tpfg_ranking)
from .test_tpfg_exactness import random_chain_graph

pytest.importorskip("scipy")


def _random_chain(rng, num_docs=20, vocab=40, doc_len=(3, 15)):
    """A small random corpus: token docs plus a phrase partition."""
    docs = [rng.integers(0, vocab, size=rng.integers(*doc_len)).tolist()
            for _ in range(num_docs)]
    partitions = []
    for doc in docs:
        parts, at = [], 0
        while at < len(doc):
            size = int(min(rng.integers(1, 4), len(doc) - at))
            parts.append(tuple(doc[at:at + size]))
            at += size
        partitions.append(parts)
    return docs, partitions


class TestGibbsKernelEquivalence:
    @pytest.mark.parametrize("phrased", [False, True])
    def test_fast_sweep_matches_reference_bitwise(self, phrased, monkeypatch):
        """Same seed, fast vs forced-reference sweep: identical chains."""
        monkeypatch.delenv("REPRO_REQUIRE_FAST_KERNELS", raising=False)
        rng = np.random.default_rng(7)
        docs, partitions = _random_chain(rng)
        kwargs = dict(num_topics=6, alpha=0.3, beta=0.05, iterations=8)

        monkeypatch.delenv(ENV_REFERENCE_SWEEP, raising=False)
        fast = LDAGibbs(seed=123, **kwargs).fit(
            docs, vocab_size=40, partitions=partitions if phrased else None)
        monkeypatch.setenv(ENV_REFERENCE_SWEEP, "1")
        ref = LDAGibbs(seed=123, **kwargs).fit(
            docs, vocab_size=40, partitions=partitions if phrased else None)

        for a, b in zip(fast.assignments, ref.assignments):
            assert (np.asarray(a) == np.asarray(b)).all()
        assert (fast.phi == ref.phi).all()
        assert (fast.theta == ref.theta).all()
        assert fast.log_likelihood == ref.log_likelihood

    def test_linear_conditional_matches_log_reference(self):
        """The fast kernel's linear-space conditional vs the log-space
        ground truth, on random count states, to 1e-12."""
        rng = np.random.default_rng(11)
        k, vocab = 7, 25
        alpha, beta = 0.2, 0.01
        beta_sum = beta * vocab
        for trial in range(30):
            n_kw = rng.integers(0, 9, size=(k, vocab)).astype(np.int64)
            n_k = n_kw.sum(axis=1)
            n_dk_row = rng.integers(0, 6, size=k).astype(np.int64)
            unit = tuple(rng.integers(0, vocab,
                                      size=rng.integers(1, 4)).tolist())
            # Replicate the fast kernel's linear-space arithmetic.
            p = n_dk_row + alpha
            for offset, w in enumerate(unit):
                p = p * (n_kw[:, w] + beta) / (n_k + beta_sum + offset)
            p = p / p.sum()
            ref = reference_gibbs_conditional(n_dk_row, n_kw, n_k, unit,
                                              alpha, beta, beta_sum)
            np.testing.assert_allclose(p, ref, rtol=1e-12, atol=1e-14)

    def test_legacy_sweep_preserves_count_invariants(self):
        """The benchmark baseline still maintains valid sampler state."""
        rng = np.random.default_rng(3)
        docs, partitions = _random_chain(rng, num_docs=8)
        k, vocab = 4, 40
        units = [[tuple(p) for p in doc] for doc in partitions]
        n_dk = np.zeros((len(units), k), dtype=np.int64)
        n_kw = np.zeros((k, vocab), dtype=np.int64)
        n_k = np.zeros(k, dtype=np.int64)
        assignments = []
        for d, doc_units in enumerate(units):
            labels = rng.integers(0, k, size=len(doc_units))
            assignments.append(labels)
            for unit, z in zip(doc_units, labels):
                n_dk[d, z] += len(unit)
                n_k[z] += len(unit)
                for w in unit:
                    n_kw[z, w] += 1
        total = int(n_k.sum())
        legacy_gibbs_sweep(units, assignments, n_dk, n_kw, n_k,
                           alpha=0.1, beta=0.01, beta_sum=0.01 * vocab,
                           rng=np.random.default_rng(99))
        assert int(n_k.sum()) == total
        assert (n_kw.sum(axis=1) == n_k).all()
        assert (n_dk.sum(axis=0) == n_k).all()
        assert (n_dk >= 0).all() and (n_kw >= 0).all()


class TestLogLikelihoodRegression:
    def test_count_based_ll_pins_loop_version(self):
        """S1: the scatter+contract ll equals the historical triple loop."""
        rng = np.random.default_rng(5)
        docs, partitions = _random_chain(rng, num_docs=15)
        units = [[tuple(p) for p in doc] for doc in partitions]
        k, vocab = 5, 40
        assignments = [rng.integers(0, k, size=len(doc_units))
                       for doc_units in units]
        phi = rng.random((k, vocab))
        phi /= phi.sum(axis=1, keepdims=True)
        fast = LDAGibbs._log_likelihood(units, assignments, phi)
        ref = reference_log_likelihood(units, assignments, phi)
        assert math.isclose(fast, ref, rel_tol=1e-12, abs_tol=1e-9)

    def test_empty_units(self):
        phi = np.full((2, 3), 0.5)
        assert LDAGibbs._log_likelihood([[]], [np.empty(0, int)], phi) == 0.0
        assert reference_log_likelihood([[]], [[]], phi) == 0.0


class TestCathySparseProducts:
    def test_incidence_product_matches_scatter(self):
        """``expected @ incidence`` (the sparse M-step) vs the add.at
        reference scatter, including duplicate and self links."""
        rng = np.random.default_rng(13)
        num_nodes, num_links, k = 30, 120, 4
        i_idx = rng.integers(0, num_nodes, size=num_links)
        j_idx = rng.integers(0, num_nodes, size=num_links)
        expected = rng.random((k, num_links))
        incidence = link_incidence(i_idx, j_idx, num_nodes)
        fast = np.asarray(expected @ incidence)
        ref = reference_scatter(expected, i_idx, j_idx, num_nodes)
        np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-14)

    def test_endpoint_one_hot_matches_bincount(self):
        rng = np.random.default_rng(17)
        num_nodes, num_links, k = 12, 60, 3
        idx = rng.integers(0, num_nodes, size=num_links)
        expected = rng.random((k, num_links))
        one_hot = endpoint_one_hot(idx, num_nodes)
        fast = np.asarray(expected @ one_hot)
        ref = np.stack([np.bincount(idx, weights=expected[z],
                                    minlength=num_nodes)
                        for z in range(k)])
        np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-14)


class TestSegmentationHeapEquivalence:
    def _counts(self, chunks):
        return mine_frequent_phrases_from_chunks(
            chunks, min_support=2, max_length=5,
            num_tokens=sum(len(c) for c in chunks))

    def test_heap_matches_rescan_on_random_chunks(self):
        rng = np.random.default_rng(19)
        chunks = [rng.integers(0, 6, size=rng.integers(1, 14)).tolist()
                  for _ in range(60)]
        counts = self._counts(chunks)
        for chunk in chunks:
            assert segment_chunk(chunk, counts, alpha=1.5) == \
                reference_segment_chunk(chunk, counts, alpha=1.5)

    def test_heap_matches_rescan_with_ties(self):
        """Repeated bigrams force equal significances; the earliest
        adjacent pair must win in both implementations."""
        chunks = [[0, 1, 0, 1, 0, 1]] * 4 + [[2, 0, 1, 2]] * 3
        counts = self._counts(chunks)
        for chunk in chunks:
            assert segment_chunk(chunk, counts, alpha=0.1) == \
                reference_segment_chunk(chunk, counts, alpha=0.1)


class TestMergeScorerEquivalence:
    def test_scorer_matches_unbound_function(self):
        rng = np.random.default_rng(23)
        chunks = [rng.integers(0, 8, size=rng.integers(2, 10)).tolist()
                  for _ in range(40)]
        counts = mine_frequent_phrases_from_chunks(
            chunks, min_support=2, num_tokens=sum(len(c) for c in chunks))
        scorer = make_merge_scorer(counts)
        phrases = counts.phrases(max_length=2)
        for left in phrases[:15]:
            for right in phrases[:15]:
                counts.merge_cache.clear()
                via_scorer = scorer(left, right)
                counts.merge_cache.clear()
                via_function = merge_significance(counts, left, right)
                assert via_scorer == via_function  # bit-identical
        scorer.flush()


def _bits(doc_freqs):
    """Every (topic, f_t(d)) pair as exact float bits, in key order."""
    return [[(notation, value.hex()) for notation, value in freqs.items()]
            for freqs in doc_freqs]


class TestRoleAttributionEquivalence:
    def test_matches_reference_bitwise_on_mined(self, mined):
        _, result = mined
        roles = result.roles
        fast = roles.document_topic_frequencies()
        ref = reference_document_topic_frequencies(
            roles.hierarchy.root, roles._table, roles._doc_instances)
        assert _bits(fast) == _bits(ref)

    def test_matches_reference_on_hand_built_tree(self):
        """Empty documents, phrases no child knows, a zero-share child
        and repeated instances, on a two-level tree."""
        root = Topic(path=())
        first, second, third = (Topic(path=(z,)) for z in range(3))
        first.children = [Topic(path=(0, 0)), Topic(path=(0, 1))]
        root.children = [first, second, third]
        p, q, unknown = (1,), (2, 3), (4,)
        table = {"o": {p: 5.0, q: 3.0},
                 "o/1": {p: 2.0, q: 1.0}, "o/2": {p: 1.0},
                 "o/1/1": {p: 1.5}, "o/1/2": {q: 0.5}}
        instances = [[], [unknown], [p, p, q], [q, unknown], [p]]
        fast = attribute_documents(root, table, instances)
        assert _bits(fast) == _bits(
            reference_document_topic_frequencies(root, table, instances))
        assert fast[0] == {"o": 1.0}
        assert fast[1] == {"o": 1.0}
        assert list(fast[2]) == ["o", "o/1", "o/1/1", "o/1/2", "o/2",
                                 "o/3"]
        assert fast[2]["o/3"] == 0.0
        # q alone sends everything to o/1, so o/2 is present at 0.0 and
        # o/3 (no table) too; o/1's children then split by q only.
        assert fast[3]["o/2"] == 0.0 and fast[3]["o/1/2"] == 1.0

    def test_no_documents_and_no_phrases(self):
        root = Topic(path=())
        root.children = [Topic(path=(0,)), Topic(path=(1,))]
        assert attribute_documents(root, {}, []) == []
        assert attribute_documents(root, {}, [[], []]) == \
            [{"o": 1.0}, {"o": 1.0}]


def _assert_tpfg_matches(fast: TPFGResult, ref):
    assert set(fast.ranking) == set(ref)
    for author, pairs in ref.items():
        got = fast.ranking[author]
        assert [name for name, _ in got] == [name for name, _ in pairs]
        assert max(abs(a - b) for (_, a), (_, b) in zip(got, pairs)) \
            <= 1e-12
    assert fast.predictions() == TPFGResult(ranking=ref).predictions()


class TestTPFGEquivalence:
    @pytest.mark.parametrize("damping", [0.0, 0.3])
    @given(seed=st.integers(min_value=0, max_value=10 ** 6),
           num_authors=st.integers(min_value=1, max_value=9))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_on_random_graphs(self, damping, seed,
                                                num_authors):
        graph = random_chain_graph(np.random.default_rng(seed), num_authors)
        fast = TPFG(max_iter=12, damping=damping).fit(graph)
        _assert_tpfg_matches(fast, reference_tpfg_ranking(
            graph, max_iter=12, damping=damping))

    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_matches_reference_on_synthetic_dblp(self, dblp_small, damping):
        graph = build_candidate_graph(
            CollaborationNetwork.from_corpus(dblp_small.corpus))
        assert graph.num_edges() > 0
        _assert_tpfg_matches(TPFG(damping=damping).fit(graph),
                             reference_tpfg_ranking(graph, damping=damping))

    def test_root_only_graph(self):
        graph = CandidateGraph()
        for name in "abc":
            graph.candidates[name] = [Candidate(name, ROOT, 2000, 2010, 1.0)]
        fast = TPFG(max_iter=5).fit(graph)
        assert fast.ranking == {name: [(ROOT, 1.0)] for name in "abc"}
        _assert_tpfg_matches(fast, reference_tpfg_ranking(graph, max_iter=5))
