"""Equivalence tests: fast kernels vs the retained reference kernels.

Every vectorized/blocked/sparse hot path must reproduce its reference
implementation from :mod:`tests.reference_kernels` — to 1e-12 for float
results, bit-identically for integer count state and RNG-consuming
draws.  These tests are the contract that lets ``bench_hotpaths.py``
honestly claim speedups: same numbers, less time.
"""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.baselines.lda_gibbs import LDAGibbs, _ll_from_counts
from repro.cathy import CathyHIN, HINTopicModel
from repro.cathy.em import link_incidence
from repro.cathy.hin_em import _scaled_weights, _sddmm
from repro.corpus import Corpus, EntityLinks
from repro.errors import DataError
from repro.hierarchy import Topic, TopicalHierarchy
from repro.network import HeterogeneousNetwork, build_collapsed_network
from repro.phrases import (PhraseCounts, document_phrase_instances,
                           hierarchy_ranking, itemsets_as_phrase_counts,
                           make_merge_scorer, merge_significance,
                           mine_frequent_phrases,
                           mine_frequent_phrases_from_chunks, segment_chunk,
                           split_frequencies)
from repro.relations import (ROOT, TPFG, Candidate, CandidateGraph,
                             CollaborationNetwork, PreprocessConfig,
                             TPFGResult, build_candidate_graph)
from repro.roles.analyzer import (attribute_document_arrays,
                                  attribute_documents,
                                  sum_entity_frequencies)
from repro.serve import (ModelQueryEngine, ServedModel, load_model,
                         migrate_model, save_model_document)
from repro.serve.artifact import model_parts, parts_of_result
from repro.serve.artifact_v2 import _mapped_from_blob, pack_model
from repro.strod import (STROD, MomentSketch, STRODModel, compute_whitener,
                         first_moment, second_moment, sparse_pair_moment,
                         whitened_third_moment, word_count_rows)
from repro.strod.moments import count_matrix
from .reference_kernels import (ReferenceHINEM, legacy_gibbs_sweep,
                                reference_build_candidate_graph,
                                reference_build_collapsed_network,
                                reference_coauthors,
                                reference_document_phrase_instances,
                                reference_document_topic_frequencies,
                                reference_document_topics,
                                reference_entity_topic_frequencies,
                                reference_first_moment,
                                reference_gibbs_conditional,
                                reference_gibbs_sweep,
                                reference_hin_em_step,
                                reference_log_likelihood,
                                reference_mine_chunks, reference_scatter,
                                reference_second_moment,
                                reference_segment_chunk,
                                reference_sparse_pair_moment,
                                reference_split_frequencies,
                                reference_subnetwork,
                                reference_top_terms, reference_topic_detail,
                                reference_tpfg_ranking,
                                reference_v2_blob,
                                reference_whitened_third_moment,
                                reference_word_count_rows)
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
        """Same seed, fast vs reference sweep: identical chains."""
        rng = np.random.default_rng(7)
        docs, partitions = _random_chain(rng)
        kwargs = dict(num_topics=6, alpha=0.3, beta=0.05, iterations=8)

        fast = LDAGibbs(seed=123, **kwargs).fit(
            docs, vocab_size=40, partitions=partitions if phrased else None)

        def sweep(sampler, units, assignments, n_dk, n_kw, n_k, beta_sum,
                  rng):
            reference_gibbs_sweep(units, assignments, n_dk, n_kw, n_k,
                                  sampler.num_topics, sampler.alpha,
                                  sampler.beta, beta_sum, rng)

        monkeypatch.setattr(LDAGibbs, "_sweep", sweep)
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


def _assignment_counts(units, assignments, shape) -> np.ndarray:
    """The (k, V) token-assignment count matrix the sampler keeps as
    ``n_kw``, scattered from units and their labels."""
    counts = np.zeros(shape, dtype=np.int64)
    for doc_units, labels in zip(units, assignments):
        for unit, z in zip(doc_units, labels):
            for w in unit:
                counts[z, w] += 1
    return counts


class TestLogLikelihoodRegression:
    def test_count_based_ll_pins_loop_version(self):
        """S1: the count-matrix ll equals the historical triple loop."""
        rng = np.random.default_rng(5)
        docs, partitions = _random_chain(rng, num_docs=15)
        units = [[tuple(p) for p in doc] for doc in partitions]
        k, vocab = 5, 40
        assignments = [rng.integers(0, k, size=len(doc_units))
                       for doc_units in units]
        phi = rng.random((k, vocab))
        phi /= phi.sum(axis=1, keepdims=True)
        fast = _ll_from_counts(
            _assignment_counts(units, assignments, phi.shape), phi)
        ref = reference_log_likelihood(units, assignments, phi)
        assert math.isclose(fast, ref, rel_tol=1e-12, abs_tol=1e-9)

    def test_empty_units(self):
        phi = np.full((2, 3), 0.5)
        assert _ll_from_counts(
            _assignment_counts([[]], [[]], phi.shape), phi) == 0.0
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


#: Phi values for heavily tied rows: zero of both signs, the smallest
#: subnormal, and a few normal probabilities.
TIED_VALUES = (0.0, -0.0, 5e-324, 1e-300, 0.125, 0.25, 0.5)

ROOT_PHRASES = [("query processing", 0.9), ("vector machines", 0.5),
                ("feature selection", 0.5)]
ROOT_RANKS = {"author": [("bob", 0.7), ("amy", 0.7), ("cat", 0.1)],
              "venue": [("VLDB", 1.0)]}


def _tied_row(rng, num_terms, pool):
    """``num_terms`` terms named ``t<j>`` in shuffled order (so insertion,
    numeric and name order all differ), each valued from ``pool``."""
    values = rng.choice(np.array(pool), size=num_terms)
    return {f"t{j}": float(v)
            for j, v in zip(rng.permutation(num_terms), values)}


def _engine_pair(rows, directory):
    """v1 and v2 engines (uncached) over one model whose root carries
    ``ROOT_PHRASES``, ``ROOT_RANKS`` and ``rows[0]``, and whose children
    carry the other rows and no phrases: the saved v2 file, and its v1
    JSON export read back as a legacy artifact."""
    root = Topic(path=(), phi={"term": rows[0]}, phrases=ROOT_PHRASES,
                 entity_ranks=ROOT_RANKS)
    root.children = [Topic(path=(c,), phi={"term": row})
                     for c, row in enumerate(rows[1:])]
    vocabulary = sorted({name for row in rows for name in row})
    parts = model_parts(vocabulary, TopicalHierarchy(root=root), {},
                        num_documents=0)
    path = os.path.join(directory, "model.rmv2")
    legacy = os.path.join(directory, "model.json")
    save_model_document(parts, path)
    migrate_model(path, legacy, format="v1")
    v1 = load_model(legacy)
    assert isinstance(v1, ServedModel)
    return (ModelQueryEngine(v1, cache_size=0),
            ModelQueryEngine(load_model(path), cache_size=0))


def _json(value):
    return json.dumps(value).encode("utf-8")


class TestTopicDetailSelection:
    """Partition-then-sort top terms vs the full-row reference sort."""

    @given(seed=st.integers(min_value=0, max_value=10 ** 6),
           sizes=st.lists(st.integers(min_value=0, max_value=3_000),
                          min_size=1, max_size=3),
           pool=st.lists(st.sampled_from(TIED_VALUES), min_size=1,
                         max_size=4, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_engines_match_full_sort(self, seed, sizes, pool):
        rng = np.random.default_rng(seed)
        rows = [_tied_row(rng, n, pool) for n in sizes]
        with tempfile.TemporaryDirectory() as directory:
            v1, v2 = _engine_pair(rows, directory)
            try:
                notations = ["o"] + [f"o/{c}" for c in range(1, len(rows))]
                for notation, row in zip(notations, rows):
                    n = len(row)
                    for k in (0, 1, n - 1, n, n + 3,
                              int(rng.integers(0, n + 4))):
                        expected = _json(reference_top_terms(row.items(), k))
                        for engine in (v1, v2):
                            answer = engine.topic(notation, max_terms=k)
                            assert _json(answer["top_terms"]) == expected
                        sizes = dict(max_phrases=k, max_entities=k,
                                     max_terms=k)
                        assert _json(v2.topic(notation, **sizes)) == \
                            _json(v1.topic(notation, **sizes)) == \
                            _json(reference_topic_detail(
                                v2.model, notation, **sizes))
                labels = [reference_top_terms(row.items(), 1)
                          for row in rows[1:]]
                expected = [top[0][0] if top else "" for top in labels]
                for engine in (v1, v2):
                    children = engine.children("o")["children"]
                    assert [c["label"] for c in children] == expected
            finally:
                v2.close()

    def test_label_falls_back_to_top_term_by_name(self, tmp_path):
        """A phrase-less topic is labelled by its top term; among terms
        tied at the top the smallest name wins."""
        rows = [{"a": 0.5}, {"t9": 0.25, "t10": 0.25, "t2": 0.125},
                {"z": 5e-324, "y": 5e-324}, {}]
        v1, v2 = _engine_pair(rows, str(tmp_path))
        try:
            for engine in (v1, v2):
                labels = [c["label"]
                          for c in engine.children("o")["children"]]
                assert labels == ["t10", "y", ""]
        finally:
            v2.close()

    def test_num_phrases_is_the_full_count(self, tmp_path):
        v1, v2 = _engine_pair([{"a": 0.5}, {"b": 0.5}], str(tmp_path))
        try:
            for engine in (v1, v2):
                root = engine.topic("o", max_phrases=1)
                assert root["phrases"] == [["query processing", 0.9]]
                assert root["num_phrases"] == len(ROOT_PHRASES)
                assert engine.topic("o", max_phrases=0)["num_phrases"] == \
                    len(ROOT_PHRASES)
                assert engine.topic("o/1", max_phrases=5)["num_phrases"] == 0
                assert engine.top_phrases("o", k=2)["phrases"] == \
                    [list(pair) for pair in ROOT_PHRASES[:2]]
        finally:
            v2.close()

    def test_v2_name_tables_are_sorted(self, tmp_path):
        """The engine breaks ties by id, which is name order only
        because the v2 writer emits every name table sorted."""
        rows = [{"t9": 0.5, "t10": 0.5, "b": 0.25}, {"a": 0.5, "t1": 0.0}]
        _, v2 = _engine_pair(rows, str(tmp_path))
        try:
            strings = v2.model.strings
            for table in [strings["phrases"], strings["role_keys"],
                          *strings["phi_names"].values(),
                          *strings["rank_names"].values(),
                          *strings["entities"].values()]:
                assert table == sorted(table)
        finally:
            v2.close()


# ------------------------------------------------------------------- STROD
MIN_LENGTH = 3


@st.composite
def strod_corpora(draw):
    """Token documents over a vocabulary whose top ids no document uses.

    Besides random documents (short ones included, which the moments
    drop) every corpus holds a document of exactly ``MIN_LENGTH`` tokens
    that repeats a word, and one that is a single word repeated.
    """
    k = draw(st.sampled_from([2, 4, 6]))
    used = draw(st.integers(min_value=k + 1, max_value=30))
    vocab_size = used + draw(st.integers(min_value=1, max_value=5))
    word = st.integers(min_value=0, max_value=used - 1)
    docs = draw(st.lists(st.lists(word, max_size=12), max_size=25))
    a, b = draw(word), draw(word)
    docs += [[a, b, a], [b] * draw(st.integers(MIN_LENGTH, 8))]
    order = draw(st.permutations(range(len(docs))))
    return [docs[i] for i in order], vocab_size, k


def _assert_close(fast, ref):
    """Within 1e-12 of the reference's largest magnitude."""
    assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSTRODMomentEquivalence:
    """Count-matrix moment kernels vs the per-document loops."""

    @given(corpus=strod_corpora(),
           seed=st.integers(min_value=0, max_value=10 ** 6),
           alpha0=st.sampled_from([0.5, 1.0, 5.0]))
    @settings(max_examples=60, deadline=None)
    def test_moments_match_loops(self, corpus, seed, alpha0):
        docs, vocab_size, k = corpus
        ref_rows = reference_word_count_rows(docs, vocab_size, MIN_LENGTH)
        rows = word_count_rows(docs, vocab_size, MIN_LENGTH)
        counts = count_matrix(docs, vocab_size, MIN_LENGTH)
        assert len(rows) == len(ref_rows) == counts.shape[0]
        for (ids, cnt), (ref_ids, ref_cnt) in zip(rows, ref_rows):
            assert np.array_equal(ids, ref_ids)
            assert np.array_equal(cnt, ref_cnt)

        ref_m1 = reference_first_moment(ref_rows, vocab_size)
        sketch = MomentSketch.from_docs(docs, vocab_size, MIN_LENGTH)
        for m1 in (first_moment(counts, vocab_size),
                   first_moment(rows, vocab_size), sketch.first_moment()):
            assert np.array_equal(m1, ref_m1)

        _assert_close(second_moment(counts, vocab_size, alpha0),
                      reference_second_moment(ref_rows, vocab_size, alpha0))
        _assert_close(
            sparse_pair_moment(counts, vocab_size).toarray(),
            reference_sparse_pair_moment(ref_rows, vocab_size).toarray())

        whitener = np.random.default_rng(seed).standard_normal(
            (vocab_size, k))
        _assert_close(
            whitened_third_moment(counts, whitener, ref_m1, alpha0),
            reference_whitened_third_moment(ref_rows, whitener, ref_m1,
                                            alpha0))

    def test_moments_match_loops_on_planted_corpus(self, planted_small):
        docs, vocab_size = planted_small.docs, planted_small.vocab_size
        ref_rows = reference_word_count_rows(docs, vocab_size)
        counts = count_matrix(docs, vocab_size)
        ref_m1 = reference_first_moment(ref_rows, vocab_size)
        assert np.array_equal(first_moment(counts, vocab_size), ref_m1)
        ref_m2 = reference_second_moment(ref_rows, vocab_size, 1.0)
        _assert_close(second_moment(counts, vocab_size, 1.0), ref_m2)
        whitener, _ = compute_whitener(ref_m2, 4)
        _assert_close(
            whitened_third_moment(counts, whitener, ref_m1, 1.0),
            reference_whitened_third_moment(ref_rows, whitener, ref_m1,
                                            1.0))

    def test_out_of_vocabulary_tokens(self):
        """Ids outside the vocabulary raise in kept documents only."""
        for bad in ([1, 2, 10], [-1, 2, 3]):
            with pytest.raises(DataError):
                count_matrix([[0, 1, 2], bad], vocab_size=10)
            with pytest.raises(DataError):
                reference_word_count_rows([[0, 1, 2], bad], 10)
        short = [[0, 1, 2], [99, 98]]
        assert count_matrix(short, vocab_size=10).shape == (1, 10)
        assert len(reference_word_count_rows(short, 10)) == 1
        with pytest.raises(DataError):
            whitened_third_moment(count_matrix([[1, 2]], 10),
                                  np.ones((10, 2)), np.zeros(10), 1.0)

    @given(corpus=strod_corpora(),
           seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_fold_in_matches_loop(self, corpus, seed):
        """Rows within 1e-12 and the same argmax unless the top two
        votes are within 1e-9 of their sum; words with no weight, or
        weight below ``EPS``, cast no vote."""
        docs, vocab_size, k = corpus
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(0.1, 2.0, size=k)
        phi = rng.dirichlet(np.ones(vocab_size), size=k)
        unknown = rng.choice(vocab_size, size=vocab_size // 4,
                             replace=False)
        phi[:, unknown[::2]] = 0.0
        phi[:, unknown[1::2]] = 1e-40
        strod = STROD(num_topics=k)
        strod.model_ = STRODModel(alpha=alpha, phi=phi, alpha0=1.0,
                                  eigenvalues=np.ones(k), residual=0.0)
        docs = docs + [[], unknown[:2].tolist(), unknown[:2].tolist() * 3]

        fast = strod.document_topics(docs)
        ref = reference_document_topics(alpha, phi, docs)
        assert np.allclose(fast.sum(axis=1), 1.0, atol=1e-9)
        assert np.abs(fast - ref).max() <= 1e-12
        top_two = np.sort(ref, axis=1)[:, -2:]
        clear = (top_two[:, 1] - top_two[:, 0]) > 1e-9 * top_two.sum(axis=1)
        assert np.array_equal(fast.argmax(axis=1)[clear],
                              ref.argmax(axis=1)[clear])


# ------------------------------------------------- phrases, roles, relations
TOKEN = st.integers(min_value=0, max_value=5)

#: Chunks as Algorithm 1 meets them: empty and one-token chunks, chunks
#: longer than any cap, and runs of one repeated token, whose n-grams
#: overlap.
CHUNK = st.one_of(
    st.lists(TOKEN, max_size=12),
    st.builds(lambda token, size: [token] * size, TOKEN,
              st.integers(min_value=1, max_value=9)))


def _corpus_of(docs, vocab_size: int = 6) -> Corpus:
    """A corpus over words ``w0..`` holding the given chunked documents."""
    corpus = Corpus()
    corpus.vocabulary.encode([f"w{i}" for i in range(vocab_size)],
                             add_missing=True)
    for chunks in docs:
        corpus.add_document(chunks=[list(chunk) for chunk in chunks])
    return corpus


class TestFrequentPhraseEquivalence:
    @given(chunks=st.lists(CHUNK, max_size=25),
           min_support=st.integers(min_value=1, max_value=4),
           max_length=st.integers(min_value=1, max_value=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_loop(self, chunks, min_support, max_length):
        fast = mine_frequent_phrases_from_chunks(
            chunks, min_support=min_support, max_length=max_length).counts
        ref = reference_mine_chunks(chunks, min_support, max_length)
        assert fast == ref
        assert list(fast) == list(ref)  # insertion order is the contract

    def test_overlapping_runs(self):
        chunks = [[1, 1, 1, 1]] * 3 + [[1], [], [2, 1, 1, 1, 1, 1, 2]]
        for max_length in range(1, 7):
            for min_support in range(1, 5):
                fast = mine_frequent_phrases_from_chunks(
                    chunks, min_support=min_support,
                    max_length=max_length).counts
                ref = reference_mine_chunks(chunks, min_support, max_length)
                assert list(fast.items()) == list(ref.items())

    def test_matches_reference_on_synthetic_dblp(self, dblp_small):
        corpus = dblp_small.corpus
        chunks = [chunk for doc in corpus for chunk in doc.chunks]
        fast = mine_frequent_phrases(corpus, min_support=5).counts
        assert list(fast.items()) == list(
            reference_mine_chunks(chunks, 5, 6).items())


class TestPhraseInstanceEquivalence:
    @given(docs=st.lists(st.lists(CHUNK, max_size=4), max_size=12),
           min_support=st.integers(min_value=1, max_value=3),
           max_length=st.integers(min_value=0, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_mined_counts(self, docs, min_support,
                                               max_length):
        corpus = _corpus_of(docs)
        counts = mine_frequent_phrases(corpus, min_support=min_support)
        fast = document_phrase_instances(corpus, counts,
                                         max_length=max_length)
        assert fast == reference_document_phrase_instances(
            corpus, counts, max_length=max_length)
        own = {phrase: phrase for phrase in counts.counts}
        assert all(phrase is own[phrase] for found in fast
                   for phrase in found)

    @given(docs=st.lists(st.lists(CHUNK, max_size=4), max_size=12),
           phrases=st.lists(st.lists(st.integers(min_value=-1,
                                                 max_value=7),
                                     max_size=4).map(tuple), max_size=15),
           max_length=st.integers(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_counts_not_closed(self, docs, phrases,
                                                    max_length):
        """Phrases whose prefixes are not counted, the empty phrase, and
        ids the corpus never uses (negative or past its largest)."""
        corpus = _corpus_of(docs)
        counts = PhraseCounts({phrase: 1 for phrase in phrases},
                              min_support=1, num_documents=len(corpus),
                              num_tokens=corpus.num_tokens)
        assert document_phrase_instances(
            corpus, counts, max_length=max_length) == \
            reference_document_phrase_instances(corpus, counts,
                                                max_length=max_length)

    def test_matches_reference_on_itemset_counts(self, dblp_small):
        corpus = dblp_small.corpus
        counts = itemsets_as_phrase_counts(corpus, min_support=5,
                                           max_size=3)
        assert document_phrase_instances(corpus, counts) == \
            reference_document_phrase_instances(corpus, counts)


def _items_bits(tables):
    return [[(key, value.hex()) for key, value in table.items()]
            for table in tables]


class TestSplitFrequencyEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10 ** 6),
           num_children=st.integers(min_value=1, max_value=10),
           num_phrases=st.integers(min_value=0, max_value=40))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, seed, num_children, num_phrases):
        """Words missing from a child's phi (or a child with no term
        phi), a child with rho 0, and probabilities small enough that
        some shares underflow to zero and drop out."""
        rng = np.random.default_rng(seed)
        vocab_size = 12
        corpus = _corpus_of([], vocab_size)
        topic = Topic(path=())
        for z in range(num_children):
            child = Topic(rho=0.0 if z == 0 else float(rng.uniform(0, 2)))
            if rng.random() < 0.9:
                known = rng.random(vocab_size) < 0.7
                probs = 10.0 ** rng.uniform(-300, 0, size=vocab_size)
                child.phi = {"term": {f"w{w}": float(p) for w, p
                                      in enumerate(probs) if known[w]}}
            topic.add_child(child)
        freq = {}
        for _ in range(num_phrases):
            size = int(rng.integers(1, 7))
            phrase = tuple(rng.integers(0, vocab_size, size=size).tolist())
            freq[phrase] = float(rng.uniform(0.5, 50.0))
        fast = split_frequencies(topic, freq, corpus)
        ref = reference_split_frequencies(topic, freq, corpus)
        assert _items_bits(fast) == _items_bits(ref)


@st.composite
def collaboration_papers(draw):
    """(authors, year) records over a small author pool and year span."""
    pool = [f"a{i}" for i in range(draw(st.integers(2, 12)))]
    paper = st.tuples(st.lists(st.sampled_from(pool), min_size=1,
                               max_size=4),
                      st.integers(min_value=1990, max_value=2004))
    return draw(st.lists(paper, max_size=60))


def _candidate_bits(graph):
    return [(advisee, [(c.advisee, c.advisor, c.start, c.end,
                        c.likelihood.hex()) for c in candidates])
            for advisee, candidates in graph.candidates.items()]


class TestCandidateGraphEquivalence:
    @given(papers=collaboration_papers(),
           rules=st.sets(st.sampled_from(["R1", "R2", "R3", "R4"])),
           end_year_method=st.sampled_from(["YEAR", "YEAR1", "YEAR2"]),
           likelihood=st.sampled_from(["kulc", "ir", "avg"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, papers, rules, end_year_method,
                               likelihood):
        network = CollaborationNetwork.from_papers(papers)
        config = PreprocessConfig(rules=frozenset(rules),
                                  end_year_method=end_year_method,
                                  likelihood=likelihood)
        assert _candidate_bits(build_candidate_graph(network, config)) == \
            _candidate_bits(reference_build_candidate_graph(network, config))

    def test_matches_reference_on_synthetic_dblp(self, dblp_small):
        network = CollaborationNetwork.from_corpus(dblp_small.corpus)
        graph = build_candidate_graph(network)
        assert graph.num_edges() > 0
        assert _candidate_bits(graph) == \
            _candidate_bits(reference_build_candidate_graph(network))

    def test_coauthors_match_pair_scan(self, dblp_small):
        network = CollaborationNetwork.from_corpus(dblp_small.corpus)
        for author in network.authors + ["nobody"]:
            assert network.coauthors(author) == \
                reference_coauthors(network, author)


def _entity_bits(frequencies):
    return [(name, [(notation, value.hex())
                    for notation, value in bucket.items()])
            for name, bucket in frequencies.items()]


class TestEntityFrequencyEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10 ** 6),
           num_docs=st.integers(min_value=0, max_value=30))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_on_random_attribution(self, seed, num_docs):
        """Documents stopping at different depths (so entities reach
        topics in different orders), names listed twice in a document,
        and documents with no entity."""
        rng = np.random.default_rng(seed)
        root = Topic(path=())
        for _ in range(int(rng.integers(1, 4))):
            child = root.add_child(Topic())
            for _ in range(int(rng.integers(0, 3))):
                child.add_child(Topic())
        phrases = [(w,) for w in range(6)]
        table = {topic.notation: {p: float(rng.uniform(0.5, 5.0))
                                  for p in phrases if rng.random() < 0.5}
                 for topic in TopicalHierarchy(root).topics()}
        instances = [[phrases[i] for i in rng.integers(
            0, len(phrases), size=int(rng.integers(0, 4))).tolist()]
            for _ in range(num_docs)]
        pool = ["ann", "ben", "cy", "dee"]
        names = [[pool[i] for i in rng.integers(
            0, len(pool), size=int(rng.integers(0, 4))).tolist()]
            for _ in range(num_docs)]
        links = EntityLinks.from_counts(
            np.array([len(listed) for listed in names], dtype=np.int64),
            [name for listed in names for name in listed])
        fast = sum_entity_frequencies(
            links, attribute_document_arrays(root, table, instances))
        ref = reference_entity_topic_frequencies(
            names, attribute_documents(root, table, instances))
        assert _entity_bits(fast) == _entity_bits(ref)

    def test_matches_reference_on_mined(self, mined):
        dataset, result = mined
        roles = result.roles
        for entity_type in dataset.corpus.entity_types():
            names = [doc.entity_list(entity_type) for doc in roles.corpus]
            assert _entity_bits(roles.entity_topic_frequencies(
                entity_type)) == _entity_bits(
                reference_entity_topic_frequencies(
                    names, roles.document_topic_frequencies()))


class TestMiningPipelineEquivalence:
    """The phrase, role and relation kernels of one small fitted DBLP
    corpus, each against its reference loop at pipeline scale."""

    def test_phrase_and_role_kernels(self, mined, monkeypatch):
        dataset, result = mined
        corpus, roles = dataset.corpus, result.roles
        chunks = [chunk for doc in corpus for chunk in doc.chunks]
        assert list(result.counts.counts.items()) == list(
            reference_mine_chunks(chunks, 5, 6).items())
        assert roles._doc_instances == reference_document_phrase_instances(
            corpus, result.counts)
        # Role analysis reuses the decoration's table.
        assert roles._table is result.hierarchy.phrase_frequencies
        monkeypatch.setattr(hierarchy_ranking, "split_frequencies",
                            reference_split_frequencies)
        ref_table, _ = hierarchy_ranking.compute_topic_phrase_frequencies(
            result.hierarchy, corpus, counts=result.counts)
        assert list(roles._table) == list(ref_table)
        assert _items_bits(roles._table.values()) == \
            _items_bits(ref_table.values())

    def test_relation_kernels(self, mined):
        dataset, _ = mined
        network = CollaborationNetwork.from_corpus(dataset.corpus)
        assert _candidate_bits(build_candidate_graph(network)) == \
            _candidate_bits(reference_build_candidate_graph(network))


#: Names with non-ASCII code points, spaces, a slash and case ties, so
#: table order is code-point order and notation order differs from
#: pre-order past nine children ("o/10" < "o/2").
WRITER_NAMES = ["a", "A", "b", "a b", "\u00e9t\u00e9", "\u65e5\u672c",
                "stra\u00dfe", "z/1", "\U0001f600", "o"]
#: Scores tied across topics and rows (0.0 and -0.0 compare equal).
WRITER_SCORES = [0.5, 0.25, 1.0, 0.0, -0.0, 2.5e-7]


def _writer_parts(rng):
    """Random decorated parts: a topic with no phrases, topics missing
    phi or rank types, an entity type with no roles, an entity with an
    empty role row, repeated names and phrases shared at tied scores."""
    def pick(pool, size):
        return [pool[i] for i in rng.integers(0, len(pool), size=size)]

    def decorate(topic):
        topic.rho = float(rng.choice(WRITER_SCORES + [0.3]))
        topic.phi = {ntype: {name: float(rng.choice(WRITER_SCORES))
                             for name in pick(WRITER_NAMES,
                                              int(rng.integers(0, 8)))}
                     for ntype in ("term", "author", "v\u00e9nue")
                     if rng.random() < 0.6}
        phrases = pick(WRITER_NAMES, int(rng.integers(0, 7)))
        topic.phrases = [(phrase, float(rng.choice(WRITER_SCORES)))
                         for phrase in phrases]
        topic.entity_ranks = {etype: [
            (name, float(rng.choice(WRITER_SCORES)))
            for name in pick(WRITER_NAMES, int(rng.integers(0, 5)))]
            for etype in ("author", "venue") if rng.random() < 0.5}

    root = Topic(path=())
    for _ in range(int(rng.integers(0, 12))):
        child = root.add_child(Topic())
        for _ in range(int(rng.integers(0, 3))):
            child.add_child(Topic())
    hierarchy = TopicalHierarchy(root)
    topics = list(hierarchy.topics())
    for topic in topics:
        decorate(topic)
    topics[int(rng.integers(0, len(topics)))].phrases = []
    notations = [topic.notation for topic in topics]
    roles = {etype: {name: {notation: float(rng.choice(WRITER_SCORES))
                            for notation in pick(notations,
                                                 int(rng.integers(0, 4)))}
                     for name in pick(WRITER_NAMES, int(rng.integers(0, 6)))}
             for etype in ("author", "venue", "\u00e9diteur")
             if rng.random() < 0.7}
    roles["empty"] = {}
    vocabulary = pick(WRITER_NAMES, int(rng.integers(0, 12)))
    return model_parts(vocabulary, hierarchy, roles,
                       num_documents=int(rng.integers(0, 50)),
                       config={"seed": 1}, extra_manifest={"tag": "x"})


def _section_table(blob):
    model = _mapped_from_blob(blob, path="<in-memory>")
    table = [(entry["name"], entry["dtype"], entry["count"], entry["crc32"])
             for entry in model.header["sections"]]
    payload = {name: model.section(name).tobytes()
               for name, *_ in table}
    return table, payload, model.strings, model.manifest


class TestArtifactWriterEquivalence:
    """The array writer vs the dict -> JSON -> v2 oracle: the same
    section table (names, dtypes, counts, CRCs), section bytes, string
    tables and manifest, so the same artifact bytes."""

    def _assert_same(self, parts):
        fast, packed = pack_model(parts)
        ref = reference_v2_blob(parts)
        table, payload, strings, manifest = _section_table(fast)
        assert table == _section_table(ref)[0]
        assert payload == _section_table(ref)[1]
        assert strings == _section_table(ref)[2]
        assert manifest == _section_table(ref)[3] == packed.manifest
        assert fast == ref

    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_on_generated_hierarchies(self, seed):
        self._assert_same(_writer_parts(np.random.default_rng(seed)))

    def test_matches_oracle_on_the_fitted_pipeline(self, mined):
        _, result = mined
        self._assert_same(parts_of_result(result, config={"seed": 0}))

    def test_inverted_index_ranks_tied_scores_by_notation(self):
        """A phrase at one score in o/2 and o/10: notation order, not
        pre-order, breaks the tie."""
        root = Topic(path=())
        for _ in range(10):
            root.add_child(Topic(phrases=[("p", 0.5)]))
        parts = model_parts(["w"], TopicalHierarchy(root), {},
                            num_documents=0)
        _, packed = pack_model(parts)
        topics = packed.strings["topics"]
        order = [topics[i]["notation"]
                 for i in packed.section("inverted.ids").tolist()]
        assert order == sorted(order) and order[:2] == ["o/1", "o/10"]
        self._assert_same(parts)

    @pytest.mark.parametrize("where", ["phi", "rank", "phrase", "role",
                                       "rho"])
    def test_non_finite_floats_refused(self, where):
        parts = _writer_parts(np.random.default_rng(7))
        topic = parts.hierarchy.root
        if where == "phi":
            topic.phi = {"term": {"a": float("nan")}}
        elif where == "rank":
            topic.entity_ranks = {"author": [("a", float("inf"))]}
        elif where == "phrase":
            topic.phrases = [("a", float("-inf"))]
        elif where == "role":
            parts.entity_roles["author"] = {"a": {"o": float("nan")}}
        else:
            topic.rho = float("inf")
        with pytest.raises(DataError, match="non-finite"):
            pack_model(parts)
        with pytest.raises(DataError, match="non-finite"):
            reference_v2_blob(parts)


@st.composite
def hin_networks(draw):
    """Small author/term/venue networks holding a same-type link type
    with a self-link, a link type of exactly one link, and one isolated
    node per type."""
    sizes = {"author": draw(st.integers(1, 5)),
             "term": draw(st.integers(1, 7)),
             "venue": draw(st.integers(1, 3))}
    names = {node_type: [f"{node_type}{n}" for n in range(count)]
             + [f"{node_type}_isolated"] for node_type, count in sizes.items()}

    def draw_links(type_x, type_y, first=()):
        link = st.tuples(st.integers(0, sizes[type_x] - 1),
                         st.integers(0, sizes[type_y] - 1),
                         st.floats(0.25, 4.0))
        links = list(first) + draw(st.lists(link, max_size=25))
        return tuple(zip(*links)) if links else ((), (), ())

    links = {
        ("term", "term"): draw_links(
            "term", "term", [(0, 0, draw(st.floats(0.25, 4.0)))]),
        ("author", "term"): draw_links("author", "term"),
        ("author", "author"): draw_links("author", "author"),
        ("author", "venue"): (
            [draw(st.integers(0, sizes["author"] - 1))],
            [draw(st.integers(0, sizes["venue"] - 1))],
            [draw(st.floats(0.25, 4.0))]),
    }
    return HeterogeneousNetwork.from_links(names, links)


def _assert_hin_close(new, ref, what):
    np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-14,
                               err_msg=what)


def _degenerate_delta(fn):
    registry = obs.get_registry()
    before = registry.counter("cathy.degenerate_links")
    result = fn()
    return result, registry.counter("cathy.degenerate_links") - before


class TestHINEMEquivalence:
    """The stacked link CSR's SDDMM + SpMM step, alpha update and
    posterior split vs the per-link-type (k, E) reference."""

    @settings(max_examples=60, deadline=None)
    @given(network=hin_networks(), seed=st.integers(0, 2**32 - 1),
           k=st.integers(1, 4), background=st.booleans(),
           rho_prior=st.sampled_from([0.0, 0.5]),
           phi_prior=st.sampled_from([0.0, 0.1]),
           weight_mode=st.sampled_from(["equal", "mapping", "learn"]),
           underflow=st.booleans())
    def test_steps_alpha_and_split_match_reference(
            self, network, seed, k, background, rho_prior, phi_prior,
            weight_mode, underflow):
        obs.set_enabled(True)
        rng = np.random.default_rng(seed)
        mode = weight_mode
        if weight_mode == "mapping":
            mode = {lt: float(a) for lt, a in zip(
                network.link_types(),
                rng.uniform(0.2, 3.0, len(network.link_types())))}
        estimator = CathyHIN(num_topics=k, weight_mode=mode,
                             background=background, rho_prior=rho_prior,
                             phi_prior=phi_prior)
        node_names = estimator._prepare(network)
        blocks = estimator._blocks
        reference = ReferenceHINEM(network, k, background=background,
                                   rho_prior=rho_prior, phi_prior=phi_prior)
        alpha = estimator._initial_alpha()
        phi_parent = reference._parent_distributions(node_names)
        _assert_hin_close(estimator._parent_distribution(),
                      blocks.stack(phi_parent), "phi_parent")
        phi = {t: rng.dirichlet(np.ones(len(names)), size=k)
               for t, names in node_names.items()}
        phi0 = {t: p.copy() for t, p in phi_parent.items()}
        if underflow:
            # term0's self-link scores underflow to exactly zero.
            phi["term"][:, 0] = 1e-200
            phi0["term"][0] = phi_parent["term"][0] = 1e-200
        rho = np.full(k, 1.0 / (k + 1 if background else k))
        rho0 = 1.0 / (k + 1) if background else 0.0

        for step in range(3):
            weights = _scaled_weights(network, alpha)
            ref = reference_hin_em_step(reference, alpha, rho, rho0, phi,
                                        phi0, phi_parent, node_names)
            new = estimator._em_step(
                weights, rho, rho0, blocks.stack(phi), blocks.stack(phi0),
                blocks.stack(phi_parent))
            # One ulp of a denominator moves ll by about its link's weight
            # times 1e-16, and a learned alpha can weigh one link 1e8.
            assert abs(new[0] - ref[0]) <= 1e-12 * weights.sum()
            _assert_hin_close(new[1], ref[1], "rho")
            _assert_hin_close(new[2], ref[2], "rho0")
            _assert_hin_close(new[3], blocks.stack(ref[3]), "phi")
            _assert_hin_close(new[4], blocks.stack(ref[4]), "phi0")
            _, rho, rho0, phi, phi0 = ref
            if weight_mode == "learn" and step == 1:
                ref_alpha = reference._update_alpha(rho, rho0, phi, phi0,
                                                    phi_parent)
                new_alpha = estimator._update_alpha(_sddmm(
                    network,
                    *estimator._factors(rho, rho0, blocks.stack(phi),
                                        blocks.stack(phi0),
                                        blocks.stack(phi_parent))))
                assert list(new_alpha) == list(ref_alpha)
                _assert_hin_close(list(new_alpha.values()),
                              list(ref_alpha.values()), "alpha")
                alpha = ref_alpha

        model = HINTopicModel(rho=rho, rho0=rho0, phi=phi,
                              phi_background=phi0, phi_parent=phi_parent,
                              alpha=alpha, node_names=node_names,
                              log_likelihood=0.0)
        estimator.model_ = reference.model_ = model
        for z in range(k):
            new, new_count = _degenerate_delta(
                lambda: estimator.expected_link_arrays(z))
            ref, ref_count = _degenerate_delta(
                lambda: reference.expected_link_arrays(z))
            assert new_count == ref_count
            assert list(new) == list(ref)
            for link_type, (i_idx, j_idx, expected) in ref.items():
                assert np.array_equal(new[link_type][0], i_idx)
                assert np.array_equal(new[link_type][1], j_idx)
                _assert_hin_close(new[link_type][2], expected,
                                  str(link_type))


@st.composite
def entity_corpora(draw):
    """Documents over eight words with author/person/venue lists: a name
    may repeat in one document or appear under two entity types, and a
    document may hold no word at all."""
    names = st.sampled_from(["ann", "bob", "cy", "dee"])
    corpus = Corpus()
    corpus.vocabulary.encode([f"w{i}" for i in range(8)], add_missing=True)
    for _ in range(draw(st.integers(0, 14))):
        tokens = draw(st.lists(st.integers(0, 7), max_size=7))
        entities = {entity_type: draw(st.lists(names, max_size=4))
                    for entity_type in ("author", "person", "venue")
                    if draw(st.booleans())}
        corpus.add_document(chunks=[tokens], entities=entities)
    return corpus


def _stacked(reference):
    """A reference network's links as the stacked CSR arrays (rows, cols,
    weights, link-type ids), node types in name order."""
    names, links = reference
    types = sorted(names)
    starts = dict(zip(types, np.cumsum(
        [0] + [len(names[t]) for t in types]).tolist()))
    parts = [(i_idx + starts[x], j_idx + starts[y], weights,
              np.full(len(weights), number))
             for number, ((x, y), (i_idx, j_idx, weights))
             in enumerate(sorted(links.items()))]
    if not parts:
        return [np.empty(0, dtype=np.int64)] * 4
    rows, cols, weights, type_id = (np.concatenate(c) for c in zip(*parts))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], weights[order], type_id[order]


def _assert_same_network(new, reference):
    names, links = reference
    assert new.node_types() == sorted(names)
    for node_type in sorted(names):
        assert new.node_names(node_type) == names[node_type]
    assert new.link_types() == sorted(links)
    rows, cols, weights, type_id = _stacked(reference)
    assert np.array_equal(new.rows, rows)
    assert np.array_equal(new.cols, cols)
    assert np.array_equal(new.type_id, type_id)
    assert new.weights.dtype == np.float64
    assert np.array_equal(new.weights, weights)
    assert np.array_equal(new.indptr, np.searchsorted(
        rows, np.arange(len(new.indptr))))
    for link_type, arrays in links.items():
        for got, want in zip(new.link_arrays(link_type), arrays):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestCollapseEquivalence:
    """The Gram-product Example 3.1 collapse vs the per-document loop:
    the same node types and names in the same order, and a bit-identical
    stacked CSR."""

    @settings(max_examples=80, deadline=None)
    @given(corpus=entity_corpora(), min_count=st.integers(1, 3),
           include_text=st.booleans(),
           entity_types=st.one_of(
               st.none(),
               st.lists(st.sampled_from(["author", "person", "venue"]),
                        max_size=4)))
    def test_matches_per_document_collapse(self, corpus, min_count,
                                           include_text, entity_types):
        new = build_collapsed_network(
            corpus, entity_types=entity_types, min_count=min_count,
            include_text=include_text)
        if entity_types is not None:
            # A type listed twice is one node type.
            entity_types = list(dict.fromkeys(entity_types))
        ref = reference_build_collapsed_network(
            corpus, entity_types=entity_types, min_count=min_count,
            include_text=include_text)
        _assert_same_network(new, ref)

    def test_documents_without_terms_or_entities(self):
        corpus = Corpus.from_texts(
            ["rare graph", "graph mining", "", "mining graph"],
            entities=[{"author": ["ann", "ann", "bob"]}, {}, {"venue": []},
                      {"author": []}])
        for min_count in (1, 2, 3):
            _assert_same_network(
                build_collapsed_network(corpus, min_count=min_count),
                reference_build_collapsed_network(corpus,
                                                  min_count=min_count))


@st.composite
def child_draws(draw):
    """A random author/term/venue network and expected weights for one
    child: weights may sit exactly at the threshold or all below it, and
    the network may hold a single link type."""
    sizes = {"author": draw(st.integers(1, 6)),
             "term": draw(st.integers(1, 8)),
             "venue": draw(st.integers(1, 3))}
    names = {t: [f"{t}{n}" for n in range(count)]
             for t, count in sizes.items()}
    pairs = [("author", "author"), ("author", "term"), ("author", "venue"),
             ("term", "term"), ("term", "venue")]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1,
                           unique=True))
    links = {}
    for type_x, type_y in chosen:
        link = st.tuples(st.integers(0, sizes[type_x] - 1),
                         st.integers(0, sizes[type_y] - 1))
        ends = draw(st.lists(link, min_size=1, max_size=20))
        links[(type_x, type_y)] = tuple(zip(*ends)) + (1.0,)
    network = HeterogeneousNetwork.from_links(names, links)
    min_weight = draw(st.sampled_from([0.5, 1.0, 2.5]))
    levels = [min_weight, min_weight * 3, min_weight / 2, 0.0]
    if draw(st.integers(0, 4)) == 4:
        levels = levels[2:]
    weights = np.asarray(draw(st.lists(
        st.sampled_from(levels), min_size=network.num_links(),
        max_size=network.num_links())), dtype=np.float64)
    return network, names, weights, min_weight


class TestSubnetworkEquivalence:
    """A child as a mask over its parent's links vs the name-based
    rebuild: the same node names in the same order and a bit-identical
    stacked CSR."""

    @settings(max_examples=150, deadline=None)
    @given(draw=child_draws())
    def test_matches_name_based_subnetwork(self, draw):
        network, names, weights, min_weight = draw
        per_type = {lt: network.link_arrays(lt)[:2]
                    + (weights[network.type_id == number],)
                    for number, lt in enumerate(network.link_types())}
        child = network.subnetwork(weights, min_weight=min_weight)
        _assert_same_network(child, reference_subnetwork(
            names, per_type, min_weight=min_weight))
