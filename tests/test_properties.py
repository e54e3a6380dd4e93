"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus import Corpus, Vocabulary
from repro.hierarchy import notation_to_path, path_to_notation
from repro.phrases import (merge_significance,
                           mine_frequent_phrases_from_chunks,
                           phrase_topic_posterior, segment_chunk)
from repro.phrases.ranking import FlatTopicModel
from repro.relations import CollaborationNetwork, build_candidate_graph
from repro.strod.tensor_power import (robust_tensor_decomposition,
                                      reconstruction_error)
import pytest

from repro.utils import normalize

# Reusable strategies -----------------------------------------------------

token_chunks = st.lists(
    st.lists(st.integers(min_value=0, max_value=8), min_size=1,
             max_size=12),
    min_size=1, max_size=25)

paper_records = st.lists(
    st.tuples(
        st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f"]),
                 min_size=1, max_size=3),
        st.integers(min_value=1990, max_value=2010)),
    min_size=1, max_size=60)


class TestNotationRoundtrip:
    @given(st.lists(st.integers(min_value=0, max_value=20), max_size=6))
    def test_path_notation_roundtrip(self, path):
        path = tuple(path)
        assert notation_to_path(path_to_notation(path)) == path


class TestNormalize:
    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=20))
    def test_normalize_is_distribution(self, values):
        result = normalize(values)
        assert abs(result.sum() - 1.0) < 1e-9
        assert (result >= 0).all()


class TestVocabularyRoundtrip:
    @given(st.lists(st.text(min_size=1, max_size=8), min_size=1,
                    max_size=30))
    def test_encode_decode_roundtrip(self, words):
        vocab = Vocabulary()
        ids = vocab.encode(words, add_missing=True)
        assert vocab.decode(ids) == words


class TestFrequentPhrases:
    @given(token_chunks, st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_downward_closure(self, chunks, min_support):
        counts = mine_frequent_phrases_from_chunks(
            chunks, min_support=min_support,
            num_tokens=sum(len(c) for c in chunks))
        for phrase, count in counts.counts.items():
            assert count >= min_support
            if len(phrase) >= 2:
                assert counts.frequency(phrase[:-1]) >= count
                assert counts.frequency(phrase[1:]) >= count

    @given(token_chunks)
    @settings(max_examples=40, deadline=None)
    def test_counts_match_brute_force(self, chunks):
        counts = mine_frequent_phrases_from_chunks(
            chunks, min_support=2,
            num_tokens=sum(len(c) for c in chunks))
        for phrase, count in counts.counts.items():
            brute = sum(
                1 for chunk in chunks
                for start in range(len(chunk) - len(phrase) + 1)
                if tuple(chunk[start:start + len(phrase)]) == phrase)
            assert brute == count


class TestSegmentation:
    @given(token_chunks, st.floats(min_value=0.0, max_value=10.0,
                                   allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_partition_reconstructs_chunk(self, chunks, alpha):
        counts = mine_frequent_phrases_from_chunks(
            chunks, min_support=2,
            num_tokens=sum(len(c) for c in chunks))
        for chunk in chunks:
            partition = segment_chunk(chunk, counts, alpha=alpha)
            flattened = [tok for phrase in partition for tok in phrase]
            assert flattened == list(chunk)

    @given(token_chunks)
    @settings(max_examples=30, deadline=None)
    def test_only_frequent_merges(self, chunks):
        counts = mine_frequent_phrases_from_chunks(
            chunks, min_support=2,
            num_tokens=sum(len(c) for c in chunks))
        for chunk in chunks:
            partition = segment_chunk(chunk, counts, alpha=0.0)
            for phrase in partition:
                if len(phrase) >= 2:
                    assert phrase in counts


class TestPhrasePosterior:
    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=2, max_value=10),
           st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=5),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_posterior_is_distribution(self, k, vocab, phrase, seed):
        rng = np.random.default_rng(seed)
        phrase = tuple(w % vocab for w in phrase)
        model = FlatTopicModel(rho=rng.dirichlet(np.ones(k)),
                               phi=rng.dirichlet(np.ones(vocab), size=k))
        posterior = phrase_topic_posterior(phrase, model)
        assert abs(posterior.sum() - 1.0) < 1e-9
        assert (posterior >= 0).all()


class TestCandidateGraphProperties:
    @given(paper_records)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_graph_acyclic_and_normalized(self, papers):
        network = CollaborationNetwork.from_papers(papers)
        graph = build_candidate_graph(network)
        assert graph.is_acyclic()
        for author in graph.authors:
            total = sum(c.likelihood for c in graph.advisors_of(author))
            assert abs(total - 1.0) < 1e-6
            for candidate in graph.advisors_of(author):
                assert candidate.start <= candidate.end

    @given(paper_records)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_advisor_started_strictly_earlier(self, papers):
        network = CollaborationNetwork.from_papers(papers)
        graph = build_candidate_graph(network)
        for author in graph.authors:
            first = network.series_of(author).first_year
            for candidate in graph.advisors_of(author):
                if candidate.advisor == "":
                    continue
                advisor_first = network.series_of(
                    candidate.advisor).first_year
                assert advisor_first < first


class TestTensorDecomposition:
    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_exact_recovery_of_orthogonal_tensors(self, k, seed):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((k, k)))
        eigenvalues = np.sort(rng.uniform(1.0, 5.0, size=k))[::-1]
        tensor = np.zeros((k, k, k))
        for lam, v in zip(eigenvalues, basis.T):
            tensor += lam * np.einsum("i,j,l->ijl", v, v, v)
        pairs = robust_tensor_decomposition(tensor, k, num_restarts=8,
                                            num_iterations=50, seed=0)
        assert reconstruction_error(tensor, pairs) < 1e-4


class TestSignificanceSymmetry:
    @given(token_chunks)
    @settings(max_examples=30, deadline=None)
    def test_significance_finite_or_never(self, chunks):
        counts = mine_frequent_phrases_from_chunks(
            chunks, min_support=2,
            num_tokens=max(sum(len(c) for c in chunks), 1))
        unigrams = [p for p in counts.counts if len(p) == 1]
        for left in unigrams[:5]:
            for right in unigrams[:5]:
                value = merge_significance(counts, left, right)
                assert value == float("-inf") or np.isfinite(value)


class TestCathyEMProperties:
    @given(st.integers(min_value=2, max_value=4),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_invariants_on_random_networks(self, k, seed):
        from repro.cathy import CathyEM
        from repro.network import HeterogeneousNetwork

        rng = np.random.default_rng(seed)
        num_nodes = 8
        edges = []
        for _ in range(20):
            i, j = rng.integers(0, num_nodes, size=2)
            if i != j:
                edges.append((int(i), int(j), float(rng.integers(1, 5))))
        network = HeterogeneousNetwork.from_links(
            {"term": [f"w{i}" for i in range(num_nodes)]},
            {("term", "term"): tuple(zip(*edges)) if edges
             else ([], [], [])})
        model = CathyEM(num_topics=k, max_iter=30, seed=0).fit(network)
        assert np.allclose(model.phi.sum(axis=1), 1.0, atol=1e-6)
        assert model.rho.sum() == pytest.approx(
            network.total_weight(), rel=1e-3)


class TestItemsetProperties:
    @given(token_chunks, st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_itemset_counts_match_brute_force(self, chunks, min_support):
        from repro.corpus import Corpus, Vocabulary
        from repro.phrases import mine_frequent_itemsets

        corpus = Corpus(vocabulary=Vocabulary(
            [f"w{i}" for i in range(9)]))
        for chunk in chunks:
            corpus.add_document([list(chunk)])
        itemsets = mine_frequent_itemsets(corpus,
                                          min_support=min_support,
                                          max_size=3)
        doc_sets = [frozenset(doc.tokens) for doc in corpus]
        for itemset, count in itemsets.items():
            brute = sum(1 for s in doc_sets if itemset <= s)
            assert brute == count
            assert count >= min_support
