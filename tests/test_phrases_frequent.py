"""Tests for frequent phrase mining (Algorithm 1)."""

import pytest

from repro.corpus import Corpus
from repro.errors import ConfigurationError, DataError
from repro.phrases import (mine_frequent_phrases,
                           mine_frequent_phrases_from_chunks)


def ids(corpus, words):
    return tuple(corpus.vocabulary.id_of(w) for w in words.split())


class TestMining:
    def test_counts_exact(self):
        corpus = Corpus.from_texts(["alpha beta gamma"] * 5
                                   + ["alpha beta delta"] * 3)
        counts = mine_frequent_phrases(corpus, min_support=3)
        assert counts.frequency(ids(corpus, "alpha beta")) == 8
        assert counts.frequency(ids(corpus, "alpha beta gamma")) == 5
        assert counts.frequency(ids(corpus, "alpha beta delta")) == 3
        assert counts.frequency(ids(corpus, "beta gamma")) == 5

    def test_min_support_filters(self):
        corpus = Corpus.from_texts(["alpha beta"] * 4 + ["gamma delta"] * 2)
        counts = mine_frequent_phrases(corpus, min_support=3)
        assert ids(corpus, "alpha beta") in counts
        assert ids(corpus, "gamma delta") not in counts

    def test_downward_closure(self, dblp_small):
        """Every frequent phrase's sub-phrases are frequent too."""
        counts = mine_frequent_phrases(dblp_small.corpus, min_support=5)
        for phrase, count in counts.counts.items():
            if len(phrase) < 2:
                continue
            for sub in (phrase[:-1], phrase[1:]):
                assert sub in counts
                assert counts.frequency(sub) >= count

    def test_phrases_never_cross_punctuation(self):
        corpus = Corpus.from_texts(["alpha beta, gamma delta"] * 5)
        counts = mine_frequent_phrases(corpus, min_support=3)
        assert counts.frequency(ids(corpus, "beta gamma")) == 0
        assert counts.frequency(ids(corpus, "alpha beta")) == 5

    def test_max_length_cap(self):
        corpus = Corpus.from_texts(["a1 a2 a3 a4 a5"] * 6)
        counts = mine_frequent_phrases(corpus, min_support=3, max_length=3)
        assert max(len(p) for p in counts.counts) == 3

    def test_invalid_support(self, tiny_corpus):
        with pytest.raises(ConfigurationError):
            mine_frequent_phrases(tiny_corpus, min_support=0)

    @pytest.mark.parametrize("max_length", [0, -1])
    def test_invalid_max_length(self, tiny_corpus, max_length):
        """A cap below 1 used to mine unigrams anyway, while instance
        lookup under the same cap found none."""
        with pytest.raises(ConfigurationError, match="max_length must be"):
            mine_frequent_phrases(tiny_corpus, min_support=2,
                                  max_length=max_length)
        with pytest.raises(ConfigurationError, match="max_length must be"):
            mine_frequent_phrases_from_chunks([[1, 2, 3], [1, 2, 3]],
                                              min_support=2,
                                              max_length=max_length)

    def test_chunks_invalid_support(self):
        with pytest.raises(ConfigurationError, match="min_support must be"):
            mine_frequent_phrases_from_chunks([[1, 2]], min_support=0)

    @pytest.mark.parametrize("chunks", [
        [[-1, 2], [-1, 2]],
        [[0, 1], [2, -3]],
        [[1.0, 2.0], [1.0, 2.0]],
        [[1, 2.5]],
        [["a", "b"], ["a", "b"]],
    ])
    def test_chunks_reject_bad_token_ids(self, chunks):
        with pytest.raises(DataError, match="token ids must be"):
            mine_frequent_phrases_from_chunks(chunks, min_support=1)

    def test_corpus_constants_recorded(self, tiny_corpus):
        counts = mine_frequent_phrases(tiny_corpus, min_support=2)
        assert counts.num_documents == len(tiny_corpus)
        assert counts.num_tokens == tiny_corpus.num_tokens

    def test_overlapping_instances_counted(self):
        # "x x x" has two instances of the bigram (x, x).
        chunks = [[0, 0, 0]] * 4
        counts = mine_frequent_phrases_from_chunks(chunks, min_support=3)
        assert counts.frequency((0, 0)) == 8

    def test_phrases_accessor_filters_lengths(self, tiny_corpus):
        counts = mine_frequent_phrases(tiny_corpus, min_support=2)
        assert all(len(p) >= 2 for p in counts.phrases(min_length=2))
        assert all(len(p) == 1 for p in counts.phrases(max_length=1))


class TestKnownCollocations:
    def test_planted_phrases_found(self, dblp_small):
        counts = mine_frequent_phrases(dblp_small.corpus, min_support=5)
        vocab = dblp_small.corpus.vocabulary
        truth = dblp_small.ground_truth
        found = 0
        total = 0
        for path, spec in truth.paths.items():
            if spec.children:
                continue
            for phrase in truth.normalized_phrases(path):
                words = phrase.split()
                if len(words) < 2:
                    continue
                total += 1
                if tuple(vocab.id_of(w) for w in words) in counts:
                    found += 1
        assert total > 0
        assert found / total > 0.9
