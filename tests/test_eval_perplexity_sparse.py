"""Tests for held-out perplexity and sparse STROD whitening."""

import numpy as np
import pytest

from repro.datasets import generate_planted_lda
from repro.errors import ConfigurationError
from repro.eval import fold_in, held_out_perplexity, split_document
from repro.phrases.ranking import FlatTopicModel
from repro.strod import (STROD, compute_whitener, second_moment,
                         compute_whitener_sparse, sparse_pair_moment,
                         word_count_rows)


class TestPerplexity:
    def test_true_model_beats_uniform(self, planted_small):
        truth = FlatTopicModel(
            rho=planted_small.alpha / planted_small.alpha.sum(),
            phi=planted_small.phi)
        uniform = FlatTopicModel(
            rho=np.full(4, 0.25),
            phi=np.full((4, planted_small.vocab_size),
                        1.0 / planted_small.vocab_size))
        docs = planted_small.docs[:150]
        true_ppl = held_out_perplexity(truth, docs, seed=0)
        uniform_ppl = held_out_perplexity(uniform, docs, seed=0)
        assert true_ppl < uniform_ppl
        assert uniform_ppl == pytest.approx(planted_small.vocab_size,
                                            rel=1e-6)

    def test_fold_in_returns_distribution(self, planted_small):
        truth = FlatTopicModel(
            rho=planted_small.alpha / planted_small.alpha.sum(),
            phi=planted_small.phi)
        theta = fold_in(truth, planted_small.docs[0][:20])
        assert theta.sum() == pytest.approx(1.0)
        assert (theta >= 0).all()

    def test_fold_in_empty_doc_uniform(self, planted_small):
        truth = FlatTopicModel(
            rho=planted_small.alpha / planted_small.alpha.sum(),
            phi=planted_small.phi)
        theta = fold_in(truth, [])
        assert np.allclose(theta, 0.25)

    def test_split_document_partitions(self):
        rng = np.random.default_rng(0)
        observed, held_out = split_document(list(range(10)), rng, 0.5)
        assert sorted(observed + held_out) == list(range(10))
        assert len(observed) == 5

    def test_invalid_fraction(self, planted_small):
        truth = FlatTopicModel(rho=np.full(4, 0.25),
                               phi=planted_small.phi)
        with pytest.raises(ConfigurationError):
            held_out_perplexity(truth, planted_small.docs[:5],
                                observed_fraction=1.5)

    def test_strod_perplexity_near_truth(self):
        planted = generate_planted_lda(num_docs=2000, num_topics=4,
                                       vocab_size=100, doc_length=50,
                                       seed=5)
        model = STROD(num_topics=4,
                      alpha0=float(planted.alpha.sum()),
                      seed=0).fit(planted.docs, planted.vocab_size)
        truth = FlatTopicModel(
            rho=planted.alpha / planted.alpha.sum(), phi=planted.phi)
        docs = planted.docs[:200]
        strod_ppl = held_out_perplexity(model.to_flat(), docs, seed=0)
        true_ppl = held_out_perplexity(truth, docs, seed=0)
        assert strod_ppl < 1.15 * true_ppl


class TestSparseWhitening:
    def test_sparse_pair_moment_matches_dense(self, planted_small):
        rows = word_count_rows(planted_small.docs,
                               planted_small.vocab_size)
        alpha0 = float(planted_small.alpha.sum())
        sparse = sparse_pair_moment(rows, planted_small.vocab_size)
        dense = second_moment(rows, planted_small.vocab_size, alpha0)
        from repro.strod import first_moment
        m1 = first_moment(rows, planted_small.vocab_size)
        correction = (alpha0 / (alpha0 + 1)) * np.outer(m1, m1)
        # dense M2 = sparse pair moment - rank-one correction, exactly.
        assert np.allclose(dense, sparse.toarray() - correction,
                           atol=1e-12)

    def test_sparse_whitener_matches_dense_subspace(self, planted_small):
        rows = word_count_rows(planted_small.docs,
                               planted_small.vocab_size)
        alpha0 = float(planted_small.alpha.sum())
        dense_m2 = second_moment(rows, planted_small.vocab_size, alpha0)
        w_dense, _ = compute_whitener(dense_m2, 4)
        w_sparse, b_sparse, _ = compute_whitener_sparse(
            rows, planted_small.vocab_size, alpha0, 4)
        # Whiteners may differ by rotation/sign; both must whiten M2.
        gram = w_sparse.T @ dense_m2 @ w_sparse
        assert np.allclose(gram, np.eye(4), atol=1e-6)
        assert np.allclose(w_sparse.T @ b_sparse, np.eye(4), atol=1e-6)

    def test_sparse_strod_matches_dense_recovery(self):
        from repro.eval import recovery_error
        planted = generate_planted_lda(num_docs=1200, num_topics=4,
                                       vocab_size=90, doc_length=50,
                                       seed=6)
        dense = STROD(num_topics=4, alpha0=1.0, seed=0).fit(
            planted.docs, planted.vocab_size)
        sparse = STROD(num_topics=4, alpha0=1.0, sparse=True,
                       seed=0).fit(planted.docs, planted.vocab_size)
        dense_err = recovery_error(planted.phi, dense.phi)
        sparse_err = recovery_error(planted.phi, sparse.phi)
        assert abs(dense_err - sparse_err) < 0.05

    def test_repeated_sparse_fits_are_bitwise_equal(self):
        # ARPACK's own Lanczos start vector comes from state it keeps
        # across calls, so without a seeded start these fits would
        # differ in their last bits within one process.
        from repro.datasets import DBLPConfig, generate_dblp
        corpus = generate_dblp(DBLPConfig(max_authors=60), seed=3).corpus
        docs, vocab_size = corpus.token_lists(), len(corpus.vocabulary)
        fits = [STROD(num_topics=4, sparse=True, seed=5).fit(
            docs, vocab_size).phi for _ in range(4)]
        for phi in fits[1:]:
            assert np.array_equal(phi, fits[0])

    def test_sparse_whitener_start_follows_the_seed(self, planted_small):
        rows = word_count_rows(planted_small.docs,
                               planted_small.vocab_size)
        alpha0 = float(planted_small.alpha.sum())
        first = compute_whitener_sparse(rows, planted_small.vocab_size,
                                        alpha0, 4, seed=11)
        again = compute_whitener_sparse(rows, planted_small.vocab_size,
                                        alpha0, 4, seed=11)
        for ours, theirs in zip(first, again):
            assert np.array_equal(ours, theirs)

    def test_num_topics_bound(self, planted_small):
        rows = word_count_rows(planted_small.docs,
                               planted_small.vocab_size)
        with pytest.raises(ConfigurationError):
            compute_whitener_sparse(rows, planted_small.vocab_size,
                                    1.0, planted_small.vocab_size)
