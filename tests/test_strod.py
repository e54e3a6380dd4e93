"""Tests for STROD moment-based inference (Chapter 7)."""

import numpy as np
import pytest

from repro.datasets import generate_planted_lda
from repro.errors import ConfigurationError, NotFittedError
from repro.eval import recovery_error
from repro.strod import (STROD, compute_whitener, first_moment,
                         power_iteration, reconstruction_error,
                         robust_tensor_decomposition, second_moment,
                         tensor_apply, tensor_value,
                         whitened_third_moment, word_count_rows)


class TestMoments:
    def test_first_moment_is_distribution(self, planted_small):
        rows = word_count_rows(planted_small.docs, planted_small.vocab_size)
        m1 = first_moment(rows, planted_small.vocab_size)
        assert m1.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(m1 >= 0)

    def test_second_moment_symmetric(self, planted_small):
        rows = word_count_rows(planted_small.docs, planted_small.vocab_size)
        m2 = second_moment(rows, planted_small.vocab_size,
                           alpha0=float(planted_small.alpha.sum()))
        assert np.allclose(m2, m2.T)

    def test_second_moment_converges_to_population(self):
        """Empirical M2 approaches sum_z pi_z mu mu^T for large samples."""
        planted = generate_planted_lda(num_docs=4000, num_topics=3,
                                       vocab_size=30, doc_length=60,
                                       seed=5)
        alpha0 = float(planted.alpha.sum())
        rows = word_count_rows(planted.docs, planted.vocab_size)
        m2 = second_moment(rows, planted.vocab_size, alpha0)
        weights = planted.alpha / (alpha0 * (alpha0 + 1))
        population = (planted.phi.T * weights) @ planted.phi
        assert np.abs(m2 - population).max() < 5e-4

    def test_short_documents_dropped(self):
        rows = word_count_rows([[1, 2], [1, 2, 3], [5]], vocab_size=10)
        assert len(rows) == 1

    def test_whitener_orthogonalizes(self, planted_small):
        rows = word_count_rows(planted_small.docs, planted_small.vocab_size)
        m2 = second_moment(rows, planted_small.vocab_size,
                           alpha0=float(planted_small.alpha.sum()))
        whitener, unwhitener = compute_whitener(m2, 4)
        gram = whitener.T @ m2 @ whitener
        assert np.allclose(gram, np.eye(4), atol=1e-6)
        assert np.allclose(whitener.T @ unwhitener, np.eye(4), atol=1e-6)

    def test_whitened_tensor_shape_and_symmetry(self, planted_small):
        rows = word_count_rows(planted_small.docs, planted_small.vocab_size)
        alpha0 = float(planted_small.alpha.sum())
        m1 = first_moment(rows, planted_small.vocab_size)
        m2 = second_moment(rows, planted_small.vocab_size, alpha0)
        whitener, _ = compute_whitener(m2, 4)
        tensor = whitened_third_moment(rows, whitener, m1, alpha0)
        assert tensor.shape == (4, 4, 4)
        assert np.allclose(tensor, tensor.transpose(1, 0, 2), atol=1e-8)
        assert np.allclose(tensor, tensor.transpose(2, 1, 0), atol=1e-8)


class TestTensorPower:
    @pytest.fixture
    def synthetic_tensor(self):
        rng = np.random.default_rng(0)
        basis, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        eigenvalues = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        tensor = np.zeros((5, 5, 5))
        for lam, v in zip(eigenvalues, basis.T):
            tensor += lam * np.einsum("i,j,l->ijl", v, v, v)
        return tensor, eigenvalues, basis

    def test_recovers_orthogonal_eigenpairs(self, synthetic_tensor):
        tensor, eigenvalues, basis = synthetic_tensor
        pairs = robust_tensor_decomposition(tensor, 5, num_restarts=8,
                                            num_iterations=40, seed=1)
        recovered = sorted((p.eigenvalue for p in pairs), reverse=True)
        assert np.allclose(recovered, eigenvalues, atol=1e-6)

    def test_residual_near_zero_on_exact_tensor(self, synthetic_tensor):
        tensor, _, _ = synthetic_tensor
        pairs = robust_tensor_decomposition(tensor, 5, num_restarts=8,
                                            num_iterations=40, seed=1)
        assert reconstruction_error(tensor, pairs) < 1e-6

    def test_tensor_apply_matches_value(self, synthetic_tensor):
        tensor, _, basis = synthetic_tensor
        v = basis[:, 0]
        assert tensor_value(tensor, v) == pytest.approx(
            float(v @ tensor_apply(tensor, v)))

    def test_power_iteration_finds_dominant(self, synthetic_tensor):
        tensor, eigenvalues, basis = synthetic_tensor
        vector, value = power_iteration(tensor, basis[:, 0] + 0.01, 50)
        assert value == pytest.approx(eigenvalues[0], abs=1e-6)

    def test_invalid_tensor_rejected(self):
        with pytest.raises(ConfigurationError):
            robust_tensor_decomposition(np.zeros((2, 3, 2)), 2)
        with pytest.raises(ConfigurationError):
            robust_tensor_decomposition(np.zeros((2, 2, 2)), 5)


class TestSTROD:
    def test_recovers_planted_topics(self):
        planted = generate_planted_lda(num_docs=3000, num_topics=5,
                                       vocab_size=150, doc_length=60,
                                       seed=2)
        strod = STROD(num_topics=5, alpha0=float(planted.alpha.sum()),
                      seed=0)
        model = strod.fit(planted.docs, planted.vocab_size)
        assert recovery_error(planted.phi, model.phi) < 0.25

    def test_alpha_recovered_approximately(self):
        planted = generate_planted_lda(num_docs=3000, num_topics=4,
                                       vocab_size=100, doc_length=60,
                                       seed=3)
        strod = STROD(num_topics=4, alpha0=float(planted.alpha.sum()),
                      seed=0)
        model = strod.fit(planted.docs, planted.vocab_size)
        true_sorted = np.sort(planted.alpha)[::-1]
        assert np.abs(model.alpha - true_sorted).max() < 0.15

    def test_phi_rows_are_distributions(self, planted_small):
        strod = STROD(num_topics=4, alpha0=1.0, seed=0)
        model = strod.fit(planted_small.docs, planted_small.vocab_size)
        assert np.allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(model.phi >= 0)

    def test_deterministic_given_seed(self, planted_small):
        model_a = STROD(num_topics=4, alpha0=1.0, seed=9).fit(
            planted_small.docs, planted_small.vocab_size)
        model_b = STROD(num_topics=4, alpha0=1.0, seed=9).fit(
            planted_small.docs, planted_small.vocab_size)
        assert np.allclose(model_a.phi, model_b.phi)

    def test_robust_across_seeds(self, planted_small):
        """Different restart seeds give (nearly) the same topics —
        the robustness property of Section 7.4.2."""
        from repro.eval import pairwise_discrepancy
        phis = [STROD(num_topics=4, alpha0=1.0, seed=s).fit(
            planted_small.docs, planted_small.vocab_size).phi
            for s in (0, 1, 2)]
        assert pairwise_discrepancy(phis) < 0.05

    def test_alpha0_learning_picks_reasonable_value(self):
        planted = generate_planted_lda(num_docs=2000, num_topics=3,
                                       vocab_size=60, doc_length=50,
                                       alpha=[0.5, 0.3, 0.2], seed=4)
        strod = STROD(num_topics=3, alpha0=None,
                      alpha0_grid=(0.5, 1.0, 4.0, 16.0), seed=0)
        model = strod.fit(planted.docs, planted.vocab_size)
        assert model.alpha0 in (0.5, 1.0, 4.0, 16.0)
        assert model.alpha0 <= 4.0  # true alpha0 is 1.0

    def test_document_topics_are_distributions(self, planted_small):
        # One vocabulary word more than the documents use: the model
        # does not know it, so a document made only of it has no vote.
        unknown = planted_small.vocab_size
        strod = STROD(num_topics=4, alpha0=1.0, seed=0)
        strod.fit(planted_small.docs, unknown + 1)
        theta = strod.document_topics(planted_small.docs[:50]
                                      + [[unknown] * 3])
        assert np.allclose(theta.sum(axis=1), 1.0, atol=1e-9)

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            STROD(num_topics=1)
        strod = STROD(num_topics=3)
        with pytest.raises(NotFittedError):
            strod.require_model()
        with pytest.raises(ConfigurationError):
            strod.fit([[1, 2, 3]], vocab_size=10)


class TestSTRODHierarchy:
    def test_builds_tree(self, dblp_small):
        from repro.strod import STRODHierarchyBuilder, STRODTreeConfig
        builder = STRODHierarchyBuilder(
            STRODTreeConfig(num_children=4, max_depth=1,
                            min_documents=50), seed=0)
        hierarchy = builder.build(dblp_small.corpus)
        assert len(hierarchy.root.children) == 4
        for child in hierarchy.root.children:
            assert child.phi.get("term")
