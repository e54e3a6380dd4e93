"""STROD: Scalable and Robust Topic Discovery (Sections 7.3.1–7.3.3).

The algorithm:

1. estimate the debiased second moment M2 and whiten it (k-dim space);
2. apply the third moment to the whitening matrix on the fly
   (never materializing the V^3 tensor — Section 7.3.2);
3. extract robust eigenpairs with the tensor power method;
4. recover topic-word distributions and Dirichlet weights in closed form:

       alpha_z = [ 2 sqrt(a0 (a0+1)) / ((a0+2) lambda_z) ]^2
       mu_z    = lambda_z (a0+2)/2 * B v_z

   (B the un-whitening matrix), then clip tiny negatives and renormalize;
5. optionally grid-search the hyperparameter alpha0 by tensor
   reconstruction error (Section 7.3.3).

Unlike Gibbs/variational inference, every step is deterministic given the
restart seeds and converges in a bounded number of iterations — the
robustness property benchmarked in Section 7.4.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy.sparse import csr_matrix

from ..errors import ConfigurationError, NotFittedError
from ..obs import get_logger, set_gauge, span
from ..phrases.ranking import FlatTopicModel
from ..utils import (EPS, RandomState, ensure_rng, rng_from,
                     spawn_seed_sequences)
from .moments import (compute_whitener, count_rows, first_moment,
                      long_documents, second_moment, whitened_third_moment)
from .tensor_power import (TensorEigenpair, reconstruction_error,
                           robust_tensor_decomposition)

logger = get_logger("strod")

#: Token-id documents, or their documents x words count CSR.
Documents = Union[csr_matrix, Sequence[Sequence[int]]]


@dataclass
class STRODModel:
    """Recovered LDA parameters.

    Attributes:
        alpha: recovered Dirichlet parameters (k,), descending.
        phi: recovered topic-word matrix (k, V), rows sum to one.
        alpha0: the alpha0 used (supplied or learned).
        eigenvalues: tensor eigenvalues behind each topic.
        residual: tensor reconstruction error (fit diagnostic).
    """

    alpha: np.ndarray
    phi: np.ndarray
    alpha0: float
    eigenvalues: np.ndarray
    residual: float

    def to_flat(self) -> FlatTopicModel:
        """Export as the shared flat-model currency."""
        rho = self.alpha / max(self.alpha.sum(), EPS)
        return FlatTopicModel(rho=rho, phi=self.phi)


class STROD:
    """Moment-based LDA estimator.

    Args:
        num_topics: k.
        alpha0: Dirichlet concentration sum(alpha); when None it is
            learned by grid search (Section 7.3.3).
        alpha0_grid: candidate values for learning alpha0.
        num_restarts / num_iterations: tensor power method budget
            (L and N of Section 7.3.1).
        sparse: use the sparse-plus-rank-one whitening of Section 7.3.2
            (O(nnz) memory instead of O(V^2); required for large V).
        seed: RNG seed (tensor power restarts, and the Lanczos start
            vector of the sparse whitening).
    """

    def __init__(self, num_topics: int, alpha0: Optional[float] = 1.0,
                 alpha0_grid: Sequence[float] = (0.5, 1.0, 2.0, 5.0, 10.0),
                 num_restarts: int = 10, num_iterations: int = 30,
                 sparse: bool = False,
                 seed: RandomState = None) -> None:
        if num_topics < 2:
            raise ConfigurationError("num_topics must be >= 2")
        self.num_topics = num_topics
        self.alpha0 = alpha0
        self.alpha0_grid = tuple(alpha0_grid)
        self.num_restarts = num_restarts
        self.num_iterations = num_iterations
        self.sparse = sparse
        self._rng = ensure_rng(seed)
        self.model_: Optional[STRODModel] = None

    # ------------------------------------------------------------------- fit
    def fit(self, docs: Documents, vocab_size: int,
            checkpoint=None, resume: bool = False) -> STRODModel:
        """Recover topics from token-id documents.

        Args:
            docs: token-id documents, or their documents x words count
                CSR (e.g. rows sliced from one corpus-wide matrix);
                documents of fewer than three tokens are left out.
            vocab_size: V.
            checkpoint: optional
                :class:`~repro.resilience.CheckpointWriter` for the
                tensor power deflation (the only iterative stage; the
                moment computations are deterministic re-runs).  With
                ``alpha0=None`` the grid search ignores it — a single
                checkpoint file cannot disambiguate grid candidates.
            resume: continue from the checkpoint file when it exists.

        The documents' lengths and M1 are computed once and shared by
        M2, the whitened M3 and every alpha0 candidate.
        """
        counts, lengths = long_documents(docs, vocab_size)
        if counts.shape[0] < self.num_topics:
            raise ConfigurationError(
                "need at least k documents of length >= 3")

        with span("strod.fit"):
            m1 = first_moment(counts, vocab_size, lengths=lengths)
            if self.alpha0 is not None:
                model = self._fit_alpha0(counts, lengths, m1, self.alpha0,
                                         checkpoint=checkpoint,
                                         resume=resume)
            else:
                if checkpoint is not None:
                    logger.debug("alpha0 grid search ignores checkpointing")
                best = None
                for alpha0 in self.alpha0_grid:
                    candidate = self._fit_alpha0(counts, lengths, m1,
                                                 alpha0)
                    if best is None or candidate.residual < best.residual:
                        best = candidate
                model = best
        set_gauge("strod.residual", model.residual)
        set_gauge("strod.alpha0", model.alpha0)
        self.model_ = model
        return model

    def _fit_alpha0(self, counts: csr_matrix, lengths: np.ndarray,
                    m1: np.ndarray, alpha0: float, checkpoint=None,
                    resume: bool = False) -> STRODModel:
        vocab_size = counts.shape[1]
        with span("strod.whitening"):
            if self.sparse:
                from .sparse import compute_whitener_sparse
                # A spawned child leaves the generator's own draws (the
                # tensor-power starts) as they are.
                start_seq = spawn_seed_sequences(self._rng, 1)[0]
                whitener, unwhitener, _ = compute_whitener_sparse(
                    counts, vocab_size, alpha0, self.num_topics,
                    seed=rng_from(start_seq))
            else:
                m2 = second_moment(counts, vocab_size, alpha0,
                                   lengths=lengths, m1=m1)
                whitener, unwhitener = compute_whitener(m2, self.num_topics)
        with span("strod.third_moment"):
            tensor = whitened_third_moment(counts, whitener, m1, alpha0,
                                           lengths=lengths)
        with span("strod.tensor_decomposition"):
            pairs = robust_tensor_decomposition(
                tensor, self.num_topics, num_restarts=self.num_restarts,
                num_iterations=self.num_iterations, seed=self._rng,
                checkpoint=checkpoint, resume=resume)
        with span("strod.recovery"):
            residual = reconstruction_error(tensor, pairs)
            alpha, phi = self._recover(pairs, unwhitener, alpha0)
        return STRODModel(alpha=alpha, phi=phi, alpha0=alpha0,
                          eigenvalues=np.array([p.eigenvalue for p in pairs]),
                          residual=residual)

    def _recover(self, pairs: List[TensorEigenpair], unwhitener: np.ndarray,
                 alpha0: float):
        """Closed-form parameter recovery from the eigenpairs."""
        k = self.num_topics
        alpha = np.zeros(k)
        phi = np.zeros((k, unwhitener.shape[0]))
        scale = 2.0 * np.sqrt(alpha0 * (alpha0 + 1)) / (alpha0 + 2)
        for z, pair in enumerate(pairs):
            eigenvalue = max(pair.eigenvalue, EPS)
            alpha[z] = (scale / eigenvalue) ** 2
            mu = eigenvalue * (alpha0 + 2) / 2.0 * (
                unwhitener @ pair.eigenvector)
            # Eigenvectors are sign-ambiguous; pick the sign with positive
            # mass, clip residual negatives, renormalize to the simplex.
            if mu.sum() < 0:
                mu = -mu
            mu = np.maximum(mu, 0.0)
            total = mu.sum()
            phi[z] = mu / total if total > 0 else np.full(len(mu),
                                                          1.0 / len(mu))
        # Rescale alpha to match alpha0 exactly (recovery is exact only in
        # the infinite-sample limit).
        total_alpha = alpha.sum()
        if total_alpha > 0:
            alpha = alpha * (alpha0 / total_alpha)
        order = np.argsort(-alpha, kind="stable")
        return alpha[order], phi[order]

    # --------------------------------------------------------------- queries
    def require_model(self) -> STRODModel:
        """Return the fitted model or raise :class:`NotFittedError`."""
        if self.model_ is None:
            raise NotFittedError("call fit() first")
        return self.model_

    def document_topics(self, docs: Documents) -> np.ndarray:
        """Per-document topic responsibilities via one posterior fold-in.

        Words vote with p(z | w) proportional to alpha_z phi_z(w); the
        document distribution is the normalized vote total — the cheap
        deterministic assignment used by the recursive tree construction.
        A word whose total weight sum_z alpha_z phi_z(w) is below ``EPS``
        is unknown to the model and casts no vote; a document without a
        vote (empty, or made only of such words) gets the prior
        alpha / sum(alpha).  All documents are folded in at once: one
        token-count CSR (``docs`` itself, when given as one) times the
        (V, k) vote weights.
        """
        model = self.require_model()
        weights = model.alpha[:, None] * model.phi  # (k, V)
        totals = weights.sum(axis=0)
        weights = np.where(totals >= EPS,
                           weights / np.maximum(totals, EPS), 0.0)
        votes = count_rows(docs, weights.shape[1]) @ weights.T  # (n, k)
        num_votes = votes.sum(axis=1, keepdims=True)
        prior = model.alpha / model.alpha.sum()
        return np.where(num_votes > 0, votes / np.maximum(num_votes, EPS),
                        prior)
