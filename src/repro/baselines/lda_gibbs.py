"""Latent Dirichlet allocation via collapsed Gibbs sampling.

Serves three roles in the reproduction:

* the maximum-likelihood-family baseline for Chapter 7's scalability and
  robustness comparisons against STROD,
* the topic-model substrate for KERT (a background LDA, Section 4.4.3),
* phrase-constrained LDA ("PhraseLDA") for ToPMine: all tokens of a
  phrase instance share one topic assignment, sampled jointly, which the
  paper notes often makes it *faster* than token-level LDA.

The sweep runs as a blocked kernel: uniform variates are drawn once per
document per sweep (one ``Generator.random`` call instead of one
``Generator.choice`` per unit), the conditional p(z | rest) is evaluated
in linear space, and the draw is an inverse-CDF scan over the cumulative
unnormalized weights.  Counts live in plain Python lists for the
duration of a sweep — at typical k (5–50 topics) interpreter-level list
indexing beats numpy's per-call dispatch overhead by an order of
magnitude on these tiny vectors — and are written back to the canonical
numpy arrays at every sweep boundary, which is also the checkpoint
granularity, so the saved-state contract is unchanged.  The log-space
reference sweep it matches bit for bit, chain for chain, lives with the
other reference kernels in ``tests/reference_kernels.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, NotFittedError
from ..obs import span, trace
from ..resilience import CheckpointWriter
from ..utils import EPS, RandomState, ensure_rng
from ..phrases.ranking import FlatTopicModel


def _ll_from_counts(counts: np.ndarray, phi: np.ndarray) -> float:
    """log p(w | z) from a (k, V) token-assignment count matrix.

    Every token assigned to topic z contributes ``log phi[z, w]``; the
    count matrix (which the collapsed sampler already maintains as
    ``n_kw``) makes that a single masked contraction.
    """
    mask = counts != 0
    return float(np.dot(counts[mask],
                        np.log(np.maximum(phi[mask], EPS))))


@dataclass
class LDAModel:
    """Posterior point estimates after Gibbs sampling.

    Attributes:
        phi: topic-word distributions (k, V).
        theta: document-topic distributions (D, k).
        rho: corpus-level topic proportions (k,).
        assignments: final topic label per sampling unit per document.
        log_likelihood: in-sample log p(w | z) at the final state.
    """

    phi: np.ndarray
    theta: np.ndarray
    rho: np.ndarray
    assignments: List[np.ndarray]
    log_likelihood: float

    def to_flat(self) -> FlatTopicModel:
        """Export as the shared flat-model currency for phrase ranking."""
        return FlatTopicModel(rho=self.rho, phi=self.phi)


class LDAGibbs:
    """Collapsed Gibbs sampler for (phrase-constrained) LDA.

    Args:
        num_topics: k.
        alpha: symmetric document-topic Dirichlet hyperparameter.
        beta: symmetric topic-word Dirichlet hyperparameter.
        iterations: Gibbs sweeps.
        seed: RNG seed or generator.
        checkpoint: optional :class:`~repro.resilience.CheckpointWriter`;
            the sampler state — counts, assignments, and the bit
            generator state, so the resumed chain draws exactly the
            numbers the uninterrupted chain would have — is persisted at
            the writer's cadence.
        resume: continue from the checkpoint file when it exists.
    """

    def __init__(self, num_topics: int, alpha: float = 0.1,
                 beta: float = 0.01, iterations: int = 200,
                 seed: RandomState = None,
                 checkpoint: Optional[CheckpointWriter] = None,
                 resume: bool = False) -> None:
        if num_topics < 1:
            raise ConfigurationError("num_topics must be >= 1")
        self.num_topics = num_topics
        self.alpha = alpha
        self.beta = beta
        self.iterations = iterations
        self.checkpoint = checkpoint
        self.resume = resume
        self._rng = ensure_rng(seed)
        self.model_: Optional[LDAModel] = None

    def fit(self, docs: Sequence[Sequence[int]], vocab_size: int,
            partitions: Optional[Sequence[Sequence[Tuple[int, ...]]]] = None,
            ) -> LDAModel:
        """Run the sampler.

        Args:
            docs: token-id sequences (ignored when ``partitions`` given,
                except for vocabulary bounds checking).
            vocab_size: V.
            partitions: optional bag-of-phrases per document (from
                ToPMine segmentation); when given, each phrase instance is
                one sampling unit sharing a topic.
        """
        k = self.num_topics
        rng = self._rng
        if partitions is not None:
            units: List[List[Tuple[int, ...]]] = [
                [tuple(p) for p in doc_partition]
                for doc_partition in partitions]
        else:
            units = [[(tok,) for tok in doc] for doc in docs]

        num_docs = len(units)
        saved = None
        if self.checkpoint is not None and self.resume:
            document = self.checkpoint.load()
            if document is not None:
                saved = document["state"]
        if saved is not None:
            # The bit-generator state makes the resumed chain draw the
            # exact numbers the uninterrupted chain would have drawn.
            n_dk = saved["n_dk"]
            n_kw = saved["n_kw"]
            n_k = saved["n_k"]
            assignments = [np.array(a) for a in saved["assignments"]]
            rng.bit_generator.state = saved["rng_state"]
            start = int(saved["iteration"]) + 1
        else:
            n_dk = np.zeros((num_docs, k), dtype=np.int64)
            n_kw = np.zeros((k, vocab_size), dtype=np.int64)
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
            start = 0

        beta_sum = self.beta * vocab_size
        tracer = trace("lda.gibbs", num_topics=k, num_docs=num_docs,
                       num_units=sum(len(u) for u in units),
                       phrase_constrained=partitions is not None)
        for iteration in range(start, self.iterations):
            with span("lda.gibbs.sweep", iteration=iteration):
                self._sweep(units, assignments, n_dk, n_kw, n_k, beta_sum,
                            rng)

            if tracer.active:
                # Per-sweep likelihood is extra work, so it is computed
                # only while tracing is enabled.
                phi_now = (n_kw + self.beta) / (n_k[:, None] + beta_sum)
                tracer.record(
                    log_likelihood=_ll_from_counts(n_kw, phi_now))
            else:
                tracer.record()
            if self.checkpoint is not None:
                self.checkpoint.maybe_save(iteration, lambda: {  # noqa: E731
                    "iteration": iteration, "n_dk": n_dk, "n_kw": n_kw,
                    "n_k": n_k, "assignments": assignments,
                    "rng_state": rng.bit_generator.state})
        tracer.finish("completed")

        phi = (n_kw + self.beta) / (n_k[:, None] + beta_sum)
        theta = (n_dk + self.alpha) / (
            n_dk.sum(axis=1, keepdims=True) + self.alpha * k)
        rho = n_k / max(n_k.sum(), 1)
        ll = _ll_from_counts(n_kw, phi)
        self.model_ = LDAModel(phi=phi, theta=theta, rho=rho,
                               assignments=assignments, log_likelihood=ll)
        return self.model_

    def _sweep(self, units, assignments, n_dk, n_kw, n_k, beta_sum,
               rng) -> None:
        """One blocked Gibbs sweep (fast kernel), mutating counts in place.

        Counts are transcribed to Python lists for the sweep — ``n_wk``
        transposed so each word's k-vector is one row — and written back
        at the end; all randomness is one batched uniform draw per
        document, consumed by an inverse-CDF scan over the cumulative
        unnormalized conditional.
        """
        k = self.num_topics
        alpha = self.alpha
        beta = self.beta
        topics = range(k)
        n_dk_l = n_dk.tolist()
        n_wk_l = n_kw.T.tolist()
        n_k_l = n_k.tolist()
        for d, doc_units in enumerate(units):
            if not doc_units:
                continue
            labels = assignments[d]
            labels_l = labels.tolist()
            row_d = n_dk_l[d]
            draws = rng.random(len(doc_units)).tolist()
            for u, unit in enumerate(doc_units):
                z_old = labels_l[u]
                size = len(unit)
                row_d[z_old] -= size
                n_k_l[z_old] -= size
                for w in unit:
                    n_wk_l[w][z_old] -= 1

                # Joint conditional for the whole phrase instance, in
                # linear space: the document factor once, one topic-word
                # factor per token with the denominator offset by the
                # token's position (Eq. for PhraseLDA's joint draw).
                if size == 1:
                    row_w = n_wk_l[unit[0]]
                    p = [(row_d[z] + alpha) * (row_w[z] + beta)
                         / (n_k_l[z] + beta_sum) for z in topics]
                else:
                    p = [row_d[z] + alpha for z in topics]
                    for offset, w in enumerate(unit):
                        row_w = n_wk_l[w]
                        for z in topics:
                            p[z] *= (row_w[z] + beta) \
                                / (n_k_l[z] + beta_sum + offset)

                total = 0.0
                cumulative = p
                for z in topics:
                    total += p[z]
                    cumulative[z] = total
                target = draws[u] * total
                z_new = 0
                while z_new < k - 1 and cumulative[z_new] <= target:
                    z_new += 1

                labels_l[u] = z_new
                row_d[z_new] += size
                n_k_l[z_new] += size
                for w in unit:
                    n_wk_l[w][z_new] += 1
            labels[:] = labels_l
        n_dk[:] = n_dk_l
        n_kw[:] = np.asarray(n_wk_l, dtype=n_kw.dtype).T
        n_k[:] = n_k_l

    def require_model(self) -> LDAModel:
        """Return the fitted model or raise :class:`NotFittedError`."""
        if self.model_ is None:
            raise NotFittedError("call fit() first")
        return self.model_
