"""Sparse second-moment whitening for large vocabularies (Section 7.3.2).

The dense M2 of :mod:`repro.strod.moments` is O(V^2) memory.  For large
vocabularies the pair-count matrix is sparse (documents touch few
words), and the Dirichlet correction is a rank-one update — so the top-k
eigendecomposition needed for whitening can run on a
``LinearOperator`` that never materializes M2:

    M2 @ v  =  S @ v  -  c * m1 * (m1 @ v),      c = alpha0/(alpha0+1)

with S the sparse debiased pair-moment matrix
(:func:`repro.strod.moments.sparse_pair_moment`, the same kernel the
dense M2 densifies).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from ..errors import ConfigurationError
from ..utils import RandomState, ensure_rng
from .moments import CountRows, first_moment, sparse_pair_moment


def compute_whitener_sparse(rows: CountRows, vocab_size: int,
                            alpha0: float,
                            num_topics: int,
                            seed: RandomState = None,
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whitening matrices from the implicit (sparse + rank-one) M2.

    Returns (whitener W, unwhitener B, m1); W and B satisfy the same
    contracts as :func:`repro.strod.moments.compute_whitener`.  The
    Lanczos start vector is drawn from ``seed``, so a fixed seed gives
    the same bits on every call (ARPACK's own start vector comes from
    state it keeps across calls).
    """
    if num_topics >= vocab_size:
        raise ConfigurationError("num_topics must be < vocab_size")
    pair = sparse_pair_moment(rows, vocab_size)
    m1 = first_moment(rows, vocab_size)
    correction = alpha0 / (alpha0 + 1)

    def matvec(vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector).ravel()
        return pair @ vector - correction * m1 * float(m1 @ vector)

    operator = LinearOperator((vocab_size, vocab_size), matvec=matvec,
                              rmatvec=matvec, dtype=float)
    start = ensure_rng(seed).uniform(-1.0, 1.0, size=vocab_size)
    eigenvalues, eigenvectors = eigsh(operator, k=num_topics, which="LA",
                                      v0=start)
    order = np.argsort(eigenvalues)[::-1]
    top_values = np.maximum(eigenvalues[order], 1e-12)
    top_vectors = eigenvectors[:, order]
    whitener = top_vectors / np.sqrt(top_values)[None, :]
    unwhitener = top_vectors * np.sqrt(top_values)[None, :]
    return whitener, unwhitener, m1
