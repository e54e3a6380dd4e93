"""Empirical word moments for moment-based LDA inference (Section 7.3.1).

For LDA with Dirichlet prior alpha (alpha0 = sum(alpha)) the population
moments satisfy

    M2 = E[x1 (x) x2] - alpha0/(alpha0+1) M1 (x) M1
       = sum_z  pi_z      mu_z (x) mu_z,        pi_z  = a_z/(a0 (a0+1))
    M3 = E[x1 (x) x2 (x) x3] - (cross terms)  = sum_z pit_z mu_z^(x)3,
                                       pit_z = 2 a_z/(a0 (a0+1) (a0+2))

where x1, x2, x3 are distinct word draws of one document.  The empirical
estimators debias repeated-word effects with the standard count-correction
identities; M3 is never materialized — it is only ever *applied* to the
(V, k) whitening matrix, which is the scalability improvement of
Section 7.3.2 (cost O(nnz * k + (D + V) * k^3) over D documents).

Every estimator runs on one CSR count matrix C (documents x words,
sorted word ids per row): a solve builds it once with
:func:`count_matrix`, and a sequence of per-document ``(ids, counts)``
rows (a :class:`MomentSketch`, :func:`word_count_rows`) is concatenated
into one.  Each moment is then a handful of sparse and dense matrix
products over all documents at once instead of a loop over documents.
"""

from __future__ import annotations

import zlib
from itertools import chain, compress
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import csr_matrix, diags, issparse

from ..contracts import MOMENT_SKETCH_V1
from ..errors import ConfigurationError, DataError

#: Per-document word counts: a CSR count matrix (documents x words) or
#: a sequence of ``(word ids, counts)`` rows, one per document.
CountRows = Union[csr_matrix, Sequence[Tuple[np.ndarray, np.ndarray]]]


def count_matrix(docs: Sequence[Sequence[int]], vocab_size: int,
                 min_length: int = 3) -> csr_matrix:
    """Word counts of every document of ``min_length`` or more tokens.

    One CSR row per kept document, in input order, with sorted word ids
    and float counts.  The tokens are read into one flat array; there
    are no per-document arrays.  Token ids outside ``[0, vocab_size)``
    in a kept document raise :class:`DataError`.
    """
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
    keep = lengths >= min_length
    lengths = lengths[keep]
    tokens = np.fromiter(chain.from_iterable(compress(docs, keep.tolist())),
                         dtype=np.int64, count=int(lengths.sum()))
    if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab_size):
        raise DataError("token id outside vocabulary")
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    counts = csr_matrix((np.ones(tokens.size), tokens.astype(np.int32),
                         indptr), shape=(len(lengths), vocab_size))
    counts.sum_duplicates()
    return counts


def word_count_rows(docs: Sequence[Sequence[int]], vocab_size: int,
                    min_length: int = 3) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-document sparse counts: (word ids, counts), filtering short docs.

    Documents with fewer than ``min_length`` tokens cannot contribute to
    the third moment and are dropped (the estimator needs three distinct
    draws).  The rows are views into one :func:`count_matrix`.
    """
    counts = count_matrix(docs, vocab_size, min_length)
    bounds = counts.indptr.tolist()
    return [(counts.indices[start:stop], counts.data[start:stop])
            for start, stop in zip(bounds[:-1], bounds[1:])]


def _as_count_matrix(rows: CountRows, vocab_size: int) -> csr_matrix:
    """``rows`` as one CSR count matrix (a CSR input is returned as is)."""
    if issparse(rows):
        return rows
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(ids) for ids, _ in rows], out=indptr[1:])
    if rows:
        indices = np.concatenate([ids for ids, _ in rows])
        data = np.concatenate([counts for _, counts in rows])
    else:
        indices, data = np.zeros(0, dtype=np.int32), np.zeros(0)
    return csr_matrix((data.astype(float, copy=False), indices, indptr),
                      shape=(len(rows), vocab_size))


def _doc_lengths(counts: csr_matrix) -> np.ndarray:
    """Tokens per document: row sums, exact for integer counts."""
    return np.asarray(counts.sum(axis=1), dtype=float).ravel()


MOMENT_SKETCH_SCHEMA = MOMENT_SKETCH_V1


class MomentSketch:
    """Mergeable, exactly-associative sketch of the STROD word moments.

    The M1/M2/M3 estimators are *averages over documents*, so the only
    state a shard needs to contribute is its per-document count rows.
    Floating-point addition is not associative, which rules out carrying
    partial moment sums if merges must be exact; instead the sketch
    stores the rows themselves (in arrival order) and evaluates moments
    lazily.  Merging is then row concatenation — exactly associative,
    and a sketch built over the whole corpus is bit-identical to the
    in-order merge of per-shard sketches (mirroring the
    ``repro.obs.QuantileSketch`` merge contract from PR 6).

    Row storage is O(total distinct words per doc); the dense moments
    are only materialized on demand, so shard partials stay cheap to
    build in workers, pickle, and checkpoint.
    """

    def __init__(self, vocab_size: int, min_length: int = 3) -> None:
        if vocab_size <= 0:
            raise ConfigurationError("vocab_size must be positive")
        if min_length < 3:
            raise ConfigurationError(
                "min_length must be >= 3: the third-moment estimator "
                "needs three distinct word draws per document")
        self.vocab_size = int(vocab_size)
        self.min_length = int(min_length)
        self.num_skipped = 0
        self._rows: List[Tuple[np.ndarray, np.ndarray]] = []

    # -- construction ---------------------------------------------------

    @classmethod
    def from_docs(cls, docs: Sequence[Sequence[int]], vocab_size: int,
                  min_length: int = 3) -> "MomentSketch":
        sketch = cls(vocab_size, min_length=min_length)
        sketch.update(docs)
        return sketch

    def update(self, docs: Sequence[Sequence[int]]) -> int:
        """Absorb a batch of encoded documents; returns rows added."""
        added = 0
        for doc in docs:
            arr = np.asarray(doc, dtype=np.int64)
            if len(arr) < self.min_length:
                self.num_skipped += 1
                continue
            if arr.min() < 0 or arr.max() >= self.vocab_size:
                raise DataError("token id outside vocabulary")
            ids, counts = np.unique(arr, return_counts=True)
            self._rows.append((ids, counts.astype(float)))
            added += 1
        return added

    def expand_vocab(self, vocab_size: int) -> None:
        """Grow the vocabulary (streams only ever append new words)."""
        if vocab_size < self.vocab_size:
            raise ConfigurationError(
                "cannot shrink a moment sketch vocabulary "
                f"({self.vocab_size} -> {vocab_size})")
        self.vocab_size = int(vocab_size)

    # -- merge (the associativity contract) -----------------------------

    def merge(self, other: "MomentSketch") -> "MomentSketch":
        """Pure merge: row concatenation, so exactly associative.

        Neither input is mutated.  Vocabularies may differ (a later
        shard sees a grown vocab); the result takes the larger one.
        """
        if other.min_length != self.min_length:
            raise ConfigurationError(
                "cannot merge moment sketches with different min_length")
        merged = MomentSketch(max(self.vocab_size, other.vocab_size),
                              min_length=self.min_length)
        merged._rows = self._rows + other._rows
        merged.num_skipped = self.num_skipped + other.num_skipped
        return merged

    # -- views ----------------------------------------------------------

    @property
    def num_docs(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The per-document count rows, in arrival order (do not mutate)."""
        return self._rows

    # -- moments --------------------------------------------------------

    def first_moment(self) -> np.ndarray:
        return first_moment(self._rows, self.vocab_size)

    def second_moment(self, alpha0: float) -> np.ndarray:
        return second_moment(self._rows, self.vocab_size, alpha0)

    def whitened_third_moment(self, whitener: np.ndarray,
                              alpha0: float) -> np.ndarray:
        return whitened_third_moment(self._rows, whitener,
                                     self.first_moment(), alpha0)

    # -- persistence ----------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """Flat-array snapshot for checkpointing (see repro.stream)."""
        if self._rows:
            ids = np.concatenate([ids for ids, _ in self._rows])
            counts = np.concatenate([counts for _, counts in self._rows])
            lengths = [len(row_ids) for row_ids, _ in self._rows]
        else:
            ids = np.zeros(0, dtype=np.int64)
            counts = np.zeros(0)
            lengths = []
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return {
            "schema": MOMENT_SKETCH_SCHEMA,
            "vocab_size": self.vocab_size,
            "min_length": self.min_length,
            "num_skipped": self.num_skipped,
            "row_ids": ids,
            "row_counts": counts,
            "row_offsets": offsets,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "MomentSketch":
        if state.get("schema") != MOMENT_SKETCH_SCHEMA:
            raise DataError(
                "state does not hold a moment-sketch document "
                f"(schema={state.get('schema')!r})")
        sketch = cls(int(state["vocab_size"]),
                     min_length=int(state["min_length"]))
        sketch.num_skipped = int(state["num_skipped"])
        ids = np.asarray(state["row_ids"], dtype=np.int64)
        counts = np.asarray(state["row_counts"], dtype=float)
        offsets = np.asarray(state["row_offsets"], dtype=np.int64)
        for start, stop in zip(offsets[:-1], offsets[1:]):
            sketch._rows.append((ids[start:stop].copy(),
                                 counts[start:stop].copy()))
        return sketch

    def fingerprint(self) -> str:
        """Content hash tying derived artifacts to this exact sketch."""
        state = self.to_state()
        crc = 0
        for key in ("row_ids", "row_counts", "row_offsets"):
            crc = zlib.crc32(np.ascontiguousarray(state[key]).tobytes(), crc)
        return (f"v{self.vocab_size}-d{self.num_docs}"
                f"-s{self.num_skipped}-{crc & 0xFFFFFFFF:08x}")


def first_moment(rows: CountRows, vocab_size: int) -> np.ndarray:
    """M1: the expected single-word distribution.

    One ``np.bincount`` adds every document's ``counts / length`` in row
    order, the order a per-document accumulation adds them in, so the
    result is bit-identical to it (drift detection compares M1s).
    """
    counts = _as_count_matrix(rows, vocab_size)
    lengths = np.repeat(_doc_lengths(counts), np.diff(counts.indptr))
    m1 = np.bincount(counts.indices, weights=counts.data / lengths,
                     minlength=vocab_size)
    return m1 / max(counts.shape[0], 1)


def sparse_pair_moment(rows: CountRows, vocab_size: int) -> csr_matrix:
    """The empirical E[x1 (x) x2] as a sparse symmetric matrix.

    Per document (c c^T - diag(c)) / (l (l-1)), averaged: with the
    weights w_d = 1 / (l_d (l_d - 1) n) that is

        C^T diag(w) C  -  diag(C^T w),

    one sparse product over the count matrix C.
    """
    counts = _as_count_matrix(rows, vocab_size)
    if counts.shape[0] == 0:
        return csr_matrix((vocab_size, vocab_size))
    lengths = _doc_lengths(counts)
    weights = 1.0 / (lengths * (lengths - 1) * counts.shape[0])
    pair = counts.T @ (diags(weights) @ counts)
    return (pair - diags(counts.T @ weights)).tocsr()


def second_moment(rows: CountRows, vocab_size: int,
                  alpha0: float) -> np.ndarray:
    """M2 (dense, V x V): pair moment with the Dirichlet correction.

    E[x1 (x) x2] is estimated per document as
    (c c^T - diag(c)) / (l (l-1)) — the unbiased estimator over ordered
    pairs of *distinct* token positions — by densifying
    :func:`sparse_pair_moment`.
    """
    counts = _as_count_matrix(rows, vocab_size)
    pair = sparse_pair_moment(counts, vocab_size).toarray()
    m1 = first_moment(counts, vocab_size)
    return pair - (alpha0 / (alpha0 + 1)) * np.outer(m1, m1)


def whitened_third_moment(rows: CountRows, whitener: np.ndarray,
                          m1: np.ndarray, alpha0: float) -> np.ndarray:
    """T = M3(W, W, W) in R^{k x k x k} without materializing M3.

    Uses the debiased per-document estimator of E[x1 (x) x2 (x) x3]

        [ y^(x)3  -  sum_i c_i (w_i (x) w_i (x) y + perms)
                  + 2 sum_i c_i w_i^(x)3 ] / (l (l-1) (l-2))

    with y = W^T c and w_i the i-th row of W, followed by the alpha0
    cross-term and M1^(x)3 corrections, all in the whitened k-dim space.
    All documents are handled at once from Y = C W (every y), with
    a_d = 1 / (l_d (l_d-1) (l_d-2)): the w-w-y term is
    sum_v w_v (x) w_v (x) z_v with Z = C^T diag(a) Y, its two
    permutations are transposes of it, and the w^(x)3 term weighs each
    word by u = C^T a.  Nothing of size documents x k^2 is built.
    """
    vocab_size, k = whitener.shape
    counts = _as_count_matrix(rows, vocab_size)
    num_docs = counts.shape[0]
    if num_docs == 0:
        raise DataError("no documents long enough for third-moment estimation")
    lengths = _doc_lengths(counts)
    inv_pairs = 1.0 / (lengths * (lengths - 1))
    inv_triples = 1.0 / (lengths * (lengths - 1) * (lengths - 2))
    w_outer = (whitener[:, :, None] * whitener[:, None, :]).reshape(
        vocab_size, k * k)
    y = counts @ whitener                             # (n, k)
    weighted_y = y * inv_triples[:, None]

    # Third-moment core.
    yyy = np.stack([(weighted_y * y[:, [i]]).T @ y for i in range(k)])
    wwy = (w_outer.T @ (counts.T @ weighted_y)).reshape(k, k, k)
    www = ((w_outer * (counts.T @ inv_triples)[:, None]).T
           @ whitener).reshape(k, k, k)
    tensor = (yyy - (wwy + wwy.transpose(0, 2, 1) + wwy.transpose(2, 0, 1))
              + 2.0 * www) / num_docs

    # Pair moment in whitened space (for the M1 cross terms).
    pair_with_m1 = ((y * inv_pairs[:, None]).T @ y
                    - (whitener * (counts.T @ inv_pairs)[:, None]).T
                    @ whitener) / num_docs

    wm1 = whitener.T @ m1                             # (k,)
    c1 = alpha0 / (alpha0 + 2)
    cross = (np.einsum("ij,l->ijl", pair_with_m1, wm1)
             + np.einsum("il,j->ijl", pair_with_m1, wm1)
             + np.einsum("jl,i->ijl", pair_with_m1, wm1))
    m1_cube = np.einsum("i,j,l->ijl", wm1, wm1, wm1)
    c2 = 2.0 * alpha0 ** 2 / ((alpha0 + 1) * (alpha0 + 2))
    return tensor - c1 * cross + c2 * m1_cube


def compute_whitener(m2: np.ndarray, num_topics: int,
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Whitening matrix W and un-whitening matrix B from M2.

    W = U S^{-1/2} over the top-k eigenpairs, so W^T M2 W = I_k;
    B = U S^{1/2} satisfies B v = (W^T)^+ v, mapping whitened
    eigenvectors back to the word simplex.
    """
    # M2 is symmetric; eigh returns ascending eigenvalues.
    eigenvalues, eigenvectors = np.linalg.eigh(m2)
    order = np.argsort(eigenvalues)[::-1][:num_topics]
    top_values = np.maximum(eigenvalues[order], 1e-12)
    top_vectors = eigenvectors[:, order]
    whitener = top_vectors / np.sqrt(top_values)[None, :]
    unwhitener = top_vectors * np.sqrt(top_values)[None, :]
    return whitener, unwhitener
