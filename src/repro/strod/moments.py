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
sorted word ids per row): :func:`document_counts` builds it from a flat
token array and document offsets (a corpus's own arrays),
:func:`count_matrix` from token-id documents, and a
:class:`MomentSketch` holds its rows as one.  Each moment is then a
handful of sparse and dense matrix products over all documents at once
instead of a loop over documents.  The estimators take the documents'
lengths (and M2 takes M1) from a caller that already has them, so one
STROD solve sums each row once.
"""

from __future__ import annotations

import zlib
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import csr_matrix, diags, issparse

from ..contracts import MOMENT_SKETCH_V1
from ..errors import ConfigurationError, DataError

#: Per-document word counts: a CSR count matrix (documents x words) or
#: a sequence of ``(word ids, counts)`` rows, one per document.
CountRows = Union[csr_matrix, Sequence[Tuple[np.ndarray, np.ndarray]]]


def token_arrays(docs: Sequence[Sequence[int]],
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Token-id documents as one flat int64 token array and offsets.

    Document ``d`` is ``tokens[offsets[d]:offsets[d + 1]]``, the layout
    of a :class:`~repro.corpus.Corpus`'s ``tokens`` and ``doc_offsets``.
    """
    offsets = np.zeros(len(docs) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, docs), dtype=np.int64, count=len(docs)),
              out=offsets[1:])
    tokens = np.fromiter(chain.from_iterable(docs), dtype=np.int64,
                         count=int(offsets[-1]))
    return tokens, offsets


def document_counts(tokens: np.ndarray, doc_offsets: np.ndarray,
                    vocab_size: int, min_length: int = 3) -> csr_matrix:
    """Word counts of every document of ``min_length`` or more tokens.

    Document ``d`` is ``tokens[doc_offsets[d]:doc_offsets[d + 1]]``
    (``doc_offsets[0] == 0``).  One CSR row per kept document, in
    document order, with sorted word ids and float counts, from one
    count over the token array.  Token ids outside ``[0, vocab_size)``
    in a kept document raise :class:`DataError`.
    """
    lengths = np.diff(doc_offsets)
    keep = lengths >= min_length
    if not keep.all():
        tokens = tokens[np.repeat(keep, lengths)]
        lengths = lengths[keep]
    if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab_size):
        raise DataError("token id outside vocabulary")
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    counts = csr_matrix((np.ones(tokens.size), tokens.astype(np.int32),
                         indptr), shape=(len(lengths), vocab_size))
    counts.sum_duplicates()
    return counts


def count_matrix(docs: Sequence[Sequence[int]], vocab_size: int,
                 min_length: int = 3) -> csr_matrix:
    """:func:`document_counts` of token-id documents."""
    return document_counts(*token_arrays(docs), vocab_size, min_length)


def count_rows(docs: Union[csr_matrix, Sequence[Sequence[int]]],
               vocab_size: int) -> csr_matrix:
    """Every document's count row: token-id documents counted by
    :func:`count_matrix`, or their documents x words count CSR itself."""
    if not issparse(docs):
        return count_matrix(docs, vocab_size, min_length=0)
    if docs.shape[1] != vocab_size:
        raise DataError(f"count matrix has {docs.shape[1]} columns for "
                        f"a vocabulary of {vocab_size}")
    return docs


def long_documents(docs: Union[csr_matrix, Sequence[Sequence[int]]],
                   vocab_size: int, min_length: int = 3,
                   ) -> Tuple[csr_matrix, np.ndarray]:
    """The count rows of the documents of ``min_length`` or more tokens,
    and their lengths.

    ``docs`` is token-id documents (counted by :func:`count_matrix`) or
    their documents x words count CSR, whose shorter rows are dropped.
    """
    counts = (count_rows(docs, vocab_size) if issparse(docs)
              else count_matrix(docs, vocab_size, min_length))
    lengths = _doc_lengths(counts)
    keep = lengths >= min_length
    if keep.all():
        return counts, lengths
    rows = np.flatnonzero(keep)
    return counts[rows], lengths[rows]


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

    The rows are one CSR held as three read-only arrays: int64 word ids
    (sorted within a row), float counts and int64 row offsets — the
    arrays :meth:`to_state` and :meth:`fingerprint` read in place.  A
    sketch is built by one count over a token array and merged by
    concatenating arrays; the dense moments are only materialized on
    demand.
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
        self._adopt(np.zeros(0, dtype=np.int64), np.zeros(0),
                    np.zeros(1, dtype=np.int64))

    def _adopt(self, ids: np.ndarray, counts: np.ndarray,
               offsets: np.ndarray) -> None:
        for array in (ids, counts, offsets):
            array.flags.writeable = False
        self._ids, self._counts, self._offsets = ids, counts, offsets

    # -- construction ---------------------------------------------------

    @classmethod
    def from_tokens(cls, tokens: np.ndarray, doc_offsets: np.ndarray,
                    vocab_size: int, min_length: int = 3) -> "MomentSketch":
        """Sketch the documents ``tokens[doc_offsets[d]:doc_offsets[d+1]]``
        (a corpus's ``tokens`` and ``doc_offsets``) in one count."""
        sketch = cls(vocab_size, min_length=min_length)
        counts = document_counts(tokens, doc_offsets, vocab_size,
                                 min_length)
        sketch._adopt(counts.indices.astype(np.int64), counts.data,
                      counts.indptr.astype(np.int64))
        sketch.num_skipped = len(doc_offsets) - 1 - counts.shape[0]
        return sketch

    @classmethod
    def from_docs(cls, docs: Sequence[Sequence[int]], vocab_size: int,
                  min_length: int = 3) -> "MomentSketch":
        return cls.from_tokens(*token_arrays(docs), vocab_size,
                               min_length=min_length)

    def update(self, docs: Sequence[Sequence[int]]) -> int:
        """Absorb a batch of encoded documents; returns rows added."""
        batch = MomentSketch.from_docs(docs, self.vocab_size,
                                       min_length=self.min_length)
        grown = self.merge(batch)
        self._adopt(grown._ids, grown._counts, grown._offsets)
        self.num_skipped = grown.num_skipped
        return batch.num_docs

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
        return MomentSketch.concatenate([self, other])

    @classmethod
    def concatenate(cls, sketches: Sequence["MomentSketch"],
                    ) -> "MomentSketch":
        """The rows of ``sketches`` in order: their left-to-right merge,
        joined in one pass."""
        if len({sketch.min_length for sketch in sketches}) != 1:
            raise ConfigurationError(
                "cannot merge moment sketches with different min_length")
        merged = cls(max(sketch.vocab_size for sketch in sketches),
                     min_length=sketches[0].min_length)
        ends = np.cumsum([sketch._offsets[-1] for sketch in sketches])
        merged._adopt(
            np.concatenate([sketch._ids for sketch in sketches]),
            np.concatenate([sketch._counts for sketch in sketches]),
            np.concatenate([sketches[0]._offsets] + [
                sketch._offsets[1:] + end
                for sketch, end in zip(sketches[1:], ends[:-1])]))
        merged.num_skipped = sum(sketch.num_skipped for sketch in sketches)
        return merged

    # -- views ----------------------------------------------------------

    @property
    def num_docs(self) -> int:
        return len(self._offsets) - 1

    def count_matrix(self) -> csr_matrix:
        """The rows, in arrival order, as one documents x words CSR."""
        return csr_matrix((self._counts, self._ids, self._offsets),
                          shape=(self.num_docs, self.vocab_size))

    # -- moments --------------------------------------------------------

    def first_moment(self) -> np.ndarray:
        return first_moment(self.count_matrix(), self.vocab_size)

    def second_moment(self, alpha0: float) -> np.ndarray:
        return second_moment(self.count_matrix(), self.vocab_size, alpha0)

    def whitened_third_moment(self, whitener: np.ndarray,
                              alpha0: float) -> np.ndarray:
        counts = self.count_matrix()
        return whitened_third_moment(
            counts, whitener, first_moment(counts, self.vocab_size), alpha0)

    # -- persistence ----------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """Flat-array snapshot (the sketch's own read-only arrays)."""
        return {
            "schema": MOMENT_SKETCH_SCHEMA,
            "vocab_size": self.vocab_size,
            "min_length": self.min_length,
            "num_skipped": self.num_skipped,
            "row_ids": self._ids,
            "row_counts": self._counts,
            "row_offsets": self._offsets,
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
        ids = np.array(state["row_ids"], dtype=np.int64)
        counts = np.array(state["row_counts"], dtype=float)
        offsets = np.array(state["row_offsets"], dtype=np.int64)
        if (offsets.ndim != 1 or not len(offsets) or offsets[0] != 0
                or (np.diff(offsets) < 0).any()
                or not offsets[-1] == len(ids) == len(counts)
                or (len(ids) and (ids.min() < 0
                                  or ids.max() >= sketch.vocab_size))):
            raise DataError("moment-sketch state holds inconsistent rows")
        sketch._adopt(ids, counts, offsets)
        return sketch

    def fingerprint(self) -> str:
        """Content hash tying derived artifacts to this exact sketch."""
        crc = 0
        for array in (self._ids, self._counts, self._offsets):
            crc = zlib.crc32(array, crc)
        return (f"v{self.vocab_size}-d{self.num_docs}"
                f"-s{self.num_skipped}-{crc & 0xFFFFFFFF:08x}")


def first_moment(rows: CountRows, vocab_size: int, *,
                 lengths: Optional[np.ndarray] = None) -> np.ndarray:
    """M1: the expected single-word distribution.

    One ``np.bincount`` adds every document's ``counts / length`` in row
    order, the order a per-document accumulation adds them in, so the
    result is bit-identical to it (drift detection compares M1s).
    ``lengths`` are the rows' token counts, when the caller has them.
    """
    counts = _as_count_matrix(rows, vocab_size)
    if lengths is None:
        lengths = _doc_lengths(counts)
    per_entry = np.repeat(lengths, np.diff(counts.indptr))
    m1 = np.bincount(counts.indices, weights=counts.data / per_entry,
                     minlength=vocab_size)
    return m1 / max(counts.shape[0], 1)


def _pair_terms(counts: csr_matrix, lengths: np.ndarray,
                ) -> Tuple[csr_matrix, np.ndarray]:
    """C^T diag(w) C and C^T w for w_d = 1 / (l_d (l_d - 1) n).

    diag(w) C is C with each row's data scaled by its weight — the
    products a ``diags(w) @ C`` SpGEMM forms, without the SpGEMM.
    """
    weights = 1.0 / (lengths * (lengths - 1) * counts.shape[0])
    scaled = csr_matrix(
        (counts.data * np.repeat(weights, np.diff(counts.indptr)),
         counts.indices, counts.indptr), shape=counts.shape)
    return counts.T @ scaled, counts.T @ weights


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
    pair, diagonal = _pair_terms(counts, _doc_lengths(counts))
    return (pair - diags(diagonal)).tocsr()


def second_moment(rows: CountRows, vocab_size: int, alpha0: float, *,
                  lengths: Optional[np.ndarray] = None,
                  m1: Optional[np.ndarray] = None) -> np.ndarray:
    """M2 (dense, V x V): pair moment with the Dirichlet correction.

    E[x1 (x) x2] is estimated per document as
    (c c^T - diag(c)) / (l (l-1)) — the unbiased estimator over ordered
    pairs of *distinct* token positions — as :func:`sparse_pair_moment`
    densified, with its diagonal subtracted on the dense array.
    ``lengths`` and ``m1`` are the rows' token counts and M1, when the
    caller has them.
    """
    counts = _as_count_matrix(rows, vocab_size)
    if lengths is None:
        lengths = _doc_lengths(counts)
    if m1 is None:
        m1 = first_moment(counts, vocab_size, lengths=lengths)
    if counts.shape[0] == 0:
        pair = np.zeros((vocab_size, vocab_size))
    else:
        sparse_pair, diagonal = _pair_terms(counts, lengths)
        pair = sparse_pair.toarray()
        pair[np.diag_indices(vocab_size)] -= diagonal
    pair -= (alpha0 / (alpha0 + 1)) * np.outer(m1, m1)
    return pair


def whitened_third_moment(rows: CountRows, whitener: np.ndarray,
                          m1: np.ndarray, alpha0: float, *,
                          lengths: Optional[np.ndarray] = None,
                          ) -> np.ndarray:
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
    ``lengths`` are the rows' token counts, when the caller has them.
    """
    vocab_size, k = whitener.shape
    counts = _as_count_matrix(rows, vocab_size)
    num_docs = counts.shape[0]
    if num_docs == 0:
        raise DataError("no documents long enough for third-moment estimation")
    if lengths is None:
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
