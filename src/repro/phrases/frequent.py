"""Frequent contiguous phrase mining (Algorithm 1, Section 4.3.1).

Collects aggregate counts of all contiguous token sequences that meet a
minimum support threshold, using two prunings:

* *position-based Apriori* (downward closure): a position stays active at
  length n only if the length-(n-1) phrase starting there is frequent;
* *data antimonotonicity*: a chunk with no active positions is dropped
  from further consideration.

Chunks (text between phrase-invariant punctuation) are processed
independently, so phrases never cross punctuation, and the worst case per
chunk is quadratic in the (small) chunk length — linear overall.

The kernel runs over the corpus's own flat token array, one phrase
length per round: both prunings become one boolean mask per
round, and counting is one ``np.unique`` over integer n-gram keys
(see :func:`_mine_flat`).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..corpus import Corpus
from ..errors import ConfigurationError, DataError
from ..obs import inc, timed

Phrase = Tuple[int, ...]

#: Default capacity of the per-instance merge-significance LRU cache.
MERGE_CACHE_CAPACITY = 1 << 18


class PhraseCounts:
    """Frequent-phrase counts plus the corpus constants rankers need.

    Attributes:
        counts: mapping from phrase (tuple of token ids) to its frequency;
            contains every phrase of length >= 1 meeting ``min_support``.
        min_support: the threshold used while mining.
        num_documents: N, the number of documents in the corpus.
        num_tokens: L, the total token count of the corpus.
        merge_cache: LRU memo for :func:`~repro.phrases.significance.
            merge_significance` — adjacent phrase pairs repeat heavily
            across a corpus, so segmentation hits it constantly.  It is
            derived state: dropped when pickling and rebuilt lazily.
    """

    def __init__(self, counts: Dict[Phrase, int], min_support: int,
                 num_documents: int, num_tokens: int,
                 merge_cache_capacity: int = MERGE_CACHE_CAPACITY) -> None:
        self.counts = counts
        self.min_support = min_support
        self.num_documents = num_documents
        self.num_tokens = num_tokens
        self.merge_cache_capacity = merge_cache_capacity
        self.merge_cache: "OrderedDict[Tuple[Phrase, Phrase], float]" = \
            OrderedDict()

    def __getstate__(self) -> dict:
        """Pickle without the (re-derivable) significance cache."""
        state = self.__dict__.copy()
        state["merge_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.merge_cache = OrderedDict()

    def frequency(self, phrase: Sequence[int]) -> int:
        """f(P): the mined count of ``phrase`` (0 when infrequent)."""
        return self.counts.get(tuple(phrase), 0)

    def phrases(self, min_length: int = 1,
                max_length: int = 10**9) -> List[Phrase]:
        """All frequent phrases with length in [min_length, max_length]."""
        return [p for p in self.counts
                if min_length <= len(p) <= max_length]

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, phrase: Sequence[int]) -> bool:
        return tuple(phrase) in self.counts


def mine_frequent_phrases(corpus: Corpus,
                          min_support: int = 5,
                          max_length: int = 6,
                          merge_cache_capacity: int = MERGE_CACHE_CAPACITY,
                          ) -> PhraseCounts:
    """Run Algorithm 1 over ``corpus``.

    Args:
        corpus: tokenized corpus; each document's chunks are mined
            independently, counts aggregate corpus-wide.
        min_support: mu, the minimum frequency for a phrase to be kept.
        max_length: safety cap on phrase length (the algorithm terminates
            naturally well before this on real text).
        merge_cache_capacity: LRU bound of the merge-significance memo
            carried by the returned counts.

    Raises:
        ConfigurationError: ``min_support`` or ``max_length`` below 1.
    """
    _check_thresholds(min_support, max_length)
    return _mine(corpus.tokens, corpus.chunk_lengths, min_support,
                 max_length, num_documents=len(corpus),
                 num_tokens=corpus.num_tokens,
                 merge_cache_capacity=merge_cache_capacity)


def mine_frequent_phrases_from_chunks(chunks: Sequence[Sequence[int]],
                                      min_support: int,
                                      max_length: int = 6,
                                      num_documents: int = 0,
                                      num_tokens: int = 0,
                                      merge_cache_capacity: int =
                                      MERGE_CACHE_CAPACITY) -> PhraseCounts:
    """Algorithm 1 on raw token-id chunks (corpus-free entry point).

    Raises:
        ConfigurationError: ``min_support`` or ``max_length`` below 1.
        DataError: a token id that is not a non-negative integer.
    """
    _check_thresholds(min_support, max_length)
    lengths = np.fromiter(map(len, chunks), dtype=np.int64,
                          count=len(chunks))
    tokens = np.asarray(list(chain.from_iterable(chunks)))
    if tokens.size == 0:
        tokens = np.zeros(0, dtype=np.int64)
    elif tokens.dtype.kind not in "iu":
        raise DataError("token ids must be integers")
    elif tokens.min() < 0:
        raise DataError("token ids must be non-negative")
    return _mine(tokens, lengths, min_support, max_length,
                 num_documents=num_documents, num_tokens=num_tokens,
                 merge_cache_capacity=merge_cache_capacity)


def chunk_continues(lengths: np.ndarray) -> np.ndarray:
    """Per flat position: does the next token belong to the same chunk?"""
    ends = np.cumsum(lengths)
    follows = np.ones(int(ends[-1]) if len(ends) else 0, dtype=bool)
    follows[ends[lengths > 0] - 1] = False
    return follows


def phrase_matrix(phrases: Sequence[Phrase], fill: int,
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Phrase lengths, and the phrases as the rows of one int64 matrix
    padded with ``fill`` to the longest one."""
    size = np.fromiter(map(len, phrases), dtype=np.int64,
                       count=len(phrases))
    rows = np.full((len(phrases), int(size.max(initial=0))), fill,
                   dtype=np.int64)
    rows[np.arange(rows.shape[1]) < size[:, None]] = np.fromiter(
        chain.from_iterable(phrases), dtype=np.int64, count=int(size.sum()))
    return size, rows


def _check_thresholds(min_support: int, max_length: int) -> None:
    if min_support < 1:
        raise ConfigurationError("min_support must be >= 1")
    if max_length < 1:
        raise ConfigurationError("max_length must be >= 1")


def _mine(tokens: np.ndarray, lengths: np.ndarray, min_support: int,
          max_length: int, num_documents: int, num_tokens: int,
          merge_cache_capacity: int) -> PhraseCounts:
    with timed("topmine.frequent_mining"):
        counts = _mine_flat(tokens, chunk_continues(lengths), min_support,
                            max_length)
    inc("topmine.frequent_phrases", len(counts))
    return PhraseCounts(counts=counts, min_support=min_support,
                        num_documents=num_documents, num_tokens=num_tokens,
                        merge_cache_capacity=merge_cache_capacity)


def _first_seen_frequent(keys: np.ndarray, min_support: int,
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray, np.ndarray]:
    """Number the distinct ``keys`` meeting ``min_support`` as first seen.

    Returns ``(distinct, kept, counts, ids, inverse)``: the sorted
    distinct keys; the indices of the frequent ones among them, in the
    order their first occurrences appear in ``keys``; those keys' counts;
    per position of ``keys``, the rank of its key in ``kept`` (``-1``
    when infrequent); and per position, the index of its key in
    ``distinct``.
    """
    distinct, first, inverse, count = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    kept = np.flatnonzero(count >= min_support)
    kept = kept[np.argsort(first[kept], kind="stable")]
    rank = np.full(len(distinct), -1, dtype=np.int64)
    rank[kept] = np.arange(len(kept))
    return distinct, kept, count[kept], rank[inverse], inverse


def _mine_flat(tokens: np.ndarray, follows: np.ndarray, min_support: int,
               max_length: int) -> Dict[Phrase, int]:
    """Algorithm 1 over one flat token array, one phrase length per round.

    An n-gram is counted at a position exactly when its (n-1)-prefix and
    its (n-1)-suffix are both frequent (the loop's position-based Apriori
    on both ends).  Each position carries the dense id of the frequent
    (n-1)-gram starting there, so a round is one ``np.unique`` over the
    keys ``prefix_id * V + next_token`` (V distinct tokens): exact
    integer counts with keys that stay small at any length.  Phrases
    enter the dict by length, then by first occurrence, the insertion
    order of the per-chunk loop.
    """
    if not len(tokens):
        return {}
    distinct, kept, count, gid, token_ids = _first_seen_frequent(
        tokens, min_support)
    values = distinct.tolist()
    phrases: List[Phrase] = [(values[t],) for t in kept.tolist()]
    counts: Dict[Phrase, int] = dict(zip(phrases, count.tolist()))
    for length in range(2, max_length + 1):
        # gid[p + 1] >= 0 also puts the n-gram's last token in p's chunk.
        start = np.flatnonzero((gid[:-1] >= 0) & (gid[1:] >= 0)
                               & follows[:-1])
        if not len(start):
            break
        keys = gid[start] * len(values) + token_ids[start + length - 1]
        distinct, kept, count, ids, _ = _first_seen_frequent(keys,
                                                             min_support)
        if not len(kept):
            break
        prefix, last = np.divmod(distinct[kept], len(values))
        phrases = [phrases[p] + (values[t],)
                   for p, t in zip(prefix.tolist(), last.tolist())]
        counts.update(zip(phrases, count.tolist()))
        gid = np.full(len(tokens), -1, dtype=np.int64)
        gid[start] = ids
    return counts
