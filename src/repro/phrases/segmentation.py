"""Bottom-up phrase construction / document segmentation (Algorithm 2).

Each document chunk starts as a sequence of single-token phrase
instances.  The pair of *adjacent* instances whose merge has the highest
significance (Eq. 4.7) is merged, repeatedly, until no candidate merge
reaches the threshold ``alpha``.  The surviving instances form a partition
of the document — its "bag of phrases" — which implicitly filters the
quadratic candidate set down to at most a linear number of true phrases.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from ..corpus import Corpus, Document
from ..obs import inc, timed
from .frequent import PhraseCounts
from .significance import NEVER, MergeScorer, make_merge_scorer

Phrase = Tuple[int, ...]


def segment_chunk(chunk: Sequence[int],
                  counts: PhraseCounts,
                  alpha: float = 2.0,
                  scorer: Optional[MergeScorer] = None) -> List[Phrase]:
    """Partition one token chunk into phrases (Algorithm 2).

    Uses a max-heap of candidate adjacent merges keyed by significance;
    stale entries are skipped via a version counter per slot, giving the
    O(n log n)-per-chunk behaviour described in the paper.  Pass a
    pre-bound ``scorer`` (:func:`~repro.phrases.significance.
    make_merge_scorer`) to amortize its binding cost and metric flushes
    across many chunks; without one, a chunk-local scorer is created and
    flushed before returning.
    """
    phrases: List[Phrase] = [(tok,) for tok in chunk]
    if len(phrases) < 2:
        return phrases
    local_scorer = scorer is None
    if scorer is None:
        scorer = make_merge_scorer(counts)

    # Doubly linked list over slots; merging into the left slot.
    next_slot = list(range(1, len(phrases))) + [-1]
    prev_slot = [-1] + list(range(len(phrases) - 1))
    alive = [True] * len(phrases)
    version = [0] * len(phrases)

    heap: List[Tuple[float, int, int]] = []

    def push(slot: int) -> None:
        nslot = next_slot[slot]
        if nslot == -1:
            return
        sig = scorer(phrases[slot], phrases[nslot])
        if sig > NEVER:
            heapq.heappush(heap, (-sig, slot, version[slot]))

    for slot in range(len(phrases) - 1):
        push(slot)

    while heap:
        neg_sig, slot, ver = heapq.heappop(heap)
        if not alive[slot] or version[slot] != ver:
            continue
        if -neg_sig < alpha:
            break
        nslot = next_slot[slot]
        if nslot == -1 or not alive[nslot]:
            continue
        # Merge slot and nslot into slot.
        phrases[slot] = phrases[slot] + phrases[nslot]
        alive[nslot] = False
        next_slot[slot] = next_slot[nslot]
        if next_slot[slot] != -1:
            prev_slot[next_slot[slot]] = slot
        version[slot] += 1
        push(slot)
        pslot = prev_slot[slot]
        if pslot != -1 and alive[pslot]:
            version[pslot] += 1
            push(pslot)

    if local_scorer:
        scorer.flush()
    return [phrases[i] for i in range(len(phrases)) if alive[i]]


def segment_document(doc: Document,
                     counts: PhraseCounts,
                     alpha: float = 2.0,
                     scorer: Optional[MergeScorer] = None) -> List[Phrase]:
    """Segment every chunk of ``doc`` and concatenate the partitions."""
    local_scorer = scorer is None
    if scorer is None:
        scorer = make_merge_scorer(counts)
    result: List[Phrase] = []
    for chunk in doc.chunks:
        result.extend(segment_chunk(chunk, counts, alpha=alpha,
                                    scorer=scorer))
    if local_scorer:
        scorer.flush()
    return result


def segment_corpus(corpus: Corpus,
                   counts: PhraseCounts,
                   alpha: float = 2.0) -> List[List[Phrase]]:
    """Bag-of-phrases partition for every document of ``corpus``."""
    with timed("topmine.segmentation"):
        partitions = [segment_document(doc, counts, alpha=alpha)
                      for doc in corpus]
    inc("topmine.segmented_documents", len(partitions))
    inc("topmine.phrase_instances",
        sum(len(partition) for partition in partitions))
    return partitions


def partition_is_valid(doc: Document, partition: List[Phrase]) -> bool:
    """Check the partition property: concatenation reproduces the document.

    This is Definition 4's invariant and is exercised by the property
    tests.
    """
    flattened = [tok for phrase in partition for tok in phrase]
    return flattened == doc.tokens
