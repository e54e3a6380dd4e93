"""Per-shard moment sketches: one count per shard, in-order merge.

Each shard's contribution to the STROD moments is captured by a
:class:`~repro.strod.MomentSketch` built over that shard's documents
alone, by one count over the shard's token array.  Because the sketch
merge is **exactly associative**, the in-order merge of per-shard
sketches is bit-identical to a sketch built over the whole log in one
pass.

:func:`sketch_fingerprint` ties a sketch to the shard range and vocab
version it was built from, so a sketch rebuilt from the log can be
checked against the one a checkpoint or an artifact recorded.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Union

from ..corpus import Corpus
from ..errors import DataError
from ..strod import MomentSketch
from ..strod.moments import token_arrays

__all__ = [
    "build_shard_sketches",
    "merge_sketches",
    "sketch_fingerprint",
]

#: A shard's documents: a corpus (its ``tokens`` and ``doc_offsets`` are
#: read in place) or token-id documents.
ShardDocuments = Union[Corpus, Sequence[Sequence[int]]]


def build_shard_sketches(shards: Sequence[ShardDocuments],
                         vocab_size: int, min_length: int = 3,
                         ) -> List[MomentSketch]:
    """One :class:`MomentSketch` per shard, in shard order."""
    sketches = []
    for shard in shards:
        tokens, offsets = ((shard.tokens, shard.doc_offsets)
                           if isinstance(shard, Corpus)
                           else token_arrays(shard))
        sketches.append(MomentSketch.from_tokens(
            tokens, offsets, vocab_size, min_length=min_length))
    return sketches


def merge_sketches(sketches: Sequence[MomentSketch]) -> MomentSketch:
    """Fold per-shard sketches left-to-right (exactly associative).

    The result is bit-identical to a sketch built over the concatenated
    shards in one pass; grouping does not matter, only the shard order.
    """
    if not sketches:
        raise DataError("cannot merge an empty sketch list")
    return MomentSketch.concatenate(sketches)


def sketch_fingerprint(sketch: MomentSketch, num_shards: int,
                       vocab_version: int) -> Dict[str, Any]:
    """Bind a sketch to the exact log prefix it summarizes.

    The returned record travels with every checkpoint and exported
    artifact; a consumer comparing it against a store's manifest can
    tell whether the sketch covers shards ``[0, num_shards)`` at
    ``vocab_version``.
    """
    return {
        "sketch": sketch.fingerprint(),
        "num_shards": int(num_shards),
        "vocab_version": int(vocab_version),
        "vocab_size": int(sketch.vocab_size),
        "num_docs": int(sketch.num_docs),
    }
