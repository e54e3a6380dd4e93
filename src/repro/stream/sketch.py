"""Per-shard moment sketches: parallel build, in-order merge.

Each shard's contribution to the STROD moments is captured by a
:class:`~repro.strod.MomentSketch` built over that shard's documents
alone, by one count over the shard's token array.  Sketch construction
is embarrassingly parallel and runs through :func:`repro.parallel.pmap`
(order-preserving, graceful serial fallback), and because the sketch
merge is **exactly associative**, the in-order merge of per-shard
sketches is bit-identical to a sketch built over the whole log in one
pass — for any worker count.

:func:`sketch_fingerprint` ties a sketch to the shard range and vocab
version it was built from, so a sketch rebuilt from the log can be
checked against the one a checkpoint or an artifact recorded.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..corpus import Corpus
from ..errors import DataError
from ..parallel import pmap
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


def _sketch_shard(shared: Tuple[int, int],
                  arrays: Tuple[np.ndarray, np.ndarray]) -> Dict[str, Any]:
    """pmap worker: sketch one shard's token array."""
    vocab_size, min_length = shared
    return MomentSketch.from_tokens(*arrays, vocab_size,
                                    min_length=min_length).to_state()


def build_shard_sketches(shards: Sequence[ShardDocuments],
                         vocab_size: int, min_length: int = 3,
                         workers: Optional[int] = None,
                         ) -> List[MomentSketch]:
    """One :class:`MomentSketch` per shard, built in parallel.

    Results come back in shard order regardless of worker scheduling.
    """
    arrays = [(shard.tokens, shard.doc_offsets) if isinstance(shard, Corpus)
              else token_arrays(shard) for shard in shards]
    states = pmap(_sketch_shard, arrays, shared=(vocab_size, min_length),
                  workers=workers, label="stream.sketch")
    return [MomentSketch.from_state(state) for state in states]


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
