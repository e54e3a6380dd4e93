"""Append-only corpus shards with a versioned vocab-delta log.

The batch pipeline freezes a corpus into one JSON dataset; the streaming
pipeline instead treats the corpus as an immutable log:

* documents arrive in **batches**; each batch becomes one CRC-framed,
  atomically-written shard file (``shards/shard-000042``) holding the
  encoded documents, framed with the same magic+CRC32+length protocol as
  solver checkpoints (:func:`repro.resilience.save_framed`);
* the vocabulary only ever **appends**; each batch that introduces new
  words writes one vocab-delta file (``vocab/vocab-000007.json``)
  recording the contiguous id range it added, so any past vocab version
  can be reconstructed by replaying the deltas in order;
* ``MANIFEST.json`` is the **commit point**: it is rewritten atomically
  after the shard and delta files are on disk.  A crash mid-batch
  leaves orphan files past the manifest's shard count; re-ingesting the
  same batch deterministically rewrites them byte-for-byte, so a killed
  ingest resumes bit-identically.

The store keeps every shard it writes or reads as arrays (a
:class:`Shard`: the shard's documents as a
:class:`~repro.corpus.Corpus` plus the vocabulary as of its commit), so
the pipeline sketches a new shard without reading it back and
:meth:`ShardStore.load_corpus` joins arrays instead of unpickling the
log.

Token ids are assigned in first-seen order across the whole log —
exactly the order :meth:`repro.corpus.Corpus.from_texts` would assign
over the concatenated batches — which is what makes a streamed corpus
interchangeable with its one-shot batch equivalent.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..contracts import SHARD_DIR_V1, SHARD_V1, VOCAB_DELTA_V1
from ..corpus import Corpus, Vocabulary
from ..corpus.tokenize import DEFAULT_STOPWORDS, tokenize_chunks
from ..errors import ConfigurationError, DataError
from ..obs import get_logger, inc, span
from ..resilience import atomic_write_json, load_framed, save_framed

__all__ = [
    "SHARD_DIR_SCHEMA",
    "SHARD_MAGIC",
    "SHARD_SCHEMA",
    "VOCAB_DELTA_SCHEMA",
    "Shard",
    "ShardStore",
    "is_shard_dir",
]

SHARD_DIR_SCHEMA = SHARD_DIR_V1
SHARD_SCHEMA = SHARD_V1
VOCAB_DELTA_SCHEMA = VOCAB_DELTA_V1

#: Frame magic for shard files (same protocol as checkpoints, distinct
#: magic so a shard can never be mistaken for a solver checkpoint).
SHARD_MAGIC = b"REPROSHRD\x00\x01"

logger = get_logger("stream.shards")


def is_shard_dir(path: str) -> bool:
    """True when ``path`` is a stream shard directory (has a manifest)."""
    manifest_path = os.path.join(path, "MANIFEST.json")
    if not os.path.isfile(manifest_path):
        return False
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return False
    return (isinstance(data, dict)
            and str(data.get("schema", "")).startswith("repro.stream/"))


@dataclass(frozen=True)
class Shard:
    """One committed shard, held in memory.

    Attributes:
        shard_id: its position in the log.
        corpus: its documents as arrays (token ids index the store's
            vocabulary as of the commit).
        vocab_version / vocab_size: the vocabulary after its commit.
    """

    shard_id: int
    corpus: Corpus
    vocab_version: int
    vocab_size: int


def _is_list(value: Any) -> bool:
    return isinstance(value, (list, tuple))


def _check_document(position: int, raw: Any) -> None:
    """Refuse a raw document the log cannot hold as given.

    Runs before the batch touches the vocabulary or the disk, so a
    refused batch leaves the store exactly as it was.  A bare string
    where a list is expected would otherwise be read one character per
    item.
    """
    where = f"stream document {position}"
    if not isinstance(raw, dict):
        raise DataError(f"{where} must be an object, "
                        f"got {type(raw).__name__}")
    if "text" in raw:
        if not isinstance(raw["text"], str):
            raise DataError(f"{where}: text is not a string: "
                            f"{raw['text']!r}")
    elif "chunks" in raw:
        chunks = raw["chunks"]
        if not _is_list(chunks) or not all(map(_is_list, chunks)):
            raise DataError(f"{where}: 'chunks' must be a list of token "
                            f"lists, got {chunks!r}")
    else:
        raise DataError(f"{where} needs a 'text' or 'chunks' field")
    entities = raw.get("entities") or {}
    if not isinstance(entities, dict):
        raise DataError(f"{where}: 'entities' must be an object")
    for entity_type, names in entities.items():
        if isinstance(names, str):
            raise DataError(
                f"{where}: entity type {entity_type!r} maps to the "
                f"string {names!r}; give a list of names")
        if not _is_list(names):
            raise DataError(f"{where}: entity type {entity_type!r} needs "
                            f"a list of names, got {names!r}")
    year = raw.get("year")
    if year is not None:
        if type(year) is bool or not isinstance(year, int):
            raise DataError(f"{where}: 'year' must be an integer, "
                            f"got {year!r}")
        if not -2**63 <= year < 2**63:
            raise DataError(f"{where}: 'year' {year!r} does not fit in "
                            f"64 bits")


class ShardStore:
    """The append-only document log backing a streaming ingest.

    Args:
        directory: the shard directory; created (with its manifest) when
            it does not exist yet.

    Raw documents are dicts with either ``"text"`` (tokenized with the
    corpus tokenizer) or ``"chunks"`` (pre-chunked token strings), plus
    optional ``"entities"`` / ``"year"`` / ``"label"`` exactly as in the
    batch dataset format.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._shards_dir = os.path.join(directory, "shards")
        self._vocab_dir = os.path.join(directory, "vocab")
        os.makedirs(self._shards_dir, exist_ok=True)
        os.makedirs(self._vocab_dir, exist_ok=True)
        self._manifest_path = os.path.join(directory, "MANIFEST.json")
        if os.path.exists(self._manifest_path):
            self._manifest = self._read_manifest()
        else:
            self._manifest = {
                "schema": SHARD_DIR_SCHEMA,
                "num_shards": 0,
                "num_documents": 0,
                "vocab_version": 0,
                "vocab_size": 0,
                "batch_keys": [],
                "shard_documents": [],
            }
            atomic_write_json(self._manifest_path, self._manifest, indent=2)
        self.vocabulary = self._load_vocabulary()
        self._shards: Dict[int, Shard] = {}

    # ------------------------------------------------------------ manifest
    def _read_manifest(self) -> Dict[str, Any]:
        with open(self._manifest_path, encoding="utf-8") as handle:
            try:
                manifest = json.load(handle)
            except json.JSONDecodeError as exc:
                raise DataError(f"{self._manifest_path} is not valid "
                                f"JSON: {exc}") from exc
        if not isinstance(manifest, dict) \
                or manifest.get("schema") != SHARD_DIR_SCHEMA:
            raise DataError(
                f"{self._manifest_path} is not a stream shard manifest "
                f"(schema={manifest.get('schema') if isinstance(manifest, dict) else None!r})")
        return manifest

    @property
    def num_shards(self) -> int:
        return int(self._manifest["num_shards"])

    @property
    def num_documents(self) -> int:
        return int(self._manifest["num_documents"])

    @property
    def vocab_version(self) -> int:
        return int(self._manifest["vocab_version"])

    # ---------------------------------------------------------- vocabulary
    def _vocab_path(self, version: int) -> str:
        return os.path.join(self._vocab_dir, f"vocab-{version:06d}.json")

    def _load_vocabulary(self) -> Vocabulary:
        """Replay the delta log into the current vocabulary."""
        vocabulary = Vocabulary()
        for version in range(1, self.vocab_version + 1):
            path = self._vocab_path(version)
            with open(path, encoding="utf-8") as handle:
                try:
                    delta = json.load(handle)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path} is not valid JSON: "
                                    f"{exc}") from exc
            if not isinstance(delta, dict) \
                    or delta.get("schema") != VOCAB_DELTA_SCHEMA:
                raise DataError(f"{path} is not a vocab-delta file")
            if delta["start_id"] != len(vocabulary):
                raise DataError(
                    f"{path}: vocab delta starts at id "
                    f"{delta['start_id']} but the replayed vocabulary "
                    f"has {len(vocabulary)} words (corrupt delta log)")
            for word in delta["words"]:
                vocabulary.add(word)
        if len(vocabulary) != int(self._manifest["vocab_size"]):
            raise DataError(
                f"{self.directory}: vocab delta log replays to "
                f"{len(vocabulary)} words but the manifest records "
                f"{self._manifest['vocab_size']}")
        return vocabulary

    # ------------------------------------------------------------- shards
    def _shard_path(self, shard_id: int) -> str:
        return os.path.join(self._shards_dir, f"shard-{shard_id:06d}")

    def _encode_document(self, raw: Dict[str, Any]) -> Dict[str, Any]:
        """One checked raw document as a shard record (grows the
        vocabulary by its new words)."""
        if "text" in raw:
            token_chunks = tokenize_chunks(raw["text"],
                                           stopwords=DEFAULT_STOPWORDS)
        else:
            token_chunks = [[str(tok) for tok in chunk]
                            for chunk in raw["chunks"]]
        return {
            "chunks": [self.vocabulary.encode(chunk, add_missing=True)
                       for chunk in token_chunks],
            "entities": {str(k): [str(n) for n in v]
                         for k, v in (raw.get("entities") or {}).items()},
            "year": raw.get("year"),
            "label": raw.get("label"),
        }

    def _shard_of(self, shard_id: int, records: List[Dict[str, Any]],
                  vocab_version: int, vocab_size: int) -> Shard:
        """A shard's records as arrays."""
        corpus = Corpus.from_chunks(
            [record["chunks"] for record in records], self.vocabulary,
            entities=[record["entities"] for record in records],
            years=[record.get("year") for record in records],
            labels=[record.get("label") for record in records])
        return Shard(shard_id, corpus, vocab_version, vocab_size)

    def append_batch(self, documents: Sequence[Dict[str, Any]],
                     batch_key: Optional[str] = None) -> Dict[str, Any]:
        """Commit one batch of raw documents as the next shard.

        Write order is shard file, then vocab delta (when the batch
        introduced words), then the manifest — the manifest being the
        atomic commit point.  A crash before the manifest write leaves
        orphan files that the retried (identical) batch rewrites
        byte-for-byte.

        ``batch_key`` is an optional content fingerprint: when it
        matches an already-committed shard, the append is skipped and
        the existing record returned with ``already_committed=True`` —
        exactly-once commit semantics for retried batches.

        Returns the committed shard record (``shard_id``, document
        count, vocab version/size after).

        Raises:
            DataError: an empty batch, a malformed document (named by
                its position), or a first batch without a single word
                outside the stopword list; nothing is written then.
        """
        if not documents:
            raise DataError("cannot append an empty batch")
        keys = self._manifest.get("batch_keys", [])
        if batch_key is not None and batch_key in keys:
            shard_id = keys.index(batch_key)
            logger.info("batch already committed as shard %d; skipping",
                        shard_id)
            return {
                "shard_id": shard_id,
                "num_documents":
                    self._manifest["shard_documents"][shard_id],
                "vocab_version": self.vocab_version,
                "vocab_size": len(self.vocabulary),
                "already_committed": True,
            }
        with span("stream.append_batch", num_documents=len(documents)):
            for position, raw in enumerate(documents):
                _check_document(position, raw)
            shard_id = self.num_shards
            old_vocab_size = len(self.vocabulary)
            encoded = [self._encode_document(raw) for raw in documents]
            if not len(self.vocabulary):
                raise DataError(
                    "batch holds no word outside the stopword list and "
                    "the stream has no vocabulary yet; its moments would "
                    "be empty")
            new_words = [self.vocabulary.word_of(i)
                         for i in range(old_vocab_size,
                                        len(self.vocabulary))]
            vocab_version = self.vocab_version
            if new_words:
                vocab_version += 1
                atomic_write_json(self._vocab_path(vocab_version), {
                    "schema": VOCAB_DELTA_SCHEMA,
                    "version": vocab_version,
                    "shard_id": shard_id,
                    "start_id": old_vocab_size,
                    "words": new_words,
                }, indent=2)
            shard = self._shard_of(shard_id, encoded, vocab_version,
                                   len(self.vocabulary))
            save_framed(self._shard_path(shard_id), {
                "schema": SHARD_SCHEMA,
                "shard_id": shard_id,
                "vocab_version": vocab_version,
                "vocab_size": len(self.vocabulary),
                "documents": encoded,
            }, magic=SHARD_MAGIC, metric="stream.shard_write")
            self._manifest = {
                "schema": SHARD_DIR_SCHEMA,
                "num_shards": shard_id + 1,
                "num_documents": self.num_documents + len(encoded),
                "vocab_version": vocab_version,
                "vocab_size": len(self.vocabulary),
                "batch_keys": list(keys) + [batch_key],
                "shard_documents":
                    list(self._manifest.get("shard_documents", []))
                    + [len(encoded)],
            }
            atomic_write_json(self._manifest_path, self._manifest,
                              indent=2)
            self._shards[shard_id] = shard
            inc("stream.shards_written")
            inc("stream.docs_ingested", len(encoded))
            logger.info("committed shard %d (%d documents, vocab %d "
                        "words, delta v%d)", shard_id, len(encoded),
                        len(self.vocabulary), vocab_version)
        return {"shard_id": shard_id, "num_documents": len(encoded),
                "vocab_version": vocab_version,
                "vocab_size": len(self.vocabulary),
                "already_committed": False}

    def load_shard(self, shard_id: int) -> Dict[str, Any]:
        """Read one committed shard back (CRC-verified)."""
        if not 0 <= shard_id < self.num_shards:
            raise ConfigurationError(
                f"shard {shard_id} out of range (store has "
                f"{self.num_shards})")
        payload = load_framed(self._shard_path(shard_id),
                              magic=SHARD_MAGIC, kind="stream shard")
        if payload.get("schema") != SHARD_SCHEMA \
                or payload.get("shard_id") != shard_id:
            raise DataError(
                f"{self._shard_path(shard_id)} does not hold shard "
                f"{shard_id} (schema={payload.get('schema')!r}, "
                f"shard_id={payload.get('shard_id')!r})")
        return payload

    def shard(self, shard_id: int) -> Shard:
        """A committed shard as arrays, read (CRC-verified) only the
        first time it is asked for."""
        shard = self._shards.get(shard_id)
        if shard is None:
            payload = self.load_shard(shard_id)
            shard = self._shard_of(
                shard_id, payload["documents"],
                int(payload["vocab_version"]),
                int(payload.get("vocab_size", len(self.vocabulary))))
            self._shards[shard_id] = shard
        return shard

    # -------------------------------------------------------------- corpus
    def load_corpus(self, num_shards: Optional[int] = None) -> Corpus:
        """Materialize the log (or its first ``num_shards``) as a corpus.

        The rebuilt corpus is document-for-document and id-for-id
        identical to a batch corpus built over the same documents in the
        same order: the shards' arrays are joined by
        :meth:`~repro.corpus.Corpus.concatenate`.  A prefix load
        (``num_shards`` < committed count) gets the vocabulary **as of
        that prefix** — the shards record their post-commit vocab size —
        so replaying history reproduces exactly the corpora past refits
        saw.
        """
        upto = self.num_shards if num_shards is None else num_shards
        if not 0 <= upto <= self.num_shards:
            raise ConfigurationError(
                f"num_shards {upto} out of range (store has "
                f"{self.num_shards})")
        with span("stream.load_corpus"):
            shards = [self.shard(shard_id) for shard_id in range(upto)]
            if upto == self.num_shards:
                vocabulary = self.vocabulary
            else:
                vocab_size = shards[-1].vocab_size if shards else 0
                vocabulary = Vocabulary(list(self.vocabulary)[:vocab_size])
            return Corpus.concatenate([shard.corpus for shard in shards],
                                      vocabulary)
