"""Model artifacts: the one save path, and the legacy v1 JSON read.

A fitted :class:`~repro.core.MiningResult` dies with the process unless
it is persisted.  Every save goes through one writer:
:func:`save_model` and :func:`save_model_document` turn a model into
its :class:`ModelParts` and pack them into the v2 binary artifact
(schema ``repro.serve/model/v3``; :mod:`repro.serve.artifact_v2`),
written atomically (:mod:`repro.resilience.atomic`).  The artifact
holds everything the query engine needs to answer the paper's end-user
queries — the topic tree with per-node ranking distributions
(Chapter 3), ranked topical phrases (Chapter 4), and entity topical
roles (Chapter 5) — without the corpus, the networks, or a re-run of EM.

The earlier ``repro.serve/model/v1`` format is one canonical JSON
document::

    {"schema": "repro.serve/model/v1",
     "manifest": {"schema": ..., "created_unix": ..., "repro_version": ...,
                  "config": {...},            # miner config fingerprint
                  "vocab_hash": "sha256:...", # of the stored vocabulary
                  "payload_crc32": ...,       # of the canonical model JSON
                  "vocab_size": V, "num_documents": N, "num_topics": T,
                  "entity_types": [...]},
     "model": {"vocabulary": [...],
               "hierarchy": {<topic record>},   # recursive
               "entity_roles": {etype: {entity: {notation: freq}}}}}

No save writes it.  It has two roles:

* a legacy read: :func:`load_model` sniffs the file, re-derives
  ``payload_crc32`` and ``vocab_hash`` and compares them against the
  manifest, and returns a :class:`ServedModel`, which the query engine
  packs into the v2 blob in memory;
* one export: :func:`migrate_model` with ``format="v1"`` (``repro
  migrate-model --to v1``) decodes a v2 artifact and writes the JSON
  document, for tools that want JSON.

A truncated file, a bit-flipped payload, or a manifest grafted onto the
wrong model is rejected with a typed :class:`~repro.errors.DataError`
instead of serving garbage.  The payload CRC covers
:func:`~repro.serve.artifact_v2.canonical_json`, the one canonical
encoder of both formats.
"""

from __future__ import annotations

import hashlib
import json
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Union

from ..contracts import MODEL_V1
from ..errors import ConfigurationError, DataError
from ..hierarchy import Topic, TopicalHierarchy
from ..obs import get_logger, timed
from ..resilience import (atomic_write_bytes, atomic_write_json,
                          config_fingerprint)
from .artifact_v2 import (_MAGIC, MappedModel, canonical_json,
                          load_model_v2, model_document_from_mapped,
                          pack_model)

__all__ = [
    "MODEL_SCHEMA",
    "ModelParts",
    "ServedModel",
    "check_artifact_format",
    "load_model",
    "migrate_model",
    "model_parts",
    "parts_from_document",
    "parts_of_result",
    "save_model",
    "save_model_document",
    "vocabulary_hash",
]

#: The legacy JSON schema: read by :func:`load_model`, written only by
#: the v1 export of :func:`migrate_model`.
MODEL_SCHEMA = MODEL_V1

#: Manifest fields whose absence makes an artifact unusable.
_REQUIRED_MANIFEST = ("schema", "created_unix", "repro_version", "config",
                      "vocab_hash", "payload_crc32", "num_topics")

EntityRoles = Dict[str, Dict[str, Dict[str, float]]]

logger = get_logger("serve.artifact")


def vocabulary_hash(words: Iterable[str]) -> str:
    """Order-sensitive SHA-256 fingerprint of a vocabulary.

    Word ids are positional, so two vocabularies hash equal iff they map
    every id to the same word — exactly the condition under which phrase
    strings and phi names in an artifact stay meaningful.
    """
    digest = hashlib.sha256()
    for word in words:
        digest.update(word.encode("utf-8"))
        digest.update(b"\x00")
    return "sha256:" + digest.hexdigest()


def check_artifact_format(format: str) -> None:
    """Refuse every save format but ``"v2"``.

    Raises:
        ConfigurationError: ``format`` is not ``"v2"``; v1 JSON comes
            only from ``repro migrate-model --to v1``.
    """
    if format != "v2":
        raise ConfigurationError(
            f"unsupported artifact format {format!r}: models are saved "
            f"as v2 only; for v1 JSON, run 'repro migrate-model --to v1' "
            f"on the saved artifact")


def _topic_from_record(record: Dict[str, Any]) -> Topic:
    topic = Topic(
        path=tuple(record["path"]),
        rho=float(record["rho"]),
        phi={node_type: dict(dist)
             for node_type, dist in record["phi"].items()},
        phrases=[(phrase, score) for phrase, score in record["phrases"]],
        entity_ranks={etype: [(name, score) for name, score in ranks]
                      for etype, ranks in record["entity_ranks"].items()})
    for child_record in record["children"]:
        child = _topic_from_record(child_record)
        topic.children.append(child)
        child.path = tuple(child_record["path"])
    return topic


@dataclass
class ModelParts:
    """A model before encoding: what the v2 writer consumes.

    Attributes:
        vocabulary: the words, ids positional.
        hierarchy: the topic tree with phi, phrases and entity ranks.
        entity_roles: ``{etype: {entity: {topic notation: f_t(E)}}}``.
        manifest: every manifest field; the writer stamps ``schema`` and
            ``payload_crc32``.
    """

    vocabulary: List[str]
    hierarchy: TopicalHierarchy
    entity_roles: EntityRoles
    manifest: Dict[str, Any]


def model_parts(vocabulary: Iterable[str], hierarchy: TopicalHierarchy,
                entity_roles: EntityRoles, num_documents: int,
                config: Optional[Dict[str, Any]] = None,
                extra_manifest: Optional[Dict[str, Any]] = None,
                ) -> ModelParts:
    """Assemble a model's parts from its already-computed pieces.

    The incremental path (:mod:`repro.stream`) produces a hierarchy and
    role table without ever holding a :class:`~repro.core.MiningResult`,
    so the writer has to accept the pieces directly.
    ``extra_manifest`` entries (e.g. a ``model_version`` counter) are
    merged into the manifest; they may not shadow the required fields.
    """
    from .. import get_version

    extra = dict(extra_manifest or {})
    shadowed = set(extra) & set(_REQUIRED_MANIFEST)
    if shadowed:
        raise ConfigurationError(
            f"extra_manifest may not override required manifest "
            f"fields: {sorted(shadowed)}")
    words = list(vocabulary)
    manifest = {
        "schema": MODEL_SCHEMA,
        "created_unix": time.time(),
        "repro_version": get_version(),
        "config": config_fingerprint(config or {}),
        "vocab_hash": vocabulary_hash(words),
        "payload_crc32": None,  # stamped by the writer
        "vocab_size": len(words),
        "num_documents": num_documents,
        "num_topics": hierarchy.num_topics,
        "entity_types": sorted(entity_roles),
    }
    manifest.update(extra)
    return ModelParts(words, hierarchy, entity_roles, manifest)


def parts_of_result(result, config: Optional[Dict[str, Any]] = None,
                    ) -> ModelParts:
    """The parts of a fitted :class:`~repro.core.MiningResult`: its
    vocabulary, hierarchy and every entity type's role table."""
    corpus = result.corpus
    entity_roles = {etype: result.roles.entity_topic_frequencies(etype)
                    for etype in corpus.entity_types()}
    return model_parts(corpus.vocabulary, result.hierarchy, entity_roles,
                       num_documents=len(corpus), config=config)


@dataclass
class ServedModel:
    """A legacy v1 model document, ready to query.

    Attributes:
        manifest: the artifact manifest (schema, fingerprints, metadata).
        model: the JSON-normalized model payload.
        path: where the artifact was loaded from, when applicable.
    """

    manifest: Dict[str, Any]
    model: Dict[str, Any]
    path: Optional[str] = None
    _hierarchy: Optional[TopicalHierarchy] = field(
        default=None, repr=False, compare=False)

    @property
    def vocabulary(self) -> List[str]:
        return self.model["vocabulary"]

    @property
    def entity_roles(self) -> EntityRoles:
        return self.model["entity_roles"]

    def hierarchy(self) -> TopicalHierarchy:
        """The topic tree rebuilt as first-class objects (cached)."""
        if self._hierarchy is None:
            self._hierarchy = TopicalHierarchy(
                root=_topic_from_record(self.model["hierarchy"]))
        return self._hierarchy

    def parts(self) -> ModelParts:
        """The parts this document encodes (its CRC is not re-checked)."""
        return ModelParts(list(self.vocabulary), self.hierarchy(),
                          self.entity_roles, dict(self.manifest))


def parts_from_document(document: Dict[str, Any]) -> ModelParts:
    """The parts a v1 model document encodes, once its own payload CRC
    checks out.

    Raises:
        DataError: the payload holds a non-finite float or does not
            match the manifest's ``payload_crc32``.
    """
    model, manifest = document["model"], document["manifest"]
    crc = zlib.crc32(canonical_json(model)) & 0xFFFFFFFF
    if crc != manifest.get("payload_crc32"):
        raise DataError(f"model document is corrupted (payload checksum "
                        f"mismatch: {crc} != "
                        f"{manifest.get('payload_crc32')})")
    return ServedModel(manifest=manifest, model=model).parts()


def save_model_document(document: Union[Dict[str, Any], ModelParts],
                        path: str, format: str = "v2") -> Dict[str, Any]:
    """Write a model as a v2 artifact, atomically.

    ``document`` is a model's :class:`ModelParts` or a v1 model
    document, which is packed only after its payload CRC checks out.
    The write is atomic (temp file + rename): a crash mid-export leaves
    any previous artifact at ``path`` intact.  ``format`` must be
    ``"v2"``.  Returns the manifest as written.

    Raises:
        ConfigurationError: any other ``format``.
        DataError: a non-finite float, or a v1 document whose payload
            does not match its CRC.  No file is written.
    """
    check_artifact_format(format)
    parts = (document if isinstance(document, ModelParts)
             else parts_from_document(document))
    with timed("serve.export_v2"):
        blob, packed = pack_model(parts)
        atomic_write_bytes(path, blob)
    logger.info("exported v2 model artifact (%d topics, %d bytes) -> %s",
                packed.manifest["num_topics"], len(blob), path)
    return packed.manifest


def save_model(result, path: str, config: Optional[Dict[str, Any]] = None,
               format: str = "v2") -> Dict[str, Any]:
    """Persist a fitted result as a v2 model artifact, packed straight
    from the result's parts (``format`` must be ``"v2"``).  The write is
    atomic.  Returns the manifest."""
    with timed("serve.export"):
        return save_model_document(parts_of_result(result, config), path,
                                   format=format)


def migrate_model(source: str, destination: str,
                  format: str = "v2") -> Dict[str, Any]:
    """Re-encode an existing artifact in another format, losslessly.

    The source format is sniffed (v1 JSON or v2 binary) and decoded to
    its v1 document, whose payload CRC is checked on the way.
    ``format="v1"`` writes that document as JSON — the only writer of
    v1 files — stamped with the CRC of its canonical payload;
    ``format="v2"`` saves it through :func:`save_model_document`.
    Either destination verifies on load, and every other manifest field
    carries over.  Both writes are atomic.  Returns the destination
    manifest.
    """
    with timed("serve.migrate"):
        model = load_model(source)
        if isinstance(model, MappedModel):
            try:
                document = model_document_from_mapped(model)
            finally:
                model.close()
        else:
            document = {"schema": MODEL_SCHEMA, "manifest": model.manifest,
                        "model": model.model}
        if format == "v1":
            atomic_write_json(destination, document, indent=2,
                              trailing_newline=True)
            manifest = document["manifest"]
        else:
            manifest = save_model_document(document, destination,
                                           format=format)
    logger.info("migrated model artifact %s -> %s (format %s)", source,
                destination, format)
    return manifest


def _validate_manifest(manifest: Any, path: str) -> Dict[str, Any]:
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: model manifest must be an object")
    for key in _REQUIRED_MANIFEST:
        if key not in manifest:
            raise DataError(f"{path}: model manifest missing field {key!r}")
    if manifest["schema"] != MODEL_SCHEMA:
        raise DataError(f"{path}: unsupported model schema "
                        f"{manifest['schema']!r} (expected {MODEL_SCHEMA!r})")
    return manifest


def load_model(path: str, verify_sections: bool = True):
    """Read and verify a model artifact.

    The format is sniffed from the file: a v2 binary artifact (what
    :func:`save_model` writes) is memory-mapped, returning a
    :class:`~repro.serve.artifact_v2.MappedModel` (``verify_sections``
    controls its CRC sweep); anything else is parsed as a legacy v1
    JSON artifact, returning a :class:`ServedModel`.  Both answer
    queries identically through :class:`~repro.serve.ModelQueryEngine`.

    Raises:
        DataError: when the file is not a model artifact, is truncated or
            otherwise not valid JSON, carries an unsupported schema
            version, fails its payload checksum, or its manifest
            vocabulary hash does not match the stored vocabulary.
        OSError: when the file cannot be read at all.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC))
    if magic == _MAGIC:
        return load_model_v2(path, verify_sections=verify_sections)
    with timed("serve.model_load"):
        with open(path, "rb") as handle:
            blob = handle.read()
        try:
            document = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path} is not a valid model artifact "
                            f"(truncated or not JSON): {exc}") from exc
        if not isinstance(document, dict) \
                or document.get("schema") != MODEL_SCHEMA:
            schema = document.get("schema") if isinstance(document, dict) \
                else None
            raise DataError(f"{path}: unsupported model schema {schema!r} "
                            f"(expected {MODEL_SCHEMA!r})")
        manifest = _validate_manifest(document.get("manifest"), path)
        model = document.get("model")
        if not isinstance(model, dict):
            raise DataError(f"{path}: model payload must be an object")
        for key in ("vocabulary", "hierarchy", "entity_roles"):
            if key not in model:
                raise DataError(f"{path}: model payload missing {key!r}")
        crc = zlib.crc32(canonical_json(model)) & 0xFFFFFFFF
        if crc != manifest["payload_crc32"]:
            raise DataError(f"{path} is corrupted (payload checksum "
                            f"mismatch: {crc} != "
                            f"{manifest['payload_crc32']})")
        vocab_hash = vocabulary_hash(model["vocabulary"])
        if vocab_hash != manifest["vocab_hash"]:
            raise DataError(f"{path}: vocabulary hash mismatch (manifest "
                            f"{manifest['vocab_hash']!r}, stored vocabulary "
                            f"hashes to {vocab_hash!r})")
    logger.info("loaded model artifact %s (%d topics, repro %s)", path,
                manifest["num_topics"], manifest["repro_version"])
    return ServedModel(manifest=manifest, model=model, path=path)
