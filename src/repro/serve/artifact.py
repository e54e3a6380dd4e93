"""Versioned model artifacts: the ``repro.serve/model/v1`` format.

A fitted :class:`~repro.core.MiningResult` dies with the process unless
it is persisted.  This module defines the read-path artifact: one JSON
document, written atomically (:mod:`repro.resilience.atomic`), holding
everything the query engine needs to answer the paper's end-user
queries — the topic tree with per-node ranking distributions
(Chapter 3), ranked topical phrases (Chapter 4), and entity topical
roles (Chapter 5) — without the corpus, the networks, or a re-run of EM.

Layout::

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

Every load re-derives ``payload_crc32`` and ``vocab_hash`` and compares
them against the manifest, so a truncated file, a bit-flipped payload,
or a manifest grafted onto the wrong model is rejected with a typed
:class:`~repro.errors.DataError` instead of serving garbage.

The canonical JSON form (sorted keys, no whitespace) makes the CRC
stable across save/load cycles: Python's shortest-repr float encoding
round-trips exactly, so re-encoding a parsed payload reproduces the
bytes that were hashed at save time.  Canonical encoding is strict
(``allow_nan=False``): a model containing a NaN or infinite weight is
rejected with a typed :class:`~repro.errors.DataError` at *save* time —
the non-standard ``NaN``/``Infinity`` tokens Python would otherwise
emit cannot be re-parsed by a conforming JSON parser, so such an
artifact's CRC could never be re-verified.

``save_model`` / ``load_model`` additionally speak the v2 zero-copy
binary format (``format="v2"``, schema ``repro.serve/model/v3``; see
:mod:`repro.serve.artifact_v2`): saves dispatch on the ``format``
argument and loads sniff the file, so a v2 artifact loads through the
same entry point with full v1 read compatibility.  Both writers consume
one :class:`ModelParts` (vocabulary, hierarchy, role table, manifest);
the v2 writer packs its sections from the parts directly and never
builds the v1 document.
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

__all__ = [
    "ARTIFACT_FORMATS",
    "MODEL_SCHEMA",
    "ModelParts",
    "ServedModel",
    "build_document_from_parts",
    "build_model_document",
    "load_model",
    "migrate_model",
    "model_parts",
    "parts_from_document",
    "parts_of_result",
    "save_model",
    "save_model_document",
    "vocabulary_hash",
]

MODEL_SCHEMA = MODEL_V1

#: On-disk formats ``save_model`` / ``repro export-model`` can emit.
ARTIFACT_FORMATS = ("v1", "v2")

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


def _canonical_payload(model: Dict[str, Any]) -> bytes:
    """The byte form of the model object that ``payload_crc32`` covers.

    Strict floats only: Python's default encoder would emit the
    non-standard ``NaN``/``Infinity`` tokens for non-finite weights,
    producing an artifact no conforming JSON parser can re-verify — so
    a model carrying one is rejected with a typed error instead.
    """
    try:
        return json.dumps(model, sort_keys=True, allow_nan=False,
                          separators=(",", ":")).encode("utf-8")
    except ValueError as exc:
        raise DataError(
            f"model payload contains a non-finite float (NaN/Infinity), "
            f"which has no canonical JSON form and would make the "
            f"artifact CRC unverifiable: {exc}") from exc


def _topic_record(topic: Topic) -> Dict[str, Any]:
    """One topic node as plain data (the subnetwork handle is dropped)."""
    return {
        "path": list(topic.path),
        "notation": topic.notation,
        "rho": float(topic.rho),
        "phi": {node_type: {name: float(p) for name, p in dist.items()}
                for node_type, dist in topic.phi.items()},
        "phrases": [[phrase, float(score)] for phrase, score in topic.phrases],
        "entity_ranks": {etype: [[name, float(score)] for name, score in ranks]
                         for etype, ranks in topic.entity_ranks.items()},
        "children": [_topic_record(child) for child in topic.children],
    }


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
    """A model before encoding: what both artifact writers consume.

    Attributes:
        vocabulary: the words, ids positional.
        hierarchy: the topic tree with phi, phrases and entity ranks.
        entity_roles: ``{etype: {entity: {topic notation: f_t(E)}}}``.
        manifest: every manifest field, in v1 order; each writer stamps
            ``schema`` and ``payload_crc32`` for its own format.
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
    so the writers have to accept the pieces directly.
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


def _v1_document(parts: ModelParts) -> Dict[str, Any]:
    """Encode parts as a v1 document, fully JSON-normalized (every tuple
    already a list), so an engine built from it answers byte-identically
    to one built from the document read back off disk."""
    model = json.loads(_canonical_payload({
        "vocabulary": list(parts.vocabulary),
        "hierarchy": _topic_record(parts.hierarchy.root),
        "entity_roles": parts.entity_roles,
    }).decode("utf-8"))
    manifest = dict(parts.manifest)
    manifest.update(schema=MODEL_SCHEMA, payload_crc32=zlib.crc32(
        _canonical_payload(model)) & 0xFFFFFFFF)
    return {"schema": MODEL_SCHEMA, "manifest": manifest, "model": model}


def build_document_from_parts(
        vocabulary: List[str],
        hierarchy: TopicalHierarchy,
        entity_roles: EntityRoles,
        num_documents: int,
        config: Optional[Dict[str, Any]] = None,
        extra_manifest: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """A v1 model document from its already-computed pieces (the
    arguments of :func:`model_parts`)."""
    return _v1_document(model_parts(vocabulary, hierarchy, entity_roles,
                                    num_documents, config, extra_manifest))


def build_model_document(result, config: Optional[Dict[str, Any]] = None,
                         ) -> Dict[str, Any]:
    """Serialize a fitted :class:`~repro.core.MiningResult` to a v1
    document.

    Args:
        result: the fitted mining result to persist.
        config: plain-data fingerprint of the configuration that produced
            it (stored in the manifest for traceability).
    """
    return _v1_document(parts_of_result(result, config))


@dataclass
class ServedModel:
    """A loaded (or freshly built) v1 model artifact, ready to query.

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

    @classmethod
    def from_result(cls, result,
                    config: Optional[Dict[str, Any]] = None) -> "ServedModel":
        """Wrap a fitted result without touching the filesystem."""
        document = build_model_document(result, config=config)
        return cls(manifest=document["manifest"], model=document["model"])


def parts_from_document(document: Dict[str, Any]) -> ModelParts:
    """The parts a v1 model document encodes, once its own payload CRC
    checks out.

    Raises:
        DataError: the payload holds a non-finite float or does not
            match the manifest's ``payload_crc32``.
    """
    model, manifest = document["model"], document["manifest"]
    crc = zlib.crc32(_canonical_payload(model)) & 0xFFFFFFFF
    if crc != manifest.get("payload_crc32"):
        raise DataError(f"model document is corrupted (payload checksum "
                        f"mismatch: {crc} != "
                        f"{manifest.get('payload_crc32')})")
    return ServedModel(manifest=manifest, model=model).parts()


def save_model_document(document: Union[Dict[str, Any], ModelParts],
                        path: str, format: str = "v1") -> Dict[str, Any]:
    """Write a model in the requested format, atomically.

    ``document`` is a v1 model document (:func:`build_model_document`)
    or a model's :class:`ModelParts`.  ``format="v1"`` writes the
    canonical JSON artifact (a document as it is); ``format="v2"``
    writes the zero-copy binary artifact
    (:mod:`repro.serve.artifact_v2`), from a document only after its
    payload CRC checks out.  Both writes are atomic (temp file +
    rename): a crash mid-export leaves any previous artifact at
    ``path`` intact.  Returns the manifest as written.
    """
    if format not in ARTIFACT_FORMATS:
        raise ConfigurationError(
            f"unsupported artifact format {format!r} "
            f"(one of {ARTIFACT_FORMATS})")
    if format == "v1":
        if isinstance(document, ModelParts):
            document = _v1_document(document)
        atomic_write_json(path, document, indent=2, trailing_newline=True)
        return document["manifest"]
    from .artifact_v2 import pack_model

    parts = (document if isinstance(document, ModelParts)
             else parts_from_document(document))
    with timed("serve.export_v2"):
        blob, packed = pack_model(parts)
        atomic_write_bytes(path, blob)
    logger.info("exported v2 model artifact (%d topics, %d bytes) -> %s",
                packed.manifest["num_topics"], len(blob), path)
    return packed.manifest


def save_model(result, path: str, config: Optional[Dict[str, Any]] = None,
               format: str = "v1") -> Dict[str, Any]:
    """Persist a fitted result as a versioned model artifact.

    ``format`` selects the on-disk representation: ``"v1"`` (canonical
    JSON, the default) or ``"v2"`` (memory-mappable packed binary
    sections, written straight from the result's parts).  The write is
    atomic either way.  Returns the manifest.
    """
    with timed("serve.export"):
        manifest = save_model_document(parts_of_result(result, config),
                                       path, format=format)
    logger.info("exported model artifact (%d topics, format %s) -> %s",
                manifest["num_topics"], format, path)
    return manifest


def migrate_model(source: str, destination: str,
                  format: str = "v2") -> Dict[str, Any]:
    """Re-encode an existing artifact in another format, losslessly.

    The source format is sniffed (v1 JSON or v2 binary) and the full v1
    document is materialized; its payload CRC is checked and it is
    written as ``format``.  A v1 destination is stamped with the CRC of
    its canonical v1 payload and a v2 one with the section CRC, so the
    destination verifies on load; every other manifest field carries
    over.  Returns the destination manifest.
    """
    from .artifact_v2 import MappedModel, model_document_from_mapped

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
    """Read and verify a model artifact written by :func:`save_model`.

    The format is sniffed from the file: a v2 binary artifact is
    memory-mapped (returning a
    :class:`~repro.serve.artifact_v2.MappedModel`; ``verify_sections``
    controls its CRC sweep), anything else is parsed as the v1 JSON
    artifact (returning a :class:`ServedModel`).  Both answer queries
    identically through :class:`~repro.serve.ModelQueryEngine`.

    Raises:
        DataError: when the file is not a model artifact, is truncated or
            otherwise not valid JSON, carries an unsupported schema
            version, fails its payload checksum, or its manifest
            vocabulary hash does not match the stored vocabulary.
        OSError: when the file cannot be read at all.
    """
    from .artifact_v2 import _MAGIC, load_model_v2

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
        crc = zlib.crc32(_canonical_payload(model)) & 0xFFFFFFFF
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
