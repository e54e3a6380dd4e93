"""Zero-copy model artifacts: the v2 binary format every save writes.

The legacy v1 artifact (:mod:`repro.serve.artifact`) is one canonical
JSON document: loading it parses every float of every topic-word
distribution, phrase ranking, and entity role table into fresh Python
objects, per process.  For a large model served by N workers that is N
full parses and N private heap copies of the same numbers.

v2 keeps the manifest / fingerprint contract but moves the large
numeric payload into aligned, memory-mappable packed binary sections so
that

* cold load is ~O(mmap): only the JSON *header* (manifest, string
  tables, topic skeleton, section table) is parsed; the numeric
  sections are mapped, not read, and
* N server processes mapping the same artifact share one page-cache
  copy of the numbers instead of N heap copies.

Layout (all integers little-endian)::

    offset 0   magic           b"REPROMV2"            (8 bytes)
    offset 8   header_len      u64                    (8 bytes)
    offset 16  header_crc32    u32                    (4 bytes)
    offset 20  reserved        4 zero bytes
    offset 24  header JSON     header_len bytes (utf-8)
    ...        zero padding to the next 64-byte boundary
    ...        sections, each starting 64-byte aligned

The header is one canonical JSON object::

    {"schema": "repro.serve/model/v3",
     "manifest": {... same fields as v1; schema names v3 ...},
     "strings": {"vocabulary": [...],
                 "phrases": [...],          # global sorted phrase list
                 "phi_names": {ntype: [...]},
                 "rank_names": {etype: [...]},
                 "role_keys": [...],
                 "entities": {etype: [...]},   # role-table entities
                 "topics": [{"notation", "path", "rho", "parent",
                             "children", "phi_types", "rank_types"}]},
     "sections": [{"name", "dtype", "count", "offset", "crc32"}, ...]}

Numeric sections are CSR-style ragged arrays over the topic list (or the
entity list, for role tables): an ``indptr`` span array plus parallel
``ids`` / value arrays whose ids index the string tables above.  Every
name table is written sorted, so ids order exactly as names do; the
query engine breaks top-term ties by id and relies on this.  The
phrase inverted index — for every phrase, its ``(topic, score)`` pairs
ranked best-first — is precomputed at save time and stored the same
way, so the query engine does not have to walk the hierarchy at load.

:func:`pack_model` is the one writer.  It packs the sections straight
from a model's parts (:class:`~repro.serve.artifact.ModelParts`: the
fitted hierarchy and the role table); no v1 document is built on the
way.  Integrity is layered: the header carries its own CRC32, every
section carries one, ``vocab_hash`` covers the vocabulary, and
``manifest.payload_crc32`` is the CRC32 of the canonical string tables
followed by the section CRC32s (u32, table order) — a fingerprint of
the model content alone.  Loads check the header CRC and the
vocabulary hash, and by default sweep every section CRC
(``verify_sections=False`` skips the sweep and keeps cold load strictly
O(mmap)).  At save time the writer refuses any non-finite float with a
typed :class:`~repro.errors.DataError`, then reparses its own blob and
recomputes the header CRC, every section CRC, the vocabulary hash and
``payload_crc32`` from what it parsed.  In-memory engines serve that
reparsed blob, so disk, memory and HTTP answer from the same bytes.

:func:`canonical_json` is the one canonical JSON encoder of both
formats: the v2 header and string-table CRC here, and the v1 payload
CRC that :mod:`repro.serve.artifact` verifies on load and
:func:`model_document_from_mapped` stamps on the v1 export.

Files stamped with the earlier ``repro.serve/model/v2`` schema have the
same layout and still load; their ``payload_crc32`` is the CRC32 of the
canonical v1 JSON payload, which no reader verifies.
"""

from __future__ import annotations

import json
import mmap
import struct
import zlib
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..contracts import MODEL_V2, MODEL_V3
from ..errors import DataError
from ..obs import get_logger, timed

if TYPE_CHECKING:
    from .artifact import ModelParts

__all__ = [
    "MODEL_SCHEMA_V2",
    "MappedModel",
    "canonical_json",
    "load_model_v2",
    "model_document_from_mapped",
    "pack_model",
]

#: The schema stamp ``format="v2"`` writes: the v2 layout under the
#: section-CRC ``payload_crc32`` contract.
MODEL_SCHEMA_V2 = MODEL_V3

#: Every schema a v2-layout file may carry; under the earlier stamp,
#: ``payload_crc32`` covers the canonical v1 JSON payload instead.
_READABLE_SCHEMAS = (MODEL_V3, MODEL_V2)

_MAGIC = b"REPROMV2"
_ALIGN = 64
#: Fixed-size preamble: magic, header length (u64), header crc32 (u32),
#: 4 reserved zero bytes.
_PREAMBLE = struct.Struct("<8sQI4x")

#: dtypes a conforming v2 artifact may use for its sections.
_SECTION_DTYPES = {"<i4", "<i8", "<f8"}

logger = get_logger("serve.artifact_v2")

_Section = Tuple[str, np.ndarray]


def canonical_json(obj: Any) -> bytes:
    """Canonical JSON bytes (sorted keys, compact, strict floats): the
    form every JSON CRC of both artifact formats covers.

    Raises:
        DataError: ``obj`` holds a NaN or infinite float, which has no
            JSON form a conforming parser could read back.
    """
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False,
                          separators=(",", ":")).encode("utf-8")
    except ValueError as exc:
        raise DataError(
            f"model payload contains a non-finite float (NaN/Infinity), "
            f"which has no canonical JSON form: {exc}") from exc


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _payload_crc32(strings_json: bytes, section_crcs: Sequence[int]) -> int:
    """``manifest.payload_crc32``: the CRC32 of the canonical string
    tables followed by every section's CRC32 (u32 LE, table order)."""
    trailer = struct.pack(f"<{len(section_crcs)}I", *section_crcs)
    return zlib.crc32(trailer, zlib.crc32(strings_json)) & 0xFFFFFFFF


# =====================================================================
# Writing
# =====================================================================

def _name_table(names: Iterable[str]) -> Tuple[List[str], Dict[str, int]]:
    ordered = sorted(set(names))
    return ordered, {name: i for i, name in enumerate(ordered)}


def _listed_rows(rows: Sequence[Sequence[Tuple[str, float]]],
                 index: Dict[str, int],
                 ) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """Ranked ``(name, score)`` rows, flattened in their own order."""
    counts = [len(row) for row in rows]
    total = sum(counts)
    ids = np.fromiter((index[name] for row in rows for name, _ in row),
                      dtype=np.int64, count=total)
    values = np.fromiter((score for row in rows for _, score in row),
                         dtype=np.float64, count=total)
    return counts, ids, values


def _keyed_rows(rows: Sequence[Dict[str, float]], index: Dict[str, int],
                ) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """``{name: value}`` rows, flattened with each row in name order
    (ids index a sorted name table, so id order is name order)."""
    counts = [len(row) for row in rows]
    total = sum(counts)
    ids = np.fromiter((index[name] for row in rows for name in row),
                      dtype=np.int64, count=total)
    values = np.fromiter((value for row in rows for value in row.values()),
                         dtype=np.float64, count=total)
    order = np.lexsort((ids, np.repeat(np.arange(len(rows)), counts)))
    return counts, ids[order], values[order]


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise DataError(
            f"model payload contains a non-finite float (NaN/Infinity) "
            f"in {name}; a v2 artifact stores finite values only")


def _ragged(prefix: str, counts: Union[Sequence[int], np.ndarray],
            ids: np.ndarray, values: np.ndarray,
            values_name: str = "values") -> List[_Section]:
    """One CSR-style section triple: ``indptr``, ``ids``, values."""
    indptr = np.zeros(len(counts) + 1, dtype="<i8")
    np.cumsum(np.asarray(counts, dtype="<i8"), out=indptr[1:])
    _require_finite(f"{prefix}.{values_name}", values)
    return [(f"{prefix}.indptr", indptr),
            (f"{prefix}.ids", ids.astype("<i4")),
            (f"{prefix}.{values_name}", values.astype("<f8"))]


def pack_model(parts: "ModelParts") -> Tuple[bytes, "MappedModel"]:
    """Pack a model's parts into a v2 artifact.

    Returns the complete artifact bytes and their verified reparse (a
    :class:`MappedModel` whose sections view those bytes), which is
    what an in-memory engine serves.  The manifest is ``parts.manifest``
    stamped with the v2 schema and the section ``payload_crc32``.

    Raises:
        DataError: a non-finite float in any float section or ``rho``,
            or a blob that fails its own reparse.
    """
    topics = list(parts.hierarchy.topics())
    notations = [topic.notation for topic in topics]
    topic_index = {notation: i for i, notation in enumerate(notations)}
    roles = parts.entity_roles

    # ------------------------------------------------- numeric sections
    sections: List[_Section] = []
    phrase_rows = [topic.phrases for topic in topics]
    phrase_names, phrase_id = _name_table(
        phrase for row in phrase_rows for phrase, _ in row)
    counts, phrase_ids, phrase_scores = _listed_rows(phrase_rows, phrase_id)
    sections += _ragged("phrases", counts, phrase_ids, phrase_scores,
                        "scores")

    phi_names: Dict[str, List[str]] = {}
    for ntype in sorted({t for topic in topics for t in topic.phi}):
        rows = [topic.phi.get(ntype, {}) for topic in topics]
        phi_names[ntype], index = _name_table(
            name for row in rows for name in row)
        sections += _ragged(f"phi.{ntype}", *_keyed_rows(rows, index))

    rank_names: Dict[str, List[str]] = {}
    for etype in sorted({t for topic in topics for t in topic.entity_ranks}):
        ranked = [topic.entity_ranks.get(etype, []) for topic in topics]
        rank_names[etype], index = _name_table(
            name for row in ranked for name, _ in row)
        sections += _ragged(f"entity_ranks.{etype}",
                            *_listed_rows(ranked, index), "scores")

    # Phrase inverted index: per phrase, its (topic, score) entries by
    # (-score, notation), ties in pre-order (a stable sort).
    owner = np.repeat(np.arange(len(topics)), counts)
    rank_of = {n: r for r, n in enumerate(sorted(set(notations)))}
    notation_rank = np.array([rank_of[n] for n in notations], dtype=np.int64)
    topic_of = np.array([topic_index[n] for n in notations], dtype=np.int64)
    order = np.lexsort((notation_rank[owner], -phrase_scores, phrase_ids))
    sections += _ragged("inverted",
                        np.bincount(phrase_ids, minlength=len(phrase_names)),
                        topic_of[owner[order]], phrase_scores[order],
                        "scores")

    role_keys, role_key_id = _name_table(
        key for table in roles.values() for freqs in table.values()
        for key in freqs)
    entities = {etype: sorted(table) for etype, table in roles.items()}
    for etype in sorted(roles):
        table = roles[etype]
        sections += _ragged(f"roles.{etype}", *_keyed_rows(
            [table[name] for name in entities[etype]], role_key_id))

    # -------------------------------------------------- topic skeleton
    parent_of: Dict[str, Optional[int]] = {notations[0]: None}
    for topic in topics:
        for child in topic.children:
            parent_of[child.notation] = topic_index[topic.notation]
    topics_meta = [{
        "notation": notation,
        "path": list(topic.path),
        "rho": float(topic.rho),
        "parent": parent_of[notation],
        "children": [topic_index[child.notation] for child in topic.children],
        "phi_types": sorted(topic.phi),
        "rank_types": sorted(topic.entity_ranks),
    } for topic, notation in zip(topics, notations)]
    _require_finite("rho", np.array([meta["rho"] for meta in topics_meta]))

    # ------------------------------------------------------ assembly
    strings_json = canonical_json({
        "vocabulary": list(parts.vocabulary),
        "phrases": phrase_names,
        "phi_names": phi_names,
        "rank_names": rank_names,
        "role_keys": role_keys,
        "entities": entities,
        "topics": topics_meta,
    })
    crcs = [zlib.crc32(array) & 0xFFFFFFFF for _, array in sections]
    manifest = dict(parts.manifest)
    manifest.update(schema=MODEL_SCHEMA_V2,
                    payload_crc32=_payload_crc32(strings_json, crcs))
    blob = _assemble(manifest, strings_json, sections, crcs)
    return blob, _reparsed(blob)


def _assemble(manifest: Dict[str, Any], strings_json: bytes,
              sections: List[_Section], crcs: List[int]) -> bytes:
    """Lay out header and sections and emit the artifact bytes.

    Offsets depend on the header length, which depends on the section
    table text, so the layout iterates until it fixes.  The header is
    canonical JSON, whose top-level keys sort as manifest, schema,
    sections, strings: it is written around the string tables, which
    are encoded once rather than once per layout pass.
    """
    head = (b'{"manifest":' + canonical_json(manifest) + b',"schema":'
            + canonical_json(MODEL_SCHEMA_V2) + b',"sections":')
    tail = b',"strings":' + strings_json + b"}"

    def layout(header_len: int) -> List[Dict[str, Any]]:
        table = []
        offset = _aligned(_PREAMBLE.size + header_len)
        for (name, array), crc in zip(sections, crcs):
            table.append({"name": name, "dtype": array.dtype.str,
                          "count": int(array.size), "offset": offset,
                          "crc32": crc})
            offset = _aligned(offset + array.nbytes)
        return table

    header_len = 0
    header = b""
    for _ in range(8):
        table = layout(header_len)
        header = head + canonical_json(table) + tail
        if len(header) == header_len:
            break
        header_len = len(header)
    else:  # pragma: no cover - the digit-width fixpoint converges fast
        raise DataError("v2 header layout failed to converge")

    total = _aligned(_PREAMBLE.size + len(header))
    if table:
        total = table[-1]["offset"] + sections[-1][1].nbytes
    blob = bytearray(total)
    blob[:_PREAMBLE.size] = _PREAMBLE.pack(
        _MAGIC, len(header), zlib.crc32(header) & 0xFFFFFFFF)
    blob[_PREAMBLE.size:_PREAMBLE.size + len(header)] = header
    for entry, (_, array) in zip(table, sections):
        start = entry["offset"]
        blob[start:start + array.nbytes] = array.tobytes()
    return bytes(blob)


def _reparsed(blob: bytes) -> "MappedModel":
    """The save-time self-check: parse the blob back and recompute its
    fingerprints from what was parsed.

    The parse verifies the header CRC, the schema and manifest, the
    vocabulary hash and every section CRC; ``payload_crc32`` is then
    recomputed from the parsed string tables and section table.
    """
    model = _mapped_from_blob(blob, path="<in-memory>")
    table = model.header["sections"]
    crc = _payload_crc32(canonical_json(model.strings),
                         [entry["crc32"] for entry in table])
    if crc != model.manifest["payload_crc32"]:
        raise DataError(f"v2 blob does not reparse to its own payload "
                        f"checksum ({crc} != "
                        f"{model.manifest['payload_crc32']})")
    return model


# =====================================================================
# Reading
# =====================================================================

@dataclass
class MappedModel:
    """A v2 artifact mapped into memory, numeric sections zero-copy.

    Attributes:
        manifest: the artifact manifest (schema ``repro.serve/model/v3``,
            or ``repro.serve/model/v2`` for a file written before it).
        header: the full parsed JSON header (manifest, strings, sections).
        path: the artifact file, when loaded from disk.
        sections: section name -> little-endian numpy view over the map.

    The numpy views alias the underlying buffer directly: nothing is
    copied at load, and every process mapping the same file shares one
    page-cache copy of the numeric data.
    """

    manifest: Dict[str, Any]
    header: Dict[str, Any]
    path: Optional[str] = None
    sections: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _mmap: Optional[mmap.mmap] = field(default=None, repr=False,
                                       compare=False)

    @property
    def vocabulary(self) -> List[str]:
        return self.header["strings"]["vocabulary"]

    @property
    def strings(self) -> Dict[str, Any]:
        return self.header["strings"]

    def section(self, name: str) -> np.ndarray:
        array = self.sections.get(name)
        if array is None:
            raise DataError(f"v2 artifact has no section {name!r}")
        return array

    def nbytes_mapped(self) -> int:
        """Total bytes of numeric sections backing this model."""
        return sum(int(a.nbytes) for a in self.sections.values())

    def close(self) -> None:
        """Drop the section views and unmap the file."""
        self.sections = {}
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None


def _parse_header(buffer: Any, path: str) -> Tuple[Dict[str, Any], int]:
    """Validate preamble + header CRC; return (header, header_len)."""
    if len(buffer) < _PREAMBLE.size:
        raise DataError(f"{path} is not a v2 model artifact (truncated "
                        f"preamble)")
    magic, header_len, header_crc = _PREAMBLE.unpack_from(buffer, 0)
    if magic != _MAGIC:
        raise DataError(f"{path} is not a v2 model artifact (bad magic)")
    end = _PREAMBLE.size + header_len
    if len(buffer) < end:
        raise DataError(f"{path} is truncated (header extends past EOF)")
    header_bytes = bytes(buffer[_PREAMBLE.size:end])
    if zlib.crc32(header_bytes) & 0xFFFFFFFF != header_crc:
        raise DataError(f"{path} is corrupted (header checksum mismatch)")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: v2 header is not valid JSON: "
                        f"{exc}") from exc
    if not isinstance(header, dict) \
            or header.get("schema") not in _READABLE_SCHEMAS:
        raise DataError(f"{path}: unsupported v2 header schema "
                        f"{header.get('schema') if isinstance(header, dict) else None!r}")
    return header, header_len


def _map_sections(buffer: Any, header: Dict[str, Any], path: str,
                  verify_sections: bool) -> Dict[str, np.ndarray]:
    # Validate every section BEFORE exporting any numpy view: a view is
    # an exported pointer into the mmap, and if one exists when a later
    # section fails validation, the caller's cleanup mmap.close() would
    # raise BufferError instead of surfacing the typed DataError.
    for entry in header.get("sections", []):
        name, dtype = entry["name"], entry["dtype"]
        if dtype not in _SECTION_DTYPES:
            raise DataError(f"{path}: section {name!r} has unsupported "
                            f"dtype {dtype!r}")
        count, offset = int(entry["count"]), int(entry["offset"])
        if offset % _ALIGN != 0:
            raise DataError(f"{path}: section {name!r} is misaligned "
                            f"(offset {offset} not {_ALIGN}-byte aligned)")
        nbytes = count * np.dtype(dtype).itemsize
        if offset + nbytes > len(buffer):
            raise DataError(f"{path} is truncated (section {name!r} "
                            f"extends past EOF)")
        if verify_sections:
            crc = zlib.crc32(buffer[offset:offset + nbytes]) & 0xFFFFFFFF
            if crc != entry["crc32"]:
                raise DataError(f"{path} is corrupted (section {name!r} "
                                f"checksum mismatch: {crc} != "
                                f"{entry['crc32']})")
    views: Dict[str, np.ndarray] = {}
    for entry in header.get("sections", []):
        views[entry["name"]] = np.frombuffer(
            buffer, dtype=entry["dtype"], count=int(entry["count"]),
            offset=int(entry["offset"]))
    return views


def _validate_v2_manifest(header: Dict[str, Any], path: str,
                          ) -> Dict[str, Any]:
    from .artifact import _REQUIRED_MANIFEST, vocabulary_hash

    manifest = header.get("manifest")
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: v2 manifest must be an object")
    for key in _REQUIRED_MANIFEST:
        if key not in manifest:
            raise DataError(f"{path}: v2 manifest missing field {key!r}")
    if manifest["schema"] not in _READABLE_SCHEMAS:
        raise DataError(f"{path}: unsupported model schema "
                        f"{manifest['schema']!r} (expected one of "
                        f"{_READABLE_SCHEMAS})")
    strings = header.get("strings")
    if not isinstance(strings, dict):
        raise DataError(f"{path}: v2 header missing string tables")
    for key in ("vocabulary", "phrases", "topics", "entities",
                "role_keys"):
        if key not in strings:
            raise DataError(f"{path}: v2 string tables missing {key!r}")
    vocab_hash = vocabulary_hash(strings["vocabulary"])
    if vocab_hash != manifest["vocab_hash"]:
        raise DataError(f"{path}: vocabulary hash mismatch (manifest "
                        f"{manifest['vocab_hash']!r}, stored vocabulary "
                        f"hashes to {vocab_hash!r})")
    return manifest


def _mapped_from_blob(blob: bytes, path: str,
                      verify_sections: bool = True,
                      mapping: Optional[mmap.mmap] = None) -> MappedModel:
    header, _ = _parse_header(blob, path)
    manifest = _validate_v2_manifest(header, path)
    sections = _map_sections(blob, header, path, verify_sections)
    return MappedModel(manifest=manifest, header=header,
                       path=None if path == "<in-memory>" else path,
                       sections=sections, _mmap=mapping)


def load_model_v2(path: str, verify_sections: bool = True) -> MappedModel:
    """Map and verify a v2 model artifact.

    The file is memory-mapped read-only; the numeric sections become
    zero-copy numpy views over the map.  The header CRC and vocabulary
    hash are always verified.  ``verify_sections=True`` (the default)
    additionally sweeps every section against its CRC32 — a sequential
    read of the mapped pages, still far cheaper than a JSON parse;
    ``verify_sections=False`` skips the sweep so the load touches only
    the header pages (~O(mmap) cold start; integrity then rests on the
    header CRC and the page cache).

    Raises:
        DataError: bad magic, truncation, checksum mismatch, schema or
            vocabulary-hash mismatch — never a partially usable model.
        OSError: when the file cannot be opened or mapped.
    """
    with timed("serve.model_load_v2"):
        with open(path, "rb") as handle:
            mapping = mmap.mmap(handle.fileno(), 0,
                                access=mmap.ACCESS_READ)
        try:
            model = _mapped_from_blob(mapping, path,
                                      verify_sections=verify_sections,
                                      mapping=mapping)
        except BaseException:
            mapping.close()
            raise
    logger.info("mapped v2 model artifact %s (%d topics, %d sections, "
                "%d bytes mapped)", path, model.manifest["num_topics"],
                len(model.sections), model.nbytes_mapped())
    return model


# =====================================================================
# Reconstruction (the v1 export)
# =====================================================================

def _row(model: MappedModel, prefix: str, index: int,
         values_name: str = "values") -> Tuple[np.ndarray, np.ndarray]:
    indptr = model.section(f"{prefix}.indptr")
    start, stop = int(indptr[index]), int(indptr[index + 1])
    ids = model.section(f"{prefix}.ids")[start:stop]
    values = model.section(f"{prefix}.{values_name}")[start:stop]
    return ids, values


def model_document_from_mapped(model: MappedModel) -> Dict[str, Any]:
    """Materialize the full v1 document from a mapped v2 model.

    The result is the ``{"schema", "manifest", "model"}`` document of
    the legacy v1 format, which ``repro migrate-model --to v1`` writes
    and the migration-equivalence tests compare.  Its manifest carries
    over every field but ``schema`` and ``payload_crc32``, which is
    stamped as the CRC32 of the canonical v1 payload, so the document
    verifies as a v1 artifact.
    """
    from .artifact import MODEL_SCHEMA

    strings = model.strings
    topics = strings["topics"]
    phrases = strings["phrases"]

    def record_of(index: int) -> Dict[str, Any]:
        meta = topics[index]
        ids, scores = _row(model, "phrases", index, "scores")
        phi: Dict[str, Dict[str, float]] = {}
        for ntype in meta["phi_types"]:
            names = strings["phi_names"][ntype]
            nids, values = _row(model, f"phi.{ntype}", index)
            phi[ntype] = {names[int(i)]: float(v)
                          for i, v in zip(nids, values)}
        ranks: Dict[str, List[List[Any]]] = {}
        for etype in meta["rank_types"]:
            names = strings["rank_names"][etype]
            rids, rscores = _row(model, f"entity_ranks.{etype}", index,
                                 "scores")
            ranks[etype] = [[names[int(i)], float(s)]
                            for i, s in zip(rids, rscores)]
        return {
            "path": list(meta["path"]),
            "notation": meta["notation"],
            "rho": float(meta["rho"]),
            "phi": phi,
            "phrases": [[phrases[int(i)], float(s)]
                        for i, s in zip(ids, scores)],
            "entity_ranks": ranks,
            "children": [record_of(child) for child in meta["children"]],
        }

    role_keys = strings["role_keys"]
    entity_roles: Dict[str, Dict[str, Dict[str, float]]] = {}
    for etype, names in strings["entities"].items():
        table: Dict[str, Dict[str, float]] = {}
        for index, name in enumerate(names):
            kids, values = _row(model, f"roles.{etype}", index)
            table[name] = {role_keys[int(i)]: float(v)
                           for i, v in zip(kids, values)}
        entity_roles[etype] = table

    payload = {"vocabulary": list(strings["vocabulary"]),
               "hierarchy": record_of(0),
               "entity_roles": entity_roles}
    manifest = dict(model.manifest)
    manifest.update(schema=MODEL_SCHEMA, payload_crc32=zlib.crc32(
        canonical_json(payload)) & 0xFFFFFFFF)
    return {"schema": MODEL_SCHEMA, "manifest": manifest, "model": payload}
