"""Zero-copy model artifacts: the ``repro.serve/model/v2`` format.

The v1 artifact (:mod:`repro.serve.artifact`) is one canonical JSON
document: loading it parses every float of every topic-word
distribution, phrase ranking, and entity role table into fresh Python
objects, per process.  For a large model served by N workers that is N
full parses and N private heap copies of the same numbers.

v2 keeps the manifest / CRC / fingerprint contract but moves the large
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

The header is one JSON object::

    {"schema": "repro.serve/model/v2",
     "manifest": {... same fields as v1; schema names v2 ...},
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

Integrity is layered exactly like v1: ``manifest.payload_crc32`` is
still the CRC32 of the *canonical v1 JSON payload* the sections encode
(which makes v1→v2→v1 migration verifiably lossless), ``vocab_hash``
still covers the vocabulary, the header carries its own CRC32, and
every section carries one, verified on load (pass
``verify_sections=False`` to skip the section sweep and keep cold load
strictly O(mmap); the header CRC and vocabulary hash are always
checked).  At save time the writer reconstructs the canonical payload
from its own sections and refuses to emit an artifact whose CRC does
not round-trip.
"""

from __future__ import annotations

import json
import mmap
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..contracts import MODEL_V2
from ..errors import DataError
from ..obs import get_logger, timed
from ..resilience import atomic_write_bytes

__all__ = [
    "MODEL_SCHEMA_V2",
    "MappedModel",
    "build_v2_blob",
    "load_model_v2",
    "model_document_from_mapped",
    "save_model_document_v2",
]

MODEL_SCHEMA_V2 = MODEL_V2

_MAGIC = b"REPROMV2"
_ALIGN = 64
#: Fixed-size preamble: magic, header length (u64), header crc32 (u32),
#: 4 reserved zero bytes.
_PREAMBLE = struct.Struct("<8sQI4x")

#: dtypes a conforming v2 artifact may use for its sections.
_SECTION_DTYPES = {"<i4", "<i8", "<f8"}

logger = get_logger("serve.artifact_v2")


def _canonical(obj: Any) -> bytes:
    """Canonical JSON bytes (sorted keys, compact, strict floats)."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False,
                          separators=(",", ":")).encode("utf-8")
    except ValueError as exc:
        raise DataError(
            f"model payload contains a non-finite float (NaN/Infinity), "
            f"which has no canonical JSON form: {exc}") from exc


# =====================================================================
# Writing
# =====================================================================

class _Ragged:
    """Accumulates one CSR-style ragged section triple."""

    def __init__(self) -> None:
        self.indptr: List[int] = [0]
        self.ids: List[int] = []
        self.values: List[float] = []

    def append_row(self, ids: Sequence[int],
                   values: Sequence[float]) -> None:
        self.ids.extend(ids)
        self.values.extend(values)
        self.indptr.append(len(self.ids))

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.asarray(self.indptr, dtype="<i8"),
                np.asarray(self.ids, dtype="<i4"),
                np.asarray(self.values, dtype="<f8"))


def _flatten_topics(hierarchy: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The topic records in depth-first preorder (the v1 walk order)."""
    ordered: List[Dict[str, Any]] = []

    def walk(record: Dict[str, Any]) -> None:
        ordered.append(record)
        for child in record["children"]:
            walk(child)

    walk(hierarchy)
    return ordered


def _name_table(names: Sequence[str]) -> Tuple[List[str], Dict[str, int]]:
    ordered = sorted(set(names))
    return ordered, {name: i for i, name in enumerate(ordered)}


def build_v2_blob(document: Dict[str, Any]) -> bytes:
    """Serialize a v1-style model document as a v2 binary artifact.

    ``document`` is the ``{"schema", "manifest", "model"}`` object
    :func:`repro.serve.artifact.build_model_document` produces (already
    JSON-normalized).  The returned bytes are the complete artifact.

    Raises:
        DataError: when the model payload cannot be represented (a
            non-finite float, or a payload whose canonical CRC does not
            survive the section round trip).
    """
    model = document["model"]
    manifest = dict(document["manifest"])
    manifest["schema"] = MODEL_SCHEMA_V2

    records = _flatten_topics(model["hierarchy"])
    notation_of = [r["notation"] for r in records]
    topic_index = {n: i for i, n in enumerate(notation_of)}

    # ---------------------------------------------------- string tables
    phrase_names, phrase_id = _name_table(
        [p for r in records for p, _ in r["phrases"]])
    phi_types = sorted({t for r in records for t in r["phi"]})
    phi_names: Dict[str, List[str]] = {}
    phi_ids: Dict[str, Dict[str, int]] = {}
    for ntype in phi_types:
        phi_names[ntype], phi_ids[ntype] = _name_table(
            [n for r in records for n in r["phi"].get(ntype, {})])
    rank_types = sorted({t for r in records for t in r["entity_ranks"]})
    rank_names: Dict[str, List[str]] = {}
    rank_ids: Dict[str, Dict[str, int]] = {}
    for etype in rank_types:
        rank_names[etype], rank_ids[etype] = _name_table(
            [n for r in records
             for n, _ in r["entity_ranks"].get(etype, [])])
    roles = model["entity_roles"]
    role_keys, role_key_id = _name_table(
        [k for table in roles.values()
         for freqs in table.values() for k in freqs])
    entities = {etype: sorted(table) for etype, table in roles.items()}

    # ------------------------------------------------- numeric sections
    sections: List[Tuple[str, np.ndarray]] = []

    def add_ragged(prefix: str, ragged: _Ragged,
                   values_name: str = "values") -> None:
        indptr, ids, values = ragged.arrays()
        sections.append((f"{prefix}.indptr", indptr))
        sections.append((f"{prefix}.ids", ids))
        sections.append((f"{prefix}.{values_name}", values))

    phrases = _Ragged()
    for record in records:
        phrases.append_row([phrase_id[p] for p, _ in record["phrases"]],
                           [float(s) for _, s in record["phrases"]])
    add_ragged("phrases", phrases, "scores")

    for ntype in phi_types:
        ragged = _Ragged()
        table = phi_ids[ntype]
        for record in records:
            dist = record["phi"].get(ntype, {})
            names = sorted(dist)
            ragged.append_row([table[n] for n in names],
                              [float(dist[n]) for n in names])
        add_ragged(f"phi.{ntype}", ragged)

    for etype in rank_types:
        ragged = _Ragged()
        table = rank_ids[etype]
        for record in records:
            ranks = record["entity_ranks"].get(etype, [])
            ragged.append_row([table[n] for n, _ in ranks],
                              [float(s) for _, s in ranks])
        add_ragged(f"entity_ranks.{etype}", ragged, "scores")

    # Phrase inverted index, ranked exactly as the v1 engine ranks it:
    # per phrase, (topic, score) sorted by (-score, notation).
    inverted: Dict[str, List[Tuple[str, float]]] = {}
    for record in records:
        for phrase, score in record["phrases"]:
            inverted.setdefault(phrase, []).append(
                (record["notation"], float(score)))
    inv = _Ragged()
    for phrase in phrase_names:
        entries = sorted(inverted.get(phrase, []),
                         key=lambda pair: (-pair[1], pair[0]))
        inv.append_row([topic_index[n] for n, _ in entries],
                       [s for _, s in entries])
    add_ragged("inverted", inv, "scores")

    for etype in sorted(roles):
        ragged = _Ragged()
        for name in entities[etype]:
            freqs = roles[etype][name]
            keys = sorted(freqs)
            ragged.append_row([role_key_id[k] for k in keys],
                              [float(freqs[k]) for k in keys])
        add_ragged(f"roles.{etype}", ragged)

    # -------------------------------------------------- topic skeleton
    topics_meta: List[Dict[str, Any]] = []
    parent_of: Dict[str, Optional[str]] = {notation_of[0]: None}
    for record in records:
        for child in record["children"]:
            parent_of[child["notation"]] = record["notation"]
    for record in records:
        parent = parent_of[record["notation"]]
        topics_meta.append({
            "notation": record["notation"],
            "path": list(record["path"]),
            "rho": float(record["rho"]),
            "parent": None if parent is None else topic_index[parent],
            "children": [topic_index[c["notation"]]
                         for c in record["children"]],
            "phi_types": sorted(record["phi"]),
            "rank_types": sorted(record["entity_ranks"]),
        })

    # ------------------------------------------------------ assembly
    # Two passes: lay out offsets with a section table of known shape,
    # then emit.  Offsets depend on the header length, which depends on
    # the section table text — so iterate until the layout fixes.
    strings = {
        "vocabulary": model["vocabulary"],
        "phrases": phrase_names,
        "phi_names": phi_names,
        "rank_names": rank_names,
        "role_keys": role_keys,
        "entities": entities,
        "topics": topics_meta,
    }

    def header_bytes(table: List[Dict[str, Any]]) -> bytes:
        return _canonical({"schema": MODEL_SCHEMA_V2, "manifest": manifest,
                           "strings": strings, "sections": table})

    def aligned(offset: int) -> int:
        return (offset + _ALIGN - 1) // _ALIGN * _ALIGN

    def layout(header_len: int) -> List[Dict[str, Any]]:
        table = []
        offset = aligned(_PREAMBLE.size + header_len)
        for name, array in sections:
            table.append({"name": name,
                          "dtype": array.dtype.str,
                          "count": int(array.size),
                          "offset": offset,
                          "crc32": zlib.crc32(array.tobytes()) & 0xFFFFFFFF})
            offset = aligned(offset + array.nbytes)
        return table

    header_len = 0
    header = b""
    for _ in range(8):
        table = layout(header_len)
        header = header_bytes(table)
        if len(header) == header_len:
            break
        header_len = len(header)
    else:  # pragma: no cover - the digit-width fixpoint converges fast
        raise DataError("v2 header layout failed to converge")

    total = aligned(_PREAMBLE.size + len(header))
    if table:
        last_name, last_array = sections[-1]
        total = table[-1]["offset"] + last_array.nbytes
    blob = bytearray(total)
    blob[:_PREAMBLE.size] = _PREAMBLE.pack(
        _MAGIC, len(header), zlib.crc32(header) & 0xFFFFFFFF)
    blob[_PREAMBLE.size:_PREAMBLE.size + len(header)] = header
    for entry, (name, array) in zip(table, sections):
        start = entry["offset"]
        blob[start:start + array.nbytes] = array.tobytes()

    # Save-time self check: the sections must reconstruct the canonical
    # v1 payload bit for bit, or the artifact's CRC contract is a lie.
    reconstructed = model_document_from_mapped(
        _mapped_from_blob(bytes(blob), path="<in-memory>"))
    crc = zlib.crc32(_canonical(reconstructed["model"])) & 0xFFFFFFFF
    if crc != manifest["payload_crc32"]:
        raise DataError(
            f"v2 encoding does not round-trip the canonical payload "
            f"(crc {crc} != manifest {manifest['payload_crc32']}); "
            f"the model is not v2-representable")
    return bytes(blob)


def save_model_document_v2(document: Dict[str, Any],
                           path: str) -> Dict[str, Any]:
    """Write a v1-style model document as a v2 artifact (atomically)."""
    with timed("serve.export_v2"):
        blob = build_v2_blob(document)
        atomic_write_bytes(path, blob)
    manifest = dict(document["manifest"])
    manifest["schema"] = MODEL_SCHEMA_V2
    logger.info("exported v2 model artifact (%d topics, %d bytes) -> %s",
                manifest["num_topics"], len(blob), path)
    return manifest


# =====================================================================
# Reading
# =====================================================================

@dataclass
class MappedModel:
    """A v2 artifact mapped into memory, numeric sections zero-copy.

    Attributes:
        manifest: the artifact manifest (schema ``repro.serve/model/v2``).
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
            or header.get("schema") != MODEL_SCHEMA_V2:
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
    if manifest["schema"] != MODEL_SCHEMA_V2:
        raise DataError(f"{path}: unsupported model schema "
                        f"{manifest['schema']!r} (expected "
                        f"{MODEL_SCHEMA_V2!r})")
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
# Reconstruction (migration + the save-time self check)
# =====================================================================

def _row(model: MappedModel, prefix: str, index: int,
         values_name: str = "values") -> Tuple[np.ndarray, np.ndarray]:
    indptr = model.section(f"{prefix}.indptr")
    start, stop = int(indptr[index]), int(indptr[index + 1])
    ids = model.section(f"{prefix}.ids")[start:stop]
    values = model.section(f"{prefix}.{values_name}")[start:stop]
    return ids, values


def model_document_from_mapped(model: MappedModel) -> Dict[str, Any]:
    """Materialize the full v1-style document from a mapped v2 model.

    The result is exactly the ``{"schema", "manifest", "model"}``
    document whose canonical payload the manifest's ``payload_crc32``
    covers — the inverse of :func:`build_v2_blob`, used by
    ``repro migrate-model`` and the migration-equivalence tests.
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

    manifest = dict(model.manifest)
    manifest["schema"] = MODEL_SCHEMA
    return {"schema": MODEL_SCHEMA, "manifest": manifest,
            "model": {"vocabulary": list(strings["vocabulary"]),
                      "hierarchy": record_of(0),
                      "entity_roles": entity_roles}}
