"""v2 zero-copy artifacts: round trips, rejection, migration, sharing.

The acceptance invariants for ``repro.serve/model/v2``:

* an engine over the mmap-backed model answers byte-identically to one
  over the in-memory fit and to answers served over HTTP
  (property-tested, extending the v1 invariant);
* corruption anywhere — preamble, header, a binary section, truncation,
  misalignment — is rejected with a typed error, never served;
* v1 → v2 → v1 migration reproduces the original document bit for bit
  under the same manifest fingerprints, and a legacy v1 file (written
  only by ``migrate_model(..., format="v1")``) serves its v2 source's
  answers and migrates back to the source's sections;
* N processes mapping one artifact share its pages (smaps-verified)
  instead of keeping N private heap copies.
"""

import json
import os
import shutil
import struct
import subprocess
import sys
import textwrap
import urllib.parse
import urllib.request
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ConfigurationError, DataError
from repro.serve import (MODEL_SCHEMA, MODEL_SCHEMA_V2, MappedModel,
                         ModelQueryEngine, ModelServer, ServedModel,
                         load_model, load_model_v2, migrate_model,
                         model_document_from_mapped, save_model_document,
                         vocabulary_hash)
from repro.serve.artifact import parts_of_result
from repro.serve.artifact_v2 import _ALIGN, _MAGIC, _PREAMBLE, canonical_json

from .reference_kernels import reference_v1_document
from .test_serve_artifact import fitted  # noqa: F401 - shared fixture


@pytest.fixture(scope="module")
def pristine_v2(fitted, tmp_path_factory):  # noqa: F811
    """One v2 artifact shared read-only by this module's tests."""
    miner, result = fitted
    path = str(tmp_path_factory.mktemp("v2") / "model.rmv2")
    miner.save_model(result, path)
    return path


@pytest.fixture(scope="module")
def legacy_v1(pristine_v2, tmp_path_factory):
    """The shared v2 artifact exported as legacy v1 JSON (read-only)."""
    path = str(tmp_path_factory.mktemp("v1") / "model.json")
    migrate_model(pristine_v2, path, format="v1")
    return path


def _legacy_document(legacy_v1):
    with open(legacy_v1) as handle:
        return json.load(handle)


def _oracle_v1(fitted):  # noqa: F811
    """The fit encoded as a v1 document by the reference encoder."""
    miner, result = fitted
    return reference_v1_document(
        parts_of_result(result, config=miner._artifact_config()))


@pytest.fixture
def v2_path(pristine_v2, tmp_path):
    """A private mutable copy for corruption tests."""
    path = str(tmp_path / "model.rmv2")
    shutil.copyfile(pristine_v2, path)
    return path


@pytest.fixture(scope="module")
def v2_server(fitted, pristine_v2):  # noqa: F811
    """An HTTP server whose engine is backed by the mapped artifact."""
    engine = ModelQueryEngine(load_model(pristine_v2))
    with ModelServer(engine, port=0) as srv:
        srv.start()
        yield srv


def _http_get(server, path):
    url = f"http://{server.host}:{server.port}{path}"
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def _http_post(server, path, payload):
    url = f"http://{server.host}:{server.port}{path}"
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


class TestManifestContract:
    def test_schema_is_v2_but_fingerprints_carry_over(self, fitted,  # noqa: F811
                                                      legacy_v1, tmp_path):
        miner, result = fitted
        v2 = miner.save_model(result, str(tmp_path / "m.rmv2"),
                              format="v2")
        v1 = load_model(legacy_v1).manifest
        assert v1["schema"] == MODEL_SCHEMA
        assert v2["schema"] == MODEL_SCHEMA_V2
        # Same model behind both formats: the v2 sections decode to the
        # fit's v1 payload, under the same vocabulary hash and shape
        # metadata.
        mapped = load_model_v2(str(tmp_path / "m.rmv2"))
        try:
            decoded = model_document_from_mapped(mapped)["model"]
        finally:
            mapped.close()
        assert decoded == _oracle_v1(fitted)["model"]
        assert decoded == load_model(legacy_v1).model
        assert v2["vocab_hash"] == v1["vocab_hash"]
        assert v2["num_topics"] == v1["num_topics"]

    def test_load_model_sniffs_the_format(self, pristine_v2, legacy_v1):
        assert isinstance(load_model(legacy_v1), ServedModel)
        assert isinstance(load_model(pristine_v2), MappedModel)

    def test_unknown_format_rejected(self, fitted, tmp_path):  # noqa: F811
        miner, result = fitted
        with pytest.raises(ConfigurationError, match="format"):
            miner.save_model(result, str(tmp_path / "m.x"), format="v3")

    def test_sections_are_aligned(self, pristine_v2):
        model = load_model_v2(pristine_v2)
        try:
            assert model.sections, "artifact has no numeric sections"
            for entry in model.header["sections"]:
                assert entry["offset"] % _ALIGN == 0
        finally:
            model.close()


class TestRoundTrip:
    def test_document_reconstruction_is_exact(self, fitted,  # noqa: F811
                                              pristine_v2):
        """v2 sections reconstruct the canonical v1 payload bit for bit."""
        v1_document = _oracle_v1(fitted)
        mapped = load_model_v2(pristine_v2)
        try:
            reconstructed = model_document_from_mapped(mapped)
        finally:
            mapped.close()
        assert reconstructed["model"] == v1_document["model"]
        crc = zlib.crc32(canonical_json(reconstructed["model"]))
        assert crc & 0xFFFFFFFF == \
            v1_document["manifest"]["payload_crc32"] == \
            reconstructed["manifest"]["payload_crc32"]

    def test_engine_answers_match_memory(self, fitted, pristine_v2):  # noqa: F811
        miner, result = fitted
        mapped = ModelQueryEngine(load_model(pristine_v2))
        memory = ModelQueryEngine.from_result(
            result, config=miner._artifact_config())
        for topic in result.hierarchy.topics():
            notation = topic.notation
            for a, b in [
                (mapped.topic(notation, max_phrases=50, max_terms=50,
                              max_entities=50),
                 memory.topic(notation, max_phrases=50, max_terms=50,
                              max_entities=50)),
                (mapped.children(notation), memory.children(notation)),
                (mapped.top_phrases(notation, 100),
                 memory.top_phrases(notation, 100)),
            ]:
                assert json.dumps(a, sort_keys=True) == \
                    json.dumps(b, sort_keys=True)
        assert json.dumps(mapped.entity_roles("alice"), sort_keys=True) \
            == json.dumps(memory.entity_roles("alice"), sort_keys=True)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(phrases=st.integers(min_value=0, max_value=20),
           entities=st.integers(min_value=0, max_value=8),
           terms=st.integers(min_value=0, max_value=15))
    def test_topic_http_round_trip_v2(self, v2_server, fitted,  # noqa: F811
                                      phrases, entities, terms):
        """disk(v2) == memory == HTTP, property-tested over parameters."""
        miner, result = fitted
        memory = ModelQueryEngine.from_result(
            result, config=miner._artifact_config())
        over_http = _http_get(
            v2_server, f"/v1/topics/o/1?phrases={phrases}"
                       f"&entities={entities}&terms={terms}")
        direct = memory.topic("o/1", max_phrases=phrases,
                              max_entities=entities, max_terms=terms)
        assert json.dumps(over_http, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(query=st.text(alphabet="abcdefgstuv ", min_size=0, max_size=8),
           mode=st.sampled_from(["prefix", "substring"]),
           limit=st.integers(min_value=1, max_value=20))
    def test_search_http_round_trip_v2(self, v2_server, fitted,  # noqa: F811
                                       query, mode, limit):
        miner, result = fitted
        memory = ModelQueryEngine.from_result(
            result, config=miner._artifact_config())
        encoded = urllib.parse.quote(query)
        over_http = _http_get(
            v2_server, f"/v1/search?q={encoded}&mode={mode}&limit={limit}")
        direct = memory.search_phrases(query, mode=mode, limit=limit)
        assert json.dumps(over_http, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)


class TestRejection:
    def test_truncated_preamble_rejected(self, v2_path):
        with open(v2_path, "r+b") as handle:
            handle.truncate(10)
        with pytest.raises(DataError, match="truncated"):
            load_model(v2_path)

    def test_header_corruption_rejected(self, v2_path):
        with open(v2_path, "r+b") as handle:
            handle.seek(_PREAMBLE.size + 5)
            byte = handle.read(1)
            handle.seek(_PREAMBLE.size + 5)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(DataError, match="header checksum"):
            load_model(v2_path)

    def test_section_corruption_rejected(self, v2_path):
        model = load_model_v2(v2_path)
        entry = model.header["sections"][0]
        offset = entry["offset"]
        model.close()
        with open(v2_path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(DataError,
                           match=f"section {entry['name']!r} checksum"):
            load_model(v2_path)

    def test_section_corruption_slips_without_sweep(self, v2_path):
        """verify_sections=False skips the sweep — documented tradeoff."""
        model = load_model_v2(v2_path)
        offset = model.header["sections"][0]["offset"]
        model.close()
        with open(v2_path, "r+b") as handle:
            handle.seek(offset)
            handle.write(b"\xff")
        model = load_model(v2_path, verify_sections=False)
        assert isinstance(model, MappedModel)
        model.close()

    def test_truncated_sections_rejected(self, v2_path):
        size = os.path.getsize(v2_path)
        with open(v2_path, "r+b") as handle:
            handle.truncate(size - 64)
        with pytest.raises(DataError, match="extends past EOF"):
            load_model(v2_path)

    def test_misaligned_section_rejected(self, v2_path):
        # Rewrite the header with a deliberately misaligned offset and a
        # *valid* header CRC: the alignment check itself must fire.
        with open(v2_path, "rb") as handle:
            blob = bytearray(handle.read())
        _, header_len, _ = _PREAMBLE.unpack_from(blob, 0)
        header = json.loads(
            blob[_PREAMBLE.size:_PREAMBLE.size + header_len].decode())
        header["sections"][0]["offset"] += 1
        new_header = json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode()
        assert len(new_header) == header_len, \
            "offset bump changed header length; pick another section"
        rebuilt = bytearray()
        rebuilt += _PREAMBLE.pack(_MAGIC, len(new_header),
                                  zlib.crc32(new_header) & 0xFFFFFFFF)
        rebuilt += new_header
        rebuilt += blob[_PREAMBLE.size + header_len:]
        with open(v2_path, "wb") as handle:
            handle.write(rebuilt)
        with pytest.raises(DataError, match="misaligned"):
            load_model(v2_path)

    def test_vocab_hash_mismatch_rejected(self, v2_path):
        with open(v2_path, "rb") as handle:
            blob = bytearray(handle.read())
        _, header_len, _ = _PREAMBLE.unpack_from(blob, 0)
        header = json.loads(
            blob[_PREAMBLE.size:_PREAMBLE.size + header_len].decode())
        header["manifest"]["vocab_hash"] = "sha256:" + "0" * 64
        new_header = json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode()
        rebuilt = _PREAMBLE.pack(_MAGIC, len(new_header),
                                 zlib.crc32(new_header) & 0xFFFFFFFF) \
            + new_header + bytes(blob[_PREAMBLE.size + header_len:])
        with open(v2_path, "wb") as handle:
            handle.write(rebuilt)
        with pytest.raises(DataError, match="vocabulary hash mismatch"):
            load_model(v2_path)

    def test_nan_payload_rejected_at_save_time(self, legacy_v1, tmp_path):
        """Satellite regression: non-finite floats fail the save, typed."""
        document = _legacy_document(legacy_v1)
        document["model"]["hierarchy"]["rho"] = float("nan")
        with pytest.raises(DataError, match="non-finite"):
            save_model_document(document, str(tmp_path / "m.rmv2"),
                                format="v2")


class TestSaveContract:
    """The array writer's save-time checks, its ``payload_crc32``, and
    the files it still reads."""

    @pytest.mark.parametrize("where,value", [
        ("phi", float("nan")), ("phi", float("inf")),
        ("rho", float("nan")), ("rho", float("-inf")),
        ("role", float("nan")), ("role", float("inf"))])
    def test_non_finite_fit_refused_at_save(self, fitted, tmp_path,  # noqa: F811
                                            monkeypatch, where, value):
        miner, result = fitted
        topic = result.hierarchy.topic("o/1")
        if where == "phi":
            dist = topic.phi["term"]
            monkeypatch.setitem(dist, next(iter(dist)), value)
        elif where == "rho":
            monkeypatch.setattr(topic, "rho", value)
        else:
            table = result.roles.entity_topic_frequencies("author")
            monkeypatch.setitem(table["alice"], "o", value)
        path = tmp_path / "m.rmv2"
        with pytest.raises(DataError, match="non-finite"):
            miner.save_model(result, str(path), format="v2")
        assert not path.exists()

    def test_v1_document_with_a_wrong_crc_refused(self, legacy_v1,
                                                  tmp_path):
        document = _legacy_document(legacy_v1)
        target = str(tmp_path / "m.rmv2")
        document["manifest"]["payload_crc32"] ^= 1
        with pytest.raises(DataError, match="checksum mismatch"):
            save_model_document(document, target, format="v2")
        document["manifest"]["payload_crc32"] ^= 1
        document["model"]["hierarchy"]["rho"] = 0.123456789
        with pytest.raises(DataError, match="checksum mismatch"):
            save_model_document(document, target, format="v2")
        assert not os.path.exists(target)

    def test_payload_crc32_covers_strings_then_section_crcs(self,
                                                            pristine_v2):
        model = load_model_v2(pristine_v2)
        try:
            strings = json.dumps(model.strings, sort_keys=True,
                                 separators=(",", ":")).encode("utf-8")
            crcs = [zlib.crc32(model.section(entry["name"]).tobytes())
                    for entry in model.header["sections"]]
            expected = zlib.crc32(
                strings + struct.pack(f"<{len(crcs)}I", *crcs))
            assert model.manifest["payload_crc32"] == expected & 0xFFFFFFFF
        finally:
            model.close()

    def test_memory_engine_serves_the_saved_bytes(self, fitted,  # noqa: F811
                                                  pristine_v2):
        miner, result = fitted
        memory = ModelQueryEngine.from_result(
            result, config=miner._artifact_config())
        disk = load_model_v2(pristine_v2)
        try:
            strings, table = disk.strings, disk.header["sections"]
            sections = {name: view.tobytes()
                        for name, view in disk.sections.items()}
        finally:
            disk.close()
        assert memory.artifact_format == "v2"
        assert memory.model.strings == strings
        assert memory.model.header["sections"] == table
        assert {name: view.tobytes() for name, view
                in memory.model.sections.items()} == sections

    def test_old_v2_schema_stamp_still_loads(self, fitted, pristine_v2,  # noqa: F811
                                             tmp_path):
        """A file stamped ``repro.serve/model/v2`` loads and answers
        like the current stamp; its ``payload_crc32`` is not checked."""
        with open(pristine_v2, "rb") as handle:
            blob = handle.read()
        _, header_len, _ = _PREAMBLE.unpack_from(blob, 0)
        header = json.loads(
            blob[_PREAMBLE.size:_PREAMBLE.size + header_len].decode())
        assert header["schema"] == header["manifest"]["schema"] \
            == MODEL_SCHEMA_V2
        header["schema"] = header["manifest"]["schema"] = \
            "repro.serve/model/v2"
        digits = len(str(header["manifest"]["payload_crc32"]))
        header["manifest"]["payload_crc32"] = 10 ** (digits - 1) + 7
        old_header = json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode()
        assert len(old_header) == header_len
        path = str(tmp_path / "old.rmv2")
        with open(path, "wb") as handle:
            handle.write(_PREAMBLE.pack(_MAGIC, header_len,
                                        zlib.crc32(old_header) & 0xFFFFFFFF)
                         + old_header + blob[_PREAMBLE.size + header_len:])
        old = ModelQueryEngine(load_model(path))
        current = ModelQueryEngine(load_model(pristine_v2))
        try:
            assert old.model.manifest["schema"] == "repro.serve/model/v2"
            _, result = fitted
            for topic in result.hierarchy.topics():
                assert json.dumps(old.topic(topic.notation)) == \
                    json.dumps(current.topic(topic.notation))
            assert json.dumps(old.search_phrases("a", "substring")) == \
                json.dumps(current.search_phrases("a", "substring"))
            assert json.dumps(old.entity_roles("alice")) == \
                json.dumps(current.entity_roles("alice"))
        finally:
            old.close()
            current.close()

    def test_v2_to_v1_migration_stamps_the_v1_crc(self, fitted,  # noqa: F811
                                                  pristine_v2, tmp_path):
        v1_path = str(tmp_path / "back.json")
        migrated = migrate_model(pristine_v2, v1_path, format="v1")
        loaded = load_model(v1_path)  # verifies the v1 payload CRC
        assert isinstance(loaded, ServedModel)
        assert migrated["payload_crc32"] == zlib.crc32(
            canonical_json(loaded.model)) & 0xFFFFFFFF
        assert migrated["payload_crc32"] == \
            _oracle_v1(fitted)["manifest"]["payload_crc32"]


class TestMigration:
    def test_v1_to_v2_to_v1_is_lossless(self, legacy_v1, tmp_path):
        v1_path = legacy_v1
        v2_path = str(tmp_path / "b.rmv2")
        back_path = str(tmp_path / "c.json")
        original = load_model(v1_path).manifest
        forward = migrate_model(v1_path, v2_path, format="v2")
        assert forward["schema"] == MODEL_SCHEMA_V2
        backward = migrate_model(v2_path, back_path, format="v1")
        assert backward["schema"] == MODEL_SCHEMA
        with open(v1_path) as handle:
            before = json.load(handle)
        with open(back_path) as handle:
            after = json.load(handle)
        assert before["model"] == after["model"]
        assert before["manifest"] == after["manifest"]
        with open(v1_path, "rb") as first, open(back_path, "rb") as second:
            assert first.read() == second.read()
        assert original["payload_crc32"] == backward["payload_crc32"]
        mapped = load_model_v2(v2_path)
        try:
            assert model_document_from_mapped(mapped)["model"] \
                == before["model"]
        finally:
            mapped.close()

    def test_migrated_artifact_answers_identically(self, fitted,  # noqa: F811
                                                   legacy_v1, tmp_path):
        _, result = fitted
        v1_path = legacy_v1
        v2_path = str(tmp_path / "b.rmv2")
        migrate_model(v1_path, v2_path, format="v2")
        from_v1 = ModelQueryEngine(load_model(v1_path))
        from_v2 = ModelQueryEngine(load_model(v2_path))
        for notation in [t.notation for t in result.hierarchy.topics()]:
            assert json.dumps(from_v1.topic(notation), sort_keys=True) \
                == json.dumps(from_v2.topic(notation), sort_keys=True)


class TestLegacyV1:
    """A v1 file, written only by ``migrate_model(..., format="v1")``,
    is a legacy read: packed in memory, it serves what its v2 source
    serves, and migrates back to that source's sections."""

    QUERIES = ["", "a", "s", "data", "qu", "zz"]

    def _pair(self, pristine_v2, legacy_v1):
        legacy = ModelQueryEngine(load_model(legacy_v1), cache_size=0)
        source = ModelQueryEngine(load_model(pristine_v2), cache_size=0)
        assert (legacy.artifact_format, source.artifact_format) == \
            ("v1", "v2")
        return legacy, source

    def test_engine_answers_equal_the_v2_source(self, fitted,  # noqa: F811
                                                pristine_v2, legacy_v1):
        _, result = fitted
        legacy, source = self._pair(pristine_v2, legacy_v1)
        try:
            answers = []
            for engine in (legacy, source):
                calls = []
                for topic in result.hierarchy.topics():
                    notation = topic.notation
                    calls += [engine.topic(notation, max_phrases=50,
                                           max_terms=50, max_entities=50),
                              engine.children(notation),
                              engine.top_phrases(notation, 100)]
                for query in self.QUERIES:
                    for mode in ("prefix", "substring"):
                        calls.append(engine.search_phrases(query, mode, 20))
                for name in ("alice", "bob", "nobody"):
                    calls.append(engine.batch([{
                        "op": "entity_roles", "args": {"name": name}}]))
                info = engine.model_info()
                calls.append({key: value for key, value in info.items()
                              if key not in ("manifest", "artifact_format")})
                answers.append(json.dumps(calls, sort_keys=True))
            assert answers[0] == answers[1]
        finally:
            legacy.close()
            source.close()

    def test_http_answers_equal_the_v2_source(self, fitted,  # noqa: F811
                                              pristine_v2, legacy_v1,
                                              v2_server):
        _, result = fitted
        engine = ModelQueryEngine(load_model(legacy_v1))
        with ModelServer(engine, port=0) as legacy_server:
            legacy_server.start()
            paths = [f"/v1/topics/{t.notation}?phrases=20&terms=20"
                     f"&entities=20" for t in result.hierarchy.topics()]
            paths += [f"/v1/search?q={urllib.parse.quote(q)}&mode={mode}"
                      for q in self.QUERIES
                      for mode in ("prefix", "substring")]
            paths.append("/v1/entities/alice")
            for path in paths:
                assert json.dumps(_http_get(legacy_server, path),
                                  sort_keys=True) == \
                    json.dumps(_http_get(v2_server, path), sort_keys=True)

    def test_migrating_back_gives_the_source_sections(self, pristine_v2,
                                                      legacy_v1, tmp_path):
        back = str(tmp_path / "back.rmv2")
        migrate_model(legacy_v1, back, format="v2")
        models = [load_model_v2(pristine_v2), load_model_v2(back)]
        try:
            source, migrated = models
            assert migrated.header["sections"] == source.header["sections"]
            assert {name: view.tobytes()
                    for name, view in migrated.sections.items()} == \
                {name: view.tobytes()
                 for name, view in source.sections.items()}
            assert migrated.strings == source.strings
            assert migrated.manifest == source.manifest
        finally:
            for model in models:
                model.close()


_SMAPS_PROBE = textwrap.dedent("""\
    import json, sys
    from repro.serve import load_model_v2

    path = sys.argv[1]
    model = load_model_v2(path, verify_sections=False)
    # Touch every numeric page so the mapping is fully resident.
    touched = sum(float(section.sum()) for section in
                  model.sections.values())
    stats = {"mapped_bytes": model.nbytes_mapped(), "touched": touched}
    fields = {"Rss": 0, "Pss": 0, "Private_Dirty": 0, "Private_Clean": 0,
              "Shared_Clean": 0}
    inside = False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            if path in line:
                inside = True
                continue
            if inside:
                parts = line.split()
                key = parts[0].rstrip(":")
                if key in fields:
                    fields[key] += int(parts[1])   # kB
                elif "-" in parts[0] and len(parts) >= 5:
                    inside = False                 # next VMA header
    stats.update({k.lower() + "_kb": v for k, v in fields.items()})
    print(json.dumps(stats))
    sys.stdout.flush()
    if len(sys.argv) > 2 and sys.argv[2] == "hold":
        sys.stdin.readline()                       # parent releases us
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                    reason="needs Linux smaps accounting")
class TestPageSharing:
    """mmap'd loads must share pages across processes (tentpole claim)."""

    def _spawn(self, path, hold=False):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        args = [sys.executable, "-c", _SMAPS_PROBE, path]
        if hold:
            args.append("hold")
        return subprocess.Popen(args, env=env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)

    def test_mapping_is_file_backed_not_private(self, pristine_v2):
        proc = self._spawn(pristine_v2)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        stats = json.loads(out.splitlines()[0])
        assert stats["mapped_bytes"] > 0
        # Reading zero-copy views must dirty (essentially) nothing: the
        # numeric data stays on file-backed clean pages.  Allow a small
        # bound for page-table noise.
        assert stats["private_dirty_kb"] <= 16, stats
        # ...and the mapping really was touched into residency.
        assert stats["rss_kb"] * 1024 >= stats["mapped_bytes"] // 2, stats

    def test_two_processes_share_one_copy(self, pristine_v2):
        """With a second mapper alive, Pss ~ Rss/2: one shared copy."""
        holder = self._spawn(pristine_v2, hold=True)
        try:
            first = json.loads(holder.stdout.readline())
            assert first["mapped_bytes"] > 0
            probe = self._spawn(pristine_v2)
            out, _ = probe.communicate(timeout=60)
            assert probe.returncode == 0, out
            stats = json.loads(out.splitlines()[0])
            # The artifact's pages are counted in both processes' Rss
            # but split in Pss — the kernel is sharing one physical
            # copy.  Require a visible reduction (strictly < 100%, with
            # margin) rather than exactly half to stay robust.
            assert stats["rss_kb"] > 0
            assert stats["pss_kb"] <= stats["rss_kb"] * 3 // 4, stats
            assert stats["private_dirty_kb"] <= 16, stats
        finally:
            if holder.stdin is not None:
                holder.stdin.close()
            holder.wait(timeout=30)


class TestSizeArguments:
    """A size that is not an integer is a typed 400 naming it, with one
    error record from a v1 engine, a v2 engine and ``POST /v1/batch``."""

    SIZED = [("topic", {"topic_id": "o/1"}, "max_phrases"),
             ("topic", {"topic_id": "o/1"}, "max_terms"),
             ("topic", {"topic_id": "o/1"}, "max_entities"),
             ("top_phrases", {"topic_id": "o"}, "k"),
             ("search_phrases", {"query": "s"}, "limit")]
    BAD = [2.5, "3", None, True, False]

    def test_same_400_record_from_every_path(self, fitted,  # noqa: F811
                                             v2_server):
        miner, result = fitted
        v1 = ModelQueryEngine.from_result(result,
                                          config=miner._artifact_config())
        cases = [(op, args, name, bad) for op, args, name in self.SIZED
                 for bad in self.BAD]
        requests = [{"op": op, "args": dict(args, **{name: bad})}
                    for op, args, name, bad in cases]
        over_http = _http_post(v2_server, "/v1/batch", requests)
        expected = {"results": [
            {"ok": False, "status": 400,
             "error": f"{name} must be an integer, got {bad!r}"}
            for _, _, name, bad in cases]}
        for answer in (v1.batch(requests), v2_server.engine.batch(requests),
                       over_http):
            assert json.dumps(answer) == json.dumps(expected)

    def test_direct_calls_raise_configuration_error(self, pristine_v2):
        engine = ModelQueryEngine(load_model(pristine_v2))
        try:
            with pytest.raises(ConfigurationError, match="max_terms"):
                engine.topic("o", max_terms=2.5)
            with pytest.raises(ConfigurationError, match="^k must"):
                engine.top_phrases("o", k="3")
            with pytest.raises(ConfigurationError, match="limit"):
                engine.search_phrases("s", limit=True)
        finally:
            engine.close()

    def test_negative_sizes_clamp_to_zero(self, fitted,  # noqa: F811
                                          pristine_v2):
        miner, result = fitted
        v1 = ModelQueryEngine.from_result(result,
                                          config=miner._artifact_config())
        v2 = ModelQueryEngine(load_model(pristine_v2))
        try:
            for engine in (v1, v2):
                answer = engine.topic("o/1", max_phrases=-1,
                                      max_entities=-2, max_terms=-3)
                assert answer == engine.topic("o/1", max_phrases=0,
                                              max_entities=0, max_terms=0)
                assert answer["phrases"] == answer["top_terms"] == []
                assert engine.top_phrases("o", k=-1)["phrases"] == []
                assert engine.search_phrases("s", limit=-1)["matches"] == []
            assert json.dumps(v1.topic("o/1", max_terms=-3)) == \
                json.dumps(v2.topic("o/1", max_terms=-3))
        finally:
            v2.close()
