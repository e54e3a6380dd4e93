"""Model-artifact round trips, the v2-only save boundary, and legacy
v1 reads with their corruption rejection (repro.serve)."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import get_version
from repro.core import LatentEntityMiner, MinerConfig
from repro.corpus import Corpus
from repro.errors import ConfigurationError, DataError
from repro.serve import (MODEL_SCHEMA_V2, ModelQueryEngine, ServedModel,
                         load_model, load_model_v2, migrate_model,
                         model_document_from_mapped, save_model,
                         save_model_document, vocabulary_hash)
from repro.serve.artifact import parts_of_result
from repro.stream import IngestConfig

from .conftest import TINY_ENTITIES, TINY_LABELS, TINY_TEXTS
from .faults import truncate_file


@pytest.fixture(scope="module")
def fitted():
    """A fitted tiny-corpus pipeline shared by the serve suites."""
    corpus = Corpus.from_texts(TINY_TEXTS, entities=TINY_ENTITIES,
                               labels=TINY_LABELS)
    miner = LatentEntityMiner(
        MinerConfig(num_children=2, max_depth=1, min_support=2), seed=0)
    return miner, miner.fit(corpus)


@pytest.fixture
def artifact_path(fitted, tmp_path):
    """A legacy v1 JSON artifact: the fit saved as v2, then exported by
    ``migrate_model(..., format="v1")``, the one writer of model JSON."""
    miner, result = fitted
    source = str(tmp_path / "model.rmv2")
    miner.save_model(result, source)
    path = str(tmp_path / "model.json")
    migrate_model(source, path, format="v1")
    return path


class TestManifest:
    def test_save_returns_manifest(self, fitted, tmp_path):
        miner, result = fitted
        manifest = miner.save_model(result, str(tmp_path / "m.rmv2"))
        assert manifest["schema"] == MODEL_SCHEMA_V2
        assert manifest["num_topics"] == result.hierarchy.num_topics
        assert manifest["num_documents"] == len(result.corpus)
        assert manifest["entity_types"] == ["author", "venue"]

    def test_version_stamped(self, fitted, tmp_path):
        miner, result = fitted
        manifest = miner.save_model(result, str(tmp_path / "m.rmv2"))
        assert manifest["repro_version"] == get_version()

    def test_config_fingerprint_recorded(self, fitted, tmp_path):
        miner, result = fitted
        manifest = miner.save_model(result, str(tmp_path / "m.rmv2"))
        assert manifest["config"]["num_children"] == 2
        assert manifest["config"]["max_depth"] == 1

    def test_vocab_hash_matches_corpus(self, fitted, artifact_path):
        _, result = fitted
        model = load_model(artifact_path)
        assert model.manifest["vocab_hash"] == \
            vocabulary_hash(result.corpus.vocabulary)

    def test_vocab_hash_is_order_sensitive(self):
        assert vocabulary_hash(["a", "b"]) != vocabulary_hash(["b", "a"])


class TestRoundTrip:
    def test_hierarchy_reconstructed(self, fitted, artifact_path):
        _, result = fitted
        model = load_model(artifact_path)
        hierarchy = model.hierarchy()
        assert hierarchy.num_topics == result.hierarchy.num_topics
        for topic in hierarchy.topics():
            original = result.hierarchy.topic(topic.path)
            assert topic.notation == original.notation
            assert [p for p, _ in topic.phrases] == \
                [p for p, _ in original.phrases]

    def test_query_results_byte_identical(self, fitted, artifact_path):
        """Every engine answer from disk equals the in-memory answer."""
        miner, result = fitted
        from_disk = ModelQueryEngine(load_model(artifact_path))
        from_memory = ModelQueryEngine.from_result(
            result, config=miner._artifact_config())
        for notation in [t.notation for t in result.hierarchy.topics()]:
            for a, b in [
                (from_disk.topic(notation), from_memory.topic(notation)),
                (from_disk.children(notation),
                 from_memory.children(notation)),
                (from_disk.top_phrases(notation, 5),
                 from_memory.top_phrases(notation, 5)),
            ]:
                assert json.dumps(a, sort_keys=True) == \
                    json.dumps(b, sort_keys=True)

    def test_double_save_identical_payload(self, fitted, tmp_path):
        miner, result = fitted
        first, second = str(tmp_path / "a.rmv2"), str(tmp_path / "b.rmv2")
        saved = [miner.save_model(result, first),
                 miner.save_model(result, second)]
        assert saved[0]["payload_crc32"] == saved[1]["payload_crc32"]
        models = [load_model_v2(first), load_model_v2(second)]
        try:
            assert models[0].strings == models[1].strings
            assert models[0].header["sections"] == \
                models[1].header["sections"]
            assert {name: view.tobytes()
                    for name, view in models[0].sections.items()} == \
                {name: view.tobytes()
                 for name, view in models[1].sections.items()}
        finally:
            for model in models:
                model.close()

    def test_from_result_equals_loaded(self, fitted, artifact_path):
        """The in-memory engine's blob decodes to the legacy payload."""
        miner, result = fitted
        in_memory = ModelQueryEngine.from_result(
            result, config=miner._artifact_config())
        on_disk = load_model(artifact_path)
        assert isinstance(on_disk, ServedModel)
        assert model_document_from_mapped(in_memory.model)["model"] == \
            on_disk.model


_SAVE_PROBE = """
import os, sys, tempfile
from repro.core import LatentEntityMiner, MinerConfig
from repro.corpus import Corpus
texts = ["query processing systems", "query optimization systems",
         "vector machines learning", "support vector machines"] * 3
corpus = Corpus.from_texts(texts, entities=[{"author": ["a", "b"]}] * 12)
miner = LatentEntityMiner(MinerConfig(num_children=2, max_depth=1,
                                      min_support=2), seed=0)
with tempfile.TemporaryDirectory() as directory:
    miner.save_model(miner.fit(corpus), os.path.join(directory, "m.rmv2"))
print(" ".join(name for name in ("asyncio", "http.server",
                                  "repro.serve.aio", "repro.serve.http")
               if name in sys.modules))
"""


class TestSaveImportsNoServer:
    def test_fit_and_save_leave_the_servers_unloaded(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        proc = subprocess.run([sys.executable, "-c", _SAVE_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_lazy_names_import_from_the_package(self):
        import repro.serve as serve
        from repro.serve import ModelAsyncServer, ModelServer
        from repro.serve.aio import ModelAsyncServer as aio_server
        from repro.serve.engine import ModelQueryEngine as engine
        from repro.serve.http import ModelServer as http_server

        assert (ModelAsyncServer, ModelServer, ModelQueryEngine) == \
            (aio_server, http_server, engine)
        with pytest.raises(AttributeError, match="no attribute 'Missing'"):
            serve.Missing


class TestSaveFormat:
    """Every save writes v2; any other format is a typed refusal that
    names the v1 export, and writes no file."""

    def test_defaults_write_v2_bytes(self, fitted, tmp_path):
        miner, result = fitted
        paths = [tmp_path / "miner.rmv2", tmp_path / "serve.rmv2",
                 tmp_path / "parts.rmv2"]
        miner.save_model(result, str(paths[0]))
        save_model(result, str(paths[1]))
        save_model_document(parts_of_result(result), str(paths[2]))
        for path in paths:
            assert path.read_bytes()[:8] == b"REPROMV2"
        assert IngestConfig().export_format == "v2"

    @pytest.mark.parametrize("fmt", ["v1", "v3", "V2"])
    def test_other_formats_refused_without_a_file(self, fitted, tmp_path,
                                                  artifact_path, fmt):
        miner, result = fitted
        with open(artifact_path) as handle:
            document = json.load(handle)
        path = tmp_path / "m.out"
        saves = [
            lambda: miner.save_model(result, str(path), format=fmt),
            lambda: save_model(result, str(path), format=fmt),
            lambda: save_model_document(parts_of_result(result), str(path),
                                        format=fmt),
            lambda: save_model_document(document, str(path), format=fmt),
        ]
        for save in saves:
            with pytest.raises(ConfigurationError,
                               match="migrate-model --to v1"):
                save()
            assert not path.exists()
        with pytest.raises(ConfigurationError,
                           match="migrate-model --to v1"):
            IngestConfig(export_path=str(path), export_format=fmt)
        assert not path.exists()


class TestRejection:
    def test_truncated_file_rejected(self, artifact_path):
        truncate_file(artifact_path, 200)
        with pytest.raises(DataError, match="truncated|not JSON|missing"):
            load_model(artifact_path)

    def test_not_json_rejected(self, tmp_path):
        path = str(tmp_path / "junk.json")
        with open(path, "w") as handle:
            handle.write("this is not a model")
        with pytest.raises(DataError, match="not a valid model artifact"):
            load_model(path)

    def test_wrong_schema_version_rejected(self, artifact_path):
        with open(artifact_path) as handle:
            document = json.load(handle)
        document["schema"] = "repro.serve/model/v999"
        with open(artifact_path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(DataError, match="unsupported model schema"):
            load_model(artifact_path)

    def test_manifest_schema_mismatch_rejected(self, artifact_path):
        with open(artifact_path) as handle:
            document = json.load(handle)
        document["manifest"]["schema"] = "repro.serve/model/v0"
        with open(artifact_path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(DataError, match="unsupported model schema"):
            load_model(artifact_path)

    def test_payload_corruption_rejected(self, artifact_path):
        with open(artifact_path) as handle:
            document = json.load(handle)
        document["model"]["hierarchy"]["rho"] = 0.123456789
        with open(artifact_path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(DataError, match="checksum mismatch"):
            load_model(artifact_path)

    def test_vocab_hash_mismatch_rejected(self, artifact_path):
        with open(artifact_path) as handle:
            document = json.load(handle)
        document["manifest"]["vocab_hash"] = "sha256:" + "0" * 64
        with open(artifact_path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(DataError, match="vocabulary hash mismatch"):
            load_model(artifact_path)

    def test_missing_manifest_field_rejected(self, artifact_path):
        with open(artifact_path) as handle:
            document = json.load(handle)
        del document["manifest"]["payload_crc32"]
        with open(artifact_path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(DataError, match="missing field"):
            load_model(artifact_path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_model(str(tmp_path / "does-not-exist.json"))
