"""Tests for :mod:`repro.contracts` — the versioned-format registry."""

import re
import subprocess
import sys

import pytest

from repro import contracts
from repro.contracts import (REGISTRY, SchemaSpec, check_registry,
                             constant_name_of, get_spec,
                             registered_formats)
from repro.errors import ConfigurationError


class TestRegistryContents:
    def test_every_known_format_is_registered(self):
        expected = {
            "repro.serve/model/v1",
            "repro.serve/model/v2",
            "repro.serve/model/v3",
            "repro.resilience/checkpoint/v1",
            "repro.obs/run-report/v2",
            "repro.obs/profile/v1",
            "repro.stream/shard/v1",
            "repro.stream/shard-dir/v1",
            "repro.stream/vocab-delta/v1",
            "repro.strod/moment-sketch/v1",
            "repro.lint/report/v1",
        }
        assert set(registered_formats()) == expected

    def test_formats_match_the_declared_pattern(self):
        pattern = re.compile(f"^{contracts.FORMAT_PATTERN}$")
        for fmt in registered_formats():
            assert pattern.match(fmt), fmt

    def test_every_format_has_a_public_constant(self):
        for fmt in registered_formats():
            name = constant_name_of(fmt)
            assert name is not None, fmt
            assert getattr(contracts, name) == fmt
            assert name in contracts.__all__

    def test_get_spec_returns_full_spec(self):
        spec = get_spec("repro.serve/model/v1")
        assert isinstance(spec, SchemaSpec)
        assert spec.owner == "repro.serve.artifact"
        assert spec.loader_parts() == ("repro.serve.artifact",
                                       "load_model")

    def test_get_spec_raises_for_unregistered(self):
        with pytest.raises(ConfigurationError):
            get_spec("repro.serve/model/v99")

    def test_constant_name_of_unregistered_is_none(self):
        assert constant_name_of("repro.nowhere/x/v1") is None


class TestRegistryValidation:
    def test_check_registry_is_clean(self):
        assert check_registry() == []

    def test_register_rejects_malformed_format(self):
        with pytest.raises(ConfigurationError):
            contracts._register("not-a-format", owner="x",
                                loader="m:f", title="bad")

    def test_register_rejects_duplicates(self):
        fmt = "repro.serve/model/v1"
        with pytest.raises(ConfigurationError):
            contracts._register(fmt, owner="x", loader="m:f",
                                title="dup")

    def test_register_rejects_loader_without_symbol(self):
        with pytest.raises(ConfigurationError):
            contracts._register("repro.test/thing/v1", owner="x",
                                loader="just.a.module", title="bad")

    def test_writers_import_their_constants(self):
        # The migration contract: the owning modules re-export the
        # registered strings, so every historical public name still
        # resolves and equals the registry's value.
        from repro.lint.report import REPORT_SCHEMA as LINT_REPORT
        from repro.obs.profile import PROFILE_SCHEMA
        from repro.obs.report import REPORT_SCHEMA
        from repro.resilience.checkpoint import CHECKPOINT_SCHEMA
        from repro.serve.artifact import MODEL_SCHEMA
        from repro.serve.artifact_v2 import MODEL_SCHEMA_V2
        from repro.stream.shards import (SHARD_DIR_SCHEMA, SHARD_SCHEMA,
                                         VOCAB_DELTA_SCHEMA)
        from repro.strod.moments import MOMENT_SKETCH_SCHEMA

        assert MODEL_SCHEMA == contracts.MODEL_V1
        assert MODEL_SCHEMA_V2 == contracts.MODEL_V3
        assert CHECKPOINT_SCHEMA == contracts.CHECKPOINT_V1
        assert REPORT_SCHEMA == contracts.RUN_REPORT_V2
        assert PROFILE_SCHEMA == contracts.PROFILE_V1
        assert SHARD_SCHEMA == contracts.SHARD_V1
        assert SHARD_DIR_SCHEMA == contracts.SHARD_DIR_V1
        assert VOCAB_DELTA_SCHEMA == contracts.VOCAB_DELTA_V1
        assert MOMENT_SKETCH_SCHEMA == contracts.MOMENT_SKETCH_V1
        assert LINT_REPORT == contracts.LINT_REPORT_V1


class TestGuardEntryPoint:
    def test_main_exits_zero_when_clean(self, capsys):
        assert contracts.main([]) == 0
        out = capsys.readouterr().out
        assert "all loaders resolve" in out

    def test_module_runs_as_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.contracts"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "registered formats" in proc.stdout
