"""Central registry of every versioned format this codebase persists.

Nine subsystems write versioned artifacts — model artifacts,
checkpoints, run reports, corpus shards, lint reports — and each format
is named by a string of the shape ``repro.<pkg>/<name>/v<N>``.  Those
strings are *contracts*: a reader sniffs them to decide how to decode a
file, and a writer stamps them so a future reader can refuse what it
does not understand.  Before this module existed each owning module
declared its own literal, which meant a typo or a drifted version
number was invisible until a load failed in production.

This module is the single source of truth.  Every format string is
registered exactly once, alongside the module that owns the format and
the loader entry point that can decode it; the constants defined here
(``MODEL_V1``, ``CHECKPOINT_V1``, ...) are what the rest of the tree
imports.  Two enforcement layers keep the registry honest:

* the whole-program linter (``repro lint``): rule RL301 flags any
  ``repro.<pkg>/<name>/v<N>`` string literal in ``src/`` outside this
  module, and RL302 checks every registered format names a loader that
  exists in the project;
* ``python -m repro.contracts`` re-validates at runtime — format shape,
  uniqueness, and that every loader actually imports — and is run as a
  CI guard step.

Registering a new format is three lines here plus importing the new
constant at the write site; forgetting any of those steps is a lint
failure, not a latent decode bug.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import ConfigurationError

__all__ = [
    "CHECKPOINT_V1",
    "FORMAT_PATTERN",
    "LINT_REPORT_V1",
    "MODEL_V1",
    "MODEL_V2",
    "MODEL_V3",
    "MOMENT_SKETCH_V1",
    "PROFILE_V1",
    "REGISTRY",
    "RUN_REPORT_V2",
    "SHARD_DIR_V1",
    "SHARD_V1",
    "SchemaSpec",
    "VOCAB_DELTA_V1",
    "check_registry",
    "constant_name_of",
    "get_spec",
    "registered_formats",
]

#: The shape every versioned format string must have.  The linter uses
#: the same pattern to find stray literals in ``src/``.
FORMAT_PATTERN = r"repro\.[a-z_]+(?:\.[a-z_]+)*/[a-z0-9-]+/v[0-9]+"

_FORMAT_RE = re.compile(f"^{FORMAT_PATTERN}$")


@dataclass(frozen=True)
class SchemaSpec:
    """One registered versioned format.

    Attributes:
        format: the ``repro.<pkg>/<name>/v<N>`` string written to disk.
        owner: dotted module that defines the format (writes it).
        loader: ``module:symbol`` entry point that decodes / validates a
            document of this format; ``symbol`` may be dotted
            (``Class.method``).  Every registered format must have one —
            a version nobody can load is a write-only contract.
        title: one-line human description.
    """

    format: str
    owner: str
    loader: str
    title: str

    def loader_parts(self) -> Tuple[str, str]:
        """``(module, symbol)`` split of the loader entry point."""
        module, _, symbol = self.loader.partition(":")
        return module, symbol


#: Format string → spec, in registration order.
REGISTRY: Dict[str, SchemaSpec] = {}


def _register(fmt: str, *, owner: str, loader: str, title: str) -> str:
    """Register one format; returns ``fmt`` so constants read naturally."""
    if not _FORMAT_RE.match(fmt):
        raise ConfigurationError(
            f"format string {fmt!r} does not match "
            f"'repro.<pkg>/<name>/v<N>'")
    if fmt in REGISTRY:
        raise ConfigurationError(f"format {fmt!r} registered twice")
    if ":" not in loader:
        raise ConfigurationError(
            f"loader for {fmt!r} must be 'module:symbol', got {loader!r}")
    REGISTRY[fmt] = SchemaSpec(fmt, owner, loader, title)
    return fmt


# ----------------------------------------------------------------- registry
MODEL_V1 = _register(
    "repro.serve/model/v1",
    owner="repro.serve.artifact",
    loader="repro.serve.artifact:load_model",
    title="canonical-JSON model artifact (CRC32 payload, manifest)")

MODEL_V2 = _register(
    "repro.serve/model/v2",
    owner="repro.serve.artifact_v2",
    loader="repro.serve.artifact_v2:load_model_v2",
    title="zero-copy mmap model artifact whose payload_crc32 covers the "
          "canonical v1 JSON (read only; that CRC is not verified)")

# Deliberate bump of MODEL_V2: the same layout, but payload_crc32 is the
# CRC32 of the canonical string tables followed by the section CRC32s,
# so a save packs the sections without encoding a v1 payload.
MODEL_V3 = _register(
    "repro.serve/model/v3",
    owner="repro.serve.artifact_v2",
    loader="repro.serve.artifact_v2:load_model_v2",
    title="zero-copy mmap model artifact (aligned CRC'd binary sections, "
          "payload_crc32 over string tables + section CRCs)")

CHECKPOINT_V1 = _register(
    "repro.resilience/checkpoint/v1",
    owner="repro.resilience.checkpoint",
    loader="repro.resilience.checkpoint:load_checkpoint",
    title="CRC-framed solver checkpoint with config fingerprint guard")

RUN_REPORT_V2 = _register(
    "repro.obs/run-report/v2",
    owner="repro.obs.report",
    loader="repro.obs.report:validate_report",
    title="run telemetry report with resources and top-span table")

PROFILE_V1 = _register(
    "repro.obs/profile/v1",
    owner="repro.obs.profile",
    loader="repro.obs.profile:validate_profile_report",
    title="per-span RSS/allocation profile ranked by self-time")

SHARD_V1 = _register(
    "repro.stream/shard/v1",
    owner="repro.stream.shards",
    loader="repro.stream.shards:ShardStore.load_shard",
    title="append-only CRC-framed corpus shard")

SHARD_DIR_V1 = _register(
    "repro.stream/shard-dir/v1",
    owner="repro.stream.shards",
    loader="repro.stream.shards:ShardStore",
    title="shard-store directory manifest (atomic commit point)")

VOCAB_DELTA_V1 = _register(
    "repro.stream/vocab-delta/v1",
    owner="repro.stream.shards",
    loader="repro.stream.shards:ShardStore._load_vocabulary",
    title="contiguous vocab-delta log replayed with corruption checks")

MOMENT_SKETCH_V1 = _register(
    "repro.strod/moment-sketch/v1",
    owner="repro.strod.moments",
    loader="repro.strod.moments:MomentSketch.from_state",
    title="mergeable per-doc count-row sketch with CRC fingerprint")

LINT_REPORT_V1 = _register(
    "repro.lint/report/v1",
    owner="repro.lint.report",
    loader="repro.lint.report:load_report",
    title="stable lint report (per-rule counts, violations, pragmas)")


#: Format string → the public constant name defined in this module,
#: so lint messages can say exactly what to import.
_CONSTANT_NAMES: Dict[str, str] = {
    value: name
    for name, value in list(globals().items())
    if isinstance(value, str) and value in REGISTRY and name.isupper()
}


# ------------------------------------------------------------------ queries
def registered_formats() -> Tuple[str, ...]:
    """Every registered format string, in registration order."""
    return tuple(REGISTRY)


def get_spec(fmt: str) -> SchemaSpec:
    """The spec for ``fmt``; raises for an unregistered format."""
    try:
        return REGISTRY[fmt]
    except KeyError:
        raise ConfigurationError(
            f"format {fmt!r} is not registered in repro.contracts") \
            from None


def constant_name_of(fmt: str) -> Optional[str]:
    """The public constant exporting ``fmt`` (None if unregistered)."""
    return _CONSTANT_NAMES.get(fmt)


def check_registry() -> List[str]:
    """Runtime validation of the registry; returns problem strings.

    Checks every format string's shape, that each constant is exported,
    and — the expensive part — that every loader entry point imports and
    resolves.  Empty list means the registry and the code agree.
    """
    import importlib

    problems: List[str] = []
    for fmt, spec in REGISTRY.items():
        if not _FORMAT_RE.match(fmt):
            problems.append(f"{fmt}: malformed format string")
        if fmt not in _CONSTANT_NAMES:
            problems.append(f"{fmt}: no public constant exports it")
        module_name, symbol = spec.loader_parts()
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            problems.append(
                f"{fmt}: loader module {module_name!r} does not import "
                f"({exc})")
            continue
        target = module
        for part in symbol.split("."):
            target = getattr(target, part, None)
            if target is None:
                problems.append(
                    f"{fmt}: loader symbol {spec.loader!r} does not "
                    f"resolve (missing {part!r})")
                break
        else:
            if not callable(target):
                problems.append(
                    f"{fmt}: loader {spec.loader!r} is not callable")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.contracts`` — the CI registry guard.

    Exit 0 when the registry validates, 1 with one problem per line on
    stderr otherwise.
    """
    import sys

    del argv  # no flags: the guard either passes or it does not
    problems = check_registry()
    if problems:
        for problem in problems:
            print(f"repro.contracts: {problem}", file=sys.stderr)
        return 1
    print(f"repro.contracts: {len(REGISTRY)} registered formats, "
          f"all loaders resolve")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI guard
    import sys

    sys.exit(main())
