"""repro.serve — the read path: artifacts, query engine, HTTP servers.

Three layers turn a fitted :class:`~repro.core.MiningResult` into
answers to topic, phrase and entity queries without re-running EM:

* **artifacts**: one writer.  Every save — a fit, a v1 document, a
  stream refit — packs the model's parts into the v2 format
  (:mod:`repro.serve.artifact_v2`): the manifest and fingerprint
  contract with the numeric payload in aligned memory-mappable binary
  sections (zero-copy load, one page-cache copy shared across N server
  processes), written atomically.  The earlier v1 format, one canonical
  JSON document (:mod:`repro.serve.artifact`), is read as a legacy
  format and written only by ``repro migrate-model --to v1``.
  :func:`load_model` sniffs the format, and both reject corrupt or
  mismatched files with typed errors;
* the **query engine** (:mod:`repro.serve.engine`): read-optimized
  lookups over one v2 blob behind an LRU result cache with hit/miss
  metrics — a legacy v1 document or an in-memory fit is packed into the
  bytes the writer would save — with an optional hash-sharded phrase
  index for fan-out search;
* the **servers**: a pure-stdlib threaded HTTP server
  (:mod:`repro.serve.http`) and an asyncio server
  (:mod:`repro.serve.aio`) with concurrent batch and sharded-search
  fan-out — both routing through :mod:`repro.serve.router`, both with
  request metrics, read timeouts, hard body limits, and graceful
  SIGTERM shutdown.

Surfaced on the facade as :meth:`~repro.core.LatentEntityMiner.save_model`
/ :meth:`~repro.core.LatentEntityMiner.load_model` and on the CLI as
``repro export-model`` / ``repro migrate-model`` / ``repro serve``.

The engine and the servers import on first use of their names, so a
fit that saves an artifact never loads asyncio or ``http.server``.
"""

from importlib import import_module
from typing import Any

from .artifact import (MODEL_SCHEMA, ServedModel, load_model, migrate_model,
                       save_model, save_model_document, vocabulary_hash)
from .artifact_v2 import (MODEL_SCHEMA_V2, MappedModel, load_model_v2,
                          model_document_from_mapped)

#: Names resolved from their submodule on first access.
_LAZY = {
    "ModelAsyncServer": ".aio",
    "ModelQueryEngine": ".engine",
    "ModelServer": ".http",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "MODEL_SCHEMA",
    "MODEL_SCHEMA_V2",
    "MappedModel",
    "ModelAsyncServer",
    "ModelQueryEngine",
    "ModelServer",
    "ServedModel",
    "load_model",
    "load_model_v2",
    "migrate_model",
    "model_document_from_mapped",
    "save_model",
    "save_model_document",
    "vocabulary_hash",
]
