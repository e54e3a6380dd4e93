"""repro.serve — the read path: artifacts, query engine, HTTP servers.

Three layers turn a fitted :class:`~repro.core.MiningResult` into
something millions of users can query without re-running EM:

* **artifacts**: the versioned on-disk formats — v1
  (:mod:`repro.serve.artifact`), one canonical JSON document, and v2
  (:mod:`repro.serve.artifact_v2`), the same manifest and fingerprint
  contract with the numeric payload in aligned memory-mappable binary
  sections (zero-copy load, one page-cache copy shared across N server
  processes), packed straight from the fitted hierarchy and role table.
  Both formats are written atomically and reject corrupt or mismatched
  files with typed errors; :func:`load_model` sniffs the format;
* the **query engine** (:mod:`repro.serve.engine`): read-optimized
  lookups over one v2 blob behind an LRU result cache with hit/miss
  metrics — a v1 document or an in-memory fit is packed into the bytes
  the v2 writer would save — with an optional hash-sharded phrase index
  for fan-out search;
* the **servers**: a pure-stdlib threaded HTTP server
  (:mod:`repro.serve.http`) and an asyncio server
  (:mod:`repro.serve.aio`) with concurrent batch and sharded-search
  fan-out — both routing through :mod:`repro.serve.router`, both with
  request metrics, read timeouts, hard body limits, and graceful
  SIGTERM shutdown.

Surfaced on the facade as :meth:`~repro.core.LatentEntityMiner.save_model`
/ :meth:`~repro.core.LatentEntityMiner.load_model` and on the CLI as
``repro export-model`` / ``repro migrate-model`` / ``repro serve``.
"""

from .aio import ModelAsyncServer
from .artifact import (ARTIFACT_FORMATS, MODEL_SCHEMA, ServedModel,
                       build_model_document, load_model, migrate_model,
                       save_model, save_model_document, vocabulary_hash)
from .artifact_v2 import (MODEL_SCHEMA_V2, MappedModel, load_model_v2,
                          model_document_from_mapped)
from .engine import ModelQueryEngine
from .http import ModelServer

__all__ = [
    "ARTIFACT_FORMATS",
    "MODEL_SCHEMA",
    "MODEL_SCHEMA_V2",
    "MappedModel",
    "ModelAsyncServer",
    "ModelQueryEngine",
    "ModelServer",
    "ServedModel",
    "build_model_document",
    "load_model",
    "load_model_v2",
    "migrate_model",
    "model_document_from_mapped",
    "save_model",
    "save_model_document",
    "vocabulary_hash",
]
