"""Transport-independent request routing and per-server state.

Both serving frontends — the threaded :class:`~repro.serve.http.ModelServer`
and the asyncio :class:`~repro.serve.aio.ModelAsyncServer` — answer the
same endpoint contract (DESIGN §5.2).  This module holds everything that
contract needs that is not transport:

* :func:`route_request` — map ``(method, path, query)`` to an engine
  call and its JSON answer.  Raising the library's typed errors
  (:class:`~repro.errors.DataError` → 404,
  :class:`~repro.errors.ConfigurationError` → 400) is the caller's
  status mapping, exactly as before;
* :class:`RequestRejected` — a request refused at the transport
  boundary *before* routing (missing Content-Length → 411, oversized
  body → 413, malformed length → 400), carrying its typed JSON error
  payload;
* :func:`validate_content_length` / :func:`parse_json_body` — the body
  hardening both frontends share, so their limits cannot drift;
* :class:`ServerStateMixin` — request IDs, the per-server
  :class:`~repro.obs.MetricsRegistry`, the ``/metrics`` payloads (JSON
  and Prometheus views of one combined snapshot), and the **hot-swap
  machinery**: the live engine sits behind an :class:`EngineHandle`
  with an in-flight lease count, so :meth:`ServerStateMixin.swap_engine`
  can atomically point new requests at a new engine while requests
  already running drain on the old one — zero dropped requests — and
  the old engine is closed (unmapping a v2 artifact) only when its last
  lease is released.  ``POST /v1/admin/reload`` (and SIGHUP, in the
  frontends) triggers the swap through a configured reloader.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlparse

from ..errors import ConfigurationError, DataError
from ..obs import MetricsRegistry, get_logger, inc, observe, render_prometheus
from .engine import ModelQueryEngine

__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "EngineHandle",
    "PrometheusText",
    "RequestRejected",
    "ServerStateMixin",
    "parse_json_body",
    "route_request",
    "validate_content_length",
]

logger = get_logger("serve.router")

#: Default cap on POST bodies (1 MiB).  A batch of thousands of ops fits
#: comfortably; a runaway or hostile body does not get buffered.
DEFAULT_MAX_BODY_BYTES = 1 << 20


class PrometheusText:
    """Marker wrapping a text-exposition body through the router."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class RequestRejected(Exception):
    """A request refused at the transport boundary, pre-routing.

    Carries the HTTP ``status`` and the typed JSON error ``payload``
    (``code`` plus context fields) to send back.
    """

    def __init__(self, status: int, code: str, message: str,
                 **context: Any) -> None:
        super().__init__(message)
        self.status = status
        self.payload: Dict[str, Any] = {"error": message, "code": code}
        self.payload.update(context)


def validate_content_length(raw: Optional[str],
                            max_body_bytes: int) -> int:
    """The validated Content-Length of a POST, or a typed rejection.

    * absent header → 411 (``length_required``): chunked or unframed
      bodies are not accepted, so the limit below cannot be bypassed;
    * non-integer or non-positive → 400 (``bad_content_length``);
    * larger than ``max_body_bytes`` → 413 (``body_too_large``), before
      a single body byte is read.
    """
    if raw is None or raw == "":
        raise RequestRejected(
            411, "length_required",
            "POST requires a Content-Length header (chunked or unframed "
            "bodies are not accepted)")
    try:
        length = int(raw)
    except ValueError:
        raise RequestRejected(
            400, "bad_content_length",
            f"Content-Length is not an integer: {raw!r}") from None
    if length <= 0:
        raise RequestRejected(
            400, "bad_content_length",
            f"Content-Length must be positive, got {length}")
    if length > max_body_bytes:
        raise RequestRejected(
            413, "body_too_large",
            f"request body of {length} bytes exceeds the server limit "
            f"of {max_body_bytes} bytes",
            content_length=length, max_body_bytes=max_body_bytes)
    return length


def parse_json_body(body: bytes) -> Any:
    """Decode a request body as JSON (ConfigurationError → 400)."""
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"request body is not valid JSON: {exc}") from exc


class EngineHandle:
    """One served engine plus its in-flight lease count.

    A request leases the handle for its whole lifetime (acquire on
    arrival, release after the answer is written).  A hot swap retires
    the handle; the engine is closed only when the handle is retired
    *and* its last lease is gone — so requests started before the swap
    drain on the engine they started with, and none are dropped.
    """

    __slots__ = ("engine", "_leases", "_retired", "_lock")

    def __init__(self, engine: ModelQueryEngine) -> None:
        self.engine = engine
        self._leases = 0
        self._retired = False
        self._lock = threading.Lock()

    @property
    def leases(self) -> int:
        with self._lock:
            return self._leases

    def acquire(self) -> "EngineHandle":
        with self._lock:
            self._leases += 1
        return self

    def release(self) -> None:
        with self._lock:
            self._leases -= 1
            close_now = self._retired and self._leases == 0
        if close_now:
            self._close()

    def retire(self) -> None:
        """Mark swapped-out; close immediately if already drained."""
        with self._lock:
            self._retired = True
            close_now = self._leases == 0
        if close_now:
            self._close()

    def _close(self) -> None:
        try:
            self.engine.close()
        except Exception as exc:  # noqa: BLE001 - drain must not fail
            logger.error("closing swapped-out engine failed: %r", exc)


def _int_param(params: Dict[str, list], name: str, default: int) -> int:
    values = params.get(name)
    if not values or values[0] == "":
        return default
    try:
        return int(values[0])
    except ValueError:
        raise ConfigurationError(
            f"query parameter {name!r} must be an integer: "
            f"{values[0]!r}") from None


def route_request(server: "ServerStateMixin", method: str, path: str,
                  accept: str = "",
                  read_body: Optional[Callable[[], Any]] = None,
                  engine: Optional[ModelQueryEngine] = None,
                  ) -> Tuple[int, Any, str]:
    """Answer one request against ``server``'s engine.

    ``read_body`` lazily produces the parsed JSON body; it is only
    called for endpoints that take one (``POST /v1/batch``), so GET
    handling never touches the body stream.  ``engine`` is the leased
    engine the transport acquired for this request (defaults to the
    server's current one) — passing the lease keeps a request pinned to
    one engine even when a hot swap lands mid-request.  Returns
    ``(status, payload, endpoint)`` where ``payload`` is JSON data or a
    :class:`PrometheusText`; unknown endpoints and bad parameters raise
    the library's typed errors for the transport to map to 404 / 400.
    """
    if engine is None:
        engine = server.engine
    parsed = urlparse(path)
    parts = [unquote(part) for part in parsed.path.strip("/").split("/")
             if part != ""]
    # keep_blank_values: "?q=" is an explicit (match-all) query, not
    # a missing parameter.
    params = parse_qs(parsed.query, keep_blank_values=True)

    if parts == ["healthz"]:
        return 200, {"status": "ok",
                     "uptime_s": time.time() - server.started_unix,
                     "model_version":
                         int(engine.model.manifest.get("model_version", 0)),
                     "num_topics":
                         engine.model.manifest["num_topics"]}, "healthz"
    if parts == ["metrics"]:
        # Content negotiation: JSON stays the default; Prometheus
        # text exposition via ?format=prometheus or an Accept header
        # preferring text/plain over JSON.
        fmt = params.get("format", [None])[0]
        wants_text = fmt == "prometheus" or (
            fmt is None and "text/plain" in accept
            and "application/json" not in accept)
        if wants_text:
            return (200, PrometheusText(server.prometheus_payload()),
                    "metrics")
        return 200, server.metrics_payload(), "metrics"
    if len(parts) >= 1 and parts[0] == "v1":
        if method == "POST":
            if parts == ["v1", "batch"]:
                if read_body is None:
                    raise ConfigurationError("request body required")
                return 200, engine.batch(read_body()), "batch"
            if parts == ["v1", "admin", "reload"]:
                return 200, server.reload_engine(), "reload"
            raise DataError(f"no POST endpoint at {parsed.path!r}")
        if parts == ["v1", "model"]:
            return 200, engine.model_info(), "model"
        if len(parts) >= 3 and parts[1] == "topics":
            notation = "/".join(parts[2:])
            return 200, engine.topic(
                notation,
                max_phrases=_int_param(params, "phrases", 10),
                max_entities=_int_param(params, "entities", 5),
                max_terms=_int_param(params, "terms", 10)), "topics"
        if parts == ["v1", "search"]:
            query = params.get("q")
            if not query:
                raise ConfigurationError(
                    "search requires a 'q' query parameter")
            mode = params.get("mode", ["prefix"])[0]
            return 200, engine.search_phrases(
                query[0], mode=mode,
                limit=_int_param(params, "limit", 10)), "search"
        if len(parts) >= 3 and parts[1] == "entities":
            name = "/".join(parts[2:])
            entity_type = params.get("type", [None])[0]
            topic = params.get("topic", ["o"])[0]
            return 200, engine.entity_roles(
                name, entity_type=entity_type, topic=topic), "entities"
    raise DataError(f"no endpoint at {parsed.path!r}")


class ServerStateMixin:
    """Per-server request IDs, metrics registry, /metrics payloads, and
    the engine hot-swap machinery.

    Mixed into both frontends' server objects so the two expose the
    same operational surface from one implementation.
    """

    registry: MetricsRegistry
    started_unix: float

    def _init_server_state(self, engine: ModelQueryEngine) -> None:
        self._engine_handle = EngineHandle(engine)
        self._engine_swap_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._reloader: Optional[Callable[[], ModelQueryEngine]] = None
        self._swap_count = 0
        self.registry = MetricsRegistry()
        self.started_unix = time.time()
        self._request_serial = itertools.count(1)

    # ------------------------------------------------------------- hot swap
    @property
    def engine(self) -> ModelQueryEngine:
        """The engine new requests are routed to right now."""
        return self._engine_handle.engine

    def acquire_engine(self) -> EngineHandle:
        """Lease the current engine for one request's lifetime.

        The caller must :meth:`EngineHandle.release` the returned
        handle when the request is done; until then the engine stays
        open even if a swap retires it.
        """
        with self._engine_swap_lock:
            return self._engine_handle.acquire()

    def swap_engine(self, engine: ModelQueryEngine) -> ModelQueryEngine:
        """Atomically route new requests to ``engine``.

        The previous engine keeps answering its in-flight requests and
        is closed when the last of them releases its lease.  Returns
        the previous engine (still draining, possibly).
        """
        new_handle = EngineHandle(engine)
        with self._engine_swap_lock:
            old_handle = self._engine_handle
            self._engine_handle = new_handle
            self._swap_count += 1
        old_handle.retire()
        self.registry.inc("serve.engine.swaps")
        inc("serve.engine.swaps")
        logger.info(
            "engine swapped (swap #%d, model_version %s -> %s, %d "
            "request(s) draining on the old engine)", self._swap_count,
            old_handle.engine.model.manifest.get("model_version", 0),
            engine.model.manifest.get("model_version", 0),
            old_handle.leases)
        return old_handle.engine

    def set_reloader(self,
                     reloader: Callable[[], ModelQueryEngine]) -> None:
        """Install the zero-argument factory ``reload_engine`` calls."""
        self._reloader = reloader

    def reload_engine(self) -> Dict[str, Any]:
        """Rebuild the engine via the reloader and hot-swap to it.

        Serialized: concurrent reload requests queue up rather than
        racing their artifact reads.  Raises
        :class:`~repro.errors.ConfigurationError` (-> 400) when no
        reloader is configured — e.g. a server built around an
        in-memory result that has no artifact to re-read.
        """
        if self._reloader is None:
            raise ConfigurationError(
                "no reloader configured (serve the model from an "
                "artifact path to enable hot reload)")
        with self._reload_lock:
            engine = self._reloader()
            self.swap_engine(engine)
        manifest = engine.model.manifest
        return {
            "status": "reloaded",
            "swaps": self._swap_count,
            "model_version": int(manifest.get("model_version", 0)),
            "artifact_format": engine.artifact_format,
            "num_topics": manifest.get("num_topics"),
        }

    # ------------------------------------------------------------- requests
    def next_request_id(self) -> str:
        """A process-unique request / trace ID (no RNG involved)."""
        return f"req-{os.getpid():x}-{next(self._request_serial):x}"

    def record_request(self, endpoint: str, status: int,
                       elapsed: float) -> None:
        self.registry.inc("serve.http.requests")
        self.registry.inc(f"serve.http.status.{status}")
        self.registry.observe("serve.http.latency", elapsed)
        self.registry.observe(f"serve.http.{endpoint}.latency", elapsed)
        # Mirror into the global registry for run reports (no-op unless
        # observability is configured).
        inc("serve.http.requests")
        inc(f"serve.http.status.{status}")
        observe("serve.http.latency", elapsed)

    def _combined_snapshot(self) -> Dict[str, Any]:
        """Server registry snapshot plus cache counters, one code path.

        Both ``/metrics`` formats are views of this snapshot, so the
        JSON and Prometheus answers always agree; timer entries carry
        p50/p90/p99 from the quantile sketches.
        """
        snapshot = self.registry.snapshot()
        cache = self.engine.cache_info()
        snapshot["counters"]["serve.cache.hits"] = float(cache["hits"])
        snapshot["counters"]["serve.cache.misses"] = float(cache["misses"])
        snapshot["gauges"]["serve.cache.size"] = float(cache["size"])
        snapshot["gauges"]["serve.cache.capacity"] = float(
            cache["capacity"])
        snapshot["gauges"]["serve.uptime_s"] = \
            time.time() - self.started_unix
        # Model provenance as metrics: the version gauge moves on every
        # hot swap, the swap counter counts them.
        snapshot["gauges"]["serve.model.version"] = float(
            self.engine.model.manifest.get("model_version", 0))
        snapshot["counters"].setdefault("serve.engine.swaps",
                                        float(self._swap_count))
        return snapshot

    def _model_payload(self) -> Dict[str, Any]:
        engine = self.engine
        manifest = engine.model.manifest
        return {
            "version": int(manifest.get("model_version", 0)),
            "artifact_format": engine.artifact_format,
            "repro_version": manifest.get("repro_version"),
            "config_fingerprint": manifest.get("config"),
            "swaps": self._swap_count,
        }

    def metrics_payload(self) -> Dict[str, Any]:
        return {
            "uptime_s": time.time() - self.started_unix,
            "server": self.registry.snapshot(),
            "combined": self._combined_snapshot(),
            "cache": self.engine.cache_info(),
            "model": self._model_payload(),
        }

    def prometheus_payload(self) -> str:
        """The combined snapshot in Prometheus 0.0.4 text exposition."""
        return render_prometheus(self._combined_snapshot())
