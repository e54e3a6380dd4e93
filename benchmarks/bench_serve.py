"""Serving-layer latency: cold loads, artifact formats, concurrency.

Exports a model fitted on the synthetic DBLP corpus (as v2, the format
every save writes), then measures

* cold start: ``load_model`` + index build + first ``top_phrases`` query,
* warm path: the same query answered from the engine's LRU cache,
* HTTP overhead: p50/p99 round-trip latency against a live server —
  client-observed over a fresh connection per request and over one
  keep-alive connection, cross-checked against the server's own
  ``serve.http.latency`` quantile sketch as scraped from ``/metrics``
  in Prometheus text format,
* v1 vs v2 cold load on a deliberately large synthetic model — the v2
  zero-copy path must amortize the JSON parse away (the v1 file is the
  legacy JSON export, ``migrate_model(..., format="v1")``),
* concurrent p99 against the threaded and asyncio servers under a
  multi-threaded client, one keep-alive connection per thread
  (recorded, not asserted: absolute numbers are machine-dependent).

Acceptance: a warm-cache ``top_phrases`` query must be >= 10x faster
than a cold artifact load, and a v2 cold load must be >= 10x faster
than the v1 cold load of the same model.
"""

import concurrent.futures
import http.client
import json
import os
import statistics
import time
import urllib.request
import zlib

import repro
from repro.core import LatentEntityMiner, MinerConfig
from repro.serve import (ModelAsyncServer, ModelQueryEngine, ModelServer,
                         load_model, migrate_model, save_model_document,
                         vocabulary_hash)

from conftest import fmt_row, report

WARM_QUERIES = 2_000
HTTP_REQUESTS = 200
CONCURRENT_CLIENTS = 6
REQUESTS_PER_CLIENT = 30


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _p50_p99(latencies):
    latencies = sorted(latencies)
    return (statistics.median(latencies),
            latencies[int(len(latencies) * 0.99) - 1])


def _keepalive_get(connection, path) -> float:
    """One request on an open keep-alive connection; its round trip."""
    start = time.perf_counter()
    connection.request("GET", path)
    response = connection.getresponse()
    response.read()
    assert response.status == 200
    return time.perf_counter() - start


def _canonical(model) -> bytes:
    return json.dumps(model, sort_keys=True, allow_nan=False,
                      separators=(",", ":")).encode("utf-8")


def synthetic_document(num_terms=20_000, num_children=8,
                       phrases_per_topic=1_200, num_authors=6_000,
                       ranks_per_topic=1_500, roles_per_author=9):
    """A large, deterministic, numerics-heavy v1 model document.

    The fitted test corpus is tiny; cold-load differences only become
    visible on a model whose numeric payload (phi rows, entity ranks,
    role frequencies) dominates its string tables — the regime v2 is
    designed for, and the regime production models live in.
    """
    vocabulary = [f"term{i:05d}" for i in range(num_terms)]
    authors = [f"author{i:05d}" for i in range(num_authors)]

    def topic_record(path, notation, child_index):
        phi = {vocabulary[i]: (i % 997 + 1) / 997.0
               for i in range(num_terms)}
        phrases = [[f"t{child_index} phrase {i:05d}",
                    (phrases_per_topic - i) / phrases_per_topic]
                   for i in range(phrases_per_topic)]
        ranks = [[authors[(i * 7 + child_index) % num_authors],
                  (ranks_per_topic - i) / ranks_per_topic]
                 for i in range(ranks_per_topic)]
        return {"path": path, "notation": notation, "rho": 0.25,
                "phi": {"term": phi}, "phrases": phrases,
                "entity_ranks": {"author": ranks}, "children": []}

    root = topic_record([], "o", 0)
    notations = ["o"]
    for child in range(num_children):
        notation = f"o/{child + 1}"
        root["children"].append(
            topic_record([child], notation, child + 1))
        notations.append(notation)
    entity_roles = {"author": {
        name: {notations[(i + j) % len(notations)]: float(j + 1)
               for j in range(roles_per_author)}
        for i, name in enumerate(authors)}}
    model = {"vocabulary": vocabulary, "hierarchy": root,
             "entity_roles": entity_roles}
    model = json.loads(_canonical(model).decode("utf-8"))
    manifest = {
        "schema": "repro.serve/model/v1",
        "created_unix": time.time(),
        "repro_version": repro.get_version(),
        "config": {},
        "vocab_hash": vocabulary_hash(model["vocabulary"]),
        "payload_crc32": zlib.crc32(_canonical(model)) & 0xFFFFFFFF,
        "vocab_size": len(vocabulary),
        "num_documents": 0,
        "num_topics": 1 + num_children,
        "entity_types": ["author"],
    }
    return {"schema": "repro.serve/model/v1", "manifest": manifest,
            "model": model}


def test_serve_cold_vs_warm(benchmark, dblp, tmp_path):
    miner = LatentEntityMiner(MinerConfig(num_children=3, max_depth=1),
                              seed=0)
    result = miner.fit(dblp.corpus)
    path = str(tmp_path / "model.rmv2")
    miner.save_model(result, path)

    def cold():
        engine = ModelQueryEngine(load_model(path))
        engine.top_phrases("o/1", 10)

    def measure():
        cold_s = _time(cold)
        engine = ModelQueryEngine(load_model(path))
        engine.top_phrases("o/1", 10)  # prime the cache
        total = _time(lambda: [engine.top_phrases("o/1", 10)
                               for _ in range(WARM_QUERIES)])
        return cold_s, total / WARM_QUERIES

    cold_s, warm_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = cold_s / max(warm_s, 1e-12)

    # HTTP round trips against a live server (same artifact).
    engine = ModelQueryEngine(load_model(path))
    latencies = []
    with ModelServer(engine, port=0) as server:
        server.start()
        base = f"http://{server.host}:{server.port}"
        url = f"{base}/v1/topics/o/1"
        for _ in range(HTTP_REQUESTS):
            start = time.perf_counter()
            with urllib.request.urlopen(url, timeout=10) as response:
                json.loads(response.read())
            latencies.append(time.perf_counter() - start)
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=10)
        try:
            keepalive = [_keepalive_get(connection, "/v1/topics/o/1")
                         for _ in range(HTTP_REQUESTS)]
        finally:
            connection.close()
        # The server's own view: quantile sketch via Prometheus text.
        metrics_url = f"{base}/metrics?format=prometheus"
        with urllib.request.urlopen(metrics_url, timeout=10) as response:
            prometheus = response.read().decode()
    server_quantiles = {}
    for line in prometheus.splitlines():
        if line.startswith('repro_serve_http_latency_seconds{quantile='):
            q = line.split('"')[1]
            server_quantiles[q] = float(line.rsplit(None, 1)[1])
    p50, p99 = _p50_p99(latencies)
    keepalive_p50, keepalive_p99 = _p50_p99(keepalive)

    report("serve_query_latency", [
        fmt_row("path", ["seconds", "speedup"]),
        fmt_row("cold load + first query", [cold_s, 1.0]),
        fmt_row("warm cached query", [warm_s, speedup]),
        "",
        fmt_row("http round trip", ["p50_ms", "p99_ms"]),
        fmt_row(f"GET /v1/topics/o/1 x{HTTP_REQUESTS} (client)",
                [p50 * 1e3, p99 * 1e3]),
        fmt_row("same, one keep-alive connection",
                [keepalive_p50 * 1e3, keepalive_p99 * 1e3]),
        fmt_row("server sketch (/metrics summary)",
                [server_quantiles.get("0.5", 0.0) * 1e3,
                 server_quantiles.get("0.99", 0.0) * 1e3]),
        f"corpus={len(dblp.corpus)} docs, "
        f"topics={result.hierarchy.num_topics}, "
        f"warm sample={WARM_QUERIES} queries",
        "acceptance: warm cached top_phrases >= 10x faster than cold load",
    ])
    assert speedup >= 10.0


def test_serve_cold_load_v1_vs_v2(benchmark, tmp_path):
    """v2 zero-copy cold load vs v1 JSON parse on a large model."""
    document = synthetic_document()
    v1_path = str(tmp_path / "model.json")
    v2_path = str(tmp_path / "model.rmv2")
    save_model_document(document, v2_path, format="v2")
    migrate_model(v2_path, v1_path, format="v1")
    v1_bytes = os.path.getsize(v1_path)
    v2_bytes = os.path.getsize(v2_path)

    def cold(path, **kwargs):
        def run():
            model = load_model(path, **kwargs)
            try:
                engine = ModelQueryEngine(model)
                engine.top_phrases("o/1", 10)
            finally:
                if hasattr(model, "close"):
                    model.close()
        return run

    def measure():
        v1_s = _time(cold(v1_path))
        v2_s = _time(cold(v2_path))
        v2_noverify_s = _time(cold(v2_path, verify_sections=False))
        return v1_s, v2_s, v2_noverify_s

    v1_s, v2_s, v2_noverify_s = benchmark.pedantic(measure, rounds=1,
                                                   iterations=1)
    speedup = v1_s / max(v2_s, 1e-12)
    speedup_noverify = v1_s / max(v2_noverify_s, 1e-12)

    report("serve_cold_load_v1_vs_v2", [
        fmt_row("artifact", ["bytes", "cold_load_s", "speedup"]),
        fmt_row("v1 json", [v1_bytes, v1_s, 1.0]),
        fmt_row("v2 mmap (verify_sections)", [v2_bytes, v2_s, speedup]),
        fmt_row("v2 mmap (header only)",
                [v2_bytes, v2_noverify_s, speedup_noverify]),
        f"model: {document['manifest']['num_topics']} topics, "
        f"{document['manifest']['vocab_size']} terms, "
        f"{len(document['model']['entity_roles']['author'])} authors",
        "cold load = load_model + engine build + first top_phrases query",
        "acceptance: v2 cold load >= 10x faster than v1 cold load",
    ])
    assert speedup >= 10.0


def test_serve_concurrent_p99(benchmark, tmp_path):
    """Concurrent client p99 against threaded vs asyncio servers."""
    document = synthetic_document(num_terms=4_000, num_authors=2_000)
    v2_path = str(tmp_path / "model.rmv2")
    save_model_document(document, v2_path, format="v2")

    paths = ["/v1/topics/o/1?phrases=5&terms=5",
             "/v1/search?q=t3%20phrase&mode=prefix&limit=10",
             "/v1/search?q=phrase%200004&mode=substring&limit=10",
             "/v1/entities/author00042?type=author"]

    def hammer(server):
        def client(worker):
            connection = http.client.HTTPConnection(server.host,
                                                    server.port, timeout=30)
            try:
                return [_keepalive_get(connection,
                                       paths[(worker + i) % len(paths)])
                        for i in range(REQUESTS_PER_CLIENT)]
            finally:
                connection.close()

        with concurrent.futures.ThreadPoolExecutor(
                max_workers=CONCURRENT_CLIENTS) as pool:
            rounds = list(pool.map(client, range(CONCURRENT_CLIENTS)))
        return _p50_p99([x for chunk in rounds for x in chunk])

    def measure():
        with ModelServer(ModelQueryEngine(load_model(v2_path)),
                         port=0) as threaded:
            threaded.start()
            threaded_p50, threaded_p99 = hammer(threaded)
        engine = ModelQueryEngine(load_model(v2_path), phrase_shards=4)
        with ModelAsyncServer(engine, port=0) as aio:
            aio.start()
            aio_p50, aio_p99 = hammer(aio)
        return threaded_p50, threaded_p99, aio_p50, aio_p99

    t50, t99, a50, a99 = benchmark.pedantic(measure, rounds=1,
                                            iterations=1)
    total = CONCURRENT_CLIENTS * REQUESTS_PER_CLIENT
    report("serve_concurrent_p99", [
        fmt_row("server", ["p50_ms", "p99_ms"]),
        fmt_row("threaded (1 shard)", [t50 * 1e3, t99 * 1e3]),
        fmt_row("asyncio (4 shards)", [a50 * 1e3, a99 * 1e3]),
        f"load: {CONCURRENT_CLIENTS} client threads x "
        f"{REQUESTS_PER_CLIENT} requests = {total} per server, "
        f"mixed topic/search/entity endpoints, one keep-alive "
        f"connection per thread",
        "recorded for trend tracking; no latency assertion "
        "(machine-dependent)",
    ])
