#!/usr/bin/env python3
"""Run one workload of the repository benchmark and check its outputs.

    python3 perfbench/run.py --workload mine_dblp --seed 1 --seconds 30 \\
        --trace 0

Run from the root of a checkout.  The program under test is the
checkout's ``src/repro``; each workload drives it in fresh processes
(see README.md in this directory).  Every metric is printed as
``<workload> <name> <value> <unit>``; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).  Exits 1, printing no result, when the program cannot
run; prints ``"correct": false`` and exits 1 when it answered wrongly.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
MINE_WORKER = os.path.join(HERE, "mine_worker.py")
INGEST_WORKER = os.path.join(HERE, "ingest_worker.py")

#: Set-ups per run; the median is reported.
SETUP_REPEATS = 5
#: Seconds of ``--seconds`` one mine, or one ingest stream with its
#: set-up, stands for: a run does a fixed number of each, whatever the
#: host's speed, so every run does the same work.
MINE_SECONDS = 15.0
STREAM_SECONDS = 7.5
#: ``query_keepalive``: nominal open-loop rate (about half of the ~35 req/s
#: two-connection capacity measured on the parent commit), warm-up, the
#: closed-loop capacity phase (fixed request count, ~6 s today), the rate
#: ladder above the nominal rate and its stop rule.
NOMINAL_RATE = 20.0
WARMUP_S = 2.0
CAPACITY_REQUESTS = 200
CAPACITY_S = 6.0
STEP_S = 3.0
MAX_STEPS = 5
LIMIT_MS = 250.0
LATENESS_GROWTH_MS = 25.0
#: Requests replayed in process by the traced run (>= 200 of each kind,
#: so each kind's p95 has 10 samples beyond it).
REPLAY_REQUESTS = 2_000
#: Generator lateness p99 above which a run is flagged as behind schedule.
BEHIND_MS = 5.0
#: ``ingest_swap``: batches per stream, and the read rate (one
#: connection; at 18/s it idles ~55 ms between reads, clear of the
#: ~40 ms window in which the server's keep-alive stall strikes, so the
#: reads time the swaps; ``query_capacity_per_s`` carries the stall).
NUM_BATCHES = 20
READ_RATE = 18.0
#: How long a reloaded version may take to show in ``/healthz``, and the
#: pause between polls.
VISIBLE_TIMEOUT_S = 10.0
POLL_S = 0.002
#: Input size overrides (``inputs`` keyword arguments); empty means the
#: sizes documented in README.md.  Tests shrink them for smoke runs.
SIZES: Dict[str, int] = {}
MODEL_SHAPE: Dict[str, int] = {}
MIN_NOMINAL_S = 10.0
#: ``mine_dblp`` quality floors against the planted truth.
FLOORS = {"topic_nmi": 0.7, "phrase_precision": 0.2, "advisor_acc": 0.5}

#: Contract metric -> (per-workload metric, scale) per workload.
END_TO_END = {
    "mine_dblp": {"setup_s": ("setup_s", 1.0),
                  "peak_rss_mb": ("peak_rss_mb", 1.0),
                  "latency_ms": ("mine_s", 1e3),
                  "throughput_per_s": ("mine_docs_per_s", 1.0)},
    "query_keepalive": {"setup_s": ("setup_s", 1.0),
                        "peak_rss_mb": ("peak_rss_mb", 1.0),
                        "latency_ms": ("query_topic_p50_ms", 1.0),
                        "throughput_per_s": ("query_capacity_per_s", 1.0)},
    "ingest_swap": {"setup_s": ("setup_s", 1.0),
                    "peak_rss_mb": ("peak_rss_mb", 1.0),
                    "latency_ms": ("freshness_p50_s", 1e3),
                    "throughput_per_s": ("ingest_docs_per_s", 1.0)},
}
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "latency_ms": "ms",
         "throughput_per_s": "1/s"}

_M, _Q, _I = "mine_dblp", "query_keepalive", "ingest_swap"
#: Per-layer metric -> (unit, end-to-end metrics it should move,
#: workloads whose traced run measures it).
PER_LAYER = {
    "corpus.build_s": ("s", "mine_s", (_M,)),
    "network.collapse_s": ("s", "mine_s", (_M,)),
    "network.links": ("count", "mine_s", (_M,)),
    "cathy.build_s": ("s", "mine_s", (_M,)),
    "cathy.topics": ("count", "mine_s, peak_rss_mb", (_M,)),
    "phrases.attach_s": ("s", "mine_s", (_M,)),
    "phrases.entity_rank_s": ("s", "mine_s", (_M,)),
    "roles.build_s": ("s", "mine_s", (_M,)),
    "roles.entity_frequencies_s": ("s", "mine_s", (_M,)),
    "relations.collab_s": ("s", "mine_s", (_M,)),
    "relations.candidates_s": ("s", "mine_s", (_M,)),
    "relations.tpfg_s": ("s", "mine_s", (_M,)),
    "relations.candidate_edges": ("count", "mine_s", (_M,)),
    "serve.artifact.save_s": ("s", "mine_s, freshness_p50_s", (_M, _I)),
    "serve.artifact.bytes": ("B", "mine_s, ingest_docs_per_s", (_M, _I)),
    "serve.artifact.load_s": ("s", "setup_s, freshness_p50_s", (_M, _Q)),
    "serve.engine.topic_p50_us": (
        "us", "query_topic_p50_ms, query_capacity_per_s", (_Q,)),
    "serve.engine.topic_p95_us": ("us", "query_p95_ms", (_Q,)),
    "serve.engine.search_prefix_p50_us": (
        "us", "query_p50_ms, query_capacity_per_s", (_Q,)),
    "serve.engine.search_prefix_p95_us": ("us", "query_p95_ms", (_Q,)),
    "serve.engine.search_substring_p50_us": (
        "us", "query_p50_ms, query_capacity_per_s", (_Q,)),
    "serve.engine.search_substring_p95_us": ("us", "query_p95_ms", (_Q,)),
    "serve.engine.entity_p50_us": (
        "us", "query_p50_ms, query_capacity_per_s", (_Q,)),
    "serve.engine.entity_p95_us": ("us", "query_p95_ms", (_Q,)),
    "serve.engine.batch_p50_us": (
        "us", "query_capacity_per_s, swap_read_p50_ms", (_Q, _I)),
    "serve.engine.batch_p95_us": (
        "us", "query_p95_ms, swap_read_p95_ms", (_Q,)),
    "serve.engine.cache_hit_ratio": ("ratio", "query_p50_ms", (_Q, _I)),
    "serve.http.server_p50_ms": (
        "ms", "query_p50_ms, swap_read_p50_ms", (_Q,)),
    "serve.http.server_p99_ms": (
        "ms", "query_p95_ms, swap_read_p95_ms", (_Q,)),
    "serve.http.wait_p50_ms": (
        "ms", "query_p50_ms, query_capacity_per_s", (_Q,)),
    "stream.shards.append_s": ("s", "ingest_docs_per_s", (_I,)),
    "stream.shards.bytes": ("B", "ingest_docs_per_s", (_I,)),
    "stream.sketch.build_s": ("s", "ingest_docs_per_s", (_I,)),
    "stream.sketch.merge_s": ("s", "ingest_docs_per_s", (_I,)),
    "stream.drift.detect_s": ("s", "ingest_docs_per_s", (_I,)),
    "stream.drift.triggers": ("count", "ingest_docs_per_s", (_I,)),
    "stream.refit.load_corpus_s": ("s", "freshness_p50_s", (_I,)),
    "stream.refit.s": ("s", "freshness_p50_s, ingest_docs_per_s", (_I,)),
    "stream.refit.nodes_solved": ("count", "freshness_p50_s", (_I,)),
    "stream.refit.nodes_reused": ("count", "freshness_p50_s", (_I,)),
    "stream.refit.reuse_ratio": ("ratio", "freshness_p50_s", (_I,)),
    "stream.export_s": ("s", "freshness_p50_s", (_I,)),
    "resilience.checkpoint.save_s": ("s", "ingest_docs_per_s", (_I,)),
    "resilience.checkpoint.bytes": ("B", "ingest_docs_per_s", (_I,)),
    "serve.reload_ms": ("ms", "freshness_p50_s, swap_read_p95_ms", (_I,)),
    "serve.reload.visible_ms": ("ms", "freshness_p50_s", (_I,)),
    "loadgen.lateness_p99_ms": ("ms", "query_p95_ms", (_Q, _I)),
    "loadgen.sent": ("count", "query_p50_ms, query_p95_ms", (_Q, _I)),
}
#: Layer metrics a correct traced run may read 0 on: a refit that
#: reuses no node, a cache that never hits.
MAY_BE_ZERO = {"stream.refit.nodes_reused", "stream.refit.reuse_ratio",
               "serve.engine.cache_hit_ratio"}
#: Share of the traced ``mine_s`` the layer self times must cover.
MIN_LAYER_SHARE = 0.9

QUERY_SHAPES = {
    "topic": {"topic", "level", "rho", "parent", "children", "phrases",
              "num_phrases", "top_terms", "entity_ranks"},
    "search_prefix": {"query", "mode", "num_matches", "matches"},
    "search_substring": {"query", "mode", "num_matches", "matches"},
    "entity": {"entity", "topic", "roles"},
    "batch": {"results"},
}


@dataclass
class Result:
    """What one workload run measured and checked."""

    #: name -> (as measured, unit, host-normalized or None)
    named: Dict[str, Tuple[float, str, Optional[float]]] = field(
        default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def metric(self, name: str, value: float, unit: str,
               normalized: Optional[float] = None) -> None:
        self.named[name] = (float(value), unit, None if normalized is None
                            else float(normalized))

    def check(self, what: str, ok: bool) -> None:
        self.checks.append((what, bool(ok)))


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: str
    procs: Any  # host.Processes
    monitor: Any  # probe.Monitor


# --------------------------------------------------------------- mine_dblp
def _mine(ctx: Context, inputs_path: str, trace: bool,
          tag: str) -> Dict[str, Any]:
    """One mine in a fresh worker process; what it measured."""
    workdir = os.path.join(ctx.work, tag)
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.json")
    ctx.procs.run([MINE_WORKER, "--inputs", inputs_path, "--workdir",
                   workdir, "--seed", str(ctx.seed), "--trace",
                   str(int(trace)), "--result", result], timeout=170)
    with open(result, encoding="utf-8") as handle:
        return json.load(handle)


def mine_dblp(ctx: Context) -> Result:
    import inputs
    import score
    from repro.serve import ModelQueryEngine, load_model

    out = Result()
    data = inputs.dblp_inputs(ctx.seed, **SIZES)
    inputs_path = os.path.join(ctx.work, "inputs.json")
    with open(inputs_path, "w", encoding="utf-8") as handle:
        json.dump({"texts": data.texts, "entities": data.entities,
                   "years": data.years}, handle)
    imports = [json.loads(ctx.procs.run([MINE_WORKER, "--import-only"],
                                        timeout=60))["import_s"]
               for _ in range(SETUP_REPEATS)]

    if ctx.trace:
        plain = _mine(ctx, inputs_path, False, "untraced")
        mined = _mine(ctx, inputs_path, True, "traced")
        out.check("traced artifact payload_crc32 equals the untraced one",
                  plain["payload_crc32"] == mined["payload_crc32"])
        traced_s, plain_s = mined["mine_s"], plain["mine_s"]
        out.notes.append(f"trace overhead {traced_s - plain_s:+.3f} s "
                         f"(traced {traced_s:.3f} s - untraced "
                         f"{plain_s:.3f} s)")
        layer_sum = sum(v for k, v in mined["layers"].items()
                        if k.endswith("_s"))
        out.check(f"layer self times sum to {layer_sum:.3f} s = "
                  f"{layer_sum / traced_s:.1%} of the traced mine_s "
                  f"(at least {MIN_LAYER_SHARE:.0%})",
                  layer_sum >= MIN_LAYER_SHARE * traced_s)
        out.layers.update(mined["layers"])
        out.layers["serve.artifact.bytes"] = mined["artifact_bytes"]
        out.layers["serve.artifact.load_s"] = mined["load_s"]
        runs = [mined]
    else:
        runs = [_mine(ctx, inputs_path, False, f"mine{k}")
                for k in range(max(1, round(ctx.seconds / MINE_SECONDS)))]
        mined = runs[0]
    mines = [run["mine_s"] for run in runs]
    normalized = [run["mine_s"] * ctx.monitor.speed(*run["mine_span"])
                  for run in runs]
    out.attempted = len(mines)
    out.check("every mine of the run wrote the same payload_crc32",
              len({run["payload_crc32"] for run in runs}) == 1)
    out.check("documents mined equal documents handed in",
              mined["num_documents"] == len(data.texts))

    engine = ModelQueryEngine(load_model(mined["artifact"]))
    try:
        nmi, assignment = score.topic_nmi(engine, data.truth,
                                          mined["authors"])
        precision = score.phrase_precision(engine, data.truth, assignment)
    finally:
        engine.close()
    accuracy = score.advisor_accuracy(mined["predictions"],
                                      mined["authors"], data.truth)
    quality = {"topic_nmi": nmi, "phrase_precision": precision,
               "advisor_acc": accuracy}
    for name, value in quality.items():
        out.check(f"{name} {value:.3f} >= floor {FLOORS[name]}",
                  value >= FLOORS[name])

    docs = mined["num_documents"] * len(mines)
    out.metric("setup_s", statistics.median(imports), "s")
    out.metric("peak_rss_mb", max(run["peak_rss_mb"] for run in runs), "MB")
    out.metric("mine_s", statistics.median(mines), "s",
               statistics.median(normalized))
    out.metric("mine_docs_per_s", docs / sum(mines), "1/s",
               docs / sum(normalized))
    for name, value in quality.items():
        out.metric(name, value, "ratio")
    out.notes.append(f"{len(data.texts)} documents, vocabulary "
                     f"{mined['vocab_size']} terms, {len(mines)} mine(s): "
                     + ", ".join(f"{m:.3f} s (host-normalized {n:.3f})"
                                 for m, n in zip(mines, normalized)))
    return out


# --------------------------------------------------------- query_keepalive
def _check_answers(outcomes, out: Result) -> None:
    """Status and JSON shape of every answer; wrong answers count failed."""
    wrong = 0
    for o in outcomes:
        good = o.ok
        if good:
            payload = json.loads(o.body)
            good = QUERY_SHAPES[o.request.kind] <= set(payload)
            if good and o.request.kind == "batch":
                good = all(r.get("ok") for r in payload["results"])
        if not good:
            wrong += 1
    out.failed += wrong
    out.check(f"{len(outcomes) - wrong}/{len(outcomes)} answers have "
              f"status 200 and the endpoint's shape", wrong == 0)


def _compare_in_process(outcomes, engines, out: Result, every: int) -> None:
    """disk == memory == HTTP, byte for byte, on a sample of answers."""
    import inputs

    sample = [o for o in outcomes[::every] if o.ok]
    same = sum(1 for o in sample if all(
        json.dumps(inputs.engine_call(e, o.request)).encode("utf-8")
        == o.body for e in engines))
    out.check(f"{same}/{len(sample)} sampled answers equal the in-process "
              f"engines' on disk and in memory", same == len(sample))


def _sketch_delta(before: Dict, after: Dict, name: str):
    from repro.obs.registry import QuantileSketch

    old = before["server"]["timers"].get(name, {}).get("sketch", {})
    new = after["server"]["timers"][name]["sketch"]
    return QuantileSketch.from_dict(
        {k: v - old.get(k, 0) for k, v in new.items()})


def _engine_replay(engine, requests, out: Result) -> None:
    """Per-kind in-process latency of ``requests``, in order."""
    import inputs
    import stats

    times: Dict[str, List[float]] = {}
    for request in requests:
        start = time.perf_counter()
        inputs.engine_call(engine, request)
        times.setdefault(request.kind, []).append(
            time.perf_counter() - start)
    for kind, values in times.items():
        out.layers[f"serve.engine.{kind}_p50_us"] = \
            stats.percentile(values, 0.5) * 1e6
        if stats.samples_beyond(len(values), 0.95) >= 10:
            out.layers[f"serve.engine.{kind}_p95_us"] = \
                stats.percentile(values, 0.95) * 1e6
    info = engine.cache_info()
    out.layers["serve.engine.cache_hit_ratio"] = \
        info["hits"] / max(1, info["hits"] + info["misses"])


def query_keepalive(ctx: Context) -> Result:
    import inputs
    import loadgen
    import stats
    from host import Server
    from repro.serve import (ModelQueryEngine, ServedModel, load_model,
                             save_model_document)

    out = Result()
    document = inputs.model_document(ctx.seed, **MODEL_SHAPE)
    path = os.path.join(ctx.work, "model.rmv2")
    save_model_document(document, path, format="v2")
    start = time.perf_counter()
    load_model(path).close()
    load_s = time.perf_counter() - start

    setups, server = [], None
    for i in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server = Server(ctx.procs, path, ctx.work, f"serve{i}")
        setups.append(server.wait_healthy())

    warm_n = int(WARMUP_S * NOMINAL_RATE)
    nominal_s = max(MIN_NOMINAL_S,
                    ctx.seconds - WARMUP_S - CAPACITY_S - 2 * STEP_S)
    nominal_n = int(nominal_s * NOMINAL_RATE)
    step_ns = [int(max(STEP_S * NOMINAL_RATE * 2 ** k, 100))
               for k in range(1, MAX_STEPS + 1)]
    requests = inputs.query_mix(ctx.seed, max(
        REPLAY_REQUESTS,
        warm_n + nominal_n + CAPACITY_REQUESTS + sum(step_ns)), document)
    conns = [server.connect(), server.connect()]
    try:
        loadgen.run_schedule(conns, requests[:warm_n], NOMINAL_RATE,
                             time.perf_counter() + 0.01)
        before = server.metrics()
        nominal = loadgen.run_schedule(
            conns, requests[warm_n:warm_n + nominal_n], NOMINAL_RATE,
            time.perf_counter() + 0.01)
        after = server.metrics()
        outcomes = list(nominal)
        cursor = warm_n + nominal_n
        steps = [loadgen.ladder_step(nominal, NOMINAL_RATE, 0.95)]
        if not ctx.trace:
            # Closed loop: every request due at once.
            closed = loadgen.run_schedule(
                conns, requests[cursor:cursor + CAPACITY_REQUESTS],
                float("inf"), time.perf_counter())
            cursor += CAPACITY_REQUESTS
            outcomes.extend(closed)
        while not ctx.trace and len(steps) <= MAX_STEPS and \
                stats.step_passes(steps[-1], LIMIT_MS, LATENESS_GROWTH_MS):
            rate = NOMINAL_RATE * 2 ** len(steps)
            n = step_ns[len(steps) - 1]
            ran = loadgen.run_schedule(conns, requests[cursor:cursor + n],
                                       rate, time.perf_counter() + 0.01)
            cursor += n
            outcomes.extend(ran)
            steps.append(loadgen.ladder_step(
                ran, rate, stats.tail_quantile(len(ran))))
    finally:
        for conn in conns:
            conn.close()
    rss = server.peak_rss_mb()
    server.stop()

    out.attempted = len(outcomes)
    _check_answers(outcomes, out)
    memory = ModelQueryEngine(ServedModel(manifest=document["manifest"],
                                          model=document["model"]))
    disk = ModelQueryEngine(load_model(path))
    try:
        _compare_in_process(outcomes, [memory, disk], out, every=4)
    finally:
        disk.close()

    latencies = [o.latency_s for o in nominal]
    p50_ms = stats.percentile(latencies, 0.5) * 1e3
    kinds: Dict[str, List[float]] = {}
    for o in nominal:
        kinds.setdefault(o.request.kind, []).append(o.latency_s * 1e3)
    generator = [o.lateness_s for o in nominal if o.idle]
    lateness_p99 = stats.percentile(generator or [0.0], 0.99) * 1e3
    out.notes.append(f"generator lateness p50 "
                     f"{stats.percentile(generator or [0.0], 0.5) * 1e3:.3f}"
                     f" ms, p99 {lateness_p99:.3f} ms over "
                     f"{len(generator)} requests sent by an idle worker")
    if lateness_p99 > BEHIND_MS:
        out.notes.append(f"FLAG generator fell behind its schedule: "
                         f"lateness p99 {lateness_p99:.2f} ms")
    speed = ctx.monitor.speed(nominal[0].due, max(o.done for o in nominal))
    p95_ms = stats.checked_percentile(latencies, 0.95) * 1e3
    out.metric("setup_s", statistics.median(setups), "s")
    out.metric("peak_rss_mb", rss, "MB")
    out.metric("query_p50_ms", p50_ms, "ms", p50_ms * speed)
    out.metric("query_p95_ms", p95_ms, "ms", p95_ms * speed)
    topic_ms = stats.percentile(kinds["topic"], 0.5)
    out.metric("query_topic_p50_ms", topic_ms, "ms", topic_ms * speed)
    if not ctx.trace:
        # As measured: the keep-alive stall's timer, not the host's
        # speed, sets most of it today.
        capacity = loadgen.completed_rate(closed)
        out.metric("query_capacity_per_s", capacity, "1/s")
        best = stats.ladder_max_rate(steps, LIMIT_MS, LATENESS_GROWTH_MS)
        out.metric("query_max_rate", best.rate if best else 0.0, "1/s")
        out.notes.append(f"closed loop: {len(closed)} requests over 2 "
                         f"keep-alive connections, "
                         f"{capacity:.3f}/s completed")
        for step in steps:
            verdict = stats.step_passes(step, LIMIT_MS, LATENESS_GROWTH_MS)
            out.notes.append(
                f"ladder {step.rate:g}/s: achieved {step.achieved:.2f}/s, "
                f"tail {stats.finite(step.tail_ms):.1f} ms, lateness "
                f"{step.lateness_start_ms:.1f} -> "
                f"{step.lateness_end_ms:.1f} ms, "
                f"{'pass' if verdict else 'stop'}")
    by_kind = ", ".join(f"{k} {stats.percentile(v, 0.5):.2f} ms"
                        for k, v in sorted(kinds.items()))
    out.notes.append(f"nominal {NOMINAL_RATE:g}/s: {len(nominal)} requests "
                     f"over 2 keep-alive connections; p50 by kind: "
                     f"{by_kind}")

    server_p50 = _sketch_delta(before, after,
                               "serve.http.latency").quantile(0.5) * 1e3
    out.layers.update({
        "serve.artifact.load_s": load_s,
        "serve.http.server_p50_ms": server_p50,
        "serve.http.server_p99_ms": _sketch_delta(
            before, after, "serve.http.latency").quantile(0.99) * 1e3,
        "serve.http.wait_p50_ms": p50_ms - server_p50,
        "loadgen.lateness_p99_ms": lateness_p99,
        "loadgen.sent": float(len(nominal)),
    })
    if ctx.trace:
        replay = ModelQueryEngine(load_model(path))
        try:
            _engine_replay(replay, requests[:REPLAY_REQUESTS], out)
        finally:
            replay.close()
        out.notes.append(
            f"transport wait is "
            f"{out.layers['serve.http.wait_p50_ms'] / p50_ms:.0%} of "
            f"query_p50_ms")
    return out


# ------------------------------------------------------------- ingest_swap
def _hot_reads(batch: List[Dict[str, Any]], count: int) -> List[Any]:
    """A small hot key set (5 topics, 8 authors, 3 prefixes) read as
    ``[model_info, op]`` batches, so every read names its model version."""
    from loadgen import Request

    authors = sorted({a for doc in batch for a in doc["entities"]["author"]})
    words = sorted({w for doc in batch for w in doc["text"].split()
                    if w.isalpha()})
    ops = [{"op": "topic", "args": {"topic_id": t}}
           for t in ("o", "o/1", "o/2", "o/3", "o/4")]
    ops += [{"op": "entity_roles", "args": {"name": a,
                                            "entity_type": "author"}}
            for a in authors[:8]]
    ops += [{"op": "search_phrases", "args": {"query": w[:3]}}
            for w in words[:3]]
    keys = [json.dumps([{"op": "model_info"}, op]).encode("utf-8")
            for op in ops]
    return [Request("batch", "POST", "/v1/batch", keys[i % len(keys)])
            for i in range(count)]


@dataclass
class Stream:
    setup_s: float = 0.0
    docs: int = 0
    wall_s: float = 0.0
    freshness_s: List[float] = field(default_factory=list)
    reload_ms: List[float] = field(default_factory=list)
    visible_ms: List[float] = field(default_factory=list)
    crcs: List[int] = field(default_factory=list)
    #: Exported model versions the server never came to serve.
    unserved: List[int] = field(default_factory=list)
    reads: List[Any] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    artifact: str = ""
    #: Host speed over each refit's freshness, and over the stream.
    freshness_speed: List[float] = field(default_factory=list)
    speed: float = 1.0


def _wait_visible(control, version: int) -> Optional[float]:
    """Poll ``/healthz`` until it serves ``version``; the instant it did,
    or None after :data:`VISIBLE_TIMEOUT_S`."""
    deadline = time.perf_counter() + VISIBLE_TIMEOUT_S
    while time.perf_counter() < deadline:
        status, body = control.get("/healthz")
        if status == 200 and json.loads(body)["model_version"] >= version:
            return time.perf_counter()
        time.sleep(POLL_S)
    return None


def _stream(ctx: Context, seed: int, trace: bool, tag: str) -> Stream:
    import inputs
    import loadgen
    from host import Server

    batches = inputs.ingest_batches(seed, NUM_BATCHES, **SIZES)
    workdir = os.path.join(ctx.work, tag)
    os.makedirs(workdir)
    batches_path = os.path.join(workdir, "batches.json")
    with open(batches_path, "w", encoding="utf-8") as handle:
        json.dump(batches, handle)
    out = Stream(artifact=os.path.join(workdir, "model.rmv2"))

    start = time.perf_counter()
    worker = ctx.procs.start(
        [INGEST_WORKER, "--batches", batches_path, "--workdir", workdir,
         "--seed", str(seed), "--trace", str(int(trace))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def command(line: str) -> Dict[str, Any]:
        worker.stdin.write(line + "\n")
        worker.stdin.flush()
        reply = worker.stdout.readline()
        if not reply:
            raise RuntimeError(f"ingest worker died on {line!r}")
        return json.loads(reply)

    json.loads(worker.stdout.readline())  # ready
    first = command("ingest 0")
    if not first["refit_ran"]:
        raise RuntimeError("the first batch did not export a model")
    server = Server(ctx.procs, out.artifact, workdir)
    server.wait_healthy()
    out.setup_s = time.perf_counter() - start

    control = server.connect()
    reader = server.connect()
    reads = _hot_reads(batches[0], int(READ_RATE * 60))
    stop = threading.Event()
    outcomes: List[Any] = []

    def read_loop() -> None:
        # Open loop at READ_RATE, in chunks so it can stop between them.
        begin, done = time.perf_counter() + 0.01, 0
        while not stop.is_set() and done < len(reads):
            chunk = reads[done:done + int(READ_RATE)]
            ran = loadgen.run_schedule([reader], chunk, READ_RATE,
                                       begin + done / READ_RATE)
            outcomes.extend(ran)
            done += len(chunk)

    thread = threading.Thread(target=read_loop, daemon=True)
    thread.start()
    try:
        begin = time.perf_counter()
        for i in range(1, len(batches)):
            handed = time.perf_counter()
            reply = command(f"ingest {i}")
            out.docs += reply["num_documents"]
            if not reply["refit_ran"]:
                continue
            exported = time.perf_counter()
            status, _ = control.send(loadgen.Request(
                "control", "POST", "/v1/admin/reload", b"{}"))
            reloaded = time.perf_counter()
            visible = _wait_visible(control, reply["model_version"]) \
                if status == 200 else None
            if visible is None:
                # Later versions could not show either: end the stream.
                out.unserved.append(reply["model_version"])
                break
            out.freshness_s.append(visible - handed)
            out.freshness_speed.append(ctx.monitor.speed(handed, visible))
            out.reload_ms.append((reloaded - exported) * 1e3)
            out.visible_ms.append((visible - exported) * 1e3)
            status, body = control.get("/v1/model")
            out.crcs.append(json.loads(body)["manifest"]["payload_crc32"])
        out.wall_s = time.perf_counter() - begin
        out.speed = ctx.monitor.speed(begin, time.perf_counter())
    finally:
        stop.set()
        thread.join()
        control.close()
        reader.close()
    out.reads = outcomes
    out.stats = command("stats")
    out.stats["server_rss_mb"] = server.peak_rss_mb()
    worker.wait(timeout=30)
    server.stop()
    return out


def ingest_swap(ctx: Context) -> Result:
    import inputs
    import stats
    from repro.serve import ModelQueryEngine, load_model

    out = Result()
    streams: List[Stream] = []
    if ctx.trace:
        streams.append(_stream(ctx, ctx.seed * 100, False, "untraced"))
        traced = _stream(ctx, ctx.seed * 100, True, "traced")
        out.check("traced artifacts' payload_crc32 equal the untraced ones",
                  traced.crcs == streams[0].crcs)
        overhead = traced.wall_s - streams[0].wall_s
        out.notes.append(f"trace overhead {overhead:+.3f} s of stream wall "
                         f"time")
        layers = traced.stats["layers"]
        out.layers.update(layers)
        out.layers["stream.refit.reuse_ratio"] = (
            layers.get("stream.refit.nodes_reused", 0.0)
            / max(1.0, layers.get("stream.refit.nodes_reused", 0.0)
                  + layers.get("stream.refit.nodes_solved", 0.0)))
        out.layers["stream.shards.bytes"] = traced.stats["shard_bytes"]
        out.layers["resilience.checkpoint.bytes"] = \
            traced.stats["checkpoint_bytes"]
        out.layers["serve.artifact.bytes"] = traced.stats["artifact_bytes"]
        out.layers["serve.reload_ms"] = statistics.median(
            traced.reload_ms or [float("inf")])
        out.layers["serve.reload.visible_ms"] = statistics.median(
            traced.visible_ms or [float("inf")])
        streams.append(traced)
    else:
        # Streams of distinct sub-seeds (at least two), so no one seed's
        # refit pattern sets the run's numbers.
        for k in range(max(2, round(ctx.seconds / STREAM_SECONDS))):
            streams.append(_stream(ctx, ctx.seed * 100 + k, False,
                                   f"stream{k}"))

    reads = [o for s in streams for o in s.reads]
    out.attempted = len(reads) + sum(len(s.freshness_s) + len(s.unserved)
                                     for s in streams)
    wrong = 0
    for s in streams:
        seen = 0
        for o in s.reads:
            good = o.ok
            if good:
                results = json.loads(o.body)["results"]
                good = all(r.get("ok") for r in results)
                version = results[0]["result"]["model_version"] \
                    if good else seen
                good = good and version >= seen
                seen = max(seen, version)
            wrong += not good
    unserved = [v for s in streams for v in s.unserved]
    out.failed += wrong + len(unserved)
    out.check(f"{len(reads) - wrong}/{len(reads)} reads answered 200 with "
              f"no model_version older than one already seen", wrong == 0)
    out.check(f"every exported version served within "
              f"{VISIBLE_TIMEOUT_S:g} s of its reload" + (
                  f"; never served: {unserved}" if unserved else ""),
              not unserved)
    final = streams[-1]
    engine = ModelQueryEngine(load_model(final.artifact))
    try:
        version = engine.model_info()["model_version"]
        latest = [o for o in final.reads if o.ok and json.loads(o.body)
                  ["results"][0]["result"]["model_version"] == version]
        same = sum(1 for o in latest
                   if json.dumps(inputs.engine_call(engine, o.request))
                   .encode("utf-8") == o.body)
        out.check(f"{same}/{len(latest)} reads of the final version equal "
                  f"the in-process engine's answers", same == len(latest))
        if ctx.trace:
            _engine_replay(engine, [o.request for o in final.reads], out)
    finally:
        engine.close()

    def pooled(values_of, speeds_of) -> Tuple[List[float], List[float]]:
        """Every stream's values, as measured and host-normalized."""
        return ([v for s in streams for v in values_of(s)],
                [v * k for s in streams
                 for v, k in zip(values_of(s), speeds_of(s))])

    freshness = pooled(lambda s: s.freshness_s,
                       lambda s: s.freshness_speed)
    latencies = pooled(lambda s: [o.latency_s for o in s.reads],
                       lambda s: [s.speed] * len(s.reads))
    tail_q = stats.tail_quantile(len(latencies[0]))
    out.metric("setup_s", statistics.median(s.setup_s for s in streams),
               "s")
    out.metric("peak_rss_mb", max(s.stats["peak_rss_mb"] for s in streams),
               "MB")
    # Over all the run's streams: each stream's refit count is its
    # sub-seed's, and a total moves less with it than a median of four.
    docs = sum(s.docs for s in streams)
    out.metric("ingest_docs_per_s", docs / sum(s.wall_s for s in streams),
               "1/s", docs / sum(s.wall_s * s.speed for s in streams))
    # A stream cut short by an unserved version may have no refit left.
    out.metric("freshness_p50_s",
               statistics.median(freshness[0] or [float("inf")]), "s",
               statistics.median(freshness[1] or [float("inf")]))
    out.metric("swap_read_p50_ms",
               stats.percentile(latencies[0], 0.5) * 1e3, "ms",
               stats.percentile(latencies[1], 0.5) * 1e3)
    out.metric(f"swap_read_p{tail_q * 100:g}_ms",
               stats.percentile(latencies[0], tail_q) * 1e3, "ms",
               stats.percentile(latencies[1], tail_q) * 1e3)
    generator = [o.lateness_s for o in reads if o.idle]
    out.layers["loadgen.lateness_p99_ms"] = \
        stats.percentile(generator or [0.0], 0.99) * 1e3
    out.layers["loadgen.sent"] = float(len(reads))
    for k, stream in enumerate(streams):
        out.notes.append(f"stream {k}: {stream.docs} documents in "
                         f"{stream.wall_s:.3f} s, {len(stream.freshness_s)} "
                         f"refits, host speed {stream.speed:.3f}")
    out.notes.append(
        f"{len(streams)} stream(s) of {NUM_BATCHES} batches, "
        f"{len(freshness[0])} refits, {len(reads)} reads at {READ_RATE:g}/s; "
        f"server peak RSS "
        f"{max(s.stats['server_rss_mb'] for s in streams):.1f} MB")
    return out


WORKLOADS: Dict[str, Callable[[Context], Result]] = {
    "mine_dblp": mine_dblp,
    "query_keepalive": query_keepalive,
    "ingest_swap": ingest_swap,
}


def report(ctx: Context, out: Result, host: Dict[str, Any]) -> Dict:
    """Print every metric by name with its unit; return the JSON result."""
    import inputs
    import stats

    w = ctx.workload
    print(f"# {w} seed={ctx.seed} seconds={ctx.seconds:g} "
          f"trace={int(ctx.trace)}: {inputs.WHY[w]}")
    steal = host["steal_share"]
    print(f"# host: {host['cpus']} cpus, load {host['load_start']:.2f} -> "
          f"{host['load_end']:.2f}, steal "
          + ("n/a" if steal is None else f"{steal:.2%}"))
    for line in out.notes:
        print(f"# {line}")
    for what, ok in out.checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {what}")
    for name, (value, unit, normalized) in out.named.items():
        print(f"{w} {name} {value:.6g} {unit}" + (
            "" if normalized is None
            else f"  (host-normalized {normalized:.6g})"))
    if ctx.trace:
        metrics = {}
        for name, (unit, moves, _) in PER_LAYER.items():
            value = stats.finite(float(out.layers.get(name, 0.0)))
            metrics[name] = {"value": value, "unit": unit}
            if name in out.layers:
                print(f"{w} {name} {value:.6g} {unit}  -> {moves}")
    else:
        metrics = {}
        for name, (source, scale) in END_TO_END[w].items():
            raw, _, normalized = out.named[source]
            value = stats.finite(
                (raw if normalized is None else normalized) * scale)
            metrics[name] = {"value": value, "unit": UNITS[name]}
    return {"correct": all(ok for _, ok in out.checks),
            "attempted": out.attempted, "failed": out.failed,
            "metrics": metrics}


def check_layers(workload: str, out: Result) -> None:
    """Every layer the traced workload owns was measured, and read
    above 0 unless 0 is a legal reading: a wrapper that stops catching
    its layer fails the run instead of reporting a silent 0."""
    own = [name for name, (_, _, owners) in PER_LAYER.items()
           if workload in owners]
    bad = [name for name in own
           if not (out.layers.get(name, 0.0) > 0.0
                   or (name in MAY_BE_ZERO and name in out.layers))]
    out.check(f"{len(own) - len(bad)}/{len(own)} of the workload's layers "
              f"measured" + (f"; missing or 0: {', '.join(bad)}"
                             if bad else ""), not bad)


def run_one(workload: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in its own work directory; print its report."""
    from host import HostSample, Processes, child_env
    from probe import Monitor

    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(work)
    procs = Processes(child_env(SRC))
    sample = HostSample()
    try:
        monitor = Monitor(procs, work)
        monitor.wait_for_samples()
        ctx = Context(workload, args.seed, args.seconds, bool(args.trace),
                      work, procs, monitor)
        out = WORKLOADS[workload](ctx)
        if ctx.trace:
            check_layers(workload, out)
    finally:
        procs.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    result = report(ctx, out, sample.end())
    print(json.dumps(result), flush=True)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {SRC}", file=sys.stderr)
        return 1
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_one(name, args) for name in names]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
