"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``generate`` — write a synthetic dataset (DBLP-style or NEWS-style)
  with ground truth to a JSON file.
* ``hierarchy`` — build and print a phrase-represented, entity-enriched
  topical hierarchy from a dataset file.
* ``phrases`` — run ToPMine and print each topic's ranked phrases.
* ``relations`` — mine advisor–advisee relations with TPFG and print
  the predictions (with accuracy when ground truth is available).
* ``strod`` — run moment-based topic discovery and print topic words.
* ``export-model`` — fit the full pipeline and persist the result as a
  v2 model artifact (zero-copy mmap binary sections).
* ``migrate-model`` — re-encode an existing artifact in another format,
  losslessly (the manifest fingerprints carry over); ``--to v1`` is the
  one command that writes a model as JSON.
* ``ingest`` — append a JSONL batch of raw documents to a streaming
  shard store, fold it into the incremental moment sketch, and (per
  ``--refit-policy``) re-infer and export a fresh artifact (see
  :mod:`repro.stream`); repeated invocations against the same
  ``--shard-dir`` accumulate one stream.
* ``serve`` — answer topic / phrase / entity queries over HTTP from an
  exported model artifact (see :mod:`repro.serve`); ``--backend async``
  serves from an asyncio event loop with concurrent batch and sharded
  search fan-out (``--shards N``); ``POST /v1/admin/reload`` (or
  SIGHUP) hot-swaps to the latest artifact with zero dropped requests.
* ``trace-export`` — convert a ``--trace`` span stream (JSON lines) to
  Chrome ``trace_event`` JSON loadable in ``chrome://tracing``.

``fit`` is an alias of ``hierarchy`` (the full-pipeline fit).

``repro --version`` prints the library version (the same one stamped
into run reports, datasets, and model manifests).

Every command accepts ``--seed`` for reproducibility (the same seed
prints the same output, byte for byte), plus the observability flags
``--log-level``, ``--trace PATH`` (JSON-lines convergence traces and
phase spans), ``--report PATH`` (aggregated run report; see
:mod:`repro.obs.report` for the schema), and ``--profile PATH``
(per-span peak-RSS and allocation profiling; writes a
``repro.obs/profile/v1`` report ranking spans by self time — see
:mod:`repro.obs.profile`).

Crash recovery: ``--checkpoint-dir DIR`` makes the iterative solvers
persist their state there (atomically, at every iteration), and
``--resume`` continues a killed run from those files — producing the
same result, bit for bit, that the uninterrupted run would have.

Data and configuration errors print a one-line message to stderr and
exit with status 2 instead of a traceback.  Ctrl-C flushes the run
report (when requested) and exits with status 130; checkpoints already
on disk stay valid for ``--resume``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import get_version, obs
from .datasets import (DBLPConfig, NewsConfig, generate_dblp,
                       generate_news, load_dataset, save_dataset)
from .errors import ReproError
from .resilience import checkpoint_in


def _add_dataset_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset", help="path to a dataset JSON file "
                                        "written by 'repro generate'")


def _obs_parent() -> argparse.ArgumentParser:
    """Observability and resilience flags shared by every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    resilience = parent.add_argument_group("resilience")
    resilience.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist solver checkpoints in this directory so a killed "
             "run can be resumed (ignored by 'generate')")
    resilience.add_argument(
        "--resume", action="store_true",
        help="continue from checkpoints in --checkpoint-dir; the resumed "
             "run reproduces the uninterrupted one bit for bit")
    group = parent.add_argument_group("observability")
    group.add_argument("--log-level", default=None, metavar="LEVEL",
                       choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                       help="enable structured logging at this level")
    group.add_argument("--log-json", action="store_true",
                       help="emit log records as JSON lines")
    group.add_argument("--trace", default=None, metavar="PATH",
                       help="stream per-iteration convergence traces to "
                            "this JSON-lines file")
    group.add_argument("--report", default=None, metavar="PATH",
                       help="write an aggregated run report (metrics, "
                            "phase timings, traces) to this JSON file")
    group.add_argument("--profile", default=None, metavar="PATH",
                       help="record per-span peak RSS and allocation "
                            "deltas and write a profiling report "
                            "(spans ranked by self time) to this JSON "
                            "file; implies span collection")
    return parent


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "dblp":
        dataset = generate_dblp(DBLPConfig(max_authors=args.max_authors),
                                seed=args.seed)
    else:
        dataset = generate_news(
            NewsConfig(num_stories=args.stories,
                       articles_per_story=args.articles), seed=args.seed)
    save_dataset(dataset, args.output)
    print(f"wrote {dataset.name}: {len(dataset.corpus)} documents, "
          f"{len(dataset.corpus.vocabulary)} terms -> {args.output}")
    return 0


def _fit_pipeline(args: argparse.Namespace):
    """Shared fit driver for ``hierarchy`` and ``export-model``."""
    from .core import LatentEntityMiner, MinerConfig

    dataset = load_dataset(args.dataset)
    num_children = [int(part) for part in args.children.split(",")]
    miner = LatentEntityMiner(
        MinerConfig(num_children=num_children,
                    max_depth=len(num_children),
                    weight_mode=args.weights), seed=args.seed)
    result = miner.fit(dataset.corpus, checkpoint_dir=args.checkpoint_dir,
                       resume=args.resume)
    return miner, dataset, result


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    _, dataset, result = _fit_pipeline(args)
    entity_types = dataset.corpus.entity_types()
    if args.json:
        print(result.hierarchy.to_json())
    else:
        print(result.render(max_phrases=args.top,
                            entity_types=entity_types, max_entities=3))
    return 0


def _cmd_export_model(args: argparse.Namespace) -> int:
    miner, _, result = _fit_pipeline(args)
    manifest = miner.save_model(result, args.output)
    print(f"exported {manifest['num_topics']} topics "
          f"({manifest['vocab_size']} terms, repro "
          f"{manifest['repro_version']}, {manifest['schema']}) "
          f"-> {args.output}")
    return 0


def _cmd_migrate_model(args: argparse.Namespace) -> int:
    from .serve import migrate_model

    manifest = migrate_model(args.model, args.output, format=args.to)
    print(f"migrated {args.model} -> {args.output} "
          f"({manifest['schema']}, {manifest['num_topics']} topics, "
          f"payload crc {manifest['payload_crc32']})")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json as _json
    import os as _os

    from .stream import (DriftConfig, IngestConfig, IngestPipeline,
                         ShardStore)
    from .strod.hierarchy import STRODTreeConfig

    documents = []
    with open(args.batch, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                documents.append(_json.loads(line))
            except _json.JSONDecodeError as exc:
                print(f"repro: error: {args.batch}:{line_no} is not "
                      f"valid JSON: {exc}", file=sys.stderr)
                return 2
    config = IngestConfig(
        refit_policy=args.refit_policy,
        drift=DriftConfig(moment_delta=args.drift_moment,
                          vocab_growth=args.drift_vocab,
                          doc_count=args.drift_docs),
        tree=STRODTreeConfig(num_children=args.children,
                             max_depth=args.depth,
                             min_documents=args.min_documents),
        seed=args.seed,
        dirty_threshold=args.dirty_threshold,
        export_path=args.export)
    store = ShardStore(args.shard_dir)
    # The pipeline checkpoint lives inside the shard dir, so repeated
    # `repro ingest` invocations accumulate onto one stream.
    pipeline = IngestPipeline(
        store, config,
        checkpoint_dir=_os.path.join(args.shard_dir, "pipeline"))
    report = pipeline.ingest_batch(documents)
    print(_json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time as _time

    from .serve import ModelQueryEngine, ModelServer, load_model

    def build_engine() -> ModelQueryEngine:
        return ModelQueryEngine(load_model(args.model),
                                cache_size=args.cache_size,
                                phrase_shards=args.shards)

    start = _time.perf_counter()
    engine = build_engine()
    model = engine.model
    cold_load_s = _time.perf_counter() - start
    if args.backend == "async":
        from .serve.aio import ModelAsyncServer

        server = ModelAsyncServer(engine, host=args.host, port=args.port,
                                  request_timeout=args.request_timeout,
                                  max_body_bytes=args.max_body_bytes)
    else:
        server = ModelServer(engine, host=args.host, port=args.port,
                             request_timeout=args.request_timeout,
                             max_body_bytes=args.max_body_bytes)
    # Hot reload: POST /v1/admin/reload (or SIGHUP) re-reads the
    # artifact path and swaps the engine with zero dropped requests.
    server.set_reloader(build_engine)
    server.install_signal_handlers()
    print(f"repro serve: model {args.model} "
          f"({model.manifest['num_topics']} topics, loaded in "
          f"{cold_load_s * 1e3:.1f} ms, backend {args.backend}, "
          f"{args.shards} shard(s)) on "
          f"http://{server.host}:{server.port}", file=sys.stderr)
    try:
        server.serve_forever()
    finally:
        server.close()
    print("repro serve: shut down gracefully", file=sys.stderr)
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from .obs import spans_from_jsonl, to_chrome_trace
    from .resilience import atomic_write_json

    records = spans_from_jsonl(args.input)
    atomic_write_json(args.output, to_chrome_trace(records))
    print(f"exported {len(records)} spans -> {args.output}",
          file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run as run_lint

    return run_lint(args)


def _cmd_phrases(args: argparse.Namespace) -> int:
    from .phrases import ToPMine, ToPMineConfig

    dataset = load_dataset(args.dataset)
    topmine = ToPMine(
        ToPMineConfig(num_topics=args.topics,
                      min_support=args.min_support,
                      merge_threshold=args.merge_threshold,
                      lda_iterations=args.iterations), seed=args.seed)
    result = topmine.fit(dataset.corpus, checkpoint_dir=args.checkpoint_dir,
                         resume=args.resume)
    for t in range(args.topics):
        print(f"topic {t}: "
              + " / ".join(result.top_phrases(t, args.top,
                                              dataset.corpus)))
    return 0


def _cmd_relations(args: argparse.Namespace) -> int:
    from .relations import (CollaborationNetwork, TPFG,
                            build_candidate_graph, evaluate_predictions)

    dataset = load_dataset(args.dataset)
    network = CollaborationNetwork.from_corpus(dataset.corpus)
    graph = build_candidate_graph(network)
    writer = checkpoint_in(args.checkpoint_dir, "tpfg", "relations.tpfg",
                           config={"max_iter": args.iterations})
    result = TPFG(max_iter=args.iterations).fit(graph, checkpoint=writer,
                                                resume=args.resume)
    predictions = result.predictions(top_k=args.top_k, theta=args.theta)
    shown = 0
    for author in graph.authors:
        advisor = predictions.get(author)
        if advisor:
            print(f"{author}\t{advisor}\t"
                  f"{result.score(author, advisor):.3f}")
            shown += 1
        if args.limit and shown >= args.limit:
            break
    if dataset.ground_truth.advising:
        truth = {r.advisee: r.advisor
                 for r in dataset.ground_truth.advising}
        for author in network.authors:
            truth.setdefault(author, None)
        accuracy = evaluate_predictions(predictions, truth)
        print(f"# advisee accuracy {accuracy.advisee_accuracy:.3f} "
              f"({accuracy.num_advisees} advisees), "
              f"root accuracy {accuracy.root_accuracy:.3f}",
              file=sys.stderr)
    return 0


def _cmd_strod(args: argparse.Namespace) -> int:
    from .strod import STROD
    from .strod.moments import document_counts

    dataset = load_dataset(args.dataset)
    corpus = dataset.corpus
    counts = document_counts(corpus.tokens, corpus.doc_offsets,
                             len(corpus.vocabulary), min_length=0)
    strod = STROD(num_topics=args.topics,
                  alpha0=args.alpha0 if args.alpha0 > 0 else None,
                  sparse=args.sparse, seed=args.seed)
    writer = checkpoint_in(args.checkpoint_dir, "strod",
                           "strod.tensor_power",
                           config={"topics": args.topics,
                                   "alpha0": args.alpha0,
                                   "seed": args.seed})
    model = strod.fit(counts, len(corpus.vocabulary),
                      checkpoint=writer, resume=args.resume)
    vocabulary = corpus.vocabulary
    for z in range(args.topics):
        order = model.phi[z].argsort()[::-1][:args.top]
        words = [vocabulary.word_of(int(w)) for w in order]
        print(f"topic {z} (alpha={model.alpha[z]:.3f}): "
              + ", ".join(words))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mining latent entity structures (Wang, 2014)")
    parser.add_argument("--version", action="version",
                        version=f"repro {get_version()}")
    sub = parser.add_subparsers(dest="command", required=True)
    obs_parent = [_obs_parent()]

    gen = sub.add_parser("generate", help="write a synthetic dataset",
                         parents=obs_parent)
    gen.add_argument("kind", choices=["dblp", "news"])
    gen.add_argument("output")
    gen.add_argument("--max-authors", type=int, default=150)
    gen.add_argument("--stories", type=int, default=8)
    gen.add_argument("--articles", type=int, default=60)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    hier = sub.add_parser("hierarchy", aliases=["fit"],
                          help="build a topical hierarchy ('fit' is an "
                               "alias)",
                          parents=obs_parent)
    _add_dataset_argument(hier)
    hier.add_argument("--children", default="6,3",
                      help="children per level, comma separated")
    hier.add_argument("--weights", default="learn",
                      choices=["equal", "norm", "learn"])
    hier.add_argument("--top", type=int, default=4)
    hier.add_argument("--json", action="store_true")
    hier.add_argument("--seed", type=int, default=0)
    hier.set_defaults(func=_cmd_hierarchy)

    phr = sub.add_parser("phrases", help="run ToPMine",
                         parents=obs_parent)
    _add_dataset_argument(phr)
    phr.add_argument("--topics", type=int, default=6)
    phr.add_argument("--min-support", type=int, default=5)
    phr.add_argument("--merge-threshold", type=float, default=2.0)
    phr.add_argument("--iterations", type=int, default=60)
    phr.add_argument("--top", type=int, default=8)
    phr.add_argument("--seed", type=int, default=0)
    phr.set_defaults(func=_cmd_phrases)

    rel = sub.add_parser("relations", help="mine advisor relations",
                         parents=obs_parent)
    _add_dataset_argument(rel)
    rel.add_argument("--iterations", type=int, default=20)
    rel.add_argument("--top-k", type=int, default=1)
    rel.add_argument("--theta", type=float, default=0.5)
    rel.add_argument("--limit", type=int, default=20)
    rel.add_argument("--seed", type=int, default=0)
    rel.set_defaults(func=_cmd_relations)

    strod = sub.add_parser("strod", help="moment-based topic discovery",
                           parents=obs_parent)
    _add_dataset_argument(strod)
    strod.add_argument("--topics", type=int, default=6)
    strod.add_argument("--alpha0", type=float, default=1.0,
                       help="Dirichlet concentration; <= 0 learns it")
    strod.add_argument("--sparse", action="store_true")
    strod.add_argument("--top", type=int, default=8)
    strod.add_argument("--seed", type=int, default=0)
    strod.set_defaults(func=_cmd_strod)

    export = sub.add_parser(
        "export-model", help="fit and persist a serveable model artifact",
        parents=obs_parent)
    _add_dataset_argument(export)
    export.add_argument("--output", "-o", required=True, metavar="PATH",
                        help="where to write the v2 model artifact "
                             "(atomic write)")
    export.add_argument("--children", default="6,3",
                        help="children per level, comma separated")
    export.add_argument("--weights", default="learn",
                        choices=["equal", "norm", "learn"])
    export.add_argument("--seed", type=int, default=0)
    export.set_defaults(func=_cmd_export_model)

    migrate = sub.add_parser(
        "migrate-model",
        help="re-encode a model artifact in another format (lossless)")
    migrate.add_argument("model", help="source artifact (v1 or v2, "
                                       "sniffed)")
    migrate.add_argument("--output", "-o", required=True, metavar="PATH",
                         help="where to write the re-encoded artifact")
    migrate.add_argument("--to", default="v2", choices=["v1", "v2"],
                         help="destination format: v2 (default) or v1 "
                              "(legacy canonical JSON)")
    # Pure file transformation: default the shared run flags away.
    migrate.set_defaults(func=_cmd_migrate_model, report=None, trace=None,
                         profile=None, log_level=None, log_json=False)

    ingest = sub.add_parser(
        "ingest",
        help="append a JSONL batch to a stream shard store, update the "
             "moment sketch, and (policy permitting) re-infer + export",
        parents=obs_parent)
    ingest.add_argument("--shard-dir", required=True, metavar="DIR",
                        help="the append-only shard store (created on "
                             "first use; the pipeline checkpoint lives "
                             "inside it, so invocations accumulate)")
    ingest.add_argument("--batch", required=True, metavar="JSONL",
                        help="one raw document per line: objects with "
                             "'text' or 'chunks', plus optional "
                             "'entities'/'year'/'label'")
    ingest.add_argument("--refit-policy", default="drift",
                        choices=["drift", "always", "never"],
                        help="when to re-infer: on drift (default), on "
                             "every batch, or never (sketch-only)")
    ingest.add_argument("--export", "-o", default=None, metavar="PATH",
                        help="v2 model artifact rewritten after every "
                             "refit (the file 'repro serve' hot-reloads)")
    ingest.add_argument("--children", type=int, default=4,
                        help="subtopics per tree node")
    ingest.add_argument("--depth", type=int, default=2,
                        help="maximum tree depth")
    ingest.add_argument("--min-documents", type=int, default=50,
                        help="fewest documents a node needs to split")
    ingest.add_argument("--dirty-threshold", type=float, default=0.25,
                        help="fractional subset change at which a tree "
                             "node re-solves (0 = full re-solve)")
    ingest.add_argument("--drift-moment", type=float, default=0.05,
                        help="relative L1 first-moment change trigger "
                             "(inf disables)")
    ingest.add_argument("--drift-vocab", type=float, default=0.10,
                        help="vocabulary growth fraction trigger "
                             "(inf disables)")
    ingest.add_argument("--drift-docs", type=int, default=0,
                        help="new-document count trigger (0 disables)")
    ingest.add_argument("--seed", type=int, default=0)
    ingest.set_defaults(func=_cmd_ingest)

    serve = sub.add_parser(
        "serve", help="serve an exported model over HTTP",
        parents=obs_parent)
    serve.add_argument("model", help="path to a model artifact written by "
                                     "'repro export-model'")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 picks an ephemeral port)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="LRU query-result cache capacity (0 disables)")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="per-connection read timeout")
    serve.add_argument("--backend", default="threaded",
                       choices=["threaded", "async"],
                       help="threaded (stdlib http.server) or async "
                            "(asyncio, concurrent batch/search fan-out)")
    serve.add_argument("--shards", type=int, default=1,
                       help="phrase-index hash shards (async search "
                            "fans out across them; answers identical)")
    serve.add_argument("--max-body-bytes", type=int, default=1 << 20,
                       help="hard POST body cap (413 above it)")
    serve.set_defaults(func=_cmd_serve)

    export_trace = sub.add_parser(
        "trace-export",
        help="convert a --trace span stream to Chrome trace_event JSON")
    export_trace.add_argument("input", help="span JSON-lines file "
                                            "written via --trace")
    export_trace.add_argument("--output", "-o", required=True,
                              metavar="PATH",
                              help="where to write the Chrome trace "
                                   "(open in chrome://tracing)")
    # Pure file transformation: default the shared run flags away.
    export_trace.set_defaults(func=_cmd_trace_export, report=None,
                              trace=None, profile=None, log_level=None,
                              log_json=False)

    lint = sub.add_parser(
        "lint", help="enforce the codebase's invariants (rules "
                     "RL000-RL402) in one whole-program pass")
    from .lint.cli import add_lint_arguments
    add_lint_arguments(lint)
    # The lint subcommand takes none of the run-telemetry flags; default
    # them so main()'s shared plumbing stays oblivious.
    lint.set_defaults(func=_cmd_lint, report=None, trace=None,
                      profile=None, log_level=None, log_json=False)
    return parser


def _configure_observability(args: argparse.Namespace) -> None:
    """Enable telemetry when any observability flag was given."""
    if args.trace or args.report or args.profile:
        obs.configure(level=args.log_level, trace_path=args.trace,
                      report_path=args.report, json_logs=args.log_json,
                      profile=bool(args.profile))
    elif args.log_level:
        obs.configure(level=args.log_level, json_logs=args.log_json,
                      metrics=False)


def _cli_config(args: argparse.Namespace) -> dict:
    """The invocation's arguments as a JSON-safe report config."""
    return {key: value for key, value in vars(args).items()
            if key != "func"}


def _write_run_report(args: argparse.Namespace) -> None:
    """Aggregate this invocation's telemetry into the requested report."""
    obs.write_report(obs.build_run_report(config=_cli_config(args)),
                     args.report)
    print(f"wrote run report -> {args.report}", file=sys.stderr)


def _write_profile_report(args: argparse.Namespace) -> None:
    """Rank this invocation's spans by self time into the profile."""
    obs.write_profile_report(
        obs.build_profile_report(config=_cli_config(args)), args.profile)
    print(f"wrote profile report -> {args.profile}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library (:class:`~repro.errors.ReproError`) and file-system errors
    are reported as a one-line message on stderr with exit status 2.  A
    keyboard interrupt flushes the run report (checkpoints are already
    on disk) and exits with the conventional status 130.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_observability(args)
    try:
        code = args.func(args)
        if code == 0 and args.report:
            _write_run_report(args)
        if code == 0 and args.profile:
            _write_profile_report(args)
    except KeyboardInterrupt:
        # Atomic checkpoint writes mean everything persisted so far is a
        # valid --resume point; flush the telemetry gathered and leave.
        if args.report or args.profile:
            try:
                if args.report:
                    _write_run_report(args)
                if args.profile:
                    _write_profile_report(args)
            # repro: noqa-RL004  best-effort telemetry flush while the
            # process is already unwinding from Ctrl-C; a reporting
            # failure must not mask the interrupt exit status.
            except Exception:
                pass
        print("repro: interrupted", file=sys.stderr)
        return 130
    except (ReproError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
