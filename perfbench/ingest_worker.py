"""The ``ingest_swap`` working process: one long-lived ``IngestPipeline``.

Run by ``run.py`` in a fresh interpreter.  It loads the raw batches,
builds a pipeline over a fresh shard store with the default drift policy
and v2 export, prints ``ready`` and then answers one command per stdin
line with one JSON line on stdout:

* ``ingest <i>`` ingests batch ``i`` and reports whether it refit, the
  model version and the call's wall time;
* ``stats`` reports peak RSS, checkpoint size and, with ``--trace 1``,
  the per-layer times of :mod:`layers`; then the process exits.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batches", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    from repro import obs
    from repro.stream import IngestConfig, IngestPipeline, ShardStore
    if obs.is_enabled():
        raise SystemExit("repro.obs must stay unconfigured in a bench run")
    clock = None
    if args.trace:
        from layers import LayerClock, instrument_stream
        clock = LayerClock()
        instrument_stream(clock)

    with open(args.batches, encoding="utf-8") as handle:
        batches = json.load(handle)
    export = os.path.join(args.workdir, "model.rmv2")
    checkpoints = os.path.join(args.workdir, "pipeline")
    pipeline = IngestPipeline(
        ShardStore(os.path.join(args.workdir, "shards")),
        IngestConfig(seed=args.seed, export_path=export,
                     export_format="v2"),
        checkpoint_dir=checkpoints)
    _reply({"ready": time.perf_counter() - _START})

    saved_bytes = 0
    for line in sys.stdin:
        command = line.split()
        if command[0] == "ingest":
            start = time.perf_counter()
            report = pipeline.ingest_batch(batches[int(command[1])])
            elapsed = time.perf_counter() - start
            if report.refit_ran:
                saved_bytes += os.path.getsize(export)
            _reply({"refit_ran": report.refit_ran,
                    "model_version": report.model_version,
                    "num_documents": report.num_documents,
                    "elapsed_s": elapsed})
        elif command[0] == "stats":
            checkpoint_bytes = sum(
                os.path.getsize(os.path.join(checkpoints, name))
                for name in os.listdir(checkpoints))
            shard_bytes = sum(
                os.path.getsize(os.path.join(root, name))
                for root, _, names in os.walk(
                    os.path.join(args.workdir, "shards"))
                for name in names)
            layers = {}
            if clock is not None:
                clock.restore()
                layers = dict(clock.self_s)
                layers.update(clock.counts)
            _reply({"peak_rss_mb": resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "checkpoint_bytes": checkpoint_bytes,
                    "shard_bytes": shard_bytes,
                    "artifact_bytes": saved_bytes,
                    "layers": layers})
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
