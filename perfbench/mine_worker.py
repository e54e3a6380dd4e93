"""The ``mine_dblp`` working process.

Run by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src``.  It times ``import repro`` (the workload's
set-up), then mines the raw titles it is handed once:

    Corpus.from_texts -> LatentEntityMiner.fit -> mine_relations
    -> save_model(format="v2")

and writes what it measured, plus the relation predictions, as JSON for
the parent to score.  With ``--trace 1`` the mine runs with the layer
clock of :mod:`layers` installed.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

#: Hierarchy shape of the generator's planted truth (6 areas x 3 leaves).
CHILDREN = [6, 3]


def _fit(miner, corpus_type, inputs):
    corpus = corpus_type.from_texts(inputs["texts"],
                                    entities=inputs["entities"],
                                    years=inputs["years"])
    return corpus, miner.fit(corpus)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--import-only", action="store_true",
                        help="time the program import, print it and exit")
    parser.add_argument("--inputs", help="inputs JSON written by run.py")
    parser.add_argument("--workdir")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--result")
    args = parser.parse_args(argv)

    import repro  # noqa: F401
    from repro import obs
    from repro.core import LatentEntityMiner, MinerConfig
    from repro.corpus import Corpus
    import_s = time.perf_counter() - _START
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0
    if obs.is_enabled():
        raise SystemExit("repro.obs must stay unconfigured in a bench run")

    with open(args.inputs, encoding="utf-8") as handle:
        inputs = json.load(handle)
    clock = None
    if args.trace:
        from layers import LayerClock, instrument_mining
        clock = LayerClock()
        instrument_mining(clock)

    path = os.path.join(args.workdir, "model.rmv2")
    start = time.perf_counter()
    miner = LatentEntityMiner(MinerConfig(num_children=CHILDREN),
                              seed=args.seed)
    corpus, result = _fit(miner, Corpus, inputs)
    relations, _, network = miner.mine_relations(corpus)
    manifest = miner.save_model(result, path, format="v2")
    mine_span = [start, time.perf_counter()]

    layers = {}
    if clock is not None:
        clock.restore()
        layers = dict(clock.self_s)
        layers.update(clock.counts)
    from repro.serve import load_model
    start = time.perf_counter()
    model = load_model(path)
    load_s = time.perf_counter() - start
    if hasattr(model, "close"):
        model.close()
    out = {
        "predictions": relations.predictions(),
        "authors": sorted(network.authors),
        "num_documents": len(corpus),
        "vocab_size": len(corpus.vocabulary),
        "import_s": import_s,
        "mine_s": mine_span[1] - mine_span[0],
        "mine_span": mine_span,
        "payload_crc32": manifest["payload_crc32"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact": path,
        "artifact_bytes": os.path.getsize(path),
        "load_s": load_s,
        "layers": layers,
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
