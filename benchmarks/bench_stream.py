"""Streaming refit cost: incremental (reuse-clean-subtrees) vs full.

The economic claim behind ``repro.stream`` (DESIGN §5.6): when a batch
arrives and the drift detectors fire, patching only the dirty subtrees
must be much cheaper than re-solving the whole tree — that headroom is
what makes refit-on-every-drift viable while serving.  Measured here on
a synthetic stream whose final batch leaves every node clean:

* **full refit** — ``dirty_threshold=0.0``: every node re-runs
  whitening + tensor power (identical to the batch build);
* **incremental refit** — a positive threshold with an up-to-date
  previous tree state: every node reuses its model and only re-assigns
  documents (the fold-in).

Acceptance: at this size the incremental refit is >= 5x faster than
the full refit of the same tree on the same corpus.
"""

import time

import numpy as np

from repro.corpus import Corpus
from repro.stream import StreamRefitter
from repro.strod.hierarchy import STRODTreeConfig

from conftest import fmt_row, report

TREE = STRODTreeConfig(num_children=4, max_depth=2, min_documents=40,
                       num_restarts=3, num_iterations=25)
SEED = 3
MIN_SPEEDUP = 5.0
REPEATS = 3


def _stream_corpus(num_docs=900, words_per_pool=60, num_pools=4,
                   doc_length=10, seed=11):
    """A pool-per-topic synthetic stream, vocab ~ pools x words."""
    rng = np.random.default_rng(seed)
    pools = [[f"w{p}x{i}" for i in range(words_per_pool)]
             for p in range(num_pools)]
    texts = []
    for d in range(num_docs):
        pool = pools[d % num_pools]
        words = [pool[i] for i in
                 rng.integers(0, words_per_pool, size=doc_length)]
        texts.append(" ".join(words) + ".")
    return Corpus.from_texts(texts)


def _prefix(corpus, fraction):
    return corpus.subset(range(int(len(corpus) * fraction)))


def _best_of(fn, repeats=REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_incremental_refit_speedup(benchmark):
    corpus = _stream_corpus()
    # The tree state as of the last solve: the log minus its newest
    # batch (5% of documents) — the state a drift-triggered refit
    # actually starts from.
    previous = StreamRefitter(TREE, seed=SEED, dirty_threshold=0.0).refit(
        _prefix(corpus, 0.95), None)[1]

    def full():
        refitter = StreamRefitter(TREE, seed=SEED, dirty_threshold=0.0)
        return refitter.refit(corpus, previous)[3]

    def incremental():
        refitter = StreamRefitter(TREE, seed=SEED, dirty_threshold=0.5)
        return refitter.refit(corpus, previous)[3]

    def measure():
        full_s, full_stats = _best_of(full)
        inc_s, inc_stats = _best_of(incremental)
        return full_s, full_stats, inc_s, inc_stats

    full_s, full_stats, inc_s, inc_stats = benchmark.pedantic(
        measure, rounds=1, iterations=1)

    assert full_stats.nodes_solved >= 1
    assert full_stats.nodes_reused == 0
    assert inc_stats.nodes_solved == 0  # 5% growth never crosses 0.5
    assert inc_stats.nodes_reused == full_stats.nodes_solved

    speedup = full_s / inc_s
    report("stream_incremental_refit", [
        fmt_row("refit", ["ms", "solved", "reused"]),
        fmt_row("full (threshold=0.0)",
                [full_s * 1e3, full_stats.nodes_solved,
                 full_stats.nodes_reused]),
        fmt_row("incremental (0.5)",
                [inc_s * 1e3, inc_stats.nodes_solved,
                 inc_stats.nodes_reused]),
        f"corpus: {len(corpus)} documents, "
        f"{len(corpus.vocabulary)} words; tree {TREE.num_children}-ary "
        f"depth {TREE.max_depth}; best of {REPEATS}",
        f"speedup: {speedup:.1f}x (assertion: >= {MIN_SPEEDUP:.0f}x)",
    ])
    assert speedup >= MIN_SPEEDUP, (
        f"incremental refit only {speedup:.1f}x faster than full "
        f"(floor {MIN_SPEEDUP:.0f}x)")
