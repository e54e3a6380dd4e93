"""Section 7.4.1 — scalability of STROD vs ML inference.

Paper result: STROD is orders of magnitude faster than Gibbs-sampled LDA
and variational/EM methods (hundreds of iterations vs a single pass plus
a k-dimensional tensor decomposition), and scales near-linearly in the
corpus size.

Expected reproduction: STROD at least ~5x faster than a 100-iteration
Gibbs run at every size, with the gap widening as the corpus grows, and
STROD's own runtime growing near-linearly.
"""

import time

from repro.baselines import (LDAGibbs, PLSA, VariationalLDA,
                             docs_to_count_matrix)
from repro.datasets import generate_planted_lda
from repro.strod import STROD

from conftest import fmt_row, report

SIZES = (300, 600, 1200)
NUM_TOPICS = 5
VOCAB = 150
GIBBS_ITERATIONS = 40


def test_ch7_scalability(benchmark):
    corpora = {size: generate_planted_lda(
        num_docs=size, num_topics=NUM_TOPICS, vocab_size=VOCAB,
        doc_length=50, seed=2) for size in SIZES}

    def run():
        rows = []
        for size, planted in corpora.items():
            start = time.perf_counter()
            STROD(num_topics=NUM_TOPICS, alpha0=1.0, seed=0).fit(
                planted.docs, planted.vocab_size)
            strod_time = time.perf_counter() - start

            start = time.perf_counter()
            LDAGibbs(num_topics=NUM_TOPICS,
                     iterations=GIBBS_ITERATIONS, seed=0).fit(
                planted.docs, planted.vocab_size)
            gibbs_time = time.perf_counter() - start

            start = time.perf_counter()
            PLSA(num_topics=NUM_TOPICS, max_iter=60, seed=0).fit(
                docs_to_count_matrix(planted.docs, planted.vocab_size))
            plsa_time = time.perf_counter() - start

            start = time.perf_counter()
            VariationalLDA(num_topics=NUM_TOPICS, em_iterations=20,
                           seed=0).fit(planted.docs, planted.vocab_size)
            vb_time = time.perf_counter() - start
            rows.append((size, strod_time, gibbs_time, plsa_time,
                         vb_time))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [fmt_row("documents", ["STROD (s)", "Gibbs (s)", "PLSA (s)",
                                   "VB (s)", "Gibbs/STROD"])]
    for size, strod_time, gibbs_time, plsa_time, vb_time in rows:
        lines.append(fmt_row(str(size),
                             [strod_time, gibbs_time, plsa_time, vb_time,
                              gibbs_time / max(strod_time, 1e-9)]))
    lines.append("paper: STROD orders of magnitude faster than "
                 "Gibbs/variational; near-linear scaling")
    report("ch7_scalability", lines)

    for size, strod_time, gibbs_time, _, vb_time in rows:
        assert gibbs_time > 5 * strod_time
        assert vb_time > strod_time
    # Near-linear STROD scaling: 4x documents < ~12x time.
    assert rows[-1][1] / max(rows[0][1], 1e-9) < 12


def test_ch7_scalability_in_k(benchmark):
    """STROD cost grows mildly with k (k^3 tensor work is tiny)."""
    planted = generate_planted_lda(num_docs=800, num_topics=8,
                                   vocab_size=200, doc_length=50, seed=4)

    def run():
        timings = {}
        for k in (3, 5, 8):
            start = time.perf_counter()
            STROD(num_topics=k, alpha0=1.0, seed=0).fit(
                planted.docs, planted.vocab_size)
            timings[k] = time.perf_counter() - start
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [fmt_row("k", ["STROD (s)"])]
    for k, value in timings.items():
        lines.append(fmt_row(str(k), [value]))
    report("ch7_scalability_in_k", lines)
    assert timings[8] < timings[3] * 20
