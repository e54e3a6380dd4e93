"""Micro-benchmarks for the vectorized solver kernels.

Times the two CATHY hot kernels — the Eq. 3.5 posterior link split and
the Eq. 3.7 M-step scatter — against the original per-link / per-subtopic
loop implementations kept in ``tests/reference_kernels.py``, and likewise
the Gibbs sweep, network build, Example 3.1 collapse and child networks,
ToPMine merge, frequent-phrase mining, role attribution, candidate graph
and TPFG kernels, the serving engine's uncached topic detail, the v2
artifact writer, the STROD moments and node solve, the one-pass corpus
build and the stream's moment sketch, against theirs.

Problem sizes are environment-tunable so CI can run a seconds-long smoke
pass (``REPRO_BENCH_EDGES=2000``) while the default configuration
reproduces the acceptance measurement: the vectorized posterior split
must be >= 10x faster than the reference loop at 1e5 edges.

Each kernel invocation runs under a profiled span, so the report ends
with a self-time/RSS breakdown (see :mod:`repro.obs.profile`) — the
same table ``repro fit --profile`` produces for a full run.
"""

import json
import os
import sys
import time

import numpy as np

import repro.obs as obs

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))

from reference_kernels import (ReferenceDictNetwork, ReferenceHINEM,
                               ReferenceRowSketch, legacy_gibbs_sweep,
                               reference_build_candidate_graph,
                               reference_build_collapsed_network,
                               reference_corpus_token_array,
                               reference_document_phrase_instances,
                               reference_document_topic_frequencies,
                               reference_document_topics,
                               reference_first_moment,
                               reference_from_texts,
                               reference_gibbs_sweep,
                               reference_hin_em_step,
                               reference_mine_chunks,
                               reference_posterior_link_split,
                               reference_robust_tensor_decomposition,
                               reference_second_moment,
                               reference_segment_chunk,
                               reference_spgemm_second_moment,
                               reference_strod_node,
                               reference_subnetwork,
                               reference_topic_detail, reference_tpfg_ranking,
                               reference_v2_blob,
                               reference_whitened_third_moment,
                               reference_word_count_rows)

from repro.baselines.lda_gibbs import LDAGibbs
from repro.cathy import CathyHIN
from repro.cathy.em import posterior_link_split
from repro.cathy.hin_em import _scaled_weights
from repro.corpus import Corpus
from repro.datasets import DBLPConfig, generate_dblp, generate_planted_lda
from repro.hierarchy import Topic
from repro.network import HeterogeneousNetwork, build_collapsed_network
from repro.phrases import (PhraseCounts, document_phrase_instances,
                           make_merge_scorer, mine_frequent_phrases,
                           mine_frequent_phrases_from_chunks, segment_chunk)
from repro.relations import (TPFG, CollaborationNetwork, TPFGResult,
                             build_candidate_graph)
from repro.roles.analyzer import attribute_documents
from repro.serve import ModelQueryEngine, load_model, save_model_document
from repro.serve.artifact import parts_from_document
from repro.serve.artifact_v2 import pack_model
from repro.strod import (STROD, MomentSketch, compute_whitener,
                         first_moment, robust_tensor_decomposition,
                         second_moment, whitened_third_moment)
from repro.strod.hierarchy import STRODTreeConfig
from repro.strod.moments import count_matrix, document_counts, long_documents

from bench_serve import synthetic_document
from conftest import fmt_row, report

EDGES = int(os.environ.get("REPRO_BENCH_EDGES", 100_000))
NODES = int(os.environ.get("REPRO_BENCH_NODES", 2_000))
TOPICS = int(os.environ.get("REPRO_BENCH_TOPICS", 5))
GIBBS_DOCS = int(os.environ.get("REPRO_BENCH_DOCS", 300))
CHUNKS = int(os.environ.get("REPRO_BENCH_CHUNKS", 600))

#: CATHYHIN's root-shaped network follows the edge and node knobs:
#: ~150k links over ~1,000 authors, ~7,000 terms and 20 venues at full
#: size, about the root of the ``mine_dblp`` perfbench workload.
HIN_LINKS = EDGES * 3 // 2
HIN_NODES = {"author": max(NODES // 2, 4), "term": NODES * 7 // 2,
             "venue": max(NODES // 100, 2)}
#: Share of the links in each of the five link types (the ``mine_dblp``
#: root's mix).
HIN_SHARES = {("author", "author"): 0.04, ("author", "term"): 0.40,
              ("author", "venue"): 0.03, ("term", "term"): 0.46,
              ("term", "venue"): 0.07}

#: Role attribution documents and TPFG authors follow the edge and node
#: knobs: 10,000 documents and a 1,000-author synthetic DBLP candidate
#: graph at full size, about the scale of the ``mine_dblp`` perfbench
#: workload.
ROLE_DOCS = EDGES // 10
TPFG_AUTHORS = NODES // 2

#: Phrase-mining corpus authors follow the chunk knob: a 1,000-author
#: synthetic DBLP corpus (~11k titles, ~91k tokens) at full size, the
#: ``mine_dblp`` perfbench input without its long tail of title words.
PHRASE_AUTHORS = CHUNKS * 5 // 3

#: Topic-detail phi rows follow the node knob: 20,000 terms at full
#: size, the vocabulary of the ``query_keepalive`` perfbench model.
DETAIL_TERMS = NODES * 10

#: The saved model follows the node knob too: the topic-detail model
#: (20,000 terms x 9 topics) with 6,000 authors' role rows at full size.
SAVE_AUTHORS = NODES * 3

#: Shards of the stream-sketch bench: the ``ingest_swap`` perfbench
#: stream's batch count, over the phrase-mining corpus.
STREAM_SHARDS = 20

#: STROD moment documents follow the node knob: 10,000 planted-LDA
#: documents of 10 tokens over 500 words at full size.
STROD_DOCS = NODES * 5
STROD_VOCAB = 500
STROD_TOPICS = 5

#: The STROD node-solve bench solves the root of the phrase-mining
#: corpus (~11k titles over ~220 words at full size, the root of an
#: ``ingest_swap`` perfbench stream) with the stream's tree budget.
NODE_TREE = STRODTreeConfig()

#: The acceptance thresholds only bind at the full problem sizes; the CI
#: smoke pass shrinks the knobs and asserts plain correctness instead.
FULL_SIZE = 100_000
FULL_NODES = 2_000
FULL_DOCS = 300
FULL_CHUNKS = 600

#: Per-kernel wall-time sanity bound: even the CI smoke sizes must keep
#: every *fast* kernel well under this, so a silently-degraded hot path
#: fails the build on timing too.
SANITY_SECONDS = float(os.environ.get("REPRO_BENCH_SANITY_S", 10.0))


def _time(fn, repeats: int = 3, span_name: str = None) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        if span_name is None:
            fn()
        else:
            with obs.span(span_name):
                fn()
        best = min(best, time.perf_counter() - start)
    return best


def _profiled_rows(names):
    """Self-time/CPU/RSS rows for this test's spans, report-formatted."""
    rows = [row for row in obs.top_spans(obs.get_spans())
            if row["name"] in names]
    lines = [fmt_row("span", ["self_s", "cpu_s", "peak_rss_mb"])]
    for row in rows:
        lines.append(fmt_row(row["name"], [
            row["self_s"], row["cpu_s"],
            row.get("rss_peak_bytes", 0) / 1e6]))
    return lines


def _problem(rng):
    phi = rng.dirichlet(np.ones(NODES), size=TOPICS)
    rho = rng.uniform(0.5, 2.0, size=TOPICS)
    i_idx = rng.integers(0, NODES, size=EDGES)
    j_idx = rng.integers(0, NODES, size=EDGES)
    weights = rng.uniform(0.1, 3.0, size=EDGES)
    return rho, phi, i_idx, j_idx, weights


def test_hotpath_posterior_link_split(benchmark):
    rho, phi, i_idx, j_idx, weights = _problem(np.random.default_rng(0))
    obs.configure(profile=True)

    def run():
        fast = _time(lambda: posterior_link_split(
            rho, phi, i_idx, j_idx, weights, counter=None),
            span_name="bench.split.vectorized")
        slow = _time(lambda: reference_posterior_link_split(
            rho, phi, i_idx, j_idx, weights), repeats=1,
            span_name="bench.split.reference")
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = slow / max(fast, 1e-9)
    report("hotpath_posterior_link_split", [
        fmt_row("kernel", ["seconds", "speedup"]),
        fmt_row("vectorized (k,E) pass", [fast, 1.0]),
        fmt_row("reference per-link loop", [slow, speedup]),
        "",
    ] + _profiled_rows({"bench.split.vectorized",
                        "bench.split.reference"}) + [
        f"edges={EDGES} nodes={NODES} topics={TOPICS}",
        "acceptance: >= 10x at 1e5 edges",
    ])
    assert np.max(np.abs(
        posterior_link_split(rho, phi, i_idx, j_idx, weights, counter=None)
        - reference_posterior_link_split(rho, phi, i_idx, j_idx, weights)
    )) <= 1e-12
    if EDGES >= FULL_SIZE:
        assert speedup >= 10.0


def _hin_network(rng) -> HeterogeneousNetwork:
    """A root-shaped collapsed network: five link types with integer
    co-occurrence weights (repeated pairs sum, same-type self-links
    included)."""
    links = {}
    for (type_x, type_y), share in HIN_SHARES.items():
        count = int(HIN_LINKS * share)
        links[(type_x, type_y)] = (
            rng.integers(0, HIN_NODES[type_x], size=count),
            rng.integers(0, HIN_NODES[type_y], size=count),
            rng.integers(1, 6, size=count).astype(float))
    return HeterogeneousNetwork.from_links(
        {node_type: [f"{node_type}{n}" for n in range(count)]
         for node_type, count in HIN_NODES.items()}, links)


def test_hotpath_hin_em_step(benchmark):
    """One CATHYHIN EM step over the stacked link CSR (an SDDMM and two
    SpMMs) vs the per-link-type (k, E) loop it replaced."""
    k = 6
    rng = np.random.default_rng(9)
    network = _hin_network(rng)
    estimator = CathyHIN(num_topics=k)
    node_names = estimator._prepare(network)
    blocks = estimator._blocks
    link_types = network.link_types()
    reference = ReferenceHINEM(network, k)
    phi = {t: rng.dirichlet(np.ones(len(names)), size=k)
           for t, names in node_names.items()}
    phi_parent = reference._parent_distributions(node_names)
    alpha = dict(zip(link_types,
                     rng.uniform(0.5, 2.0, len(link_types)).tolist()))
    rho, rho0 = np.full(k, 1.0 / (k + 1)), 1.0 / (k + 1)
    weights = _scaled_weights(network, alpha)
    parent = blocks.stack(phi_parent)
    stacked = (rho, rho0, blocks.stack(phi), parent, parent)
    obs.configure(spans=True)  # span rows even when run alone
    obs.set_profiling_enabled(False)  # see test_hotpath_gibbs_sweep

    def fast_step():
        return estimator._em_step(weights, *stacked)

    def reference_step():
        return reference_hin_em_step(reference, alpha, rho, rho0, phi,
                                     phi_parent, phi_parent, node_names)

    def run():
        fast = _time(fast_step, span_name="bench.hin_em.stacked_csr")
        slow = _time(reference_step, span_name="bench.hin_em.reference")
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = slow / max(fast, 1e-9)
    report("hotpath_hin_em_step", [
        fmt_row("kernel", ["seconds", "speedup"]),
        fmt_row("SDDMM + 2 SpMM, one CSR", [fast, 1.0]),
        fmt_row("reference per-type (k,E)", [slow, speedup]),
        "",
    ] + _profiled_rows({"bench.hin_em.stacked_csr",
                        "bench.hin_em.reference"}) + [
        f"links={network.num_links()} nodes={len(network.indptr) - 1} "
        f"topics={k} link_types={len(link_types)}",
        "acceptance: >= 2.5x at ~1.5e5 links",
    ])

    ll, new_rho, new_rho0, new_phi, new_phi0 = fast_step()
    ref_ll, ref_rho, ref_rho0, ref_phi, ref_phi0 = reference_step()
    assert abs(ll - ref_ll) <= 1e-12 * abs(ref_ll)
    assert np.max(np.abs(new_rho - ref_rho)) <= 1e-12
    assert abs(new_rho0 - ref_rho0) <= 1e-12
    assert np.max(np.abs(new_phi - blocks.stack(ref_phi))) <= 1e-12
    assert np.max(np.abs(new_phi0 - blocks.stack(ref_phi0))) <= 1e-12
    assert fast <= SANITY_SECONDS
    if EDGES >= FULL_SIZE:
        assert speedup >= 2.5


def _gibbs_state(rng, num_topics, vocab):
    """Initial sampler state over GIBBS_DOCS random token documents."""
    units = [[(int(tok),) for tok in rng.integers(0, vocab, size=60)]
             for _ in range(GIBBS_DOCS)]
    n_dk = np.zeros((len(units), num_topics), dtype=np.int64)
    n_kw = np.zeros((num_topics, vocab), dtype=np.int64)
    n_k = np.zeros(num_topics, dtype=np.int64)
    assignments = []
    for d, doc_units in enumerate(units):
        labels = rng.integers(0, num_topics, size=len(doc_units))
        assignments.append(labels)
        for unit, z in zip(doc_units, labels):
            n_dk[d, z] += len(unit)
            n_k[z] += len(unit)
            for w in unit:
                n_kw[z, w] += 1
    return units, assignments, n_dk, n_kw, n_k


def _copy_state(state):
    units, assignments, n_dk, n_kw, n_k = state
    return (units, [a.copy() for a in assignments], n_dk.copy(),
            n_kw.copy(), n_k.copy())


def test_hotpath_gibbs_sweep(benchmark):
    """Blocked list-kernel sweep vs the per-unit ``Generator.choice`` loop.

    The timing baseline is the verbatim legacy sweep; bit-identity is
    checked against the log-space reference sweep (which shares the fast
    kernel's draw contract).
    """
    num_topics, vocab = 8, 1_000
    state = _gibbs_state(np.random.default_rng(2), num_topics, vocab)
    sampler = LDAGibbs(num_topics=num_topics, alpha=0.1, beta=0.01,
                       iterations=1)
    beta_sum = sampler.beta * vocab
    # tracemalloc profiling (enabled by the CATHY benches above) hooks
    # every allocation, which penalizes interpreter-level kernels ~10x
    # while leaving numpy-heavy ones almost untouched; the interpreter
    # benches time with it off so the comparison stays honest.
    obs.set_profiling_enabled(False)

    def run():
        fast_state = _copy_state(state)
        fast = _time(lambda: sampler._sweep(
            *_copy_state(state), beta_sum, np.random.default_rng(7)),
            span_name="bench.gibbs.blocked")
        slow = _time(lambda: legacy_gibbs_sweep(
            *_copy_state(state), alpha=sampler.alpha, beta=sampler.beta,
            beta_sum=beta_sum, rng=np.random.default_rng(7)), repeats=1,
            span_name="bench.gibbs.legacy")
        return fast, slow, fast_state

    fast, slow, fast_state = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = slow / max(fast, 1e-9)
    report("hotpath_gibbs_sweep", [
        fmt_row("kernel", ["seconds", "speedup"]),
        fmt_row("blocked list kernel", [fast, 1.0]),
        fmt_row("legacy choice-per-unit", [slow, speedup]),
        "",
    ] + _profiled_rows({"bench.gibbs.blocked", "bench.gibbs.legacy"}) + [
        f"docs={GIBBS_DOCS} vocab={vocab} topics={num_topics}",
        "acceptance: >= 10x at 300 docs x 60 tokens",
    ])

    # Bit-identity vs the reference sweep (same draw contract).
    ref_state = _copy_state(state)
    sampler._sweep(*fast_state, beta_sum, np.random.default_rng(7))
    reference_gibbs_sweep(*ref_state, sampler.num_topics, sampler.alpha,
                          sampler.beta, beta_sum, np.random.default_rng(7))
    assert all((a == b).all()
               for a, b in zip(fast_state[1], ref_state[1]))
    assert (fast_state[3] == ref_state[3]).all()
    assert fast <= SANITY_SECONDS
    if GIBBS_DOCS >= FULL_DOCS:
        assert speedup >= 10.0


def test_hotpath_network_build(benchmark):
    """The array constructor's one-pass edge ingest vs per-edge dict
    accumulation."""
    rng = np.random.default_rng(3)
    i_idx = rng.integers(0, NODES, size=EDGES)
    j_idx = rng.integers(0, NODES, size=EDGES)
    weights = rng.uniform(0.1, 3.0, size=EDGES)
    names = [f"t{n}" for n in range(NODES)]
    edge_rows = list(zip(i_idx.tolist(), j_idx.tolist(), weights.tolist()))
    obs.set_profiling_enabled(False)  # see test_hotpath_gibbs_sweep

    def build_fast():
        return HeterogeneousNetwork.from_links(
            {"term": names}, {("term", "term"): (i_idx, j_idx, weights)})

    def build_slow():
        reference = ReferenceDictNetwork()
        for i, j, weight in edge_rows:
            reference.add_link("term", i, "term", j, weight)
        return reference

    def run():
        fast = _time(build_fast, span_name="bench.network.columnwise")
        slow = _time(build_slow, repeats=1,
                     span_name="bench.network.dict")
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = slow / max(fast, 1e-9)
    report("hotpath_network_build", [
        fmt_row("build path", ["seconds", "speedup"]),
        fmt_row("array constructor", [fast, 1.0]),
        fmt_row("per-edge dict inserts", [slow, speedup]),
        "",
    ] + _profiled_rows({"bench.network.columnwise",
                        "bench.network.dict"}) + [
        f"edges={EDGES} nodes={NODES}",
        "acceptance: >= 5x at 1e5 edges",
    ])

    network, reference = build_fast(), build_slow()
    assert abs(network.total_weight(("term", "term"))
               - reference.total_weight(("term", "term"))) <= 1e-6
    assert network.num_links(("term", "term")) == \
        len(reference.links[("term", "term")])
    probe_i, probe_j = int(i_idx[0]), int(j_idx[0])
    assert network.link_weight("term", probe_i, "term", probe_j) > 0
    assert fast <= SANITY_SECONDS
    if EDGES >= FULL_SIZE:
        assert speedup >= 5.0


def _same_network(network, reference) -> bool:
    """True when a network has a reference network's names and links."""
    names, links = reference
    return (network.node_types() == sorted(names)
            and all(network.node_names(t) == names[t] for t in names)
            and network.link_types() == sorted(links)
            and all(np.array_equal(got, want) for lt in links
                    for got, want in zip(network.link_arrays(lt),
                                         links[lt])))


def test_hotpath_network_collapse(benchmark):
    """The Example 3.1 collapse as one sparse Gram product vs the
    per-document pair loop and per-type freeze, and children as masks of
    the parent's links vs the name-based rebuild."""
    k = 6
    corpus = generate_dblp(DBLPConfig(max_authors=PHRASE_AUTHORS),
                           seed=9).corpus
    network = build_collapsed_network(corpus)
    # Posterior-shaped child weights: each link's weight split over k
    # subtopics by one Dirichlet draw.
    shares = np.random.default_rng(5).dirichlet(
        np.full(k, 0.3), size=network.num_links())
    expected = network.weights[:, None] * shares
    names = {t: network.node_names(t) for t in network.node_types()}
    per_type = [{lt: network.link_arrays(lt)[:2]
                 + (expected[network.type_id == number, z],)
                 for number, lt in enumerate(network.link_types())}
                for z in range(k)]
    obs.configure(spans=True)  # span rows even when run alone
    obs.set_profiling_enabled(False)  # see test_hotpath_gibbs_sweep

    def children_fast():
        return [network.subnetwork(expected[:, z]) for z in range(k)]

    def children_slow():
        return [reference_subnetwork(names, split) for split in per_type]

    def run():
        times = {
            "gram": _time(lambda: build_collapsed_network(corpus),
                          span_name="bench.collapse.gram"),
            "pairs": _time(lambda: reference_build_collapsed_network(corpus),
                           repeats=1, span_name="bench.collapse.pairs"),
            "mask": _time(children_fast, span_name="bench.children.mask"),
            "names": _time(children_slow, span_name="bench.children.names"),
        }
        return times

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    collapse_speedup = times["pairs"] / max(times["gram"], 1e-9)
    child_speedup = times["names"] / max(times["mask"], 1e-9)
    children = children_fast()
    report("hotpath_network_collapse", [
        fmt_row("kernel", ["seconds", "speedup"]),
        fmt_row("collapse: Gram triu(MtM)", [times["gram"], 1.0]),
        fmt_row("collapse: pairs + freeze", [times["pairs"],
                                             collapse_speedup]),
        fmt_row(f"{k} children: link masks", [times["mask"], 1.0]),
        fmt_row(f"{k} children: name rebuild", [times["names"],
                                                child_speedup]),
        "",
    ] + _profiled_rows({"bench.collapse.gram", "bench.collapse.pairs",
                        "bench.children.mask", "bench.children.names"}) + [
        f"docs={len(corpus)} links={network.num_links()} "
        f"nodes={len(network.indptr) - 1} "
        f"child_links={sum(c.num_links() for c in children)}",
        "timed: build_collapsed_network; subnetwork at min_weight 1",
    ])

    assert _same_network(network, reference_build_collapsed_network(corpus))
    for child, reference in zip(children, children_slow()):
        assert _same_network(child, reference)
    assert times["gram"] <= SANITY_SECONDS
    assert times["mask"] <= SANITY_SECONDS


def test_hotpath_topmine_merge(benchmark):
    """Lazy-invalidation heap segmentation vs the rescanning merge."""
    rng = np.random.default_rng(4)
    # Zipfian tokens over long chunks: heavy repetition drives many
    # merges per chunk, which is exactly where the rescan's O(n^2)
    # behaviour separates from the heap's O(n log n).
    chunks = [np.minimum(rng.zipf(1.2, size=rng.integers(60, 200)),
                         60).tolist()
              for _ in range(CHUNKS)]
    counts = mine_frequent_phrases_from_chunks(
        chunks, min_support=3, max_length=6,
        num_tokens=sum(len(c) for c in chunks))
    alpha = 0.5
    obs.set_profiling_enabled(False)  # see test_hotpath_gibbs_sweep

    def segment_fast():
        scorer = make_merge_scorer(counts)
        result = [segment_chunk(chunk, counts, alpha=alpha, scorer=scorer)
                  for chunk in chunks]
        scorer.flush()
        return result

    def segment_slow():
        return [reference_segment_chunk(chunk, counts, alpha=alpha)
                for chunk in chunks]

    def run():
        fast = _time(segment_fast, span_name="bench.topmine.heap")
        slow = _time(segment_slow, repeats=1,
                     span_name="bench.topmine.rescan")
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = slow / max(fast, 1e-9)
    report("hotpath_topmine_merge", [
        fmt_row("merge strategy", ["seconds", "speedup"]),
        fmt_row("lazy-invalidation heap", [fast, 1.0]),
        fmt_row("rescanning reference", [slow, speedup]),
        "",
    ] + _profiled_rows({"bench.topmine.heap", "bench.topmine.rescan"}) + [
        f"chunks={CHUNKS} phrases={len(counts)} alpha={alpha}",
        "acceptance: >= 5x at 600 long chunks (10x the unit-test corpus)",
    ])

    for chunk in chunks[:50]:
        assert segment_chunk(chunk, counts, alpha=alpha) == \
            reference_segment_chunk(chunk, counts, alpha=alpha)
    assert fast <= SANITY_SECONDS
    if CHUNKS >= FULL_CHUNKS:
        assert speedup >= 5.0


def test_hotpath_phrase_mining(benchmark):
    """Algorithm 1 and phrase instances over one flat token array vs the
    per-chunk, per-position loops."""
    corpus = generate_dblp(DBLPConfig(max_authors=PHRASE_AUTHORS),
                           seed=9).corpus
    chunks = [chunk for doc in corpus for chunk in doc.chunks]
    obs.configure(spans=True)  # span rows even when run alone
    obs.set_profiling_enabled(False)  # see test_hotpath_gibbs_sweep

    def mine_fast():
        counts = mine_frequent_phrases(corpus, min_support=5)
        return counts, document_phrase_instances(corpus, counts)

    def mine_slow():
        counts = PhraseCounts(reference_mine_chunks(chunks, 5, 6),
                              min_support=5, num_documents=len(corpus),
                              num_tokens=corpus.num_tokens)
        return counts, reference_document_phrase_instances(corpus, counts)

    def run():
        fast = _time(mine_fast, span_name="bench.phrases.flat")
        slow = _time(mine_slow, repeats=1, span_name="bench.phrases.loop")
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = slow / max(fast, 1e-9)
    counts, instances = mine_fast()
    report("hotpath_phrase_mining", [
        fmt_row("kernel", ["seconds", "speedup"]),
        fmt_row("flat np.unique rounds", [fast, 1.0]),
        fmt_row("per-position loops", [slow, speedup]),
        "",
    ] + _profiled_rows({"bench.phrases.flat", "bench.phrases.loop"}) + [
        f"docs={len(corpus)} chunks={len(chunks)} "
        f"tokens={corpus.num_tokens} phrases={len(counts)} "
        f"instances={sum(map(len, instances))} min_support=5 max_length=6",
        "timed: Algorithm 1 + document instances",
        "acceptance: >= 4x at 1,000 authors",
    ])

    ref = reference_mine_chunks(chunks, 5, 6)
    assert list(counts.counts.items()) == list(ref.items())
    assert instances == reference_document_phrase_instances(corpus, counts)
    assert fast <= SANITY_SECONDS
    if CHUNKS >= FULL_CHUNKS:
        assert speedup >= 4.0


def test_hotpath_corpus_build(benchmark):
    """``Corpus.from_texts``: one scan per title into the token and
    entity arrays vs the per-chunk tokenize + ``Vocabulary.encode`` loop
    that kept every document as Python lists."""
    generated = generate_dblp(DBLPConfig(max_authors=PHRASE_AUTHORS),
                              seed=9).corpus
    vocabulary = generated.vocabulary
    documents = list(generated)
    # Titles whose chunks come back as the generator's, as perfbench's.
    texts = [", ".join(" ".join(vocabulary.decode(chunk))
                       for chunk in doc.chunks) for doc in documents]
    entities = [doc.entities for doc in documents]
    years = [doc.year for doc in documents]
    obs.configure(spans=True)  # span rows even when run alone
    obs.set_profiling_enabled(False)  # see test_hotpath_gibbs_sweep

    def build_fast():
        return Corpus.from_texts(texts, entities=entities, years=years)

    def build_slow():
        return reference_from_texts(texts, entities=entities, years=years)

    def run():
        fast = _time(build_fast, span_name="bench.corpus.arrays")
        slow = _time(build_slow, span_name="bench.corpus.loop")
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = slow / max(fast, 1e-9)
    corpus = build_fast()
    report("hotpath_corpus_build", [
        fmt_row("kernel", ["seconds", "speedup"]),
        fmt_row("one-pass scan to arrays", [fast, 1.0]),
        fmt_row("per-chunk tokenize+encode", [slow, speedup]),
        "",
    ] + _profiled_rows({"bench.corpus.arrays", "bench.corpus.loop"}) + [
        f"docs={len(corpus)} tokens={corpus.num_tokens} "
        f"vocabulary={len(corpus.vocabulary)} "
        f"authors={len(corpus.entity_links('author').names)}",
        "timed: from_texts with authors, venues and years",
    ])

    ref_vocabulary, ref_documents = build_slow()
    assert list(corpus.vocabulary) == list(ref_vocabulary)
    tokens, lengths, doc_chunks = reference_corpus_token_array(ref_documents)
    assert np.array_equal(corpus.tokens, tokens)
    assert np.array_equal(corpus.chunk_lengths, lengths)
    assert np.array_equal(corpus.doc_chunks, doc_chunks)
    assert list(corpus) == ref_documents
    assert fast <= SANITY_SECONDS


def test_hotpath_stream_sketch(benchmark):
    """A 20-shard stream through sketch, merge, M1 and fingerprint: the
    flat CSR sketch, one count per shard over its token array, vs the
    per-row sketch (one ``np.unique`` per document, every row
    concatenated again for each M1 and fingerprint)."""
    corpus = generate_dblp(DBLPConfig(max_authors=PHRASE_AUTHORS),
                           seed=9).corpus
    vocab_size = len(corpus.vocabulary)
    bounds = np.linspace(0, len(corpus), STREAM_SHARDS + 1).astype(int)
    offsets = corpus.doc_offsets
    shards = [(corpus.tokens[offsets[a]:offsets[b]],
               offsets[a:b + 1] - offsets[a])
              for a, b in zip(bounds[:-1], bounds[1:])]
    token_lists = corpus.token_lists()
    shard_docs = [token_lists[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    obs.configure(spans=True)  # span rows even when run alone
    obs.set_profiling_enabled(False)  # see test_hotpath_gibbs_sweep

    def stream(parts, sketch_of):
        """Per shard: sketch, merge, M1 (drift) and fingerprint
        (checkpoint)."""
        sketch, seen = None, []
        for part in parts:
            shard = sketch_of(part)
            sketch = shard if sketch is None else sketch.merge(shard)
            seen.append((sketch.first_moment(), sketch.fingerprint()))
        return seen

    def stream_fast():
        return stream(shards, lambda arrays: MomentSketch.from_tokens(
            *arrays, vocab_size))

    def stream_slow():
        return stream(shard_docs, lambda docs: ReferenceRowSketch.from_docs(
            docs, vocab_size))

    def run():
        fast = _time(stream_fast, span_name="bench.sketch.flat")
        slow = _time(stream_slow, repeats=1, span_name="bench.sketch.rows")
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = slow / max(fast, 1e-9)
    report("hotpath_stream_sketch", [
        fmt_row("kernel", ["seconds", "speedup"]),
        fmt_row("flat CSR, one count/shard", [fast, 1.0]),
        fmt_row("per-row np.unique sketch", [slow, speedup]),
        "",
    ] + _profiled_rows({"bench.sketch.flat", "bench.sketch.rows"}) + [
        f"docs={len(corpus)} shards={STREAM_SHARDS} "
        f"tokens={corpus.num_tokens} vocabulary={vocab_size}",
        "timed: per shard sketch + merge + M1 + fingerprint",
        "acceptance: >= 5x at 1,000 authors",
    ])

    for (m1, print_fast), (ref_m1, print_slow) in zip(stream_fast(),
                                                      stream_slow()):
        assert print_fast == print_slow
        assert np.array_equal(m1, ref_m1)
    assert fast <= SANITY_SECONDS
    if CHUNKS >= FULL_CHUNKS:
        assert speedup >= 5.0


def test_hotpath_candidate_graph(benchmark):
    """Indexed coauthors and cumulative-count curves vs the pair scan and
    per-year sums of the original Stage 1."""
    dataset = generate_dblp(DBLPConfig(max_authors=TPFG_AUTHORS), seed=6)
    network = CollaborationNetwork.from_corpus(dataset.corpus)
    # A fresh network per timed build, so each one indexes coauthors.
    fresh = [CollaborationNetwork.from_corpus(dataset.corpus)
             for _ in range(3)]
    obs.configure(spans=True)  # span rows even when run alone
    obs.set_profiling_enabled(False)  # see test_hotpath_gibbs_sweep

    def run():
        fast = _time(lambda: build_candidate_graph(fresh.pop()),
                     span_name="bench.candidates.indexed")
        slow = _time(lambda: reference_build_candidate_graph(network),
                     repeats=1, span_name="bench.candidates.scan")
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = slow / max(fast, 1e-9)
    graph = build_candidate_graph(network)
    report("hotpath_candidate_graph", [
        fmt_row("kernel", ["seconds", "speedup"]),
        fmt_row("indexed, cumulative lookups", [fast, 1.0]),
        fmt_row("pair scan, per-year sums", [slow, speedup]),
        "",
    ] + _profiled_rows({"bench.candidates.indexed",
                        "bench.candidates.scan"}) + [
        f"authors={len(network.authors)} "
        f"pairs={len(network.pair_series)} edges={graph.num_edges()}",
        "acceptance: >= 3x at 1,000 authors",
    ])

    def bits(candidate_graph):
        return [(advisee, [(c.advisor, c.start, c.end, c.likelihood.hex())
                           for c in candidates])
                for advisee, candidates in candidate_graph.candidates.items()]

    assert bits(graph) == bits(reference_build_candidate_graph(network))
    assert fast <= SANITY_SECONDS
    if NODES >= FULL_NODES:
        assert speedup >= 3.0


def _role_problem(rng):
    """A 6x3 tree, per-topic phrase tables and per-document instances.

    Instances are Zipf-drawn from 2,000 phrases (so documents repeat
    phrases), and each topic's table keeps a random share of them (so
    some phrases reach no child, and some documents stop early).
    """
    root = Topic(path=())
    root.children = [Topic(path=(a,)) for a in range(6)]
    for area in root.children:
        area.children = [Topic(path=area.path + (b,)) for b in range(3)]
    phrases = [(w,) if w % 3 else (w, w + 1) for w in range(2_000)]
    table = {}
    stack = [(root, 1.0)]
    while stack:
        topic, keep = stack.pop()
        kept = rng.random(len(phrases)) < keep
        table[topic.notation] = {
            phrase: float(f) for phrase, f, k in zip(
                phrases, rng.uniform(2.0, 50.0, len(phrases)), kept) if k}
        stack.extend((child, keep * 0.45) for child in topic.children)
    ranks = np.minimum(rng.zipf(1.3, size=ROLE_DOCS * 40), len(phrases)) - 1
    lengths = rng.integers(0, 30, size=ROLE_DOCS)
    instances, cursor = [], 0
    for length in lengths:
        instances.append([phrases[r] for r in ranks[cursor:cursor + length]])
        cursor += length
    return root, table, instances


def test_hotpath_role_attribution(benchmark):
    """Per-topic instance-CSR products vs the per-document descent."""
    root, table, instances = _role_problem(np.random.default_rng(5))
    obs.configure(spans=True)  # span rows even when run alone
    obs.set_profiling_enabled(False)  # see test_hotpath_gibbs_sweep

    def run():
        fast = _time(lambda: attribute_documents(root, table, instances),
                     span_name="bench.roles.csr")
        slow = _time(lambda: reference_document_topic_frequencies(
            root, table, instances), repeats=1,
            span_name="bench.roles.descent")
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = slow / max(fast, 1e-9)
    report("hotpath_role_attribution", [
        fmt_row("kernel", ["seconds", "speedup"]),
        fmt_row("instance-CSR product/topic", [fast, 1.0]),
        fmt_row("per-document descent", [slow, speedup]),
        "",
    ] + _profiled_rows({"bench.roles.csr", "bench.roles.descent"}) + [
        f"docs={ROLE_DOCS} instances={sum(map(len, instances))} "
        f"topics={len(table)}",
        "acceptance: >= 5x at 10,000 documents",
    ])

    def bits(doc_freqs):
        return [[(t, f.hex()) for t, f in freqs.items()]
                for freqs in doc_freqs]

    assert bits(attribute_documents(root, table, instances)) == bits(
        reference_document_topic_frequencies(root, table, instances))
    assert fast <= SANITY_SECONDS
    if EDGES >= FULL_SIZE:
        assert speedup >= 5.0


def test_hotpath_tpfg(benchmark):
    """Flat-array max-sum rounds vs the per-edge message dict loop."""
    dataset = generate_dblp(DBLPConfig(max_authors=TPFG_AUTHORS), seed=6)
    graph = build_candidate_graph(
        CollaborationNetwork.from_corpus(dataset.corpus))
    obs.configure(spans=True)  # span rows even when run alone
    obs.set_profiling_enabled(False)  # see test_hotpath_gibbs_sweep

    def run():
        fast = _time(lambda: TPFG().fit(graph),
                     span_name="bench.tpfg.flat")
        slow = _time(lambda: reference_tpfg_ranking(graph), repeats=1,
                     span_name="bench.tpfg.dict")
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = slow / max(fast, 1e-9)
    report("hotpath_tpfg", [
        fmt_row("kernel", ["seconds", "speedup"]),
        fmt_row("flat bincount/reduceat", [fast, 1.0]),
        fmt_row("per-edge message dict", [slow, speedup]),
        "",
    ] + _profiled_rows({"bench.tpfg.flat", "bench.tpfg.dict"}) + [
        f"authors={TPFG_AUTHORS} edges={graph.num_edges()} iterations=25",
        "acceptance: >= 20x at 1,000 authors",
    ])

    result = TPFG().fit(graph)
    ref = reference_tpfg_ranking(graph)
    for author, pairs in ref.items():
        got = result.ranking[author]
        assert [name for name, _ in got] == [name for name, _ in pairs]
        assert max(abs(a - b) for (_, a), (_, b) in zip(got, pairs)) \
            <= 1e-12
    assert result.predictions() == TPFGResult(ranking=ref).predictions()
    assert fast <= SANITY_SECONDS
    if NODES >= FULL_NODES:
        assert speedup >= 20.0


def test_hotpath_topic_detail(benchmark, tmp_path):
    """Partition-then-sort top terms vs the full-row sort, end to end
    through the engine's uncached topic detail on a v2 artifact."""
    document = synthetic_document(num_terms=DETAIL_TERMS, num_authors=2_000)
    path = str(tmp_path / "model.rmv2")
    save_model_document(document, path, format="v2")
    model = load_model(path)
    engine = ModelQueryEngine(model, cache_size=0)
    notations = ["o"] + [child["notation"] for child
                         in document["model"]["hierarchy"]["children"]]
    obs.configure(spans=True)  # span rows even when run alone
    obs.set_profiling_enabled(False)  # see test_hotpath_gibbs_sweep

    def run():
        fast = _time(lambda: [engine.topic(n) for n in notations],
                     span_name="bench.topic.partition")
        slow = _time(lambda: [reference_topic_detail(model, n)
                              for n in notations], repeats=1,
                     span_name="bench.topic.full_sort")
        return fast / len(notations), slow / len(notations)

    try:
        fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
        speedup = slow / max(fast, 1e-9)
        report("hotpath_topic_detail", [
            fmt_row("kernel (per topic)", ["ms", "speedup"]),
            fmt_row("partition + sort kept", [fast * 1e3, 1.0]),
            fmt_row("full-row sort", [slow * 1e3, speedup]),
            "",
        ] + _profiled_rows({"bench.topic.partition",
                            "bench.topic.full_sort"}) + [
            f"topics={len(notations)} terms/row={DETAIL_TERMS} "
            f"(each value tied ~{DETAIL_TERMS // 997 + 1}x) "
            f"sizes=router defaults, cache_size=0, v2 artifact",
            "acceptance: >= 20x at 20,000 terms",
        ])
        for notation in notations:
            assert json.dumps(engine.topic(notation)) == json.dumps(
                reference_topic_detail(model, notation))
    finally:
        engine.close()
    assert fast <= SANITY_SECONDS
    if NODES >= FULL_NODES:
        assert speedup >= 20.0


def test_hotpath_artifact_save(benchmark):
    """v2 sections packed from a model's parts vs the dict -> JSON ->
    v2 path (v1 document, canonical encodes, per-row lists, reparse
    self-check) they replaced; equal bytes."""
    parts = parts_from_document(synthetic_document(
        num_terms=DETAIL_TERMS, num_authors=SAVE_AUTHORS))
    obs.configure(spans=True)  # span rows even when run alone
    obs.set_profiling_enabled(False)  # see test_hotpath_gibbs_sweep

    def run():
        fast = _time(lambda: pack_model(parts),
                     span_name="bench.artifact.arrays")
        slow = _time(lambda: reference_v2_blob(parts), repeats=1,
                     span_name="bench.artifact.json")
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = slow / max(fast, 1e-9)
    blob, model = pack_model(parts)
    report("hotpath_artifact_save", [
        fmt_row("writer", ["seconds", "speedup"]),
        fmt_row("arrays from parts", [fast, 1.0]),
        fmt_row("dict -> JSON -> v2", [slow, speedup]),
        "",
    ] + _profiled_rows({"bench.artifact.arrays", "bench.artifact.json"}) + [
        f"topics={len(model.strings['topics'])} terms={DETAIL_TERMS} "
        f"authors={SAVE_AUTHORS} sections={len(model.sections)} "
        f"bytes={len(blob)}",
        "timed: pack + self-check reparse, no file write",
        "acceptance: >= 5x at 20,000 terms",
    ])

    assert blob == reference_v2_blob(parts)
    assert fast <= SANITY_SECONDS
    if NODES >= FULL_NODES:
        assert speedup >= 5.0


def test_hotpath_strod_moments(benchmark):
    """Count-matrix STROD moments vs the per-document loops: word
    counts, M1, dense M2 and whitened M3 over one node's documents."""
    planted = generate_planted_lda(num_docs=STROD_DOCS,
                                   num_topics=STROD_TOPICS,
                                   vocab_size=STROD_VOCAB, doc_length=10,
                                   seed=8)
    docs, vocab = planted.docs, planted.vocab_size
    alpha0 = float(planted.alpha.sum())
    ref_rows = reference_word_count_rows(docs, vocab)
    counts = count_matrix(docs, vocab)
    ref_m1 = reference_first_moment(ref_rows, vocab)
    ref_m2 = reference_second_moment(ref_rows, vocab, alpha0)
    whitener, _ = compute_whitener(ref_m2, STROD_TOPICS)
    obs.configure(spans=True)  # span rows even when run alone
    obs.set_profiling_enabled(False)  # see test_hotpath_gibbs_sweep

    stages = [
        ("word counts", lambda: count_matrix(docs, vocab),
         lambda: reference_word_count_rows(docs, vocab)),
        ("M1", lambda: first_moment(counts, vocab),
         lambda: reference_first_moment(ref_rows, vocab)),
        ("M2 (dense)", lambda: second_moment(counts, vocab, alpha0),
         lambda: reference_second_moment(ref_rows, vocab, alpha0)),
        ("whitened M3",
         lambda: whitened_third_moment(counts, whitener, ref_m1, alpha0),
         lambda: reference_whitened_third_moment(ref_rows, whitener,
                                                 ref_m1, alpha0)),
    ]

    def run():
        return [(_time(fast, span_name="bench.strod.count_matrix"),
                 _time(slow, repeats=1, span_name="bench.strod.per_document"))
                for _, fast, slow in stages]

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    fast = sum(f for f, _ in timings)
    slow = sum(s for _, s in timings)
    speedup = slow / max(fast, 1e-9)
    report("hotpath_strod_moments", [
        fmt_row("kernel", ["count_csr_s", "loop_s", "speedup"]),
    ] + [fmt_row(name, [f, s, s / max(f, 1e-9)])
         for (name, _, _), (f, s) in zip(stages, timings)] + [
        fmt_row("total", [fast, slow, speedup]),
        "",
    ] + _profiled_rows({"bench.strod.count_matrix",
                        "bench.strod.per_document"}) + [
        f"docs={STROD_DOCS} tokens/doc=10 vocab={STROD_VOCAB} "
        f"k={STROD_TOPICS} (W built once, outside the timed region)",
        "acceptance: >= 10x in total at 10,000 documents",
    ])

    bounds = counts.indptr
    assert len(ref_rows) == counts.shape[0]
    for d, (ids, cnt) in enumerate(ref_rows):
        assert np.array_equal(counts.indices[bounds[d]:bounds[d + 1]], ids)
        assert np.array_equal(counts.data[bounds[d]:bounds[d + 1]], cnt)
    assert np.array_equal(first_moment(counts, vocab), ref_m1)
    m2 = second_moment(counts, vocab, alpha0)
    assert np.abs(m2 - ref_m2).max() <= 1e-12 * np.abs(ref_m2).max()
    ref_t = reference_whitened_third_moment(ref_rows, whitener, ref_m1,
                                            alpha0)
    t = whitened_third_moment(counts, whitener, ref_m1, alpha0)
    assert np.abs(t - ref_t).max() <= 1e-12 * np.abs(ref_t).max()

    strod = STROD(num_topics=STROD_TOPICS, alpha0=alpha0, seed=0)
    model = strod.fit(docs, vocab)
    theta = strod.document_topics(docs)
    ref_theta = reference_document_topics(model.alpha, model.phi, docs)
    assert np.abs(theta - ref_theta).max() <= 1e-12
    top_two = np.sort(ref_theta, axis=1)[:, -2:]
    clear = (top_two[:, 1] - top_two[:, 0]) > 1e-9 * top_two.sum(axis=1)
    assert np.array_equal(theta.argmax(axis=1)[clear],
                          ref_theta.argmax(axis=1)[clear])
    assert fast <= SANITY_SECONDS
    if NODES >= FULL_NODES:
        assert speedup >= 10.0


def test_hotpath_strod_node(benchmark):
    """One STROD node solve — moments, whitening, tensor power and the
    fold-in — with every tensor-power restart of a component as one
    (L, k) block, lengths and M1 computed once and the pair moment from
    scaled CSR data, vs one power-iteration loop per restart and the
    ``diags(w) @ C`` SpGEMM pair moment."""
    corpus = generate_dblp(DBLPConfig(max_authors=PHRASE_AUTHORS),
                           seed=9).corpus
    vocab = len(corpus.vocabulary)
    every = document_counts(corpus.tokens, corpus.doc_offsets, vocab,
                            min_length=0)
    k, alpha0 = NODE_TREE.num_children, NODE_TREE.alpha0
    counts, lengths = long_documents(every, vocab)
    m1 = first_moment(counts, vocab, lengths=lengths)
    whitener, _ = compute_whitener(
        second_moment(counts, vocab, alpha0, lengths=lengths, m1=m1), k)
    tensor = whitened_third_moment(counts, whitener, m1, alpha0,
                                   lengths=lengths)
    budget = dict(num_restarts=NODE_TREE.num_restarts,
                  num_iterations=NODE_TREE.num_iterations, seed=3)
    obs.configure(spans=True)  # span rows even when run alone
    obs.set_profiling_enabled(False)  # see test_hotpath_gibbs_sweep

    def solve():
        estimator = STROD(num_topics=k, alpha0=alpha0,
                          num_restarts=NODE_TREE.num_restarts,
                          num_iterations=NODE_TREE.num_iterations, seed=3)
        model = estimator.fit(every, vocab)
        return model, estimator.document_topics(every)

    def solve_reference():
        with reference_strod_node():
            return solve()

    stages = [
        ("M2 (dense)",
         lambda: second_moment(counts, vocab, alpha0, lengths=lengths,
                               m1=m1),
         lambda: reference_spgemm_second_moment(counts, vocab, alpha0)),
        ("tensor power",
         lambda: robust_tensor_decomposition(tensor, k, **budget),
         lambda: reference_robust_tensor_decomposition(tensor, k,
                                                       **budget)),
        ("node solve + fold-in", solve, solve_reference),
    ]

    def run():
        """Best of 10 per side, the sides alternating, so neither runs
        in the wake of the other's BLAS threads."""
        timings = []
        for _, fast, slow in stages:
            pairs = [(_time(fast, repeats=1,
                            span_name="bench.strod_node.blocks"),
                      _time(slow, repeats=1,
                            span_name="bench.strod_node.loops"))
                     for _ in range(10)]
            timings.append(tuple(map(min, zip(*pairs))))
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    fast = timings[-1][0]
    power_speedup = timings[1][1] / max(timings[1][0], 1e-9)
    report("hotpath_strod_node", [
        fmt_row("kernel", ["blocks_s", "loops_s", "speedup"]),
    ] + [fmt_row(name, [f, s, s / max(f, 1e-9)])
         for (name, _, _), (f, s) in zip(stages, timings)] + [
        "",
    ] + _profiled_rows({"bench.strod_node.blocks",
                        "bench.strod_node.loops"}) + [
        f"docs={counts.shape[0]} (of {len(corpus)}) vocab={vocab} k={k} "
        f"L={NODE_TREE.num_restarts} N={NODE_TREE.num_iterations}",
        "timed: best of 10; the solve is STROD.fit + document_topics "
        "on the root's count rows",
        "acceptance: tensor power >= 1.5x at 1,000 authors",
    ])

    def bits(value):
        return np.ascontiguousarray(value, dtype=float).tobytes()

    assert bits(stages[0][1]()) == bits(stages[0][2]())
    pairs = stages[1][1]()
    ref_pairs, _ = stages[1][2]()
    for pair, ref in zip(pairs, ref_pairs):
        assert bits(pair.eigenvalue) == bits(ref.eigenvalue)
        assert bits(pair.eigenvector) == bits(ref.eigenvector)
    (model, theta), (ref_model, ref_theta) = solve(), solve_reference()
    for name in ("alpha", "phi", "eigenvalues", "residual"):
        assert bits(getattr(model, name)) == bits(getattr(ref_model, name))
    assert bits(theta) == bits(ref_theta)
    assert fast <= SANITY_SECONDS
    if CHUNKS >= FULL_CHUNKS:
        assert power_speedup >= 1.5
