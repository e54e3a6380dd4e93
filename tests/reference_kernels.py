"""Reference (pre-vectorization) solver kernels.

These are the straightforward per-link / per-token / per-candidate loop
implementations the solvers shipped with before their kernels were
vectorized, blocked, or moved onto sparse storage.  They define the
ground-truth semantics: the equivalence tests assert the fast kernels
match them to 1e-12 (or bit-identically, for integer count state), and
``benchmarks/bench_hotpaths.py`` times the fast kernels against them.

Twelve families live here:

* CATHY EM kernels (scatter, posterior split, expected weights) — from
  PR 2's vectorization;
* collapsed-Gibbs kernels: the semantic reference sweep/conditional
  (log-space, shared batched-uniform draw contract) plus the *legacy*
  sweep kept verbatim (``+ EPS`` inside the log, per-unit
  ``Generator.choice``) for honest before/after benchmarking;
* network bookkeeping (:class:`ReferenceDictNetwork`) and the
  rescanning ToPMine merge (:func:`reference_segment_chunk`) — the
  pre-CSR / pre-heap data paths;
* the network as per-type stores: the per-document pair collapse
  (:func:`reference_build_collapsed_network`), the per-type COO -> CSR
  freeze (:func:`reference_freeze`) and the name-based child rebuild
  (:func:`reference_subnetwork`), bit-identical to the Gram-product
  collapse and the child masks of the stacked CSR;
* the per-document role attribution descent
  (:func:`reference_document_topic_frequencies`, bit-identical to its
  sparse kernel);
* the per-edge TPFG message loop (:func:`reference_tpfg_ranking`,
  1e-12 to the flat-array kernel);
* the full-row topic-detail sort (:func:`reference_top_terms`,
  :func:`reference_topic_detail`), byte-identical to the serving
  engine's partition-then-sort selection;
* the dict -> JSON -> v2 artifact save (:func:`reference_v2_blob`),
  byte-identical to the array writer, over the parts -> v1 document
  encoder the v1 writer shipped (:func:`reference_v1_document`);
* the per-document STROD moment and fold-in loops
  (:func:`reference_word_count_rows`, :func:`reference_first_moment`,
  :func:`reference_second_moment`, :func:`reference_sparse_pair_moment`,
  :func:`reference_whitened_third_moment`,
  :func:`reference_document_topics`): counts equal and M1 bit-identical
  to the count-matrix kernels, M2, T and fold-in rows within 1e-12;
* the STROD node solve as shipped before its blocks: one
  power-iteration loop per tensor-power restart
  (:func:`reference_robust_tensor_decomposition`, eigenpairs and
  generator states bit-identical to the (L, k) block) and the pair
  moment through a ``diags(w) @ C`` SpGEMM with its diagonal subtracted
  as a sparse matrix (:func:`reference_spgemm_pair_moment`,
  :func:`reference_spgemm_second_moment`, bit-identical to the scaled
  CSR data and the dense diagonal);
* the per-item phrase, role and relation loops of the mining pipeline:
  Algorithm 1 per chunk and position (:func:`reference_mine_chunks`),
  per-span instance lookup (:func:`reference_document_phrase_instances`),
  the per-phrase Eq. 4.3 split (:func:`reference_split_frequencies`),
  per-document entity sums (:func:`reference_entity_topic_frequencies`)
  and the pair-scanning candidate graph
  (:func:`reference_build_candidate_graph`), each equal to its flat-array
  kernel bit for bit, dict order included;
* the per-document corpus build: the split-then-scan tokenizer with one
  ``Vocabulary.encode`` per chunk (:func:`reference_from_texts`), the
  flatten every array consumer ran over the per-document chunk lists
  (:func:`reference_corpus_token_array`) and the per-paper
  ``add_paper`` loop of the collaboration network
  (:func:`reference_collaboration_network`), equal to the one-pass
  tokenizer, the corpus arrays and the author-CSR build.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations
from typing import (Any, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, diags

from repro.corpus import Corpus, Document, Vocabulary
from repro.corpus.tokenize import (DEFAULT_STOPWORDS, _TOKEN_RE,
                                   split_phrase_chunks)
from repro.errors import ConfigurationError, DataError
from repro.network import TERM_TYPE
from repro.network.weighted import LinkType, canonical_link_type
from repro.obs import inc
from repro.strod import TensorEigenpair, first_moment
from repro.utils import ensure_rng

EPS = 1e-12


def reference_scatter(expected: np.ndarray, i_idx: np.ndarray,
                      j_idx: np.ndarray, num_nodes: int) -> np.ndarray:
    """M-step scatter (Eq. 3.7) via one ``np.add.at`` pair per subtopic."""
    k = expected.shape[0]
    phi = np.zeros((k, num_nodes))
    for z in range(k):
        np.add.at(phi[z], i_idx, expected[z])
        np.add.at(phi[z], j_idx, expected[z])
    return phi


def reference_posterior_link_split(rho: np.ndarray, phi: np.ndarray,
                                   i_idx: np.ndarray, j_idx: np.ndarray,
                                   weights: np.ndarray) -> np.ndarray:
    """Eq. 3.5 posterior split computed link by link.

    Degenerate links (mixture score zero) get a zero split, matching the
    vectorized kernel's "count, don't drop" semantics.
    """
    k = len(rho)
    expected = np.zeros((k, len(weights)))
    for e in range(len(weights)):
        scores = rho * phi[:, i_idx[e]] * phi[:, j_idx[e]]
        denom = scores.sum()
        if denom <= 0:
            continue
        expected[:, e] = weights[e] * scores / denom
    return expected


def reference_expected_link_weights(rho: np.ndarray, phi: np.ndarray,
                                    links: List[Tuple[int, int, float]],
                                    ) -> List[Dict[Tuple[int, int], float]]:
    """The original ``CathyEM.expected_link_weights`` loop, verbatim."""
    k = len(rho)
    result: List[Dict[Tuple[int, int], float]] = [{} for _ in range(k)]
    for i, j, weight in links:
        scores = rho * phi[:, i] * phi[:, j]
        denom = scores.sum()
        if denom <= 0:
            continue
        for z in range(k):
            expected = weight * scores[z] / denom
            if expected > 0:
                result[z][(i, j)] = expected
    return result


# --------------------------------------------------------------------- Gibbs
def reference_gibbs_conditional(n_dk_row: np.ndarray, n_kw: np.ndarray,
                                n_k: np.ndarray, unit: Sequence[int],
                                alpha: float, beta: float,
                                beta_sum: float) -> np.ndarray:
    """Normalized p(z | rest) for one sampling unit, log-space.

    The semantic ground truth of the collapsed conditional — the
    document factor once, one topic-word factor per token with the
    denominator offset by token position — that both the blocked fast
    sweep and :func:`reference_gibbs_sweep` must reproduce to 1e-12.
    """
    log_p = np.log(n_dk_row + alpha)
    denom = n_k + beta_sum
    for offset, w in enumerate(unit):
        log_p = log_p + np.log(n_kw[:, w] + beta) - np.log(denom + offset)
    log_p -= log_p.max()
    p = np.exp(log_p)
    return p / p.sum()


def reference_gibbs_sweep(units, assignments, n_dk, n_kw, n_k,
                          num_topics: int, alpha: float, beta: float,
                          beta_sum: float, rng: np.random.Generator) -> None:
    """The log-space reference sweep (same draw contract), formerly
    ``LDAGibbs._sweep_reference``.

    Semantically identical to ``LDAGibbs._sweep`` — same conditional, the
    same one-batched-uniform-per-document randomness, the same
    first-index-past-the-target draw — but evaluated per unit with
    numpy log-space arithmetic.  The equivalence baseline: a whole chain
    run through it equals the fast sweep's chain bit for bit.
    """
    k = num_topics
    for d, doc_units in enumerate(units):
        if not doc_units:
            continue
        labels = assignments[d]
        draws = rng.random(len(doc_units))
        for u, unit in enumerate(doc_units):
            z_old = labels[u]
            size = len(unit)
            n_dk[d, z_old] -= size
            n_k[z_old] -= size
            for w in unit:
                n_kw[z_old, w] -= 1

            log_p = np.log(n_dk[d] + alpha)
            denom = n_k + beta_sum
            for offset, w in enumerate(unit):
                log_p = log_p + np.log(n_kw[:, w] + beta) \
                    - np.log(denom + offset)
            log_p -= log_p.max()
            p = np.exp(log_p)
            p /= p.sum()
            z_new = min(int(np.searchsorted(np.cumsum(p), draws[u],
                                            side="right")), k - 1)

            labels[u] = z_new
            n_dk[d, z_new] += size
            n_k[z_new] += size
            for w in unit:
                n_kw[z_new, w] += 1


def legacy_gibbs_sweep(units, assignments, n_dk, n_kw, n_k, alpha: float,
                       beta: float, beta_sum: float,
                       rng: np.random.Generator) -> None:
    """The pre-PR-7 Gibbs inner loop, verbatim (for benchmarking).

    Per-unit numpy log-space arithmetic with the historical ``+ EPS``
    smoothing inside the log and one ``Generator.choice`` call per unit.
    Numerically *close to* but not exactly the current conditional (EPS
    shifts it at the ~1e-10 level), and a different RNG consumption
    pattern — which is why this is the timing baseline, not the
    equivalence baseline.
    """
    k = len(n_k)
    for d, doc_units in enumerate(units):
        labels = assignments[d]
        for u, unit in enumerate(doc_units):
            z_old = labels[u]
            size = len(unit)
            n_dk[d, z_old] -= size
            n_k[z_old] -= size
            for w in unit:
                n_kw[z_old, w] -= 1

            log_p = np.log(n_dk[d] + alpha)
            denom = n_k + beta_sum
            for offset, w in enumerate(unit):
                log_p = log_p + np.log(
                    n_kw[:, w] + beta + EPS) - np.log(denom + offset)
            log_p -= log_p.max()
            p = np.exp(log_p)
            p /= p.sum()
            z_new = int(rng.choice(k, p=p))

            labels[u] = z_new
            n_dk[d, z_new] += size
            n_k[z_new] += size
            for w in unit:
                n_kw[z_new, w] += 1


def reference_log_likelihood(units, assignments, phi) -> float:
    """The original ``LDAGibbs._log_likelihood`` triple loop, verbatim."""
    ll = 0.0
    for doc_units, labels in zip(units, assignments):
        for unit, z in zip(doc_units, labels):
            for w in unit:
                ll += float(np.log(max(phi[z, w], EPS)))
    return ll


# ------------------------------------------------------------------- network
class ReferenceDictNetwork:
    """Verbatim pre-CSR link bookkeeping: one dict insert per edge.

    Reproduces the old ``HeterogeneousNetwork`` storage semantics —
    canonical link-type ordering, (i, j) key swap for same-type links,
    weight accumulation on duplicates — without any of the typed-node
    API, so property tests can compare the CSR backbone against it on
    random typed graphs.
    """

    def __init__(self) -> None:
        self.links: Dict[Tuple[str, str],
                         Dict[Tuple[int, int], float]] = {}

    def add_link(self, type_x: str, i: int, type_y: str, j: int,
                 weight: float = 1.0) -> None:
        if (type_y, type_x) < (type_x, type_y):
            type_x, type_y, i, j = type_y, type_x, j, i
        if type_x == type_y and i > j:
            i, j = j, i
        bucket = self.links.setdefault((type_x, type_y), {})
        key = (i, j)
        bucket[key] = bucket.get(key, 0.0) + weight

    def total_weight(self, link_type: Tuple[str, str]) -> float:
        return sum(self.links.get(link_type, {}).values())

    def degree(self, node_type: str, index: int) -> float:
        total = 0.0
        for (type_x, type_y), bucket in self.links.items():
            for (i, j), weight in bucket.items():
                counted = False
                if type_x == node_type and i == index:
                    total += weight
                    counted = True
                if type_y == node_type and j == index \
                        and not (counted and type_x == type_y and i == j):
                    total += weight
        return total

    def subnetwork_links(self, link_weights: Dict[Tuple[str, str],
                                                  Dict[Tuple[int, int],
                                                       float]],
                         min_weight: float) -> Dict[Tuple[str, str],
                                                    Dict[Tuple[int, int],
                                                         float]]:
        """The kept-link sets of an Eq. 3.23 split, per link type."""
        kept: Dict[Tuple[str, str], Dict[Tuple[int, int], float]] = {}
        for link_type, bucket in link_weights.items():
            rows = {key: w for key, w in bucket.items() if w >= min_weight}
            if rows:
                kept[link_type] = rows
        return kept


# ------------------------------------------------------------------- ToPMine
def reference_segment_chunk(chunk: Sequence[int], counts,
                            alpha: float = 2.0) -> List[Tuple[int, ...]]:
    """Algorithm 2 by full rescan: the pre-heap bottom-up merge.

    Every round scans *all* adjacent phrase pairs for the highest
    significance (ties to the earliest pair, matching the heap's
    ``(-sig, slot)`` ordering), merges the winner, and repeats until the
    best merge falls below ``alpha`` — O(n^2) per chunk versus the
    heap's O(n log n).
    """
    from repro.phrases.significance import NEVER, merge_significance

    phrases: List[Tuple[int, ...]] = [(tok,) for tok in chunk]
    while len(phrases) >= 2:
        best_sig = NEVER
        best_at = -1
        for at in range(len(phrases) - 1):
            sig = merge_significance(counts, phrases[at], phrases[at + 1])
            if sig > best_sig:
                best_sig = sig
                best_at = at
        if best_at < 0 or best_sig < alpha:
            break
        phrases[best_at:best_at + 2] = [phrases[best_at]
                                        + phrases[best_at + 1]]
    return phrases


# ------------------------------------------------------------------ phrases
def reference_mine_chunks(chunks: Sequence[Sequence[int]], min_support: int,
                          max_length: int) -> Dict[Tuple[int, ...], int]:
    """Algorithm 1 as the original per-chunk, per-position loop.

    Active positions per chunk, a dict of n-gram tuples per round, and
    the prefix-and-suffix Apriori test by set membership; phrases enter
    the dict by length, then by first occurrence.
    """
    counts: Dict[Tuple[int, ...], int] = {}

    # Length-1 counts.
    for chunk in chunks:
        for tok in chunk:
            key = (tok,)
            counts[key] = counts.get(key, 0) + 1
    counts = {p: c for p, c in counts.items() if c >= min_support}

    # Active indices per chunk: positions whose length-(n-1) phrase is
    # frequent.  Start with positions whose unigram is frequent.
    active: List[Tuple[Sequence[int], List[int]]] = []
    for chunk in chunks:
        indices = [i for i, tok in enumerate(chunk) if (tok,) in counts]
        if indices:
            active.append((chunk, indices))

    length = 2
    while active and length <= max_length:
        new_counts: Dict[Tuple[int, ...], int] = {}
        still_active: List[Tuple[Sequence[int], List[int]]] = []
        for chunk, indices in active:
            # Keep positions whose length-(n-1) phrase is frequent.
            kept = [i for i in indices
                    if i + length - 1 <= len(chunk)
                    and tuple(chunk[i:i + length - 1]) in counts]
            # The last kept position cannot start a length-n phrase.
            kept = [i for i in kept if i + length <= len(chunk)]
            if not kept:
                continue  # data antimonotonicity: drop this chunk
            kept_set = set(kept)
            counted = []
            for i in kept:
                # Count w_i..w_{i+n-1} only when the suffix start i+1 was
                # also viable (Apriori on both the prefix and the suffix).
                if i + 1 in kept_set or tuple(
                        chunk[i + 1:i + length]) in counts:
                    phrase = tuple(chunk[i:i + length])
                    new_counts[phrase] = new_counts.get(phrase, 0) + 1
                    counted.append(i)
            if counted:
                still_active.append((chunk, counted))
        frequent = {p: c for p, c in new_counts.items() if c >= min_support}
        if not frequent:
            break
        counts.update(frequent)
        # Restrict active positions to those whose length-n phrase is
        # frequent, for the next round.
        active = []
        for chunk, indices in still_active:
            kept = [i for i in indices
                    if tuple(chunk[i:i + length]) in frequent]
            if kept:
                active.append((chunk, kept))
        length += 1

    return counts


def reference_document_phrase_instances(corpus, counts,
                                        max_length: int = 6,
                                        ) -> List[List[Tuple[int, ...]]]:
    """Per document, every span of every chunk looked up in ``counts``.

    Spans come in (start, length) order, each a new tuple.
    """
    instances: List[List[Tuple[int, ...]]] = []
    for doc in corpus:
        found: List[Tuple[int, ...]] = []
        for chunk in doc.chunks:
            n = len(chunk)
            for start in range(n):
                for stop in range(start + 1, min(start + max_length, n) + 1):
                    phrase = tuple(chunk[start:stop])
                    if phrase in counts:
                        found.append(phrase)
        instances.append(found)
    return instances


def reference_split_frequencies(topic, freq, corpus,
                                ) -> List[Dict[Tuple[int, ...], float]]:
    """Eq. 4.3 phrase by phrase: small per-child arrays per word, the
    words added in ascending id order."""
    from repro.network import TERM_TYPE

    children = topic.children
    rhos = np.array([max(child.rho, EPS) for child in children])
    child_freqs: List[Dict[Tuple[int, ...], float]] = [{} for _ in children]
    for phrase, f in freq.items():
        words = [corpus.vocabulary.word_of(w) for w in sorted(phrase)]
        log_scores = np.log(rhos)
        for word in words:
            probs = np.array([
                child.phi.get(TERM_TYPE, {}).get(word, EPS)
                for child in children])
            log_scores = log_scores + np.log(np.maximum(probs, EPS))
        log_scores -= log_scores.max()
        scores = np.exp(log_scores)
        total = scores.sum()
        if total <= 0:
            continue
        shares = f * scores / total
        for z, share in enumerate(shares):
            if share > 0:
                child_freqs[z][phrase] = float(share)
    return child_freqs


# --------------------------------------------------------------------- roles
def reference_document_topic_frequencies(root, table,
                                         doc_instances,
                                         ) -> List[Dict[str, float]]:
    """The original ``RoleAnalyzer.document_topic_frequencies`` descent.

    One recursive walk per document: a topic's mass splits among its
    children by the summed per-instance normalized phrase shares (TPF),
    instance by instance in document order (Eq. 5.4–5.5).
    """
    def descend(topic, phrases, mass: float, out: Dict[str, float]) -> None:
        out[topic.notation] = mass
        if not topic.children or mass <= 0:
            return
        if not phrases:
            return
        child_tables = [table.get(c.notation, {}) for c in topic.children]
        tpf = np.zeros(len(topic.children))
        for phrase in phrases:
            shares = np.array([child_table.get(phrase, 0.0)
                               for child_table in child_tables])
            total = shares.sum()
            if total > 0:
                tpf += shares / total
        tpf_total = tpf.sum()
        if tpf_total <= 0:
            return
        for child, share in zip(topic.children, tpf / tpf_total):
            descend(child, phrases, mass * float(share), out)

    result: List[Dict[str, float]] = []
    for phrases in doc_instances:
        freqs: Dict[str, float] = {}
        descend(root, phrases, 1.0, freqs)
        result.append(freqs)
    return result


def reference_entity_topic_frequencies(names_per_doc, doc_freqs,
                                       ) -> Dict[str, Dict[str, float]]:
    """The original ``RoleAnalyzer.entity_topic_frequencies`` loop:
    each document's topic frequencies added into each of its entities'
    buckets, document by document (Eq. 5.6)."""
    result: Dict[str, Dict[str, float]] = {}
    for doc_id, names in enumerate(names_per_doc):
        for name in names:
            bucket = result.setdefault(name, {})
            for notation, f in doc_freqs[doc_id].items():
                bucket[notation] = bucket.get(notation, 0.0) + f
    return result


# ---------------------------------------------------------------- relations
def reference_coauthors(network, author: str) -> List[str]:
    """The original ``CollaborationNetwork.coauthors``: a scan of every
    coauthor pair."""
    result = []
    for (a, b) in network.pair_series:
        if a == author:
            result.append(b)
        elif b == author:
            result.append(a)
    return sorted(result)


def reference_build_candidate_graph(network, config=None):
    """The original Stage 1 of TPFG: coauthors by pair scan, and the
    Kulczynski/IR curves (Eqs. 6.1-6.2) from per-year cumulative sums
    over each series, pair by pair."""
    from repro.relations import (Candidate, CandidateGraph,
                                 PreprocessConfig)

    config = config or PreprocessConfig()
    graph = CandidateGraph()
    for advisee in network.authors:
        series_i = network.series_of(advisee)
        raw = []
        for advisor in reference_coauthors(network, advisee):
            candidate = _reference_evaluate_pair(network, advisee, advisor,
                                                 config)
            if candidate is not None:
                raw.append(candidate)
        raw.append(Candidate(advisee=advisee, advisor=CandidateGraph.ROOT,
                             start=series_i.first_year or 0,
                             end=series_i.last_year or 0,
                             likelihood=config.root_likelihood))
        total = sum(c.likelihood for c in raw)
        if total > 0:
            for c in raw:
                c.likelihood = c.likelihood / total
        graph.candidates[advisee] = raw
    return graph


def _reference_evaluate_pair(network, advisee: str, advisor: str, config):
    from repro.relations import Candidate, imbalance_ratio, kulczynski
    from repro.relations.preprocess import _estimate_end_year

    series_i = network.series_of(advisee)
    series_j = network.series_of(advisor)
    pair = network.pair(advisee, advisor)
    if pair is None or not pair.counts:
        return None
    if series_j.first_year is None or series_i.first_year is None or \
            series_j.first_year >= series_i.first_year:
        return None

    collab_years = pair.years()
    kulc_curve = [kulczynski(pair, series_i, series_j, y)
                  for y in collab_years]
    ir_curve = [imbalance_ratio(pair, series_i, series_j, y)
                for y in collab_years]

    if "R1" in config.rules and any(v < 0 for v in ir_curve):
        return None
    if "R2" in config.rules and len(kulc_curve) > 1 and all(
            kulc_curve[idx + 1] <= kulc_curve[idx]
            for idx in range(len(kulc_curve) - 1)):
        return None
    if "R3" in config.rules and len(collab_years) <= 1:
        return None
    if "R4" in config.rules and series_j.first_year + 2 > collab_years[0]:
        return None

    start = collab_years[0]
    end = _estimate_end_year(collab_years, kulc_curve, config.end_year_method)
    window = [idx for idx, y in enumerate(collab_years) if start <= y <= end]
    if not window:
        window = list(range(len(collab_years)))
    kulc_avg = sum(kulc_curve[idx] for idx in window) / len(window)
    ir_avg = sum(ir_curve[idx] for idx in window) / len(window)
    if config.likelihood == "kulc":
        likelihood = kulc_avg
    elif config.likelihood == "ir":
        likelihood = ir_avg
    else:
        likelihood = (kulc_avg + ir_avg) / 2.0
    likelihood = max(likelihood, EPS)
    return Candidate(advisee=advisee, advisor=advisor, start=start, end=end,
                     likelihood=likelihood)


# --------------------------------------------------------------------- TPFG
def reference_tpfg_ranking(graph, max_iter: int = 25, penalty: float = 50.0,
                           damping: float = 0.0,
                           ) -> Dict[str, List[Tuple[str, float]]]:
    """The original ``TPFG.fit`` message loop (without checkpointing).

    Per-edge max-sum messages stored in a dict keyed by direction and
    endpoints; every belief is re-summed from the message table, so a
    round costs O(edges x degree) interpreter work.
    """
    root = ""  # CandidateGraph.ROOT
    authors = graph.authors
    domain = {a: graph.advisors_of(a) for a in authors}
    unary = {a: np.log(np.maximum(
        np.array([c.likelihood for c in domain[a]]), EPS)) for a in authors}
    index_in_domain = {a: {c.advisor: idx for idx, c in enumerate(domain[a])}
                       for a in authors}
    edges = [(x, cand.advisor) for x in authors for cand in domain[x]
             if cand.advisor != root and cand.advisor in domain]
    allowed = {}
    for x, i in edges:
        st_xi = domain[x][index_in_domain[x][i]].start
        allowed[(x, i)] = np.array([c.advisor == root or c.end < st_xi
                                    for c in domain[i]], dtype=bool)
    messages = {}
    for x, i in edges:
        messages[("down", x, i)] = np.zeros(len(domain[i]))
        messages[("up", i, x)] = np.zeros(len(domain[x]))
    neighbors_down = {a: [] for a in authors}
    neighbors_up = {a: [] for a in authors}
    for x, i in edges:
        neighbors_down[x].append(i)
        neighbors_up[i].append(x)

    def node_belief(a, exclude=None):
        belief = np.array(unary[a])
        for i in neighbors_down[a]:
            if exclude != ("up", i):
                belief = belief + messages[("up", i, a)]
        for x in neighbors_up[a]:
            if exclude != ("down", x):
                belief = belief + messages[("down", x, a)]
        return belief

    for _ in range(max_iter):
        new_messages = {}
        for x, i in edges:
            base = node_belief(x, exclude=("up", i))
            xi = index_in_domain[x][i]
            others = np.delete(base, xi)
            best_other = others.max() if len(others) else -np.inf
            s_choose_i = base[xi]
            mask = allowed[(x, i)]
            msg = np.where(mask, np.maximum(best_other, s_choose_i),
                           np.maximum(best_other, s_choose_i - penalty))
            new_messages[("down", x, i)] = msg - msg.max()

            base_i = node_belief(i, exclude=("down", x))
            best_all = base_i.max()
            allowed_scores = base_i[mask]
            best_allowed = (allowed_scores.max() if len(allowed_scores)
                            else best_all - penalty)
            msg_up = np.full(len(domain[x]), best_all)
            msg_up[xi] = max(best_allowed, best_all - penalty)
            new_messages[("up", i, x)] = msg_up - msg_up.max()
        if damping > 0:
            for key, value in new_messages.items():
                messages[key] = damping * messages[key] + (1 - damping) * value
        else:
            messages.update(new_messages)

    ranking = {}
    for a in authors:
        belief = node_belief(a)
        belief = belief - belief.max()
        probs = np.exp(belief)
        probs = probs / max(probs.sum(), EPS)
        ranking[a] = sorted(
            ((c.advisor, float(p)) for c, p in zip(domain[a], probs)),
            key=lambda pair: (-pair[1], pair[0]))
    return ranking


# -------------------------------------------------------------------- serve
def reference_top_terms(terms: Iterable[Tuple[str, float]],
                        k: int) -> List[List[Any]]:
    """The original topic-detail ``top_terms``: sort the whole phi row.

    Every ``(term, probability)`` pair is sorted by descending
    probability, ties by term name, and the first ``k`` are kept.
    """
    ranked = sorted(terms, key=lambda kv: (-kv[1], kv[0]))
    return [[name, p] for name, p in ranked[:max(k, 0)]]


def reference_topic_detail(model, notation: str, max_phrases: int = 10,
                           max_entities: int = 5,
                           max_terms: int = 10) -> Dict[str, Any]:
    """The original uncached topic detail over a mapped v2 model.

    Every row of the topic is turned into Python lists first (all
    phrases, all entity ranks, every phi entry for the full sort), and
    each list is cut to its requested size afterwards.
    """
    from repro.serve.artifact_v2 import _row

    strings = model.strings
    topics = strings["topics"]
    index = next(i for i, meta in enumerate(topics)
                 if meta["notation"] == notation)
    meta = topics[index]
    ids, scores = _row(model, "phrases", index, "scores")
    phrases = [[strings["phrases"][int(i)], float(s)]
               for i, s in zip(ids, scores)]
    terms: List[Tuple[str, float]] = []
    if "term" in meta["phi_types"]:
        names = strings["phi_names"]["term"]
        ids, values = _row(model, "phi.term", index)
        terms = [(names[int(i)], float(v)) for i, v in zip(ids, values)]
    ranks = {}
    for etype in meta["rank_types"]:
        names = strings["rank_names"][etype]
        ids, scores = _row(model, f"entity_ranks.{etype}", index, "scores")
        ranks[etype] = [[names[int(i)], float(s)]
                        for i, s in zip(ids, scores)]
    return {
        "topic": notation,
        "level": len(meta["path"]),
        "rho": meta["rho"],
        "parent": (None if meta["parent"] is None
                   else topics[meta["parent"]]["notation"]),
        "children": [topics[c]["notation"] for c in meta["children"]],
        "phrases": phrases[:max(max_phrases, 0)],
        "num_phrases": len(phrases),
        "top_terms": reference_top_terms(terms, max_terms),
        "entity_ranks": {etype: entries[:max(max_entities, 0)]
                         for etype, entries in ranks.items()},
    }


# ------------------------------------------------------------------ artifact
def _canonical(obj) -> bytes:
    """Canonical JSON: sorted keys, compact, strict floats."""
    import json

    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False,
                          separators=(",", ":")).encode("utf-8")
    except ValueError as exc:
        raise DataError(f"non-finite float: {exc}") from exc


def reference_v1_document(parts) -> Dict[str, Any]:
    """Parts as the v1 document the retired v1 writer produced.

    Topic records in pre-order, tuples as lists, every float through
    one canonical encode and decode, and the manifest stamped with the
    v1 schema and the CRC32 of the canonical payload — so the document
    equals what that writer saved and what
    :func:`repro.serve.model_document_from_mapped` decodes.
    """
    import json
    import zlib

    from repro.serve import MODEL_SCHEMA

    def record(topic):
        return {
            "path": list(topic.path),
            "notation": topic.notation,
            "rho": float(topic.rho),
            "phi": {ntype: {name: float(p) for name, p in dist.items()}
                    for ntype, dist in topic.phi.items()},
            "phrases": [[phrase, float(score)]
                        for phrase, score in topic.phrases],
            "entity_ranks": {etype: [[name, float(score)]
                                     for name, score in ranks]
                             for etype, ranks in topic.entity_ranks.items()},
            "children": [record(child) for child in topic.children],
        }

    model = json.loads(_canonical({
        "vocabulary": list(parts.vocabulary),
        "hierarchy": record(parts.hierarchy.root),
        "entity_roles": parts.entity_roles,
    }).decode("utf-8"))
    manifest = dict(parts.manifest)
    manifest.update(schema=MODEL_SCHEMA, payload_crc32=zlib.crc32(
        _canonical(model)) & 0xFFFFFFFF)
    return {"schema": MODEL_SCHEMA, "manifest": manifest, "model": model}


def reference_v2_blob(parts) -> bytes:
    """The dict -> JSON -> v2 save path the array writer replaced.

    The parts become a JSON-normalized v1 document (two canonical
    encodes and one decode), whose records are walked into per-row
    lists, packed, laid out, parsed back and encoded once more as a
    self-check against the document's own v1 CRC.  Only the schema
    stamp and ``payload_crc32`` differ from that path: they follow the
    current contract (the CRC32 of the canonical string tables, then of
    each section CRC32 as u32 LE), so for equal parts the bytes equal
    :func:`repro.serve.artifact_v2.pack_model`'s.
    """
    import struct
    import zlib

    from repro.serve.artifact_v2 import (_ALIGN, _MAGIC, _PREAMBLE,
                                         MODEL_SCHEMA_V2, _mapped_from_blob,
                                         model_document_from_mapped)


    class Ragged:
        def __init__(self):
            self.indptr, self.ids, self.values = [0], [], []

        def append_row(self, ids, values):
            self.ids.extend(ids)
            self.values.extend(values)
            self.indptr.append(len(self.ids))

    def name_table(names):
        ordered = sorted(set(names))
        return ordered, {name: i for i, name in enumerate(ordered)}

    document = reference_v1_document(parts)
    model = document["model"]
    manifest = dict(document["manifest"])
    manifest["schema"] = MODEL_SCHEMA_V2

    records = []

    def walk(record):
        records.append(record)
        for child in record["children"]:
            walk(child)

    walk(model["hierarchy"])
    notation_of = [r["notation"] for r in records]
    topic_index = {n: i for i, n in enumerate(notation_of)}
    phrase_names, phrase_id = name_table(
        [p for r in records for p, _ in r["phrases"]])
    phi_types = sorted({t for r in records for t in r["phi"]})
    phi_names, phi_ids = {}, {}
    for ntype in phi_types:
        phi_names[ntype], phi_ids[ntype] = name_table(
            [n for r in records for n in r["phi"].get(ntype, {})])
    rank_types = sorted({t for r in records for t in r["entity_ranks"]})
    rank_names, rank_ids = {}, {}
    for etype in rank_types:
        rank_names[etype], rank_ids[etype] = name_table(
            [n for r in records
             for n, _ in r["entity_ranks"].get(etype, [])])
    roles = model["entity_roles"]
    role_keys, role_key_id = name_table(
        [k for table in roles.values()
         for freqs in table.values() for k in freqs])
    entities = {etype: sorted(table) for etype, table in roles.items()}

    sections = []

    def add(prefix, ragged, values_name="values"):
        sections.append((f"{prefix}.indptr",
                         np.asarray(ragged.indptr, dtype="<i8")))
        sections.append((f"{prefix}.ids",
                         np.asarray(ragged.ids, dtype="<i4")))
        sections.append((f"{prefix}.{values_name}",
                         np.asarray(ragged.values, dtype="<f8")))

    phrases = Ragged()
    for record in records:
        phrases.append_row([phrase_id[p] for p, _ in record["phrases"]],
                           [float(s) for _, s in record["phrases"]])
    add("phrases", phrases, "scores")
    for ntype in phi_types:
        ragged = Ragged()
        for record in records:
            dist = record["phi"].get(ntype, {})
            names = sorted(dist)
            ragged.append_row([phi_ids[ntype][n] for n in names],
                              [float(dist[n]) for n in names])
        add(f"phi.{ntype}", ragged)
    for etype in rank_types:
        ragged = Ragged()
        for record in records:
            ranks = record["entity_ranks"].get(etype, [])
            ragged.append_row([rank_ids[etype][n] for n, _ in ranks],
                              [float(s) for _, s in ranks])
        add(f"entity_ranks.{etype}", ragged, "scores")
    inverted = {}
    for record in records:
        for phrase, score in record["phrases"]:
            inverted.setdefault(phrase, []).append(
                (record["notation"], float(score)))
    ragged = Ragged()
    for phrase in phrase_names:
        entries = sorted(inverted.get(phrase, []),
                         key=lambda pair: (-pair[1], pair[0]))
        ragged.append_row([topic_index[n] for n, _ in entries],
                          [s for _, s in entries])
    add("inverted", ragged, "scores")
    for etype in sorted(roles):
        ragged = Ragged()
        for name in entities[etype]:
            freqs = roles[etype][name]
            keys = sorted(freqs)
            ragged.append_row([role_key_id[k] for k in keys],
                              [float(freqs[k]) for k in keys])
        add(f"roles.{etype}", ragged)

    parent_of = {notation_of[0]: None}
    for record in records:
        for child in record["children"]:
            parent_of[child["notation"]] = record["notation"]
    topics_meta = []
    for record in records:
        parent = parent_of[record["notation"]]
        topics_meta.append({
            "notation": record["notation"],
            "path": list(record["path"]),
            "rho": float(record["rho"]),
            "parent": None if parent is None else topic_index[parent],
            "children": [topic_index[c["notation"]]
                         for c in record["children"]],
            "phi_types": sorted(record["phi"]),
            "rank_types": sorted(record["entity_ranks"]),
        })
    strings = {"vocabulary": model["vocabulary"], "phrases": phrase_names,
               "phi_names": phi_names, "rank_names": rank_names,
               "role_keys": role_keys, "entities": entities,
               "topics": topics_meta}
    crcs = [zlib.crc32(array.tobytes()) & 0xFFFFFFFF
            for _, array in sections]
    manifest["payload_crc32"] = zlib.crc32(
        _canonical(strings) + struct.pack(f"<{len(crcs)}I", *crcs)) \
        & 0xFFFFFFFF

    def aligned(offset):
        return (offset + _ALIGN - 1) // _ALIGN * _ALIGN

    def layout(header_len):
        table = []
        offset = aligned(_PREAMBLE.size + header_len)
        for (name, array), crc in zip(sections, crcs):
            table.append({"name": name, "dtype": array.dtype.str,
                          "count": int(array.size), "offset": offset,
                          "crc32": crc})
            offset = aligned(offset + array.nbytes)
        return table

    header_len, header = 0, b""
    while True:
        table = layout(header_len)
        header = _canonical({"schema": MODEL_SCHEMA_V2,
                             "manifest": manifest, "strings": strings,
                             "sections": table})
        if len(header) == header_len:
            break
        header_len = len(header)
    total = table[-1]["offset"] + sections[-1][1].nbytes
    blob = bytearray(total)
    blob[:_PREAMBLE.size] = _PREAMBLE.pack(
        _MAGIC, len(header), zlib.crc32(header) & 0xFFFFFFFF)
    blob[_PREAMBLE.size:_PREAMBLE.size + len(header)] = header
    for entry, (_, array) in zip(table, sections):
        blob[entry["offset"]:entry["offset"] + array.nbytes] = \
            array.tobytes()
    reconstructed = model_document_from_mapped(
        _mapped_from_blob(bytes(blob), path="<in-memory>"))
    if reconstructed["manifest"]["payload_crc32"] \
            != document["manifest"]["payload_crc32"]:
        raise DataError("v2 encoding does not round-trip the canonical "
                        "v1 payload")
    return bytes(blob)


# -------------------------------------------------------------------- strod
def reference_word_count_rows(docs, vocab_size: int, min_length: int = 3,
                              ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-document ``np.unique`` counts, dropping short documents."""
    rows = []
    for doc in docs:
        doc = np.asarray(doc, dtype=np.int64)
        if len(doc) < min_length:
            continue
        if len(doc) and (doc.min() < 0 or doc.max() >= vocab_size):
            raise DataError("token id outside vocabulary")
        ids, counts = np.unique(doc, return_counts=True)
        rows.append((ids, counts.astype(float)))
    return rows


def reference_first_moment(rows, vocab_size: int) -> np.ndarray:
    """M1, one document at a time."""
    m1 = np.zeros(vocab_size)
    for ids, counts in rows:
        length = counts.sum()
        m1[ids] += counts / length
    return m1 / max(len(rows), 1)


def reference_second_moment(rows, vocab_size: int,
                            alpha0: float) -> np.ndarray:
    """Dense M2: one ``np.outer`` plus an ``np.ix_`` scatter per document."""
    pair = np.zeros((vocab_size, vocab_size))
    for ids, counts in rows:
        length = counts.sum()
        denom = length * (length - 1)
        outer = np.outer(counts, counts)
        outer[np.diag_indices_from(outer)] -= counts
        pair[np.ix_(ids, ids)] += outer / denom
    pair /= max(len(rows), 1)
    m1 = reference_first_moment(rows, vocab_size)
    return pair - (alpha0 / (alpha0 + 1)) * np.outer(m1, m1)


def reference_sparse_pair_moment(rows, vocab_size: int):
    """Sparse E[x1 (x) x2] from per-document COO triplets."""
    data, row_idx, col_idx = [], [], []
    num_docs = max(len(rows), 1)
    for ids, counts in rows:
        length = counts.sum()
        denom = length * (length - 1) * num_docs
        outer = np.outer(counts, counts)
        outer[np.diag_indices_from(outer)] -= counts
        outer /= denom
        n = len(ids)
        row_idx.append(np.repeat(ids, n))
        col_idx.append(np.tile(ids, n))
        data.append(outer.ravel())
    if not data:
        return csr_matrix((vocab_size, vocab_size))
    matrix = coo_matrix(
        (np.concatenate(data),
         (np.concatenate(row_idx), np.concatenate(col_idx))),
        shape=(vocab_size, vocab_size))
    return matrix.tocsr()


def reference_whitened_third_moment(rows, whitener: np.ndarray,
                                    m1: np.ndarray,
                                    alpha0: float) -> np.ndarray:
    """T = M3(W, W, W): five ``einsum`` calls per document."""
    k = whitener.shape[1]
    tensor = np.zeros((k, k, k))
    pair_with_m1 = np.zeros((k, k))
    num_docs = len(rows)
    if num_docs == 0:
        raise DataError("no documents long enough for third-moment "
                        "estimation")

    for ids, counts in rows:
        length = counts.sum()
        w_rows = whitener[ids]
        y = w_rows.T @ counts

        denom3 = length * (length - 1) * (length - 2)
        yyy = np.einsum("i,j,l->ijl", y, y, y)
        cw = w_rows * counts[:, None]
        wwy = np.einsum("ni,nj,l->ijl", cw, w_rows, y)
        wyw = np.einsum("ni,j,nl->ijl", cw, y, w_rows)
        yww = np.einsum("i,nj,nl->ijl", y, cw, w_rows)
        www = np.einsum("ni,nj,nl->ijl", cw, w_rows, w_rows)
        tensor += (yyy - (wwy + wyw + yww) + 2.0 * www) / denom3

        denom2 = length * (length - 1)
        pair_with_m1 += (np.outer(y, y) - w_rows.T @ cw) / denom2

    tensor /= num_docs
    pair_with_m1 /= num_docs

    wm1 = whitener.T @ m1
    c1 = alpha0 / (alpha0 + 2)
    cross = (np.einsum("ij,l->ijl", pair_with_m1, wm1)
             + np.einsum("il,j->ijl", pair_with_m1, wm1)
             + np.einsum("jl,i->ijl", pair_with_m1, wm1))
    m1_cube = np.einsum("i,j,l->ijl", wm1, wm1, wm1)
    c2 = 2.0 * alpha0 ** 2 / ((alpha0 + 1) * (alpha0 + 2))
    return tensor - c1 * cross + c2 * m1_cube


def reference_document_topics(alpha: np.ndarray, phi: np.ndarray,
                              docs) -> np.ndarray:
    """STROD fold-in, one fancy-indexed vote sum per document.

    A word whose total weight sum_z alpha_z phi_z(w) is below ``EPS``
    casts no vote, and a document without a vote gets the prior.
    """
    weights = alpha[:, None] * phi
    totals = weights.sum(axis=0, keepdims=True)
    weights = np.where(totals >= EPS, weights / np.maximum(totals, EPS),
                       0.0)
    result = np.zeros((len(docs), len(alpha)))
    for d, doc in enumerate(docs):
        votes = weights[:, np.asarray(doc, dtype=np.int64)].sum(axis=1)
        if votes.sum() > 0:
            result[d] = votes / votes.sum()
        else:
            result[d] = alpha / alpha.sum()
    return result


def reference_spgemm_pair_moment(counts: csr_matrix,
                                 vocab_size: int) -> csr_matrix:
    """Sparse E[x1 (x) x2] as C^T (diags(w) @ C) - diags(C^T w), each
    document's length summed again from its row."""
    if counts.shape[0] == 0:
        return csr_matrix((vocab_size, vocab_size))
    lengths = np.asarray(counts.sum(axis=1), dtype=float).ravel()
    weights = 1.0 / (lengths * (lengths - 1) * counts.shape[0])
    pair = counts.T @ (diags(weights) @ counts)
    return (pair - diags(counts.T @ weights)).tocsr()


def reference_spgemm_second_moment(counts: csr_matrix, vocab_size: int,
                                   alpha0: float) -> np.ndarray:
    """Dense M2: :func:`reference_spgemm_pair_moment` densified, with M1
    computed again from the rows."""
    pair = reference_spgemm_pair_moment(counts, vocab_size).toarray()
    m1 = first_moment(counts, vocab_size)
    return pair - (alpha0 / (alpha0 + 1)) * np.outer(m1, m1)


def reference_power_iteration(tensor: np.ndarray, start: np.ndarray,
                              num_iterations: int,
                              ) -> Tuple[np.ndarray, float]:
    """One restart's power updates: a 1-D ``einsum`` per step, stopping
    once an update's norm falls below 1e-12."""
    vector = start / max(np.linalg.norm(start), 1e-12)
    for _ in range(num_iterations):
        candidate = np.einsum("ijl,j,l->i", tensor, vector, vector)
        norm = np.linalg.norm(candidate)
        if norm < 1e-12:
            break
        vector = candidate / norm
    return vector, float(np.einsum("ijl,i,j,l->", tensor, vector, vector,
                                   vector))


def reference_robust_tensor_decomposition(
        tensor: np.ndarray, num_components: int, num_restarts: int = 10,
        num_iterations: int = 30, seed=None,
) -> Tuple[List[TensorEigenpair], List[Dict[str, Any]]]:
    """Deflation with one power-iteration loop per restart.

    Each restart draws its own ``standard_normal(k)`` start; the first
    restart of the highest T(v, v, v) is polished by ``num_iterations``
    more updates.  Returns the eigenpairs and the generator state after
    each component.
    """
    rng = ensure_rng(seed)
    k = tensor.shape[0]
    work = np.array(tensor)
    pairs: List[TensorEigenpair] = []
    states: List[Dict[str, Any]] = []
    for _ in range(num_components):
        best_vector, best_value = None, -np.inf
        for _ in range(num_restarts):
            vector, value = reference_power_iteration(
                work, rng.standard_normal(k), num_iterations)
            if value > best_value:
                best_vector, best_value = vector, value
        best_vector, best_value = reference_power_iteration(
            work, best_vector, num_iterations)
        pairs.append(TensorEigenpair(eigenvalue=best_value,
                                     eigenvector=best_vector))
        work = work - best_value * np.einsum(
            "i,j,l->ijl", best_vector, best_vector, best_vector)
        states.append(rng.bit_generator.state)
    return pairs, states


@contextmanager
def reference_strod_node() -> Iterator[None]:
    """Within the block, :class:`~repro.strod.STROD` solves a node with
    :func:`reference_robust_tensor_decomposition` and
    :func:`reference_spgemm_second_moment` in place of its kernels."""
    import repro.strod.strod as strod_module

    def decomposition(tensor, num_components, num_restarts, num_iterations,
                      seed, checkpoint=None, resume=False):
        return reference_robust_tensor_decomposition(
            tensor, num_components, num_restarts, num_iterations, seed)[0]

    def second(counts, vocab_size, alpha0, lengths=None, m1=None):
        return reference_spgemm_second_moment(counts, vocab_size, alpha0)

    saved = (strod_module.robust_tensor_decomposition,
             strod_module.second_moment)
    strod_module.robust_tensor_decomposition = decomposition
    strod_module.second_moment = second
    try:
        yield
    finally:
        (strod_module.robust_tensor_decomposition,
         strod_module.second_moment) = saved


# ---------------------------------------------------------------- CATHYHIN
def _reference_one_hot(idx: np.ndarray, num_nodes: int) -> csr_matrix:
    """(E, V) CSR with one unit entry per row at column ``idx[e]``."""
    num_links = len(idx)
    return csr_matrix(
        (np.ones(num_links, dtype=np.float64),
         np.asarray(idx, dtype=np.int64),
         np.arange(num_links + 1, dtype=np.int64)),
        shape=(num_links, num_nodes))


class ReferenceLinkData:
    """One link type's arrays, read from the network."""

    def __init__(self, link_type, i_idx, j_idx, weights) -> None:
        self.link_type = link_type
        self.i_idx = i_idx
        self.j_idx = j_idx
        self.weights = weights

    @property
    def num_links(self) -> int:
        """Number of stored links of this type."""
        return len(self.weights)


class ReferenceHINEM:
    """CATHYHIN's EM kernels as they shipped before the stacked link CSR.

    ``_link_scores``, ``_em_step``, ``_update_alpha`` and
    ``expected_link_arrays`` are the old ``CathyHIN`` methods verbatim,
    less the scipy-absent scatter branch of ``_em_step`` that never ran:
    one loop over link types, each materializing (k, E) score and
    posterior arrays, with the M-step scatter as one-hot incidence
    products.  ``expected_link_arrays`` reads the fitted model assigned
    to ``model_``; ``_em_step`` overwrites the ``phi``/``phi0`` dicts it
    is given (:func:`reference_hin_em_step` passes copies).
    """

    def __init__(self, network, num_topics: int, background: bool = True,
                 rho_prior: float = 0.0, phi_prior: float = 0.0) -> None:
        self.num_topics = num_topics
        self.background = background
        self.rho_prior = rho_prior
        self.phi_prior = phi_prior
        self.model_ = None
        self._link_data: List[ReferenceLinkData] = []
        self._incidence: Dict[Tuple[str, str], Tuple[csr_matrix,
                                                     csr_matrix]] = {}
        for link_type in network.link_types():
            i_idx, j_idx, weights = network.link_arrays(link_type)
            self._link_data.append(
                ReferenceLinkData(link_type, i_idx, j_idx, weights))
            self._incidence[link_type] = (
                _reference_one_hot(i_idx, network.node_count(link_type[0])),
                _reference_one_hot(j_idx, network.node_count(link_type[1])))

    def _parent_distributions(self, node_names):
        """phi_t per type: normalized weighted degree (the old method)."""
        degrees = {t: np.zeros(len(names)) + EPS
                   for t, names in node_names.items()}
        for ld in self._link_data:
            type_x, type_y = ld.link_type
            degrees[type_x] += np.bincount(ld.i_idx, weights=ld.weights,
                                           minlength=len(degrees[type_x]))
            degrees[type_y] += np.bincount(ld.j_idx, weights=ld.weights,
                                           minlength=len(degrees[type_y]))
        return {t: deg / deg.sum() for t, deg in degrees.items()}

    def _link_scores(self, ld: ReferenceLinkData, rho: np.ndarray,
                     rho0: float, phi: Dict[str, np.ndarray],
                     phi0: Dict[str, np.ndarray],
                     phi_parent: Dict[str, np.ndarray],
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mixture scores per link: topic scores (k,E), bg dir-1, dir-2."""
        type_x, type_y = ld.link_type
        scores = (rho[:, None] * phi[type_x][:, ld.i_idx]
                  * phi[type_y][:, ld.j_idx])
        if self.background and rho0 > 0:
            bg_a = rho0 * phi0[type_x][ld.i_idx] * phi_parent[type_y][ld.j_idx]
            bg_b = rho0 * phi0[type_y][ld.j_idx] * phi_parent[type_x][ld.i_idx]
            bg_a = bg_a * 0.5
            bg_b = bg_b * 0.5
        else:
            bg_a = np.zeros(ld.num_links)
            bg_b = np.zeros(ld.num_links)
        return scores, bg_a, bg_b

    def _em_step(self, alpha, rho, rho0, phi, phi0, phi_parent, node_names):
        k = self.num_topics
        new_rho = np.zeros(k)
        new_rho0 = 0.0
        new_phi = {t: np.zeros((k, len(names)))
                   for t, names in node_names.items()}
        new_phi0 = {t: np.zeros(len(names)) for t, names in node_names.items()}
        ll = 0.0
        total_weight = 0.0

        for ld in self._link_data:
            type_x, type_y = ld.link_type
            a = alpha.get(ld.link_type, 1.0)
            w = ld.weights * a
            scores, bg_a, bg_b = self._link_scores(
                ld, rho, rho0, phi, phi0, phi_parent)
            denom = scores.sum(axis=0) + bg_a + bg_b
            denom = np.maximum(denom, EPS)
            ll += float(np.dot(w, np.log(denom)))
            total_weight += w.sum()

            expected = scores / denom * w  # (k, E)
            new_rho += expected.sum(axis=1)
            inc_i, inc_j = self._incidence[ld.link_type]
            new_phi[type_x] += np.asarray(expected @ inc_i)
            new_phi[type_y] += np.asarray(expected @ inc_j)
            if self.background:
                exp_bg_a = bg_a / denom * w
                exp_bg_b = bg_b / denom * w
                new_rho0 += float(exp_bg_a.sum() + exp_bg_b.sum())
                new_phi0[type_x] += np.asarray(exp_bg_a @ inc_i).ravel()
                new_phi0[type_y] += np.asarray(exp_bg_b @ inc_j).ravel()

        # MAP smoothing (Section 3.2.3's Bayesian extension): Dirichlet
        # pseudo-counts added to the expected-count statistics.
        if self.rho_prior > 0:
            new_rho = new_rho + self.rho_prior
            if self.background:
                new_rho0 = new_rho0 + self.rho_prior
        mass = new_rho.sum() + new_rho0
        mass = max(mass, EPS)
        rho = np.maximum(new_rho / mass, EPS)
        rho0 = max(new_rho0 / mass, EPS if self.background else 0.0)
        for t in new_phi:
            counts = new_phi[t] + self.phi_prior
            row_sums = np.maximum(counts.sum(axis=1, keepdims=True), EPS)
            phi[t] = counts / row_sums
            bg_counts = new_phi0[t] + self.phi_prior
            bg_sum = bg_counts.sum()
            if self.background and bg_sum > 0:
                phi0[t] = bg_counts / bg_sum
        return ll, rho, rho0, phi, phi0

    def _update_alpha(self, rho, rho0, phi, phi0, phi_parent,
                      ) -> Dict[LinkType, float]:
        """Closed-form alpha update (Eq. 3.37-3.38).

        sigma_xy measures, per link type, the average KL-style divergence
        of the observed link-weight distribution from the model's expected
        distribution; alpha is inversely proportional to sigma, normalized
        so the geometric-mean constraint of Theorem 3.2 holds.
        """
        sigmas: Dict[LinkType, float] = {}
        for ld in self._link_data:
            scores, bg_a, bg_b = self._link_scores(
                ld, rho, rho0, phi, phi0, phi_parent)
            s = np.maximum(scores.sum(axis=0) + bg_a + bg_b, EPS)
            m_xy = ld.weights.sum()
            divergence = float(np.dot(
                ld.weights, np.log(np.maximum(ld.weights, EPS) / (m_xy * s))))
            sigma = divergence / max(ld.num_links, 1)
            sigmas[ld.link_type] = max(sigma, EPS)
        alpha = {lt: 1.0 / sigma for lt, sigma in sigmas.items()}
        return _normalize_alpha(alpha, self._link_data)

    def expected_link_arrays(self, subtopic: int,
                             ) -> Dict[LinkType, Tuple[np.ndarray,
                                                       np.ndarray,
                                                       np.ndarray]]:
        """e-hat^{x,y,t/z} as ``(i_idx, j_idx, weights)`` per link type.

        The sparse-array form of Eq. 3.23's expected scaled link weight:
        one vectorized pass per link type over the network's CSR link
        arrays.  Links whose mixture score degenerates to zero cannot be
        attributed to any subtopic and are counted under the
        ``cathy.degenerate_links`` metric instead of being dropped
        silently.
        """
        model = self.model_
        if not 0 <= subtopic < model.num_topics:
            raise ConfigurationError(f"subtopic {subtopic} out of range")
        result: Dict[LinkType, Tuple[np.ndarray, np.ndarray,
                                     np.ndarray]] = {}
        for ld in self._link_data:
            a = model.alpha.get(ld.link_type, 1.0)
            scores, bg_a, bg_b = self._link_scores(
                ld, model.rho, model.rho0, model.phi, model.phi_background,
                model.phi_parent)
            raw_denom = scores.sum(axis=0) + bg_a + bg_b
            num_degenerate = int(np.count_nonzero(raw_denom <= 0.0))
            if num_degenerate:
                inc("cathy.degenerate_links", num_degenerate)
            denom = np.maximum(raw_denom, EPS)
            expected = ld.weights * a * scores[subtopic] / denom
            result[ld.link_type] = (ld.i_idx, ld.j_idx, expected)
        return result


def _normalize_alpha(alpha: Dict[LinkType, float],
                     link_data: List[ReferenceLinkData],
                     ) -> Dict[LinkType, float]:
    """Rescale alpha so that prod alpha^{n_xy} = 1 (Theorem 3.2)."""
    counts = {ld.link_type: ld.num_links for ld in link_data}
    total = sum(counts.values())
    if total == 0:
        return dict(alpha)
    log_mean = sum(counts[lt] * np.log(max(alpha.get(lt, 1.0), EPS))
                   for lt in counts) / total
    scale = float(np.exp(-log_mean))
    return {lt: float(alpha.get(lt, 1.0) * scale) for lt in counts}


def reference_hin_em_step(estimator: ReferenceHINEM, alpha, rho, rho0,
                          phi, phi0, phi_parent, node_names):
    """One reference EM step, on copies of the parameter dicts."""
    return estimator._em_step(alpha, rho, rho0, dict(phi), dict(phi0),
                              phi_parent, node_names)


# -------------------------------------------------------- network collapse
#: A network as the per-type stores held it before the stacked CSR: each
#: node type's names, and each non-empty link type's frozen arrays.
ReferenceNetwork = Tuple[Dict[str, List[str]],
                         Dict[LinkType, Tuple[np.ndarray, np.ndarray,
                                              np.ndarray]]]


def reference_freeze(link_type: LinkType, i_idx: np.ndarray,
                     j_idx: np.ndarray, weights: np.ndarray,
                     num_cols: int) -> Tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """One link type's COO -> CSR freeze, as the per-type store ran it.

    Same-type pairs are ordered i <= j, duplicate pairs sum, and the links
    come back sorted by the scalar key ``i * num_cols + j``.
    """
    i_idx = np.asarray(i_idx, dtype=np.int64)
    j_idx = np.asarray(j_idx, dtype=np.int64)
    if link_type[0] == link_type[1]:
        i_idx, j_idx = np.minimum(i_idx, j_idx), np.maximum(i_idx, j_idx)
    enc = max(int(num_cols), 1)
    uniq, inverse = np.unique(i_idx * enc + j_idx, return_inverse=True)
    summed = np.bincount(inverse, weights=np.asarray(weights, np.float64),
                         minlength=len(uniq))
    rows = uniq // enc
    return rows, uniq - rows * enc, summed


@lru_cache(maxsize=4096)
def _reference_pair_template(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Upper-triangle index template for all unordered pairs of n items."""
    return np.triu_indices(n, k=1)


class _ReferenceNodes:
    """Per-type name tables with the old idempotent ``add_node``."""

    def __init__(self, node_types: Sequence[str]) -> None:
        self.names: Dict[str, List[str]] = {t: [] for t in node_types}
        self._index: Dict[str, Dict[str, int]] = {t: {} for t in node_types}

    def add_node(self, node_type: str, name: str) -> int:
        index = self._index.setdefault(node_type, {})
        node = index.get(name)
        if node is None:
            table = self.names.setdefault(node_type, [])
            node = index[name] = len(table)
            table.append(name)
        return node

    def add_nodes(self, node_type: str, names: Iterable[str]) -> np.ndarray:
        return np.asarray([self.add_node(node_type, name) for name in names],
                          dtype=np.int64).reshape(-1)


class _ReferenceEdgeColumns:
    """Per-link-type accumulator of (i, j, weight) edge-list columns."""

    def __init__(self) -> None:
        self._parts: Dict[LinkType, Tuple[List[np.ndarray],
                                          List[np.ndarray],
                                          List[np.ndarray]]] = {}
        self._scalars: Dict[LinkType, Tuple[List[int], List[int]]] = {}

    def add_arrays(self, type_x: str, i_idx: np.ndarray, type_y: str,
                   j_idx: np.ndarray, weights=None) -> None:
        """Append one edge column (canonicalized by type; unit weights
        unless given)."""
        link_type = canonical_link_type(type_x, type_y)
        if (type_x, type_y) != link_type:
            i_idx, j_idx = j_idx, i_idx
        parts = self._parts.setdefault(link_type, ([], [], []))
        parts[0].append(np.asarray(i_idx, dtype=np.int64).reshape(-1))
        parts[1].append(np.asarray(j_idx, dtype=np.int64).reshape(-1))
        parts[2].append(np.ones(len(parts[0][-1])) if weights is None
                        else np.asarray(weights, dtype=np.float64))

    def add_pair(self, type_x: str, i: int, type_y: str, j: int) -> None:
        """Append one unit-weight edge (sparse per-document pairs)."""
        link_type = canonical_link_type(type_x, type_y)
        if (type_x, type_y) != link_type:
            i, j = j, i
        scalars = self._scalars.setdefault(link_type, ([], []))
        scalars[0].append(i)
        scalars[1].append(j)

    def freeze(self, names: Dict[str, List[str]]) -> ReferenceNetwork:
        """Every accumulated column frozen, link types sorted."""
        for link_type, (i_list, j_list) in self._scalars.items():
            self.add_arrays(link_type[0], np.asarray(i_list, dtype=np.int64),
                            link_type[1], np.asarray(j_list, dtype=np.int64))
        links = {}
        for link_type in sorted(self._parts):
            i_parts, j_parts, w_parts = self._parts[link_type]
            i_idx = np.concatenate(i_parts)
            if len(i_idx):
                links[link_type] = reference_freeze(
                    link_type, i_idx, np.concatenate(j_parts),
                    np.concatenate(w_parts), len(names[link_type[1]]))
        return names, links


class _ReferenceTermIndex:
    """Maps kept corpus token ids to network node ids, registering lazily.

    Registration order matches the classic per-edge network: first
    document containing a term registers it, terms within a document in
    sorted token order.
    """

    def __init__(self, corpus: Corpus, nodes: _ReferenceNodes,
                 min_count: int) -> None:
        counts = corpus.word_counts()
        self._keep = {w for w, c in counts.items() if c >= min_count}
        self._vocabulary = corpus.vocabulary
        self._nodes = nodes
        self._node_of: Dict[int, int] = {}

    def doc_term_ids(self, tokens: Sequence[int]) -> np.ndarray:
        """Network node ids of the document's distinct kept terms."""
        node_of = self._node_of
        ids: List[int] = []
        for tok in sorted({t for t in tokens if t in self._keep}):
            node = node_of.get(tok)
            if node is None:
                node = self._nodes.add_node(
                    TERM_TYPE, self._vocabulary.word_of(tok))
                node_of[tok] = node
            ids.append(node)
        return np.asarray(ids, dtype=np.int64)


def reference_build_collapsed_network(
        corpus: Corpus, entity_types: Optional[Sequence[str]] = None,
        min_count: int = 1, include_text: bool = True,
        ) -> ReferenceNetwork:
    """The per-document Example 3.1 collapse, as shipped before the flat
    array build (without the ``term`` entity-type clash check): every
    co-occurring pair of one document as a unit-weight edge, frozen per
    link type.  Returns each node type's names (types with no nodes
    included) and each non-empty link type's sorted arrays.

    Implements Example 3.1: for each document, every unordered pair of
    distinct terms gets a term–term link; every (entity, term) pair gets a
    term–entity link; every unordered pair of distinct entities (same or
    different type) gets an entity link.  The link weight between two
    objects equals the number of documents in which they co-occur.

    Args:
        corpus: the text-attached network (documents + entity links).
        entity_types: which entity types to include; defaults to all types
            present in the corpus.
        min_count: minimum corpus frequency for a term to enter the network.
        include_text: set ``False`` to build a text-absent network (the
            degenerate case G^o = H discussed in Section 3.2).
    """
    if entity_types is None:
        entity_types = corpus.entity_types()
    entity_types = list(entity_types)

    node_types = list(entity_types)
    if include_text:
        node_types.append(TERM_TYPE)
    nodes = _ReferenceNodes(node_types)

    index = _ReferenceTermIndex(corpus, nodes, min_count) \
        if include_text else None
    columns = _ReferenceEdgeColumns()
    empty = np.empty(0, dtype=np.int64)

    for doc in corpus:
        term_ids = index.doc_term_ids(doc.tokens) \
            if index is not None else empty
        # Term-term co-occurrence links.
        if len(term_ids) >= 2:
            iu, ju = _reference_pair_template(len(term_ids))
            columns.add_arrays(TERM_TYPE, term_ids[iu], TERM_TYPE,
                               term_ids[ju])

        # Entity nodes linked to all terms of the document and to the other
        # entities of the document.
        doc_entities = []  # (type, node_id) pairs
        for etype in entity_types:
            for name in doc.entity_list(etype):
                doc_entities.append((etype, nodes.add_node(etype, name)))
        if len(term_ids):
            for (etype, eid) in doc_entities:
                columns.add_arrays(
                    etype, np.full(len(term_ids), eid, dtype=np.int64),
                    TERM_TYPE, term_ids)
        for (type_a, id_a), (type_b, id_b) in combinations(doc_entities, 2):
            if type_a == type_b and id_a == id_b:
                continue
            columns.add_pair(type_a, id_a, type_b, id_b)
    return columns.freeze(nodes.names)


def reference_subnetwork(names: Dict[str, List[str]],
                         link_weights: Dict[LinkType, Tuple[np.ndarray,
                                                            np.ndarray,
                                                            np.ndarray]],
                         min_weight: float = 1.0) -> ReferenceNetwork:
    """The name-based child build the network shipped before child masks.

    ``link_weights`` maps each link type, in canonical order, to its
    ``(i_idx, j_idx, expected)`` arrays over the parent's per-type ids.
    Links below ``min_weight`` are dropped; each kept link type adds the
    names of its sorted used ids through the idempotent ``add_nodes``
    (first occurrence wins), and the child's links are re-frozen.
    """
    nodes = _ReferenceNodes(())
    columns = _ReferenceEdgeColumns()
    for link_type, (i_arr, j_arr, w_arr) in link_weights.items():
        type_x, type_y = canonical_link_type(*link_type)
        mask = np.asarray(w_arr) >= min_weight
        if not np.any(mask):
            continue
        i_arr, j_arr, w_arr = i_arr[mask], j_arr[mask], w_arr[mask]
        names_x, names_y = names[type_x], names[type_y]
        if type_x == type_y:
            used = np.unique(np.concatenate([i_arr, j_arr]))
            new_ids = nodes.add_nodes(type_x,
                                      (names_x[t] for t in used.tolist()))
            remap = np.empty(int(used[-1]) + 1, dtype=np.int64)
            remap[used] = new_ids
            columns.add_arrays(type_x, remap[i_arr], type_y, remap[j_arr],
                               w_arr)
        else:
            used_x, used_y = np.unique(i_arr), np.unique(j_arr)
            new_x = nodes.add_nodes(type_x,
                                    (names_x[t] for t in used_x.tolist()))
            new_y = nodes.add_nodes(type_y,
                                    (names_y[t] for t in used_y.tolist()))
            remap_x = np.empty(int(used_x[-1]) + 1, dtype=np.int64)
            remap_x[used_x] = new_x
            remap_y = np.empty(int(used_y[-1]) + 1, dtype=np.int64)
            remap_y[used_y] = new_y
            columns.add_arrays(type_x, remap_x[i_arr], type_y,
                               remap_y[j_arr], w_arr)
    return columns.freeze(nodes.names)


# -------------------------------------------------------------------- corpus
def reference_tokenize_chunks(text: str, stopwords=DEFAULT_STOPWORDS,
                              ) -> List[List[str]]:
    """The chunk tokenizer as shipped before the one-pattern scan: split
    the lowered text on phrase-invariant punctuation, then scan each
    chunk for tokens and drop stopwords and empty chunks."""
    stop = frozenset(stopwords)
    chunks = []
    for raw_chunk in split_phrase_chunks(text.lower()):
        tokens = [tok for tok in _TOKEN_RE.findall(raw_chunk)
                  if tok not in stop]
        if tokens:
            chunks.append(tokens)
    return chunks


def reference_from_texts(texts: Sequence[str], entities=None, years=None,
                         stopwords=DEFAULT_STOPWORDS,
                         ) -> Tuple[Vocabulary, List[Document]]:
    """The per-document ``Corpus.from_texts`` loop as shipped before the
    one-pass scan: tokenize each text, encode each chunk (growing the
    vocabulary word by word), range-check every id, and keep each
    document as a ``Document`` holding its chunk lists and its own
    copies of the entity lists."""
    vocabulary = Vocabulary()
    documents: List[Document] = []
    for doc_id, text in enumerate(texts):
        chunks = [vocabulary.encode(chunk, add_missing=True)
                  for chunk in reference_tokenize_chunks(text, stopwords)]
        vocab_size = len(vocabulary)
        for chunk in chunks:
            for tok in chunk:
                if not 0 <= tok < vocab_size:
                    raise DataError(f"token id {tok} outside vocabulary")
        mapping = entities[doc_id] if entities is not None else None
        documents.append(Document(
            doc_id=doc_id, chunks=chunks,
            entities={etype: list(names)
                      for etype, names in (mapping or {}).items()},
            year=years[doc_id] if years is not None else None))
    return vocabulary, documents


def reference_corpus_token_array(documents: Sequence[Document],
                                 ) -> Tuple[np.ndarray, np.ndarray,
                                            np.ndarray]:
    """Documents flattened into ``(tokens, chunk_lengths, doc_chunks)``,
    as each array consumer once rebuilt them from the chunk lists."""
    doc_chunks = np.fromiter((len(doc.chunks) for doc in documents),
                             dtype=np.int64, count=len(documents))
    chunks = [chunk for doc in documents for chunk in doc.chunks]
    lengths = np.fromiter(map(len, chunks), dtype=np.int64,
                          count=len(chunks))
    tokens = np.fromiter((tok for chunk in chunks for tok in chunk),
                         dtype=np.int64, count=int(lengths.sum()))
    return tokens, lengths, doc_chunks


def reference_add_paper(network, authors: Sequence[str], year: int) -> None:
    """Record one paper: every distinct author's series and every pair of
    distinct authors (in name order) gain the paper's year."""
    from repro.relations import YearSeries

    unique = sorted(set(authors))
    for author in unique:
        network.author_series.setdefault(author, YearSeries()).add(year)
    for a, b in combinations(unique, 2):
        network.pair_series.setdefault((a, b), YearSeries()).add(year)
    network._coauthors = None


def reference_collaboration_network(papers):
    """``CollaborationNetwork`` filled paper by paper with
    :func:`reference_add_paper` from (author list, year) records."""
    from repro.relations import CollaborationNetwork

    network = CollaborationNetwork()
    for authors, year in papers:
        reference_add_paper(network, authors, year)
    return network


# -------------------------------------------------------------------- stream
class ReferenceRowSketch:
    """The moment sketch as shipped before its flat CSR: a list of
    per-document ``(ids, counts)`` rows, one ``np.unique`` per document,
    merged by list concatenation, and concatenated again for M1, the
    state and the fingerprint."""

    def __init__(self, vocab_size: int, min_length: int = 3) -> None:
        self.vocab_size = int(vocab_size)
        self.min_length = int(min_length)
        self.num_skipped = 0
        self.rows: List[Tuple[np.ndarray, np.ndarray]] = []

    @classmethod
    def from_docs(cls, docs, vocab_size: int,
                  min_length: int = 3) -> "ReferenceRowSketch":
        sketch = cls(vocab_size, min_length)
        for doc in docs:
            arr = np.asarray(doc, dtype=np.int64)
            if len(arr) < sketch.min_length:
                sketch.num_skipped += 1
                continue
            if arr.min() < 0 or arr.max() >= sketch.vocab_size:
                raise DataError("token id outside vocabulary")
            ids, counts = np.unique(arr, return_counts=True)
            sketch.rows.append((ids, counts.astype(float)))
        return sketch

    def merge(self, other: "ReferenceRowSketch") -> "ReferenceRowSketch":
        merged = ReferenceRowSketch(max(self.vocab_size, other.vocab_size),
                                    self.min_length)
        merged.rows = self.rows + other.rows
        merged.num_skipped = self.num_skipped + other.num_skipped
        return merged

    @property
    def num_docs(self) -> int:
        return len(self.rows)

    def first_moment(self) -> np.ndarray:
        from repro.strod import first_moment
        return first_moment(self.rows, self.vocab_size)

    def to_state(self) -> Dict[str, Any]:
        if self.rows:
            ids = np.concatenate([ids for ids, _ in self.rows])
            counts = np.concatenate([counts for _, counts in self.rows])
        else:
            ids, counts = np.zeros(0, dtype=np.int64), np.zeros(0)
        offsets = np.zeros(len(self.rows) + 1, dtype=np.int64)
        np.cumsum([len(row_ids) for row_ids, _ in self.rows],
                  out=offsets[1:])
        return {"vocab_size": self.vocab_size, "min_length": self.min_length,
                "num_skipped": self.num_skipped, "row_ids": ids,
                "row_counts": counts, "row_offsets": offsets}

    def fingerprint(self) -> str:
        import zlib

        state = self.to_state()
        crc = 0
        for key in ("row_ids", "row_counts", "row_offsets"):
            crc = zlib.crc32(np.ascontiguousarray(state[key]).tobytes(), crc)
        return (f"v{self.vocab_size}-d{self.num_docs}"
                f"-s{self.num_skipped}-{crc & 0xFFFFFFFF:08x}")


def reference_load_corpus(store, num_shards: Optional[int] = None) -> Corpus:
    """``ShardStore.load_corpus`` as shipped before the in-memory shard
    arrays: unpickle every shard of the prefix and rebuild the corpus
    record by record with ``Corpus.from_chunks``."""
    upto = store.num_shards if num_shards is None else num_shards
    records, vocab_size = [], 0
    for shard_id in range(upto):
        payload = store.load_shard(shard_id)
        records.extend(payload["documents"])
        vocab_size = int(payload["vocab_size"])
    vocabulary = (store.vocabulary if upto == store.num_shards
                  else Vocabulary(list(store.vocabulary)[:vocab_size]))
    return Corpus.from_chunks(
        [record["chunks"] for record in records], vocabulary,
        entities=[record["entities"] for record in records],
        years=[record.get("year") for record in records],
        labels=[record.get("label") for record in records])


def reference_entity_role_counts(corpus: Corpus, doc_notations: List[str],
                                 ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """The stream role table, one dict update per (link, ancestor)."""
    lineages: Dict[str, List[str]] = {}
    for notation in doc_notations:
        if notation not in lineages:
            parts = notation.split("/")
            lineages[notation] = ["/".join(parts[:i + 1])
                                  for i in range(len(parts))]
    doc_lineage = [lineages[notation] for notation in doc_notations]
    roles: Dict[str, Dict[str, Dict[str, float]]] = {}
    for etype, links in corpus.entity_relations().items():
        table: Dict[str, Dict[str, float]] = {}
        roles[etype] = table
        names = links.names
        for doc, entity in zip(links.documents().tolist(),
                               links.ids.tolist()):
            counts = table.setdefault(names[entity], {})
            for ancestor in doc_lineage[doc]:
                counts[ancestor] = counts.get(ancestor, 0.0) + 1.0
    return roles
