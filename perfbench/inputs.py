"""Seeded inputs for the three workloads.

Every input is a pure function of ``--seed``; the program under test
only ever sees what these functions return:

* :func:`dblp_inputs` — raw-text synthetic DBLP titles with a Zipf long
  tail of leaf-specific words (``mine_dblp``);
* :func:`ingest_batches` — the generator's own papers in year order,
  split into roughly equal raw-text batches (``ingest_swap``);
* :func:`model_document` — a production-sized model document
  (``query_keepalive``);
* :func:`query_mix` — the request sequence replayed against it.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

import numpy as np

#: Why each workload exists; printed with every run.
WHY = {
    "mine_dblp": "the paper's full batch pipeline on its own data model: "
                 "CATHYHIN EM, phrase decoration and TPFG do the work; no "
                 "HTTP or stream code runs",
    "query_keepalive": "keep-alive HTTP queries over a key space far "
                       "larger than the cache: transport, router and "
                       "engine backend, no fitting",
    "ingest_swap": "streamed batches refit, export and hot-swap beside a "
                   "cache-friendly read stream: stream, strod, drift, "
                   "artifact save and reload",
}

#: Papers in every DBLP input.  The generator gives 11.5k-12.7k papers
#: for 1000 authors depending on the seed; inputs are cut to one size so
#: that run-to-run spread reflects the program, not the seed's draw.
NUM_DOCUMENTS = 11_000
#: Authors generated.  The generator's 23-year span caps some seeds near
#: 1100 authors and 11.6k papers whatever this is set to.
GENERATED_AUTHORS = 1_100
#: The long tail: each planted leaf owns TAIL_POOL words, drawn with
#: Zipf weights 1/rank**TAIL_EXPONENT, TAIL_WORDS (inclusive range) of
#: them per title.  At 11,000 titles this gives ~6.8-7.0k terms, the
#: order of the real DBLP subset's 7,723.
TAIL_POOL = 2_000
TAIL_EXPONENT = 1.0
TAIL_WORDS = (1, 2)
#: ``query_keepalive`` model shape that is not a size: children of the
#: root (9 topics in all) and role entries per author.
NUM_CHILDREN = 8
ROLES_PER_AUTHOR = 9

_CONSONANTS = "bdfghjklmnprstvz"
_VOWELS = "aeiou"


def pseudo_words(count: int, rng: np.random.Generator,
                 exclude: Sequence[str] = ()) -> List[str]:
    """``count`` distinct three-syllable words absent from ``exclude``."""
    taken = set(exclude)
    words: List[str] = []
    while len(words) < count:
        cons = rng.integers(len(_CONSONANTS), size=(count, 3))
        vows = rng.integers(len(_VOWELS), size=(count, 3))
        for c_row, v_row in zip(cons, vows):
            word = "".join(_CONSONANTS[c] + _VOWELS[v]
                           for c, v in zip(c_row, v_row))
            if word not in taken:
                taken.add(word)
                words.append(word)
                if len(words) == count:
                    break
    return words


def document_text(vocabulary, doc) -> str:
    """A raw title whose tokenization gives back ``doc``'s chunks.

    Chunks are joined with commas, which the tokenizer splits on, so
    phrase boundaries survive the round trip.
    """
    return ", ".join(" ".join(vocabulary.decode(chunk))
                     for chunk in doc.chunks)


def check_round_trip(vocabulary, docs: Sequence[Any],
                     texts: Sequence[str]) -> None:
    """Raise ``AssertionError`` unless ``texts`` re-tokenize to ``docs``."""
    from repro.corpus import Corpus

    rebuilt = Corpus.from_texts(
        texts, entities=[doc.entities for doc in docs],
        years=[doc.year for doc in docs],
        labels=[doc.label for doc in docs])
    if len(rebuilt) != len(docs):
        raise AssertionError(f"round trip gave {len(rebuilt)} documents, "
                             f"expected {len(docs)}")
    for doc_id, (a, b) in enumerate(zip(rebuilt, docs)):
        if [rebuilt.vocabulary.decode(c) for c in a.chunks] \
                != [vocabulary.decode(c) for c in b.chunks] \
                or a.entities != b.entities or a.year != b.year \
                or a.label != b.label:
            raise AssertionError(f"round trip changed document {doc_id}")


def dblp_dataset(seed: int, num_documents: int = NUM_DOCUMENTS,
                 max_authors: int = GENERATED_AUTHORS):
    """The generator's first ``num_documents`` papers (in year order) as
    raw titles checked to round-trip, with their docs and planted truth.

    Returns ``(texts, docs, truth)``.
    """
    from repro.datasets import generate_dblp
    from repro.datasets.synthetic_dblp import DBLPConfig

    # A seed whose advisor forest stays too small to give enough papers
    # is followed, deterministically, by derived generator seeds.
    for attempt in range(10):
        dataset = generate_dblp(DBLPConfig(max_authors=max_authors),
                                seed=[seed, attempt] if attempt else seed)
        corpus = dataset.corpus
        if len(corpus) >= num_documents:
            break
    else:
        raise ValueError(f"seed {seed} never gave {num_documents} papers")
    docs = [corpus[i] for i in range(num_documents)]
    texts = [document_text(corpus.vocabulary, doc) for doc in docs]
    check_round_trip(corpus.vocabulary, docs, texts)
    return texts, docs, dataset.ground_truth


@dataclass
class DBLPInputs:
    """Raw ``mine_dblp`` input plus the planted truth it was drawn from."""

    texts: List[str]
    entities: List[Dict[str, List[str]]]
    years: List[int]
    truth: Any  # repro.datasets.GroundTruth


def dblp_inputs(seed: int, num_documents: int = NUM_DOCUMENTS,
                max_authors: int = GENERATED_AUTHORS) -> DBLPInputs:
    """Synthetic DBLP titles with a long tail of leaf-specific words.

    The generator alone gives ~220 terms.  Each title gains 1-2 words
    drawn, Zipf-distributed, from a pool private to its planted leaf;
    each tail word is its own comma-separated chunk, so it never joins
    a planted phrase.
    """
    texts, docs, truth = dblp_dataset(seed, num_documents, max_authors)
    rng = np.random.default_rng([seed, 1])
    paths = truth.doc_topic_paths[:len(docs)]
    leaves = sorted(set(paths))
    words = pseudo_words(len(leaves) * TAIL_POOL, rng,
                         exclude={w for t in texts for w in t.split()})
    pools = {leaf: words[i * TAIL_POOL:(i + 1) * TAIL_POOL]
             for i, leaf in enumerate(leaves)}
    weights = 1.0 / np.arange(1, TAIL_POOL + 1) ** TAIL_EXPONENT
    weights /= weights.sum()
    lo, hi = TAIL_WORDS
    counts = rng.integers(lo, hi + 1, size=len(texts))
    picks = rng.choice(TAIL_POOL, size=int(counts.sum()), p=weights)
    out, cursor = [], 0
    for text, leaf, n in zip(texts, paths, counts):
        tail = [pools[leaf][i] for i in picks[cursor:cursor + n]]
        cursor += n
        out.append(", ".join([text] + tail))
    return DBLPInputs(texts=out,
                      entities=[dict(doc.entities) for doc in docs],
                      years=[doc.year for doc in docs], truth=truth)


def ingest_batches(seed: int, num_batches: int,
                   num_documents: int = NUM_DOCUMENTS,
                   max_authors: int = GENERATED_AUTHORS,
                   ) -> List[List[Dict[str, Any]]]:
    """The generator's papers in year order as raw-text batches.

    Keeps the generator's own vocabulary: STROD's second moment is a
    dense V x V array, so a long tail would make this a memory test.
    """
    texts, docs, _ = dblp_dataset(seed, num_documents, max_authors)
    raw = [{"text": text, "entities": dict(doc.entities), "year": doc.year,
            "label": doc.label} for text, doc in zip(texts, docs)]
    bounds = np.linspace(0, len(raw), num_batches + 1).astype(int)
    return [raw[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _canonical(model: Dict[str, Any]) -> bytes:
    return json.dumps(model, sort_keys=True, allow_nan=False,
                      separators=(",", ":")).encode("utf-8")


def model_document(seed: int, num_terms: int = 20_000,
                   phrases_per_topic: int = 1_200, num_authors: int = 6_000,
                   ranks_per_topic: int = 1_500) -> Dict[str, Any]:
    """A production-sized v1 model document (9 topics, 20k terms).

    Every topic carries a phi row over the full vocabulary, so an
    uncached topic detail sorts 20k entries; phrases are 2-3 words from
    a seeded pseudo-word list, so prefix and substring searches match
    realistic numbers of phrases.
    """
    import repro
    from repro.serve import vocabulary_hash

    rng = np.random.default_rng([seed, 2])
    vocabulary = pseudo_words(num_terms, rng)
    authors = [f"author{i:05d}" for i in range(num_authors)]
    word_pool = vocabulary[:2_000]

    def topic_record(path: List[int], notation: str) -> Dict[str, Any]:
        phi_values = rng.random(num_terms)
        phi_values /= phi_values.sum()
        phrase_set = set()
        while len(phrase_set) < phrases_per_topic:
            size = int(rng.integers(2, 4))
            phrase_set.add(" ".join(word_pool[i] for i in
                                    rng.integers(len(word_pool), size=size)))
        scores = np.sort(rng.random(phrases_per_topic))[::-1]
        ranked = rng.permutation(num_authors)[:ranks_per_topic]
        rank_scores = np.sort(rng.random(ranks_per_topic))[::-1]
        return {"path": path, "notation": notation,
                "rho": float(rng.random()),
                "phi": {"term": dict(zip(vocabulary, phi_values.tolist()))},
                "phrases": [[p, s] for p, s in
                            zip(sorted(phrase_set), scores.tolist())],
                "entity_ranks": {"author": [
                    [authors[i], s] for i, s in
                    zip(ranked.tolist(), rank_scores.tolist())]},
                "children": []}

    root = topic_record([], "o")
    notations = ["o"]
    for child in range(NUM_CHILDREN):
        notation = f"o/{child + 1}"
        root["children"].append(topic_record([child], notation))
        notations.append(notation)
    role_counts = rng.integers(1, 50, size=(num_authors, ROLES_PER_AUTHOR))
    entity_roles = {"author": {
        name: {notations[(i + j) % len(notations)]: float(role_counts[i, j])
               for j in range(ROLES_PER_AUTHOR)}
        for i, name in enumerate(authors)}}
    model = {"vocabulary": vocabulary, "hierarchy": root,
             "entity_roles": entity_roles}
    model = json.loads(_canonical(model).decode("utf-8"))
    manifest = {
        "schema": "repro.serve/model/v1",
        "created_unix": time.time(),
        "repro_version": repro.get_version(),
        "config": {"seed": seed},
        "vocab_hash": vocabulary_hash(model["vocabulary"]),
        "payload_crc32": zlib.crc32(_canonical(model)) & 0xFFFFFFFF,
        "vocab_size": num_terms,
        "num_documents": 0,
        "num_topics": 1 + NUM_CHILDREN,
        "entity_types": ["author"],
    }
    return {"schema": "repro.serve/model/v1", "manifest": manifest,
            "model": model}


#: The ``query_keepalive`` request kinds.  ``benchmarks/bench_serve.py``
#: splits its HTTP load equally over these four; the mix keeps that split
#: and adds ``POST /v1/batch`` as a fifth equal share, each batch carrying
#: one op of each kind.  No record of real traffic on this API exists,
#: so the shares are that benchmark's assumption, not measured use.
QUERY_KINDS = ("topic", "search_prefix", "search_substring", "entity")


def query_mix(seed: int, count: int, document: Dict[str, Any]) -> List[Any]:
    """``count`` requests against ``document``, in shuffled blocks of one
    request of each of :data:`QUERY_KINDS` and one batch.

    Exact shares per block keep the median from jumping between request
    kinds as a seed's draw shifts their proportions.  Each size
    parameter is drawn uniformly from 1 to twice the router's default
    less one, so the mean request asks for the default sizes; that
    spread is an assumption, chosen so the key space (9 topics x 19
    phrase counts x 19 term counts x 9 entity counts for topic details
    alone) dwarfs the server's 1024-entry cache and most requests miss.
    """
    from loadgen import Request

    rng = np.random.default_rng([seed, 3])
    model = document["model"]
    topics = ["o"] + [c["notation"] for c in model["hierarchy"]["children"]]
    authors = sorted(model["entity_roles"]["author"])
    words = model["vocabulary"][:2_000]

    def around(default: int) -> int:
        return int(rng.integers(1, 2 * default))

    def topic_args():
        return {"topic_id": topics[rng.integers(len(topics))],
                "max_phrases": around(10), "max_terms": around(10),
                "max_entities": around(5)}

    def prefix_args():
        word = words[rng.integers(len(words))]
        return {"query": word[:int(rng.integers(2, 5))], "mode": "prefix",
                "limit": around(10)}

    def substring_args():
        word = words[rng.integers(len(words))]
        cut = int(rng.integers(0, len(word) - 2))
        return {"query": word[cut:cut + 3], "mode": "substring",
                "limit": around(10)}

    def entity_args():
        return {"name": authors[rng.integers(len(authors))],
                "entity_type": "author",
                "topic": topics[rng.integers(len(topics))]}

    def get(kind, args):
        if kind == "topic":
            return Request(kind, "GET", (
                f"/v1/topics/{args['topic_id']}?phrases="
                f"{args['max_phrases']}&terms={args['max_terms']}"
                f"&entities={args['max_entities']}"))
        if kind == "entity":
            return Request(kind, "GET", (
                f"/v1/entities/{args['name']}?type={args['entity_type']}"
                f"&topic={args['topic']}"))
        return Request(kind, "GET", (
            f"/v1/search?q={args['query']}&mode={args['mode']}"
            f"&limit={args['limit']}"))

    draws = {"topic": topic_args, "search_prefix": prefix_args,
             "search_substring": substring_args, "entity": entity_args}
    ops = {"topic": "topic", "search_prefix": "search_phrases",
           "search_substring": "search_phrases", "entity": "entity_roles"}
    block = list(QUERY_KINDS) + ["batch"]
    kinds: List[str] = []
    while len(kinds) < count:
        kinds.extend(block[i] for i in rng.permutation(len(block)))
    requests = []
    for kind in kinds[:count]:
        if kind == "batch":
            members = [QUERY_KINDS[i]
                       for i in rng.permutation(len(QUERY_KINDS))]
            body = [{"op": ops[m], "args": draws[m]()} for m in members]
            requests.append(Request("batch", "POST", "/v1/batch",
                                    json.dumps(body).encode("utf-8")))
        else:
            requests.append(get(kind, draws[kind]()))
    return requests


def engine_call(engine, request) -> Any:
    """Answer ``request`` in process, as the server's router would."""
    from urllib.parse import parse_qs, unquote, urlparse

    if request.kind == "batch":
        return engine.batch(json.loads(request.body))
    parsed = urlparse(request.path)
    params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
    parts = [unquote(p) for p in parsed.path.strip("/").split("/")]
    if request.kind == "topic":
        return engine.topic("/".join(parts[2:]),
                            max_phrases=int(params["phrases"]),
                            max_entities=int(params["entities"]),
                            max_terms=int(params["terms"]))
    if request.kind == "entity":
        return engine.entity_roles("/".join(parts[2:]),
                                   entity_type=params["type"],
                                   topic=params["topic"])
    return engine.search_phrases(params["q"], mode=params["mode"],
                                 limit=int(params["limit"]))
