"""Constructing networks from a corpus (Sections 3.1 and 3.2).

Two builders are provided:

* :func:`build_term_network` — the term co-occurrence network G^o of
  Section 3.1, used by text-only CATHY.
* :func:`build_collapsed_network` — the collapsed heterogeneous network of
  Section 3.2 / Example 3.1: term–term co-occurrence links plus
  term–entity and entity–entity links derived from document attachments.

Both assemble edge lists from flat arrays over the whole corpus: one
:func:`numpy.unique` over (document, kept token) keys gives every
document's distinct terms as one contiguous run, all unordered pairs of
a run come from one cached ``triu_indices`` template per run length, and
entity–term stars are a ``repeat`` of each entity occurrence over its
document's run.  Tokens and entity links come straight from the corpus
arrays, with no per-document Python work.  Each link type's whole
column goes to :meth:`HeterogeneousNetwork.add_links` once, and the
network's COO→CSR freeze deduplicates and sums it in a single
vectorized pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..corpus import Corpus
from ..errors import DataError
from ..utils import run_pairs, run_positions
from .weighted import HeterogeneousNetwork, LinkType, canonical_link_type

TERM_TYPE = "term"

#: One (i_parts, j_parts) column accumulator per canonical link type.
_Columns = Dict[LinkType, Tuple[List[np.ndarray], List[np.ndarray]]]


def _add_column(columns: _Columns, type_x: str, i_idx: np.ndarray,
                type_y: str, j_idx: np.ndarray) -> None:
    """Append one unit-weight edge column (canonicalized by type)."""
    link_type = canonical_link_type(type_x, type_y)
    if (type_x, type_y) != link_type:
        i_idx, j_idx = j_idx, i_idx
    parts = columns.setdefault(link_type, ([], []))
    parts[0].append(i_idx)
    parts[1].append(j_idx)


def _flush(columns: _Columns, network: HeterogeneousNetwork) -> None:
    """Hand every accumulated column to the network in one call per type."""
    for link_type, (i_parts, j_parts) in columns.items():
        network.add_links(link_type[0], np.concatenate(i_parts),
                          link_type[1], np.concatenate(j_parts))


def _document_terms(corpus: Corpus, network: HeterogeneousNetwork,
                    min_count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Register the kept terms and return every document's term run.

    Returns ``(term_ids, starts)``: document ``d``'s distinct kept terms,
    in token-id order, are the network node ids
    ``term_ids[starts[d]:starts[d + 1]]``.  Terms register in the order
    a per-document walk meets them: first document containing the term,
    then token-id order within it.
    """
    tokens = corpus.tokens
    docs = np.repeat(np.arange(len(corpus), dtype=np.int64),
                     np.diff(corpus.doc_offsets))
    vocab_size = len(corpus.vocabulary)
    kept = np.bincount(tokens, minlength=vocab_size)[tokens] >= min_count
    keys = np.unique(docs[kept] * vocab_size + tokens[kept])
    key_docs = keys // vocab_size
    key_tokens = keys - key_docs * vocab_size
    words, first_key = np.unique(key_tokens, return_index=True)
    words = words[np.argsort(first_key, kind="stable")]
    node_of = np.zeros(vocab_size, dtype=np.int64)
    node_of[words] = network.add_nodes(
        TERM_TYPE, [corpus.vocabulary.word_of(w) for w in words.tolist()])
    starts = np.searchsorted(key_docs, np.arange(len(corpus) + 1))
    return node_of[key_tokens], starts


def build_term_network(corpus: Corpus,
                       min_count: int = 1) -> HeterogeneousNetwork:
    """Build the term co-occurrence network from ``corpus``.

    Every unordered pair of distinct terms co-occurring in a document
    contributes one unit of link weight, following Section 3.1 ("the number
    of links e_ij ... is equal to the number of co-occurrences of the two
    terms").  Terms below ``min_count`` corpus frequency are skipped.
    """
    network = HeterogeneousNetwork(node_types=[TERM_TYPE])
    term_ids, starts = _document_terms(corpus, network, min_count)
    first, second = run_pairs(starts[:-1], np.diff(starts))
    network.add_links(TERM_TYPE, term_ids[first], TERM_TYPE,
                      term_ids[second])
    return network


def build_collapsed_network(corpus: Corpus,
                            entity_types: Optional[Sequence[str]] = None,
                            min_count: int = 1,
                            include_text: bool = True,
                            ) -> HeterogeneousNetwork:
    """Collapse a text-attached HIN into an edge-weighted network.

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

    Raises:
        DataError: an included entity type is named ``"term"`` while the
            text is included, so its entities would merge into the words.
    """
    if entity_types is None:
        entity_types = corpus.entity_types()
    entity_types = list(entity_types)
    if include_text and TERM_TYPE in entity_types:
        raise DataError(
            f"entity type {TERM_TYPE!r} clashes with the word nodes of "
            f"the collapsed network; rename it or pass include_text=False")

    node_types = list(entity_types)
    if include_text:
        node_types.append(TERM_TYPE)
    network = HeterogeneousNetwork(node_types=node_types)
    columns: _Columns = {}

    if include_text:
        term_ids, term_starts = _document_terms(corpus, network, min_count)
        first, second = run_pairs(term_starts[:-1], np.diff(term_starts))
        _add_column(columns, TERM_TYPE, term_ids[first], TERM_TYPE,
                    term_ids[second])
        term_counts = np.diff(term_starts)

    # Entity occurrences of every included type, document after document;
    # a name listed twice in one document occurs twice.  Each type's
    # names are numbered in order of first mention, the order the
    # network registers them in.
    counts: List[np.ndarray] = []
    occ_doc: List[np.ndarray] = []
    occ_id: List[np.ndarray] = []
    for entity_type in entity_types:
        links = corpus.entity_links(entity_type)
        ids = network.add_nodes(entity_type, links.names)[links.ids]
        docs = links.documents()
        counts.append(np.diff(links.indptr))
        occ_doc.append(docs)
        occ_id.append(ids)
        if include_text:
            reps = term_counts[docs]
            _add_column(columns, entity_type, np.repeat(ids, reps),
                        TERM_TYPE, term_ids[run_positions(
                            term_starts[docs], reps)])

    # Entity–entity pairs over each document's occurrences in
    # (entity type, listing) order; an entity never links to itself.
    if entity_types:
        # A type listed twice in ``entity_types`` is still one node type.
        same_type = np.asarray([entity_types.index(t) for t in entity_types])
        occ_type = np.repeat(np.arange(len(entity_types)),
                             [len(ids) for ids in occ_id])
        by_doc = np.argsort(np.concatenate(occ_doc), kind="stable")
        occ_type = occ_type[by_doc]
        all_ids = np.concatenate(occ_id)[by_doc]
        per_doc = np.sum(counts, axis=0, dtype=np.int64)
        first, second = run_pairs(np.cumsum(per_doc) - per_doc, per_doc)
        type_a, type_b = occ_type[first], occ_type[second]
        id_a, id_b = all_ids[first], all_ids[second]
        distinct = (same_type[type_a] != same_type[type_b]) | (id_a != id_b)
        pair_code = type_a * len(entity_types) + type_b
        for code in np.unique(pair_code[distinct]).tolist():
            mask = distinct & (pair_code == code)
            _add_column(columns, entity_types[code // len(entity_types)],
                        id_a[mask], entity_types[code % len(entity_types)],
                        id_b[mask])
    _flush(columns, network)
    return network


def network_statistics(network: HeterogeneousNetwork) -> dict:
    """Summary statistics in the shape of Table 3.4.

    Returns a dict with per-type node counts and per-link-type totals of
    link weight, suitable for printing the dataset summary table.
    """
    stats = {
        "nodes": {t: network.node_count(t) for t in network.node_types()},
        "links": {},
    }
    for link_type in network.link_types():
        stats["links"]["-".join(link_type)] = {
            "pairs": network.num_links(link_type),
            "weight": network.total_weight(link_type),
        }
    return stats
