"""Constructing networks from a corpus (Sections 3.1 and 3.2).

Two builders are provided:

* :func:`build_term_network` — the term co-occurrence network G^o of
  Section 3.1, used by text-only CATHY.
* :func:`build_collapsed_network` — the collapsed heterogeneous network of
  Section 3.2 / Example 3.1: term–term co-occurrence links plus
  term–entity and entity–entity links derived from document attachments.

Both are one sparse Gram product.  With M the document × object
incidence matrix over the stacked node space — a 1 for every distinct
kept term of a document, and every entity's mention count — entry
(a, b) of MᵀM counts the documents in which a and b co-occur, which is
exactly Example 3.1's link weight.  The links are the strict upper
triangle: the diagonal is dropped, because an object never links to
itself, and stacking the node types in name order makes the upper
triangle the canonical link-type order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..corpus import Corpus
from ..errors import DataError
from .weighted import HeterogeneousNetwork

TERM_TYPE = "term"

#: One node type's names and its document × node block of M.
_Block = Tuple[List[str], sparse.csr_matrix]


def _term_block(corpus: Corpus, min_count: int) -> _Block:
    """The kept terms and the document × term 0/1 incidence.

    Terms are numbered in the order a per-document walk meets them: the
    first document containing the term, then token-id order within it.
    """
    tokens = corpus.tokens
    vocab_size = len(corpus.vocabulary)
    counts = sparse.csr_matrix(
        (np.ones(len(tokens)), tokens, corpus.doc_offsets),
        shape=(len(corpus), vocab_size))
    counts.sum_duplicates()
    kept = np.bincount(tokens, minlength=vocab_size) >= min_count
    keep = kept[counts.indices]
    words = counts.indices[keep]
    used, first = np.unique(words, return_index=True)
    order = used[np.argsort(first, kind="stable")]
    node_of = np.zeros(vocab_size, dtype=np.int64)
    node_of[order] = np.arange(len(order))
    indptr = np.concatenate(([0], np.cumsum(keep)))[counts.indptr]
    block = sparse.csr_matrix(
        (np.ones(len(words)), node_of[words], indptr),
        shape=(len(corpus), len(order)))
    return [corpus.vocabulary.word_of(w) for w in order.tolist()], block


def _entity_block(corpus: Corpus, entity_type: str) -> _Block:
    """One entity type's names and its document × entity mention counts
    (a name listed twice in a document counts twice)."""
    links = corpus.entity_links(entity_type)
    block = sparse.csr_matrix(
        (np.ones(len(links.ids)), links.ids, links.indptr),
        shape=(len(corpus), len(links.names)))
    return links.names, block


def _gram_network(blocks: Dict[str, _Block]) -> HeterogeneousNetwork:
    """The network whose links are the strict upper triangle of MᵀM, for
    M the blocks stacked in node-type name order."""
    if not blocks:
        return HeterogeneousNetwork()
    types = sorted(blocks)
    incidence = sparse.hstack([blocks[t][1] for t in types], format="csr")
    gram = (incidence.T @ incidence).tocsr()
    gram.sort_indices()
    rows = np.repeat(np.arange(gram.shape[0], dtype=gram.indices.dtype),
                     np.diff(gram.indptr))
    upper = gram.indices > rows
    return HeterogeneousNetwork({t: blocks[t][0] for t in types},
                                rows[upper], gram.indices[upper],
                                gram.data[upper])


def build_term_network(corpus: Corpus,
                       min_count: int = 1) -> HeterogeneousNetwork:
    """Build the term co-occurrence network from ``corpus``.

    Every unordered pair of distinct terms co-occurring in a document
    contributes one unit of link weight, following Section 3.1 ("the number
    of links e_ij ... is equal to the number of co-occurrences of the two
    terms").  Terms below ``min_count`` corpus frequency are skipped.
    """
    return _gram_network({TERM_TYPE: _term_block(corpus, min_count)})


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
            present in the corpus.  A type listed twice is included once.
        min_count: minimum corpus frequency for a term to enter the network.
        include_text: set ``False`` to build a text-absent network (the
            degenerate case G^o = H discussed in Section 3.2).

    Raises:
        DataError: an included entity type is named ``"term"`` while the
            text is included, so its entities would merge into the words.
    """
    if entity_types is None:
        entity_types = corpus.entity_types()
    entity_types = list(dict.fromkeys(entity_types))
    if include_text and TERM_TYPE in entity_types:
        raise DataError(
            f"entity type {TERM_TYPE!r} clashes with the word nodes of "
            f"the collapsed network; rename it or pass include_text=False")
    blocks = {t: _entity_block(corpus, t) for t in entity_types}
    if include_text:
        blocks[TERM_TYPE] = _term_block(corpus, min_count)
    return _gram_network(blocks)


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
