"""Topical frequency estimation shared by KERT and ToPMine.

Definition 3 splits a phrase's frequency among subtopics; Eq. 4.3 / 4.8
estimate the split from a fitted topic model: the share of subtopic z is
proportional to ``rho_z * prod_i phi_z(v_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..corpus import Corpus, Vocabulary
from ..errors import ConfigurationError
from ..utils import EPS
from .frequent import Phrase, PhraseCounts, chunk_continues, phrase_matrix


@dataclass
class FlatTopicModel:
    """A flat topic model in array form: shared currency across methods.

    Attributes:
        rho: topic proportions, shape (k,).
        phi: topic-word distributions, shape (k, V); rows sum to one.
    """

    rho: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        self.rho = np.asarray(self.rho, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.ndim != 2 or len(self.rho) != self.phi.shape[0]:
            raise ConfigurationError("rho length must match phi rows")

    @property
    def num_topics(self) -> int:
        """Number of topics k."""
        return self.phi.shape[0]

    @property
    def vocab_size(self) -> int:
        """Vocabulary size V."""
        return self.phi.shape[1]


def term_model_from_hin(hin_model, vocabulary: Vocabulary,
                        node_type: str = "term") -> FlatTopicModel:
    """Convert a fitted CATHYHIN model's term distributions to array form.

    Words absent from the network (filtered by min_count or isolated)
    receive probability ~0.
    """
    k = hin_model.num_topics
    phi = np.full((k, len(vocabulary)), EPS)
    names = hin_model.node_names.get(node_type, [])
    for idx, name in enumerate(names):
        if name in vocabulary:
            word_id = vocabulary.id_of(name)
            phi[:, word_id] = np.maximum(hin_model.phi[node_type][:, idx], EPS)
    phi /= phi.sum(axis=1, keepdims=True)
    rho = np.asarray(hin_model.rho, dtype=float)
    rho = rho / max(rho.sum(), EPS)
    return FlatTopicModel(rho=rho, phi=phi)


def phrase_topic_posterior(phrase: Sequence[int],
                           model: FlatTopicModel) -> np.ndarray:
    """p(t | P): the subtopic split weights of Eq. 4.3, normalized."""
    phrase = tuple(phrase)
    log_scores = np.log(np.maximum(model.rho, EPS))
    for word in phrase:
        log_scores = log_scores + np.log(np.maximum(model.phi[:, word], EPS))
    log_scores -= log_scores.max()
    scores = np.exp(log_scores)
    total = scores.sum()
    if total <= 0:
        return np.full(model.num_topics, 1.0 / model.num_topics)
    return scores / total


def topical_frequencies(counts: PhraseCounts,
                        model: FlatTopicModel,
                        ) -> Dict[Phrase, np.ndarray]:
    """f_t(P) for every frequent phrase: total frequency split by Eq. 4.3."""
    result: Dict[Phrase, np.ndarray] = {}
    for phrase, frequency in counts.counts.items():
        result[phrase] = frequency * phrase_topic_posterior(phrase, model)
    return result


@dataclass
class PhraseInstances:
    """Every document's frequent-phrase instances in flat form.

    Attributes:
        phrases: the phrases the instances point at.
        index: per instance, its phrase's position in ``phrases``;
            documents in corpus order.
        bounds: document ``d``'s instances are
            ``index[bounds[d]:bounds[d + 1]]``.
    """

    phrases: List[Phrase]
    index: np.ndarray
    bounds: np.ndarray

    @classmethod
    def from_lists(cls, doc_instances: Sequence[Sequence[Phrase]],
                   ) -> "PhraseInstances":
        """The flat form of per-document phrase lists, phrases numbered
        by first occurrence."""
        ids: Dict[Phrase, int] = {}
        index = np.fromiter((ids.setdefault(phrase, len(ids))
                             for phrases in doc_instances
                             for phrase in phrases), dtype=np.int64)
        bounds = np.zeros(len(doc_instances) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, doc_instances), dtype=np.int64,
                              count=len(doc_instances)), out=bounds[1:])
        return cls(list(ids), index, bounds)

    def per_document(self) -> List[List[Phrase]]:
        """Per document, its instances as phrase tuples."""
        flat = [self.phrases[i] for i in self.index.tolist()]
        bounds = self.bounds.tolist()
        return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def document_phrase_index(corpus: Corpus, counts: PhraseCounts,
                          max_length: int = 6) -> PhraseInstances:
    """Per document, all frequent-phrase instances (overlapping allowed).

    Used to decide which documents "contain at least one frequent topic-t
    phrase" for the N_t normalizer of Eq. 4.4.  Every chunk span of at
    most ``max_length`` tokens that ``counts`` holds is one instance; a
    document lists them in (start, length) order.  ``phrases`` are the
    counts' own tuples of at most ``max_length`` tokens, in count order.

    The spans are matched one length at a time against a trie of the
    counted phrases, so ``counts`` need not be closed under sub-phrases
    (itemset orders are not): a position moves to the next length while
    its span so far is a prefix of some counted phrase.
    """
    tokens = corpus.tokens
    phrases = [phrase for phrase in counts.counts
               if 1 <= len(phrase) <= max_length]
    if not phrases or not len(tokens):
        return PhraseInstances(phrases, np.zeros(0, dtype=np.int64),
                               np.zeros(len(corpus) + 1, dtype=np.int64))
    trie = _PhraseTrie(phrases, int(tokens.max()) + 1)
    follows = chunk_continues(corpus.chunk_lengths)

    starts = [np.zeros(0, dtype=np.int64)]
    found = [np.zeros(0, dtype=np.int64)]
    node = np.zeros(len(tokens), dtype=np.int64)
    at = np.arange(len(tokens))
    for length in range(1, max_length + 1):
        if length > 1:
            # Extend only spans whose next token is in the same chunk.
            keep = follows[at + length - 2]
            at, node = at[keep], node[keep]
        node = trie.step(node, tokens[at + length - 1])
        live = node >= 0
        at, node = at[live], node[live]
        if not len(at):
            break
        phrase_index = trie.phrase_of[node]
        hit = phrase_index >= 0
        starts.append(at[hit])
        found.append(phrase_index[hit])
    # Matches were found length by length: a stable sort by start puts
    # them in (start, length) order.
    start = np.concatenate(starts)
    order = np.argsort(start, kind="stable")
    bounds = np.searchsorted(start[order], corpus.doc_offsets)
    return PhraseInstances(phrases, np.concatenate(found)[order], bounds)


def document_phrase_instances(corpus: Corpus, counts: PhraseCounts,
                              max_length: int = 6,
                              ) -> List[List[Phrase]]:
    """:func:`document_phrase_index` as per-document lists of the
    counts' own phrase tuples."""
    return document_phrase_index(corpus, counts, max_length).per_document()


class _PhraseTrie:
    """Prefix trie over phrases, with edges as sorted integer keys.

    Node 0 is the empty prefix and nodes are numbered depth by depth,
    so the edge keys ``node * width + token`` come out sorted and the
    edge in slot ``i`` leads to node ``i + 1``: one ``np.searchsorted``
    steps many positions at once.  Tokens outside ``[0, width)`` have no
    edge, so phrases holding one never match.
    """

    def __init__(self, phrases: Sequence[Phrase], width: int) -> None:
        self.width = width
        size, padded = phrase_matrix(phrases, fill=-1)
        tip = np.zeros(len(phrases), dtype=np.int64)
        edge_keys = []
        num_nodes = 1
        for depth in range(padded.shape[1]):
            rows = np.flatnonzero(size > depth)
            token = padded[rows, depth]
            inside = (token >= 0) & (token < width)
            size[rows[~inside]] = 0
            rows, token = rows[inside], token[inside]
            keys, child = np.unique(tip[rows] * width + token,
                                    return_inverse=True)
            tip[rows] = num_nodes + child
            edge_keys.append(keys)
            num_nodes += len(keys)
        self.keys = np.concatenate(edge_keys)
        self.phrase_of = np.full(num_nodes, -1, dtype=np.int64)
        whole = np.flatnonzero(size > 0)
        self.phrase_of[tip[whole]] = whole

    def step(self, node: np.ndarray, token: np.ndarray) -> np.ndarray:
        """The child of each ``node`` on its ``token`` (-1 when none)."""
        if not len(self.keys):
            return np.full(len(node), -1, dtype=np.int64)
        keys = node * self.width + token
        slot = np.minimum(np.searchsorted(self.keys, keys),
                          len(self.keys) - 1)
        return np.where(self.keys[slot] == keys, slot + 1, -1)


def render_phrase(phrase: Iterable[int], vocabulary: Vocabulary) -> str:
    """Token ids -> space-joined phrase string."""
    return " ".join(vocabulary.decode(list(phrase)))
