"""Document and corpus containers.

A :class:`Corpus` is the text-attached network of Definition 1 held as
arrays over one shared :class:`~repro.corpus.vocabulary.Vocabulary`:

* the documents' chunked token sequences as one int64 token array, with
  the length of every chunk and the chunk count of every document;
* every document–entity relation (authors, venues, persons, ...) as one
  document → entity-id CSR per entity type (:class:`EntityLinks`);
* a year per document (Chapter 6 reads it) and an optional ground-truth
  label.

Every mining stage reads these arrays.  Indexing or iterating a corpus
yields :class:`Document` views built from them, holding plain Python
values.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from itertools import chain
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..errors import DataError
from .tokenize import DEFAULT_STOPWORDS, encode_texts
from .vocabulary import Vocabulary

#: The entity types a document lists, in its mapping's key order.
KeyOrder = Tuple[str, ...]


@dataclass
class Document:
    """One text-attached node of the data model (Definition 1).

    Attributes:
        doc_id: stable identifier within the corpus.
        chunks: token-id sequences, one per phrase-invariant chunk.
        entities: mapping from entity type name (e.g. ``"author"``) to the
            list of entity names linked to this document.
        year: optional timestamp used by relation mining (Chapter 6).
        label: optional ground-truth topic label (used only for evaluation,
            e.g. the MI_K experiment of Section 4.4.1).
    """

    doc_id: int
    chunks: List[List[int]]
    entities: Dict[str, List[str]] = field(default_factory=dict)
    year: Optional[int] = None
    label: Optional[str] = None

    @property
    def tokens(self) -> List[int]:
        """All token ids in document order, chunk boundaries flattened."""
        return [tok for chunk in self.chunks for tok in chunk]

    @property
    def length(self) -> int:
        """Total number of tokens."""
        return sum(len(chunk) for chunk in self.chunks)

    def entity_list(self, entity_type: str) -> List[str]:
        """Entities of ``entity_type`` linked to this document ([] if none)."""
        return self.entities.get(entity_type, [])


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, counts[0], counts[0] + counts[1], ...]`` as int64."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return _frozen(offsets)


@dataclass(frozen=True, eq=False)
class EntityLinks:
    """One entity type's document → entity relation as a CSR.

    Document ``d`` links the entities ``ids[indptr[d]:indptr[d + 1]]`` in
    listing order (a name listed twice is linked twice).  Entity ``e`` is
    named ``names[e]``, and entities are numbered in order of first
    mention, so ``names`` holds exactly the mentioned names.
    """

    indptr: np.ndarray
    ids: np.ndarray
    names: List[str]

    @classmethod
    def from_counts(cls, counts: np.ndarray,
                    names: Sequence[str]) -> "EntityLinks":
        """The links of documents listing ``counts[d]`` names each, the
        names of all documents given in order as one flat sequence."""
        index: Dict[str, int] = {}
        ids = np.asarray([index.setdefault(name, len(index))
                          for name in names], dtype=np.int64)
        return cls(_offsets(counts), _frozen(ids.reshape(-1)), list(index))

    @classmethod
    def empty(cls, num_documents: int) -> "EntityLinks":
        """Links of ``num_documents`` documents listing no name."""
        return cls(_frozen(np.zeros(num_documents + 1, dtype=np.int64)),
                   _frozen(np.zeros(0, dtype=np.int64)), [])

    def documents(self) -> np.ndarray:
        """The document of every link, in link order."""
        return np.repeat(np.arange(len(self.indptr) - 1, dtype=np.int64),
                         np.diff(self.indptr))

    def names_of(self, doc_id: int) -> List[str]:
        """The names document ``doc_id`` lists, in listing order."""
        names = self.names
        lo, hi = self.indptr[doc_id:doc_id + 2].tolist()
        return [names[e] for e in self.ids[lo:hi].tolist()]

    def lists(self) -> List[List[str]]:
        """Every document's names, in listing order."""
        names = self.names
        flat = [names[e] for e in self.ids.tolist()]
        bounds = self.indptr.tolist()
        return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def documents_of(self, names: Iterable[str]) -> np.ndarray:
        """Sorted ids of the documents linking any of ``names``."""
        wanted = set(names)
        chosen = np.fromiter((name in wanted for name in self.names),
                             dtype=bool, count=len(self.names))
        return np.unique(self.documents()[chosen[self.ids]])


def _entity_relations(entities: Optional[Sequence[Any]], num_docs: int,
                      ) -> Tuple[Dict[str, EntityLinks], List[KeyOrder],
                                 np.ndarray]:
    """Check every document's entity mapping and store them as arrays.

    Returns the links of every listed type (in first-listed order), the
    distinct key orders, and each document's key order index.  A bare
    string as a name list would otherwise be read as one name per
    character, so it is refused, as is any name that is not a string.
    """
    if entities is None:
        return {}, [()], np.zeros(num_docs, dtype=np.int64)
    listed: Dict[str, Tuple[List[int], List[int], List[str]]] = {}
    key_index: Dict[KeyOrder, int] = {}
    doc_keys: List[int] = []
    for doc_id, mapping in enumerate(entities):
        if mapping is None:
            mapping = {}
        elif type(mapping) is not dict \
                and not isinstance(mapping, MappingABC):
            raise DataError(f"document {doc_id}: entities must map entity "
                            f"types to lists of names, got "
                            f"{type(mapping).__name__}")
        for entity_type, names in mapping.items():
            if type(entity_type) is not str:
                raise DataError(f"document {doc_id}: entity type "
                                f"{entity_type!r} is not a string")
            if isinstance(names, str):
                raise DataError(f"document {doc_id}: entity type "
                                f"{entity_type!r} maps to the string "
                                f"{names!r}; give a list of names")
            try:
                if type(names) is not list:
                    names = list(names)
                "".join(names)  # one C-level pass: every name is a str
            except TypeError:
                raise DataError(f"document {doc_id}: entity type "
                                f"{entity_type!r} needs a list of string "
                                f"names, got {names!r}") from None
            bucket = listed.get(entity_type)
            if bucket is None:
                bucket = listed[entity_type] = ([], [], [])
            bucket[0].append(doc_id)
            bucket[1].append(len(names))
            bucket[2].extend(names)
        doc_keys.append(key_index.setdefault(tuple(mapping),
                                             len(key_index)))
    links = {}
    for entity_type, (docs, counts, names) in listed.items():
        per_doc = np.zeros(num_docs, dtype=np.int64)
        per_doc[docs] = counts
        links[entity_type] = EntityLinks.from_counts(per_doc, names)
    return (links, list(key_index) or [()],
            np.asarray(doc_keys, dtype=np.int64).reshape(-1))


def _integer_kinds(values: Iterable[Any]) -> bool:
    """True when every value is an int (numpy integers included, bools
    not)."""
    return all(kind is not bool and issubclass(kind, (int, np.integer))
               for kind in set(map(type, values)))


def _year_arrays(years: Optional[Sequence[Any]],
                 num_docs: int) -> Tuple[np.ndarray, np.ndarray]:
    """Each document's year (0 when unknown) and whether it has one.

    Raises:
        DataError: a year that is not a 64-bit integer (or None).
    """
    values = np.zeros(num_docs, dtype=np.int64)
    known = np.zeros(num_docs, dtype=bool)
    if years is not None:
        known[:] = [year is not None for year in years]
        given = [year for year in years if year is not None]
        if not _integer_kinds(given) \
                or not all(-2**63 <= year < 2**63 for year in given):
            bad = next(doc_id for doc_id, year in enumerate(years)
                       if year is not None and not (
                           _integer_kinds([year]) and -2**63 <= year < 2**63))
            raise DataError(f"document {bad}: year {years[bad]!r} is not a "
                            f"64-bit integer")
        values[known] = given
    return _frozen(values), _frozen(known)


class Corpus:
    """An ordered document collection with a shared vocabulary, as arrays.

    Build one with :meth:`from_texts` (raw strings) or :meth:`from_chunks`
    (token-id chunks, e.g. a saved dataset); :meth:`add_document` appends
    one pre-tokenized document to a small hand-built corpus.

    Attributes:
        vocabulary: the shared word ↔ id mapping.
        tokens: every token id in document and chunk order (int64).
        chunk_lengths: the length of every chunk, in that order.
        doc_chunks: each document's chunk count.
        doc_offsets: document ``d``'s tokens are
            ``tokens[doc_offsets[d]:doc_offsets[d + 1]]``.
        years: each document's year, 0 where ``has_year`` is False.
        has_year: whether each document carries a year.
        labels: each document's ground-truth label (or None).

    The arrays are read-only; every stage reads them in place.
    """

    def __init__(self, vocabulary: Optional[Vocabulary] = None) -> None:
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        empty = np.zeros(0, dtype=np.int64)
        self._adopt(empty, empty, empty, None, None, None)

    def _adopt(self, tokens: np.ndarray, chunk_lengths: np.ndarray,
               doc_chunks: np.ndarray, entities: Optional[Sequence[Any]],
               years: Optional[Sequence[Any]],
               labels: Optional[Sequence[Any]]) -> None:
        """Take the token arrays; check and store every document's
        entities, year and label (parallel sequences, or None)."""
        num_docs = len(doc_chunks)
        links, key_orders, doc_keys = _entity_relations(entities, num_docs)
        self._adopt_arrays(tokens, chunk_lengths, doc_chunks, links,
                           key_orders, doc_keys,
                           *_year_arrays(years, num_docs),
                           list(labels) if labels is not None
                           else [None] * num_docs)

    def _adopt_arrays(self, tokens: np.ndarray, chunk_lengths: np.ndarray,
                      doc_chunks: np.ndarray, links: Dict[str, EntityLinks],
                      key_orders: List[KeyOrder], doc_keys: np.ndarray,
                      years: np.ndarray, has_year: np.ndarray,
                      labels: List[Any]) -> None:
        """Take every array of an already checked corpus."""
        self._links, self._key_orders = links, key_orders
        self._doc_keys = _frozen(doc_keys)
        self.years, self.has_year = _frozen(years), _frozen(has_year)
        self.labels = labels
        self.tokens = _frozen(tokens)
        self.chunk_lengths = _frozen(chunk_lengths)
        self.doc_chunks = _frozen(doc_chunks)
        # Document d's chunks are chunk_starts[d] .. chunk_starts[d + 1] - 1.
        self._chunk_starts = _offsets(doc_chunks)
        self.doc_offsets = _frozen(
            _offsets(chunk_lengths)[self._chunk_starts])

    # ------------------------------------------------------------------ build
    @classmethod
    def from_texts(cls,
                   texts: Iterable[str],
                   entities: Optional[Sequence[Mapping[str, Sequence[str]]]] = None,
                   years: Optional[Sequence[int]] = None,
                   labels: Optional[Sequence[str]] = None,
                   stopwords: Iterable[str] = DEFAULT_STOPWORDS) -> "Corpus":
        """Tokenize raw ``texts`` into a corpus.

        ``entities``, ``years`` and ``labels`` are optional parallel
        sequences aligned with ``texts``.  Each lowered text is scanned
        once (:func:`~repro.corpus.tokenize.encode_texts`); words get ids
        in first-seen order.
        """
        texts = list(texts)
        _check_aligned(len(texts), "texts", entities, years, labels)
        bad = next((i for i, text in enumerate(texts)
                    if not isinstance(text, str)), None)
        if bad is not None:
            raise DataError(f"text {bad} is not a string: {texts[bad]!r}")
        words, tokens, chunk_lengths, doc_chunks = encode_texts(
            texts, stopwords=stopwords)
        corpus = cls(Vocabulary(words))
        corpus._adopt(tokens, chunk_lengths, doc_chunks, entities, years,
                      labels)
        return corpus

    @classmethod
    def from_chunks(cls,
                    chunks: Sequence[Sequence[Sequence[int]]],
                    vocabulary: Vocabulary,
                    entities: Optional[Sequence[Mapping[str, Sequence[str]]]] = None,
                    years: Optional[Sequence[int]] = None,
                    labels: Optional[Sequence[str]] = None) -> "Corpus":
        """A corpus of pre-tokenized documents over ``vocabulary``.

        ``chunks[d]`` lists document ``d``'s token-id chunks; ids come
        from outside (a dataset file, a shard), so all of them are
        checked at once: each must be an integer (not a bool) in
        ``[0, len(vocabulary))``.

        Raises:
            DataError: a bad token id, chunk, entity mapping or year,
                named by its document, or misaligned metadata.
        """
        _check_aligned(len(chunks), "chunks", entities, years, labels)
        try:
            doc_chunks = np.fromiter(map(len, chunks), dtype=np.int64,
                                     count=len(chunks))
            flat_chunks = list(chain.from_iterable(chunks))
            chunk_lengths = np.fromiter(map(len, flat_chunks),
                                        dtype=np.int64,
                                        count=len(flat_chunks))
            flat = list(chain.from_iterable(flat_chunks))
        except TypeError:
            bad = next((d for d, doc in enumerate(chunks)
                        if not _is_chunk_list(doc)), 0)
            raise DataError(f"document {bad}: chunks must be "
                            f"lists of token ids, got "
                            f"{chunks[bad]!r}") from None
        doc_ends = _offsets(chunk_lengths)[_offsets(doc_chunks)[1:]]

        def bad_token(position: int, problem: str) -> DataError:
            doc = int(np.searchsorted(doc_ends, position, side="right"))
            return DataError(f"document {doc}: token id "
                             f"{flat[position]!r} {problem}")

        if not _integer_kinds(flat):
            position = next(i for i, tok in enumerate(flat)
                            if not _integer_kinds([tok]))
            raise bad_token(position, "is not an integer")
        vocab_size = len(vocabulary)
        try:
            tokens = np.asarray(flat, dtype=np.int64)
        except OverflowError:
            position = next(i for i, tok in enumerate(flat)
                            if not 0 <= tok < vocab_size)
            raise bad_token(position, f"outside vocabulary of size "
                                      f"{vocab_size}") from None
        outside = np.flatnonzero((tokens < 0) | (tokens >= vocab_size))
        if len(outside):
            raise bad_token(int(outside[0]), f"outside vocabulary of size "
                                             f"{vocab_size}")
        corpus = cls(vocabulary)
        corpus._adopt(tokens, chunk_lengths, doc_chunks, entities, years,
                      labels)
        return corpus

    @classmethod
    def concatenate(cls, parts: Sequence["Corpus"],
                    vocabulary: Vocabulary) -> "Corpus":
        """The documents of ``parts``, in order, as one corpus over
        ``vocabulary``.

        Equal, id for id, to :meth:`from_chunks` over the parts'
        documents: the token, chunk, year and label arrays are joined as
        they are, and each entity type's ids are renumbered through the
        parts' name tables into first mention order across the parts.
        Every part's token ids must index ``vocabulary``.

        Raises:
            DataError: a token id outside ``vocabulary``.
        """
        parts = [part for part in parts if len(part)]
        if not parts:
            return cls(vocabulary)
        tokens = np.concatenate([part.tokens for part in parts])
        if tokens.size and (tokens.min() < 0
                            or tokens.max() >= len(vocabulary)):
            raise DataError(f"token id outside vocabulary of size "
                            f"{len(vocabulary)}")
        links: Dict[str, EntityLinks] = {}
        for entity_type in dict.fromkeys(chain.from_iterable(
                part._links for part in parts)):
            typed = [part.entity_links(entity_type) for part in parts]
            names = list(dict.fromkeys(chain.from_iterable(
                part.names for part in typed)))
            index = dict(zip(names, range(len(names))))
            ids = [np.fromiter(map(index.__getitem__, part.names),
                               dtype=np.int64,
                               count=len(part.names))[part.ids]
                   for part in typed]
            links[entity_type] = EntityLinks(
                _offsets(np.concatenate([np.diff(part.indptr)
                                         for part in typed])),
                _frozen(np.concatenate(ids)), names)
        key_orders = list(dict.fromkeys(chain.from_iterable(
            part._key_orders for part in parts)))
        key_index = dict(zip(key_orders, range(len(key_orders))))
        doc_keys = np.concatenate([
            np.fromiter(map(key_index.__getitem__, part._key_orders),
                        dtype=np.int64,
                        count=len(part._key_orders))[part._doc_keys]
            for part in parts])
        corpus = cls(vocabulary)
        corpus._adopt_arrays(
            tokens, np.concatenate([part.chunk_lengths for part in parts]),
            np.concatenate([part.doc_chunks for part in parts]), links,
            key_orders, doc_keys,
            np.concatenate([part.years for part in parts]),
            np.concatenate([part.has_year for part in parts]),
            list(chain.from_iterable(part.labels for part in parts)))
        return corpus

    def add_document(self,
                     chunks: List[List[int]],
                     entities: Optional[Mapping[str, Sequence[str]]] = None,
                     year: Optional[int] = None,
                     label: Optional[str] = None) -> Document:
        """Append one pre-tokenized document and return its view.

        Checked as :meth:`from_chunks` checks a document; on an error the
        corpus is left as it was.  Each call rebuilds the corpus from its
        documents, so build large corpora in bulk instead.
        """
        grown = self._rebuilt(list(self) + [
            Document(len(self), chunks, entities, year, label)])
        vars(self).update(vars(grown))  # adopt the rebuilt arrays
        return self[len(self) - 1]

    def _rebuilt(self, docs: Sequence[Document]) -> "Corpus":
        """A corpus over this vocabulary holding ``docs``, checked as
        :meth:`from_chunks` checks them."""
        return Corpus.from_chunks(
            [doc.chunks for doc in docs], self.vocabulary,
            entities=[doc.entities for doc in docs],
            years=[doc.year for doc in docs],
            labels=[doc.label for doc in docs])

    # ------------------------------------------------------------------ views
    def __len__(self) -> int:
        return len(self.doc_chunks)

    def __iter__(self) -> Iterator[Document]:
        tokens = self.tokens.tolist()
        lengths = self.chunk_lengths.tolist()
        lists = {t: links.lists() for t, links in self._links.items()}
        key_orders = self._key_orders
        years = self.years.tolist()
        known = self.has_year.tolist()
        position = chunk = 0
        for doc_id, (count, keys) in enumerate(zip(
                self.doc_chunks.tolist(), self._doc_keys.tolist())):
            chunks = []
            for length in lengths[chunk:chunk + count]:
                chunks.append(tokens[position:position + length])
                position += length
            chunk += count
            yield Document(doc_id, chunks,
                           {t: lists[t][doc_id] for t in key_orders[keys]},
                           years[doc_id] if known[doc_id] else None,
                           self.labels[doc_id])

    def __getitem__(self, index: int) -> Document:
        doc_id = range(len(self))[index]
        first, stop = self._chunk_starts[doc_id:doc_id + 2].tolist()
        position, end = self.doc_offsets[doc_id:doc_id + 2].tolist()
        tokens = self.tokens[position:end].tolist()
        chunks = []
        for length in self.chunk_lengths[first:stop].tolist():
            chunks.append(tokens[:length])
            tokens = tokens[length:]
        keys = self._key_orders[int(self._doc_keys[doc_id])]
        return Document(doc_id, chunks,
                        {t: self._links[t].names_of(doc_id) for t in keys},
                        int(self.years[doc_id])
                        if self.has_year[doc_id] else None,
                        self.labels[doc_id])

    @property
    def documents(self) -> Tuple[Document, ...]:
        """All documents as an immutable tuple."""
        return tuple(self)

    @property
    def num_tokens(self) -> int:
        """Total token count L over the whole corpus."""
        return len(self.tokens)

    def token_lists(self) -> List[List[int]]:
        """Every document's token ids, chunk boundaries flattened."""
        tokens = self.tokens.tolist()
        bounds = self.doc_offsets.tolist()
        return [tokens[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def entity_types(self) -> List[str]:
        """All entity type names present anywhere in the corpus, sorted.

        A type counts as present when some document lists it, even with
        no names.
        """
        return sorted(set(chain.from_iterable(self._key_orders)))

    def entity_relations(self) -> Dict[str, EntityLinks]:
        """The document → entity CSR of every entity type some document
        lists, types in the order documents first list them."""
        return dict(self._links)

    def entity_links(self, entity_type: str) -> EntityLinks:
        """The document → entity CSR of ``entity_type`` (no links when no
        document lists the type)."""
        links = self._links.get(entity_type)
        return links if links is not None else EntityLinks.empty(len(self))

    def word_counts(self) -> Dict[int, int]:
        """Corpus-wide token frequency f(v) per word id, words in
        first-seen order."""
        ids, first, counts = np.unique(self.tokens, return_index=True,
                                       return_counts=True)
        order = np.argsort(first, kind="stable")
        return dict(zip(ids[order].tolist(), counts[order].tolist()))

    def document_frequency(self) -> Dict[int, int]:
        """Number of documents containing each word id at least once."""
        if not len(self.tokens):
            return {}
        docs = np.repeat(np.arange(len(self), dtype=np.int64),
                         np.diff(self.doc_offsets))
        width = len(self.vocabulary)
        pairs = np.unique(docs * width + self.tokens)
        counts = np.bincount(pairs % width, minlength=width)
        present = np.flatnonzero(counts)
        return dict(zip(present.tolist(), counts[present].tolist()))

    def subset(self, doc_ids: Sequence[int]) -> "Corpus":
        """A new corpus (sharing this vocabulary) with the given documents.

        Document ids are renumbered densely in the new corpus.
        """
        docs = list(self)
        return self._rebuilt([docs[doc_id] for doc_id in doc_ids])

    def __repr__(self) -> str:
        return (f"Corpus(documents={len(self)}, vocabulary={len(self.vocabulary)}, "
                f"tokens={self.num_tokens})")


def _check_aligned(count: int, what: str, *parallel: Optional[Sequence[Any]],
                   ) -> None:
    for name, seq in zip(("entities", "years", "labels"), parallel):
        if seq is not None and len(seq) != count:
            raise DataError(f"{name} must align with {what} "
                            f"({len(seq)} != {count})")


def _is_chunk_list(doc: Any) -> bool:
    try:
        return all(len(chunk) >= 0 for chunk in doc)
    except TypeError:
        return False
