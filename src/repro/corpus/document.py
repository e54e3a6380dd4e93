"""Document and corpus containers.

A :class:`Document` is a tokenized piece of text together with optional
typed-entity links (authors, venues, persons, locations, ...) and optional
metadata such as a publication year or a ground-truth topic label.  A
:class:`Corpus` is an ordered collection of documents sharing one
:class:`~repro.corpus.vocabulary.Vocabulary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import DataError
from .tokenize import DEFAULT_STOPWORDS, tokenize_chunks
from .vocabulary import Vocabulary


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


def _entity_lists(entities: Mapping[str, Sequence[str]],
                  doc_id: int) -> Dict[str, List[str]]:
    """Copy a document's entity mapping into lists of names.

    A bare string would otherwise be read as one name per character, so
    it is refused, as is any name that is not a string.
    """
    lists: Dict[str, List[str]] = {}
    for entity_type, names in entities.items():
        if isinstance(names, str):
            raise DataError(
                f"document {doc_id}: entity type {entity_type!r} maps to "
                f"the string {names!r}; give a list of names")
        try:
            names = list(names)
            "".join(names)  # one C-level pass: every name is a str
        except TypeError:
            raise DataError(
                f"document {doc_id}: entity type {entity_type!r} needs a "
                f"list of string names, got {names!r}") from None
        lists[entity_type] = names
    return lists


class Corpus:
    """An ordered document collection with a shared vocabulary.

    Build one with :meth:`from_texts` (raw strings) or by appending
    pre-tokenized documents via :meth:`add_document`.
    """

    def __init__(self, vocabulary: Optional[Vocabulary] = None) -> None:
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        self._documents: List[Document] = []

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
        sequences aligned with ``texts``.
        """
        texts = list(texts)
        for name, seq in (("entities", entities), ("years", years),
                          ("labels", labels)):
            if seq is not None and len(seq) != len(texts):
                raise DataError(f"{name} must align with texts "
                                f"({len(seq)} != {len(texts)})")
        corpus = cls()
        for i, text in enumerate(texts):
            token_chunks = tokenize_chunks(text, stopwords=stopwords)
            id_chunks = [corpus.vocabulary.encode(chunk, add_missing=True)
                         for chunk in token_chunks]
            corpus.add_document(
                chunks=id_chunks,
                entities=entities[i] if entities is not None else None,
                year=years[i] if years is not None else None,
                label=labels[i] if labels is not None else None,
            )
        return corpus

    def add_document(self,
                     chunks: List[List[int]],
                     entities: Optional[Mapping[str, Sequence[str]]] = None,
                     year: Optional[int] = None,
                     label: Optional[str] = None) -> Document:
        """Append a pre-tokenized document and return it.

        ``entities`` maps each entity type to a sequence of names; the
        document keeps its own list copies.  A bare string, or a name
        that is not a string, raises :class:`DataError`.
        """
        vocab_size = len(self.vocabulary)
        for chunk in chunks:
            for tok in chunk:
                if not 0 <= tok < vocab_size:
                    raise DataError(f"token id {tok} outside vocabulary "
                                    f"of size {vocab_size}")
        doc_id = len(self._documents)
        doc = Document(doc_id=doc_id, chunks=chunks,
                       entities=_entity_lists(entities or {}, doc_id),
                       year=year, label=label)
        self._documents.append(doc)
        return doc

    # ------------------------------------------------------------------ views
    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def __getitem__(self, index: int) -> Document:
        return self._documents[index]

    @property
    def documents(self) -> Tuple[Document, ...]:
        """All documents as an immutable tuple."""
        return tuple(self._documents)

    @property
    def num_tokens(self) -> int:
        """Total token count L over the whole corpus."""
        return sum(doc.length for doc in self._documents)

    def entity_types(self) -> List[str]:
        """All entity type names present anywhere in the corpus, sorted."""
        types = set()
        for doc in self._documents:
            types.update(doc.entities)
        return sorted(types)

    def word_counts(self) -> Dict[int, int]:
        """Corpus-wide token frequency f(v) per word id."""
        counts: Dict[int, int] = {}
        for doc in self._documents:
            for tok in doc.tokens:
                counts[tok] = counts.get(tok, 0) + 1
        return counts

    def document_frequency(self) -> Dict[int, int]:
        """Number of documents containing each word id at least once."""
        counts: Dict[int, int] = {}
        for doc in self._documents:
            for tok in set(doc.tokens):
                counts[tok] = counts.get(tok, 0) + 1
        return counts

    def subset(self, doc_ids: Sequence[int]) -> "Corpus":
        """A new corpus (sharing this vocabulary) with the given documents.

        Document ids are renumbered densely in the new corpus.
        """
        sub = Corpus(vocabulary=self.vocabulary)
        for doc_id in doc_ids:
            doc = self._documents[doc_id]
            sub.add_document(chunks=[list(c) for c in doc.chunks],
                             entities=doc.entities,
                             year=doc.year, label=doc.label)
        return sub

    def __repr__(self) -> str:
        return (f"Corpus(documents={len(self)}, vocabulary={len(self.vocabulary)}, "
                f"tokens={self.num_tokens})")
