"""Corpus substrate: documents as arrays, tokenization, vocabulary."""

from .document import Corpus, Document, EntityLinks
from .tokenize import (DEFAULT_STOPWORDS, join_tokens, split_phrase_chunks,
                       tokenize, tokenize_chunks)
from .vocabulary import Vocabulary

__all__ = [
    "Corpus",
    "Document",
    "EntityLinks",
    "Vocabulary",
    "tokenize",
    "tokenize_chunks",
    "split_phrase_chunks",
    "join_tokens",
    "DEFAULT_STOPWORDS",
]
