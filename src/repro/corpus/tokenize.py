"""Tokenization utilities for information-rich short and long text.

The dissertation's phrase mining (Chapter 4) operates on token sequences
after minimal pre-processing: lowercase, strip punctuation that cannot be
inside a phrase, remove stopwords, and split sentences on phrase-invariant
punctuation so phrases never cross a comma or period (Section 4.3.1).
"""

from __future__ import annotations

import re
from array import array
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

#: Default English stopword list.  Deliberately compact: the corpora the
#: dissertation evaluates on (paper titles) carry little function-word
#: noise, and a short list keeps tokenization transparent and testable.
DEFAULT_STOPWORDS: FrozenSet[str] = frozenset("""
a an and are as at be but by for from has have in is it its of on or that the
this to was were will with we our your their you i he she they them his her
not no yes do does did been being than then so such via using used use can
""".split())

#: Punctuation a phrase may never span (Section 4.3.1 splits documents into
#: chunks on these before mining, which also bounds per-chunk complexity).
PHRASE_INVARIANT_PUNCTUATION = re.compile(r"[.,;:!?()\[\]{}\"]+")

_TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9\-']*")

#: One scan of lowered text: a word token, or a run of phrase-invariant
#: punctuation, which ends the current chunk.  No character belongs to
#: both classes, so the tokens are those of splitting on the punctuation
#: first and scanning each chunk for tokens.
_CHUNK_SCAN_RE = re.compile(_TOKEN_RE.pattern + "|"
                            + PHRASE_INVARIANT_PUNCTUATION.pattern)
_BREAK_CHARS = frozenset(".,;:!?()[]{}\"")

# Codes of the non-word scan items in :func:`encode_texts`; word ids are
# the non-negative codes.
_STOP, _BREAK, _TEXT_END = -1, -2, -3


def split_phrase_chunks(text: str) -> List[str]:
    """Split ``text`` on punctuation that phrases may not cross."""
    chunks = PHRASE_INVARIANT_PUNCTUATION.split(text)
    return [chunk for chunk in (c.strip() for c in chunks) if chunk]


def tokenize(text: str,
             stopwords: Iterable[str] = DEFAULT_STOPWORDS) -> List[str]:
    """Lowercase, extract word tokens, and drop stopwords.

    Multi-chunk structure is *not* preserved here; use
    :func:`tokenize_chunks` when chunk boundaries matter (phrase mining).
    """
    stop = frozenset(stopwords)
    return [tok for tok in _TOKEN_RE.findall(text.lower()) if tok not in stop]


def tokenize_chunks(text: str,
                    stopwords: Iterable[str] = DEFAULT_STOPWORDS,
                    ) -> List[List[str]]:
    """Tokenize ``text`` into a list of chunks of tokens.

    Each chunk is a maximal run of text between phrase-invariant
    punctuation marks; frequent-phrase mining treats each chunk as an
    independent token sequence.
    """
    stop = frozenset(stopwords)
    chunks: List[List[str]] = []
    tokens: List[str] = []
    for item in _CHUNK_SCAN_RE.findall(text.lower()):
        if item[0] in _BREAK_CHARS:
            if tokens:
                chunks.append(tokens)
                tokens = []
        elif item not in stop:
            tokens.append(item)
    if tokens:
        chunks.append(tokens)
    return chunks


def encode_texts(texts: Iterable[str],
                 stopwords: Iterable[str] = DEFAULT_STOPWORDS,
                 ) -> Tuple[List[str], np.ndarray, np.ndarray, np.ndarray]:
    """Tokenize ``texts`` as :func:`tokenize_chunks` does, straight to ids.

    Returns ``(words, tokens, chunk_lengths, doc_chunks)``: the words in
    first-seen order (a word's id is its index), every token id in text
    and chunk order (int64), the length of every non-empty chunk, and
    each text's chunk count.  Each lowered text is scanned once and its
    items mapped to codes as it goes (word id, stopword, chunk break),
    so no token string outlives its text; the chunk structure then
    comes from the code stream in a few array passes.
    """
    code: Dict[str, int] = {word: _STOP for word in stopwords
                            if _TOKEN_RE.fullmatch(word)}
    words: List[str] = []
    stream = array("q")
    scan = _CHUNK_SCAN_RE.findall
    lookup = code.get
    num_texts = 0
    for text in texts:
        items = scan(text.lower())
        codes = list(map(lookup, items))
        if None in codes:
            for position, item in enumerate(items):
                if codes[position] is None:
                    value = lookup(item)
                    if value is None:
                        if item[0] in _BREAK_CHARS:
                            value = _BREAK
                        else:
                            value = len(words)
                            words.append(item)
                        code[item] = value
                    codes[position] = value
        stream.extend(codes)
        stream.append(_TEXT_END)
        num_texts += 1
    stream_codes = np.frombuffer(stream, dtype=np.int64)
    is_token = stream_codes >= 0
    is_end = stream_codes <= _BREAK
    # A token's chunk is numbered by the break or text end closing it.
    chunk_of = np.cumsum(is_end)[is_token]
    per_end = np.bincount(chunk_of, minlength=int(is_end.sum()))
    text_end = stream_codes[is_end] == _TEXT_END
    text_of_end = np.cumsum(text_end) - text_end
    kept = per_end > 0
    doc_chunks = np.bincount(text_of_end[kept], minlength=num_texts)
    return (words, stream_codes[is_token], per_end[kept],
            doc_chunks.astype(np.int64, copy=False))


def join_tokens(tokens: Sequence[str]) -> str:
    """Render a token sequence as a single space-joined phrase string."""
    return " ".join(tokens)
