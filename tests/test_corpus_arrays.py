"""The corpus as arrays: the one-pass tokenizer, the entity CSRs, the
document views and the author-CSR collaboration build, each against its
per-document reference in ``reference_kernels``."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus import Corpus, EntityLinks, Vocabulary, tokenize_chunks
from repro.datasets.io import load_dataset
from repro.errors import DataError
from repro.relations import CollaborationNetwork

from .reference_kernels import (reference_collaboration_network,
                                reference_corpus_token_array,
                                reference_from_texts,
                                reference_tokenize_chunks)

#: Pieces of raw titles: letters of both cases, digits, the in-word marks
#: ``-`` and ``'`` (also where a token would start), whitespace, every
#: phrase-invariant mark, stopwords, and letters whose lowercase changes
#: length (``İ`` lowers to two characters).
_PIECES = (list("aAbBqQzZ09-'") + [" ", "  ", "\t", "\n"]
           + list(".,;:!?()[]{}\"") + ["the", "of", " a ", "And", "İ", "ẞ",
                                       "ß", "-x", "'s", "x-", "é"])

texts = st.lists(st.sampled_from(_PIECES), max_size=25).map("".join)


def _docs(corpus):
    return [doc.chunks for doc in corpus]


class TestFromTextsEquivalence:
    @given(st.lists(texts, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_loop(self, batch):
        corpus = Corpus.from_texts(batch)
        vocabulary, documents = reference_from_texts(batch)
        assert list(corpus.vocabulary) == list(vocabulary)
        assert list(corpus) == documents
        tokens, lengths, doc_chunks = reference_corpus_token_array(documents)
        assert corpus.tokens.dtype == np.int64
        assert np.array_equal(corpus.tokens, tokens)
        assert np.array_equal(corpus.chunk_lengths, lengths)
        assert np.array_equal(corpus.doc_chunks, doc_chunks)

    @given(texts, st.sets(st.sampled_from(["a", "q", "the", "b-", ",", "İ",
                                           "Q", "zz"])))
    @settings(max_examples=300, deadline=None)
    def test_chunk_tokenizer_matches_split_then_scan(self, text, stopwords):
        assert tokenize_chunks(text, stopwords) == \
            reference_tokenize_chunks(text, stopwords)
        corpus = Corpus.from_texts([text], stopwords=stopwords)
        vocabulary, documents = reference_from_texts([text],
                                                     stopwords=stopwords)
        assert list(corpus.vocabulary) == list(vocabulary)
        assert list(corpus) == documents

    def test_edge_texts(self):
        batch = ["", "the of a", "((x)), [y]; {z}!", "İstanbul ẞ straße",
                 "-dash 'quote x-y o'neil", "...", "a, b"]
        corpus = Corpus.from_texts(batch)
        vocabulary, documents = reference_from_texts(batch)
        assert list(corpus.vocabulary) == list(vocabulary)
        assert list(corpus) == documents
        assert corpus[0].chunks == [] and corpus[1].chunks == []

    def test_non_string_text_rejected(self):
        with pytest.raises(DataError, match="text 1 is not a string"):
            Corpus.from_texts(["graph", None])


class TestViews:
    def test_views_are_plain_python(self, tiny_corpus):
        doc = tiny_corpus[3]
        assert type(doc.year) is int
        assert all(type(tok) is int for tok in doc.tokens)
        assert doc.entities == {"author": ["carol", "dave"],
                                "venue": ["ML-CONF"]}
        assert list(doc.entities) == ["author", "venue"]
        assert list(tiny_corpus)[3] == doc
        assert tiny_corpus[-1] == list(tiny_corpus)[-1]
        with pytest.raises(IndexError):
            tiny_corpus[8]

    def test_key_order_and_empty_types_kept(self):
        entities = [{"venue": [], "author": ["ann"]}, {"author": []}, None,
                    {"author": ["bo", "ann", "bo"]}]
        corpus = Corpus.from_texts(["x"] * 4, entities=entities)
        for doc, mapping in zip(corpus, entities):
            assert doc.entities == (mapping or {})
            assert list(doc.entities) == list(mapping or {})
        assert corpus.entity_types() == ["author", "venue"]
        links = corpus.entity_links("author")
        assert links.names == ["ann", "bo"]
        assert links.indptr.tolist() == [0, 1, 1, 1, 4]
        assert links.ids.tolist() == [0, 1, 0, 1]
        assert corpus.entity_links("person").lists() == [[]] * 4

    def test_arrays_are_read_only(self, tiny_corpus):
        with pytest.raises(ValueError):
            tiny_corpus.tokens[0] = 1

    def test_subset_and_add_document_match_bulk_build(self, tiny_corpus):
        sub = tiny_corpus.subset([6, 1, 3])
        picked = [tiny_corpus[i] for i in (6, 1, 3)]
        assert _docs(sub) == [doc.chunks for doc in picked]
        assert [doc.entities for doc in sub] == \
            [doc.entities for doc in picked]
        assert sub.entity_links("author").names == ["alice", "bob", "carol",
                                                    "dave"]
        grown = Corpus(vocabulary=tiny_corpus.vocabulary)
        for doc in picked:
            grown.add_document(doc.chunks, doc.entities, doc.year,
                               doc.label)
        assert list(grown) == list(sub)
        assert np.array_equal(grown.doc_offsets, sub.doc_offsets)


class TestTokenIds:
    @pytest.mark.parametrize("bad", [[[0.7]], [[1.0]], [[True]], [["1"]],
                                     [[0, None]]])
    def test_non_integer_id_rejected(self, tiny_corpus, bad):
        with pytest.raises(DataError, match=r"document 8: token id .* is "
                                            r"not an integer"):
            tiny_corpus.add_document(bad)
        assert len(tiny_corpus) == 8

    def test_numpy_integer_ids_accepted(self, tiny_corpus):
        doc = tiny_corpus.add_document([[np.int64(1), np.int32(0)]])
        assert doc.chunks == [[1, 0]]

    def test_bulk_check_names_the_document(self):
        vocabulary = Vocabulary(["a", "b"])
        with pytest.raises(DataError, match=r"document 2: token id 2 "
                                            r"outside vocabulary of size 2"):
            Corpus.from_chunks([[[0]], [], [[1, 2]]], vocabulary)
        with pytest.raises(DataError, match=r"document 1: chunks must be"):
            Corpus.from_chunks([[[0]], [3]], vocabulary)

    def test_dataset_file_with_float_id_rejected(self, tmp_path):
        data = {"version": 1, "name": "x", "vocabulary": ["a", "b"],
                "documents": [{"chunks": [[0.7, 1]], "entities": {},
                               "year": 2000, "label": None}],
                "ground_truth": {
                    "hierarchy": {"name": "o", "phrases": [],
                                  "unigrams": [], "children": []},
                    "doc_topic_paths": [[]], "entity_topics": {},
                    "advising": []}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DataError, match=r"document 0: token id 0.7"):
            load_dataset(str(path))


_names = st.one_of(st.text(max_size=3), st.integers(), st.none(),
                   st.binary(max_size=2))
_entity_values = st.one_of(
    st.lists(st.text(max_size=3), max_size=3),
    st.lists(_names, max_size=3),
    st.tuples(st.text(max_size=2)),
    st.text(max_size=3), st.integers(), st.none(), st.binary(max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_entity_maps = st.one_of(
    st.none(),
    st.dictionaries(st.one_of(st.sampled_from(["author", "venue", ""]),
                              st.integers()), _entity_values, max_size=3),
    st.lists(st.text(max_size=2), max_size=2), st.text(max_size=2),
    st.integers())
_years = st.one_of(st.none(), st.integers(), st.integers(min_value=2**63),
                   st.floats(allow_nan=False), st.booleans(),
                   st.text(max_size=4))


class TestEntityBoundary:
    @given(st.lists(st.tuples(_entity_maps, _years), max_size=6))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_valid_corpus_or_data_error(self, records):
        """Random entity values and years give a corpus whose views give
        them back, or a ``DataError``, never another exception."""
        entities = [mapping for mapping, _ in records]
        years = [year for _, year in records]
        try:
            corpus = Corpus.from_texts(["graph mining"] * len(records),
                                       entities=entities, years=years)
        except DataError:
            return
        for doc, mapping, year in zip(corpus, entities, years):
            expected = {etype: list(names)
                        for etype, names in (mapping or {}).items()}
            assert doc.entities == expected
            assert list(doc.entities) == list(expected)
            assert doc.year == year
        assert corpus.entity_types() == sorted(
            {etype for mapping in entities for etype in (mapping or {})})


@st.composite
def collaboration_papers(draw):
    """Papers over a small author pool: duplicate authors in one paper,
    one-author papers, and single-year series all occur."""
    pool = [f"a{i}" for i in range(draw(st.integers(1, 9)))]
    paper = st.tuples(st.lists(st.sampled_from(pool), max_size=5),
                      st.integers(min_value=1990, max_value=1996))
    return draw(st.lists(paper, max_size=40))


def _series(network):
    return ({a: s.counts for a, s in network.author_series.items()},
            {p: s.counts for p, s in network.pair_series.items()})


class TestCollaborationEquivalence:
    @given(collaboration_papers())
    @settings(max_examples=300, deadline=None)
    def test_from_papers_matches_add_paper_loop(self, papers):
        fast = CollaborationNetwork.from_papers(papers)
        ref = reference_collaboration_network(papers)
        assert _series(fast) == _series(ref)
        for author in ref.authors:
            assert fast.coauthors(author) == ref.coauthors(author)
        counts = [c for s in fast.author_series.values()
                  for c in list(s.counts) + list(s.counts.values())]
        assert all(type(c) is int for c in counts)

    @given(collaboration_papers())
    @settings(max_examples=200, deadline=None)
    def test_from_corpus_matches_add_paper_loop(self, papers):
        corpus = Corpus.from_texts(
            ["x"] * len(papers),
            entities=[{"author": authors, "venue": ["v"]}
                      for authors, _ in papers],
            years=[year for _, year in papers])
        assert _series(CollaborationNetwork.from_corpus(corpus)) == \
            _series(reference_collaboration_network(papers))

    def test_on_synthetic_dblp(self, dblp_small):
        corpus = dblp_small.corpus
        papers = [(doc.entity_list("author"), doc.year) for doc in corpus]
        assert _series(CollaborationNetwork.from_corpus(corpus)) == \
            _series(reference_collaboration_network(papers))

    def test_non_integer_year_rejected(self):
        with pytest.raises(DataError, match="paper 1 has year None"):
            CollaborationNetwork.from_papers([(["a"], 2000), (["b"], None)])

    def test_from_corpus_names_first_undated_document(self):
        corpus = Corpus.from_texts(["x", "y"], entities=[{"author": ["a"]},
                                                         {"author": ["b"]}],
                                   years=[2000, None])
        with pytest.raises(DataError, match="document 1 has no year"):
            CollaborationNetwork.from_corpus(corpus)


class TestEntityLinks:
    def test_round_trip(self):
        lists = [["b", "a"], [], ["a", "a", "c"]]
        links = EntityLinks.from_counts(np.array([2, 0, 3]),
                                        ["b", "a", "a", "a", "c"])
        assert links.names == ["b", "a", "c"]
        assert links.lists() == lists
        assert links.names_of(2) == ["a", "a", "c"]
        assert links.documents_of(["a"]).tolist() == [0, 2]
        assert links.documents_of(["zz"]).tolist() == []
