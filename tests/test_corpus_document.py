"""Tests for repro.corpus.document."""

import pytest

from repro.corpus import Corpus
from repro.errors import DataError


class TestFromTexts:
    def test_builds_documents_and_vocabulary(self, tiny_corpus):
        assert len(tiny_corpus) == 8
        assert "query" in tiny_corpus.vocabulary

    def test_entities_attached(self, tiny_corpus):
        assert tiny_corpus[0].entity_list("author") == ["alice", "bob"]
        assert tiny_corpus[0].entity_list("venue") == ["DB-CONF"]

    def test_missing_entity_type_gives_empty(self, tiny_corpus):
        assert tiny_corpus[0].entity_list("location") == []

    def test_labels_and_years(self, tiny_corpus):
        assert tiny_corpus[0].label == "db"
        assert tiny_corpus[0].year == 2000

    def test_misaligned_metadata_rejected(self):
        with pytest.raises(DataError):
            Corpus.from_texts(["a b"], labels=["x", "y"])

    def test_doc_ids_sequential(self, tiny_corpus):
        assert [doc.doc_id for doc in tiny_corpus] == list(range(8))

    def test_string_entity_value_rejected(self):
        # A bare string would otherwise become one author per character.
        with pytest.raises(DataError, match=r"document 1: entity type "
                                            r"'author' maps to the string"):
            Corpus.from_texts(["graph mining", "data"],
                              entities=[{"author": ["Ann Lee"]},
                                        {"author": "Ann Lee"}])

    def test_non_string_name_rejected(self):
        with pytest.raises(DataError, match=r"document 0: entity type "
                                            r"'venue' needs a list of "
                                            r"string names"):
            Corpus.from_texts(["graph mining"],
                              entities=[{"venue": ["KDD", 7]}])

    def test_entity_names_copied_into_lists(self):
        names = ("Ann Lee", "Bo")
        corpus = Corpus.from_texts(["graph mining"],
                                   entities=[{"author": names}])
        assert corpus[0].entity_list("author") == ["Ann Lee", "Bo"]


class TestDocument:
    def test_tokens_flatten_chunks(self):
        corpus = Corpus.from_texts(["alpha beta, gamma"])
        doc = corpus[0]
        assert len(doc.chunks) == 2
        assert len(doc.tokens) == 3
        assert doc.length == 3


class TestCorpusViews:
    def test_num_tokens(self, tiny_corpus):
        assert tiny_corpus.num_tokens == sum(
            doc.length for doc in tiny_corpus)

    def test_entity_types_sorted(self, tiny_corpus):
        assert tiny_corpus.entity_types() == ["author", "venue"]

    def test_word_counts_total(self, tiny_corpus):
        counts = tiny_corpus.word_counts()
        assert sum(counts.values()) == tiny_corpus.num_tokens

    def test_document_frequency_bounded(self, tiny_corpus):
        df = tiny_corpus.document_frequency()
        assert all(1 <= v <= len(tiny_corpus) for v in df.values())

    def test_add_document_validates_token_ids(self, tiny_corpus):
        with pytest.raises(DataError):
            tiny_corpus.add_document([[10 ** 6]])

    def test_add_document_validates_entity_names(self, tiny_corpus):
        with pytest.raises(DataError, match=r"document 8: entity type "
                                            r"'author' maps to the string"):
            tiny_corpus.add_document([[0]], entities={"author": "alice"})
        with pytest.raises(DataError, match=r"document 8: entity type "
                                            r"'author' needs a list"):
            tiny_corpus.add_document([[0]], entities={"author": [None]})
        assert len(tiny_corpus) == 8


class TestSubset:
    def test_subset_shares_vocabulary(self, tiny_corpus):
        sub = tiny_corpus.subset([0, 3])
        assert sub.vocabulary is tiny_corpus.vocabulary
        assert len(sub) == 2

    def test_subset_renumbers_ids(self, tiny_corpus):
        sub = tiny_corpus.subset([5, 2])
        assert [doc.doc_id for doc in sub] == [0, 1]

    def test_subset_copies_content(self, tiny_corpus):
        sub = tiny_corpus.subset([0])
        sub[0].entities["author"].append("mallory")
        assert "mallory" not in tiny_corpus[0].entity_list("author")
