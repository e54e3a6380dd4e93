"""The stream on arrays, each kernel against its loop in ``reference_kernels``.

* the flat-CSR :class:`MomentSketch` against the per-row sketch: equal
  rows and fingerprints, M1 bit for bit, M2 and T within 1e-12;
* ``ShardStore.load_corpus`` (shard arrays joined by
  ``Corpus.concatenate``) against unpickling every shard and rebuilding
  the corpus record by record, id for id;
* the count matrix built from a corpus's token array against
  ``count_matrix`` over its token lists;
* the one-``np.unique`` role table, read from the refit's int
  assignment, against the per-link loop over notation strings.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import Corpus, Vocabulary
from repro.stream import (ShardStore, build_shard_sketches,
                          entity_role_counts, merge_sketches)
from repro.strod import STROD, MomentSketch
from repro.strod.moments import count_matrix, document_counts

from .reference_kernels import (ReferenceRowSketch,
                                reference_entity_role_counts,
                                reference_first_moment, reference_load_corpus,
                                reference_second_moment,
                                reference_whitened_third_moment)


def _assert_close(fast, ref):
    """Within 1e-12 of the reference's largest magnitude."""
    assert np.abs(fast - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)


@st.composite
def shard_streams(draw):
    """Shards of token-id documents over a vocabulary that grows from
    shard to shard; empty and short documents included."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=6),
                          min_size=1, max_size=5))
    vocab_sizes = np.cumsum(sizes).tolist()
    shards = []
    for vocab_size in vocab_sizes:
        word = st.integers(min_value=0, max_value=vocab_size - 1)
        shards.append(draw(st.lists(st.lists(word, max_size=9),
                                    max_size=8)))
    return shards, vocab_sizes


class TestFlatSketch:
    @given(stream=shard_streams(),
           seed=st.integers(min_value=0, max_value=10 ** 6),
           alpha0=st.sampled_from([0.5, 1.0, 5.0]))
    @settings(max_examples=80, deadline=None)
    def test_matches_row_sketch(self, stream, seed, alpha0):
        shards, vocab_sizes = stream
        flat = ref = None
        for docs, vocab_size in zip(shards, vocab_sizes):
            part = MomentSketch.from_docs(docs, vocab_size)
            ref_part = ReferenceRowSketch.from_docs(docs, vocab_size)
            flat = part if flat is None else flat.merge(part)
            ref = ref_part if ref is None else ref.merge(ref_part)
        assert flat.fingerprint() == ref.fingerprint()
        assert (flat.num_docs, flat.num_skipped, flat.vocab_size) \
            == (ref.num_docs, ref.num_skipped, ref.vocab_size)
        state, ref_state = flat.to_state(), ref.to_state()
        for key in ("row_ids", "row_counts", "row_offsets"):
            assert state[key].dtype == ref_state[key].dtype
            assert np.array_equal(state[key], ref_state[key])
        if not flat.num_docs:
            return
        vocab_size = flat.vocab_size
        m1 = flat.first_moment()
        assert np.array_equal(m1, ref.first_moment())
        assert np.array_equal(m1, reference_first_moment(ref.rows,
                                                         vocab_size))
        ref_m2 = reference_second_moment(ref.rows, vocab_size, alpha0)
        _assert_close(flat.second_moment(alpha0), ref_m2)
        whitener = np.random.default_rng(seed).standard_normal(
            (vocab_size, 2))
        _assert_close(flat.whitened_third_moment(whitener, alpha0),
                      reference_whitened_third_moment(ref.rows, whitener,
                                                      m1, alpha0))

    @given(stream=shard_streams())
    @settings(max_examples=40, deadline=None)
    def test_corpus_shards_sketch_like_documents(self, stream):
        """A shard given as a corpus (its token array read in place)
        sketches like the same documents given as lists."""
        shards, vocab_sizes = stream
        vocab_size = vocab_sizes[-1]
        corpora = [Corpus.from_chunks([[doc] for doc in docs],
                                      _vocabulary(vocab_size))
                   for docs in shards]
        from_corpora = merge_sketches(build_shard_sketches(corpora,
                                                           vocab_size))
        from_docs = merge_sketches(build_shard_sketches(shards, vocab_size))
        assert from_corpora.fingerprint() == from_docs.fingerprint()

    def test_sketch_arrays_are_shared_read_only(self):
        sketch = MomentSketch.from_docs([[0, 1, 2, 2], [3, 3, 3]], 4)
        state = sketch.to_state()
        for key in ("row_ids", "row_counts", "row_offsets"):
            assert not state[key].flags.writeable
        assert state["row_offsets"].tolist() == [0, 3, 4]
        merged = sketch.merge(MomentSketch.from_docs([[1, 1, 0]], 4))
        assert sketch.to_state()["row_offsets"].tolist() == [0, 3, 4]
        assert merged.to_state()["row_offsets"].tolist() == [0, 3, 4, 6]


def _vocabulary(size):
    return Vocabulary([f"w{i}" for i in range(size)])


# ------------------------------------------------------------ shard loads
_WORDS = ["graph", "mining", "topic", "model", "spectral", "tensor",
          "entity", "role", "network", "stream"]
_TYPES = ["author", "venue", "person"]
_NAMES = ["Ann", "Bo", "Cy", "Di", "Ed"]


@st.composite
def raw_documents(draw):
    document = {"chunks": draw(st.lists(
        st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4),
        max_size=3))}
    if draw(st.booleans()):
        types = draw(st.permutations(_TYPES))[:draw(st.integers(0, 3))]
        document["entities"] = {
            etype: draw(st.lists(st.sampled_from(_NAMES), max_size=3))
            for etype in types}
    if draw(st.booleans()):
        document["year"] = draw(st.integers(1990, 2020))
    if draw(st.booleans()):
        document["label"] = draw(st.sampled_from(["db", "ml", "ir"]))
    return document


def _assert_same_corpus(left, right):
    """Id for id: vocabulary, every array, entity tables, documents."""
    assert list(left.vocabulary) == list(right.vocabulary)
    for name in ("tokens", "chunk_lengths", "doc_chunks", "doc_offsets",
                 "years", "has_year"):
        assert np.array_equal(getattr(left, name), getattr(right, name))
    assert left.labels == right.labels
    left_links, right_links = (left.entity_relations(),
                               right.entity_relations())
    assert list(left_links) == list(right_links)
    for etype, links in left_links.items():
        other = right_links[etype]
        assert links.names == other.names
        assert np.array_equal(links.indptr, other.indptr)
        assert np.array_equal(links.ids, other.ids)
    assert left.entity_types() == right.entity_types()
    assert list(left) == list(right)
    assert [list(doc.entities) for doc in left] \
        == [list(doc.entities) for doc in right]


class TestShardLoad:
    @given(st.lists(st.lists(raw_documents(), min_size=1, max_size=4),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_concatenated_load_matches_record_rebuild(self, batches):
        with tempfile.TemporaryDirectory() as directory:
            store = ShardStore(directory)
            committed = 0
            for batch in batches:
                if any(doc["chunks"] for doc in batch) \
                        or len(store.vocabulary):
                    store.append_batch(batch)
                    committed += 1
            reopened = ShardStore(directory)
            for k in range(committed + 1):
                expected = reference_load_corpus(store, k)
                _assert_same_corpus(store.load_corpus(k), expected)
                _assert_same_corpus(reopened.load_corpus(k), expected)

    def test_load_equals_one_from_chunks_over_all_records(self, tmp_path):
        """Names repeated across shards, a type absent from a shard, and
        the same types listed in two key orders."""
        store = ShardStore(str(tmp_path / "log"))
        batches = [
            [{"chunks": [["graph", "mining"]],
              "entities": {"author": ["Ann", "Bo"], "venue": ["KDD"]}}],
            [{"chunks": [["topic"]], "entities": {"venue": ["VLDB"],
                                                  "author": ["Bo"]}},
             {"chunks": [["graph"]]}],
            [{"chunks": [["model"]], "entities": {"person": ["Ann"]},
              "year": 2014, "label": "ml"}],
        ]
        for batch in batches:
            store.append_batch(batch)
        documents = [doc for batch in batches for doc in batch]
        oneshot = Corpus.from_chunks(
            [[store.vocabulary.encode(chunk) for chunk in doc["chunks"]]
             for doc in documents], store.vocabulary,
            entities=[doc.get("entities") for doc in documents],
            years=[doc.get("year") for doc in documents],
            labels=[doc.get("label") for doc in documents])
        loaded = store.load_corpus()
        _assert_same_corpus(loaded, oneshot)
        assert loaded.entity_links("author").names == ["Ann", "Bo"]
        assert loaded.entity_links("person").indptr.tolist() \
            == [0, 0, 0, 0, 1]


# ----------------------------------------------------------- count matrix
_PIECES = ["graph", "mining", "topic", "the", "model", ",", ".", " ", "x"]


class TestCountMatrix:
    @given(st.lists(st.lists(st.sampled_from(_PIECES), max_size=12)
                    .map(" ".join), max_size=15),
           st.sampled_from([0, 3]))
    @settings(max_examples=100, deadline=None)
    def test_corpus_arrays_match_token_lists(self, texts, min_length):
        corpus = Corpus.from_texts(texts)
        vocab_size = max(len(corpus.vocabulary), 1)
        fast = document_counts(corpus.tokens, corpus.doc_offsets,
                               vocab_size, min_length)
        ref = count_matrix(corpus.token_lists(), vocab_size, min_length)
        assert fast.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(fast, name), getattr(ref, name))

    def test_fit_and_fold_in_on_sliced_rows(self, planted_small):
        """STROD on rows sliced from one corpus-wide matrix equals STROD
        on the same documents' token lists, bit for bit."""
        docs, vocab_size = planted_small.docs, planted_small.vocab_size
        counts = count_matrix(docs, vocab_size, min_length=0)
        picked = np.arange(0, len(docs), 2)
        subset = [docs[i] for i in picked.tolist()]
        sliced = STROD(num_topics=3, seed=4).fit(counts[picked],
                                                 vocab_size)
        listed = STROD(num_topics=3, seed=4).fit(subset, vocab_size)
        assert np.array_equal(sliced.phi, listed.phi)
        assert np.array_equal(sliced.alpha, listed.alpha)
        estimator = STROD(num_topics=3)
        estimator.model_ = listed
        assert np.array_equal(estimator.document_topics(counts[picked]),
                              estimator.document_topics(subset))


# ------------------------------------------------------------ entity roles
_NOTATIONS = ["o", "o/1", "o/2", "o/1/1", "o/1/2", "o/2/1", "o/2/3"]


class TestEntityRoles:
    @given(st.lists(raw_documents(), max_size=12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_link_loop(self, documents, data):
        vocabulary = Vocabulary(_WORDS)
        corpus = Corpus.from_chunks(
            [[vocabulary.encode(chunk) for chunk in doc["chunks"]]
             for doc in documents], vocabulary,
            entities=[doc.get("entities") for doc in documents])
        doc_topics = np.array(data.draw(st.lists(
            st.integers(min_value=0, max_value=len(_NOTATIONS) - 1),
            min_size=len(documents), max_size=len(documents))),
            dtype=np.int64)
        roles = entity_role_counts(corpus, doc_topics, _NOTATIONS)
        expected = reference_entity_role_counts(
            corpus, [_NOTATIONS[t] for t in doc_topics.tolist()])
        assert roles == expected
        assert list(roles) == list(expected)
        for table in roles.values():
            for counts in table.values():
                assert all(type(v) is float for v in counts.values())
