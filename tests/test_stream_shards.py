"""ShardStore: the append-only corpus log behind streaming ingest.

The load-bearing claim (DESIGN §5.6): a corpus streamed in batches is
document-for-document and id-for-id identical to the one-shot batch
corpus built over the concatenated batches, and a *prefix* load
reproduces exactly the corpus a past refit saw — including the
vocabulary as of that prefix.  Plus the integrity story: CRC framing on
shards, validated vocab-delta replay, and content-keyed exactly-once
batch commit.
"""

import json
import os

import pytest

from repro.corpus import Corpus
from repro.datasets import NewsConfig, generate_news_subset, save_dataset
from repro.errors import ConfigurationError, DataError
from repro.stream import ShardStore, batch_key, is_shard_dir

from .faults import corrupt_file

BATCHES = [
    [{"text": "topic model inference. spectral method."},
     {"text": "tensor decomposition for topic model recovery."}],
    [{"text": "entity hierarchy mining. latent structure discovery."},
     {"text": "spectral inference scales. moment method estimation."}],
    [{"text": "heterogeneous network embedding. entity role analysis."}],
]


def _texts(batches):
    return [doc["text"] for batch in batches for doc in batch]


def _fill(store, batches=BATCHES):
    for batch in batches:
        store.append_batch(batch, batch_key=batch_key(batch))


class TestAppendAndLoad:
    def test_streamed_corpus_matches_batch_corpus(self, tmp_path):
        store = ShardStore(str(tmp_path / "log"))
        _fill(store)
        streamed = store.load_corpus()
        batch = Corpus.from_texts(_texts(BATCHES))
        assert list(streamed.vocabulary) == list(batch.vocabulary)
        assert len(streamed) == len(batch)
        for left, right in zip(streamed, batch):
            assert left.chunks == right.chunks

    def test_reopen_replays_vocab_deltas(self, tmp_path):
        path = str(tmp_path / "log")
        first = ShardStore(path)
        _fill(first)
        reopened = ShardStore(path)
        assert list(reopened.vocabulary) == list(first.vocabulary)
        assert reopened.num_shards == 3
        assert reopened.num_documents == 5
        assert reopened.vocab_version == first.vocab_version

    def test_prefix_load_gets_prefix_vocabulary(self, tmp_path):
        store = ShardStore(str(tmp_path / "log"))
        _fill(store)
        for k in range(1, len(BATCHES) + 1):
            prefix = store.load_corpus(num_shards=k)
            batch = Corpus.from_texts(_texts(BATCHES[:k]))
            assert list(prefix.vocabulary) == list(batch.vocabulary)
            assert len(prefix) == len(batch)

    def test_prechunked_documents_keep_metadata(self, tmp_path):
        store = ShardStore(str(tmp_path / "log"))
        store.append_batch([{
            "chunks": [["spectral", "method"], ["topic"]],
            "entities": {"author": ["J. Han"]},
            "year": 2014,
            "label": "dblp",
        }])
        doc = next(iter(store.load_corpus()))
        assert doc.entities == {"author": ["J. Han"]}
        assert doc.year == 2014
        assert doc.label == "dblp"
        assert [store.vocabulary.decode(chunk) for chunk in doc.chunks] \
            == [["spectral", "method"], ["topic"]]

    def test_empty_batch_rejected(self, tmp_path):
        store = ShardStore(str(tmp_path / "log"))
        with pytest.raises(DataError, match="empty batch"):
            store.append_batch([])

    def test_document_needs_text_or_chunks(self, tmp_path):
        store = ShardStore(str(tmp_path / "log"))
        with pytest.raises(DataError, match="'text' or 'chunks'"):
            store.append_batch([{"year": 2014}])

    @pytest.mark.parametrize("bad, message", [
        ({"entities": {"author": "Ann Lee"}}, "maps to the string"),
        ({"year": "2014"}, "'year' must be an integer"),
        ({"year": 2014.0}, "'year' must be an integer"),
        ({"year": 2 ** 70}, "does not fit in 64 bits"),
        ({"entities": {"author": 5}}, "needs a list of names"),
        ({"text": 5}, "text is not a string: 5"),
        ({"text": None}, "text is not a string: None"),
        ({"chunks": "graph mining"}, "'chunks' must be a list of token"),
        ({"chunks": ["graph", "mining"]}, "'chunks' must be a list of token"),
        ({"chunks": [["graph"], "mining"]}, "'chunks' must be a list"),
        ({"chunks": None}, "'chunks' must be a list of token"),
    ])
    def test_bad_metadata_rejected_before_commit(self, tmp_path, bad,
                                                 message):
        """A bare string where a list belongs would be stored one item
        per character, a non-string text cannot be tokenized, and a year
        the corpus cannot hold would make every later load of the log
        fail; all are refused at the append, before the batch's good
        documents grow the vocabulary."""
        path = str(tmp_path / "log")
        store = ShardStore(path)
        document = {} if "chunks" in bad else {"text": "graph mining"}
        document.update(bad)
        with pytest.raises(DataError, match=message):
            store.append_batch([{"text": "spectral method"}, document])
        assert store.num_shards == 0
        assert len(store.vocabulary) == 0
        assert ShardStore(path).num_shards == 0

    def test_refused_batch_leaves_log_appendable(self, tmp_path):
        """The next good batch gets the ids it would have had, and the
        store still reopens."""
        path = str(tmp_path / "log")
        store = ShardStore(path)
        with pytest.raises(DataError):
            store.append_batch([{"text": "graph mining"}, {"text": 5}])
        store.append_batch([{"text": "topic model"}])
        assert [doc.chunks for doc in store.load_corpus()] == [[[0, 1]]]
        assert list(ShardStore(path).vocabulary) == ["topic", "model"]

    def test_stopword_only_first_batch_refused(self, tmp_path):
        """Its shard would hold no word, and no moment sketch can be
        built over an empty vocabulary, so every later ingest of the
        store would fail on it."""
        path = str(tmp_path / "log")
        store = ShardStore(path)
        with pytest.raises(DataError, match="no word outside the stopword"):
            store.append_batch([{"text": "the of and"}])
        assert ShardStore(path).num_shards == 0
        store.append_batch([{"text": "the graph"}])
        store.append_batch([{"text": "of and"}])  # the stream has words now
        assert store.num_shards == 2


class TestIntegrity:
    def test_corrupted_shard_fails_crc_check(self, tmp_path):
        store = ShardStore(str(tmp_path / "log"))
        _fill(store)
        corrupt_file(os.path.join(str(tmp_path / "log"),
                                  "shards", "shard-000001"))
        store.load_shard(0)  # untouched neighbours still load
        with pytest.raises(DataError):
            store.load_shard(1)

    def test_shard_id_out_of_range(self, tmp_path):
        store = ShardStore(str(tmp_path / "log"))
        _fill(store)
        with pytest.raises(ConfigurationError, match="out of range"):
            store.load_shard(3)
        with pytest.raises(ConfigurationError, match="out of range"):
            store.load_corpus(num_shards=4)

    def test_foreign_manifest_rejected(self, tmp_path):
        path = tmp_path / "log"
        path.mkdir()
        (path / "MANIFEST.json").write_text(
            json.dumps({"schema": "something/else/v9"}))
        with pytest.raises(DataError, match="shard manifest"):
            ShardStore(str(path))

    def test_tampered_vocab_delta_detected_on_replay(self, tmp_path):
        path = str(tmp_path / "log")
        store = ShardStore(path)
        _fill(store)
        delta_path = os.path.join(path, "vocab", "vocab-000002.json")
        with open(delta_path) as handle:
            delta = json.load(handle)
        delta["start_id"] += 1
        with open(delta_path, "w") as handle:
            json.dump(delta, handle)
        with pytest.raises(DataError, match="corrupt delta log"):
            ShardStore(path)


class TestExactlyOnceCommit:
    def test_batch_key_is_a_stable_content_hash(self):
        assert batch_key(BATCHES[0]) == batch_key(list(BATCHES[0]))
        assert batch_key(BATCHES[0]) != batch_key(BATCHES[1])
        assert batch_key(BATCHES[0]).startswith("sha256:")

    def test_retried_batch_is_not_committed_twice(self, tmp_path):
        store = ShardStore(str(tmp_path / "log"))
        first = store.append_batch(BATCHES[0],
                                   batch_key=batch_key(BATCHES[0]))
        again = store.append_batch(BATCHES[0],
                                   batch_key=batch_key(BATCHES[0]))
        assert first["already_committed"] is False
        assert again["already_committed"] is True
        assert again["shard_id"] == first["shard_id"]
        assert again["num_documents"] == first["num_documents"]
        assert store.num_shards == 1

    def test_dedup_survives_reopen(self, tmp_path):
        path = str(tmp_path / "log")
        _fill(ShardStore(path))
        reopened = ShardStore(path)
        report = reopened.append_batch(BATCHES[1],
                                       batch_key=batch_key(BATCHES[1]))
        assert report["already_committed"] is True
        assert reopened.num_shards == 3


class TestShardDirGuard:
    def test_is_shard_dir(self, tmp_path):
        store_path = str(tmp_path / "log")
        ShardStore(store_path)
        assert is_shard_dir(store_path)
        assert not is_shard_dir(str(tmp_path))
        assert not is_shard_dir(str(tmp_path / "missing"))

    def test_save_dataset_refuses_shard_dir(self, tmp_path):
        store_path = str(tmp_path / "log")
        ShardStore(store_path)
        dataset = generate_news_subset(
            seed=0, config=NewsConfig(articles_per_story=3))
        with pytest.raises(DataError, match="streaming shard store"):
            save_dataset(dataset, store_path)
        with pytest.raises(DataError, match="directory, not a dataset"):
            save_dataset(dataset, str(tmp_path))
        save_dataset(dataset, str(tmp_path / "ok.json"))
