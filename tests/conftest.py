"""Shared fixtures: small synthetic datasets, cached per session."""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.corpus import Corpus
from repro.datasets import (DBLPConfig, NewsConfig, generate_dblp,
                            generate_news, generate_planted_lda)
from repro.network import build_collapsed_network, build_term_network


TINY_TEXTS = [
    "query processing in database systems",
    "query optimization for database systems",
    "database systems and query processing",
    "support vector machines for classification",
    "feature selection with support vector machines",
    "classification using support vector machines",
    "query processing and query optimization",
    "support vector machines and feature selection",
]

TINY_ENTITIES = [
    {"author": ["alice", "bob"], "venue": ["DB-CONF"]},
    {"author": ["alice"], "venue": ["DB-CONF"]},
    {"author": ["bob"], "venue": ["DB-CONF"]},
    {"author": ["carol", "dave"], "venue": ["ML-CONF"]},
    {"author": ["carol"], "venue": ["ML-CONF"]},
    {"author": ["dave"], "venue": ["ML-CONF"]},
    {"author": ["alice", "bob"], "venue": ["DB-CONF"]},
    {"author": ["carol", "dave"], "venue": ["ML-CONF"]},
]

TINY_LABELS = ["db", "db", "db", "ml", "ml", "ml", "db", "ml"]


@pytest.fixture(autouse=True)
def _isolate_obs():
    """Keep observability state from leaking between tests."""
    yield
    obs.reset()


@pytest.fixture
def tiny_corpus() -> Corpus:
    """Eight handcrafted titles over two clean topics."""
    return Corpus.from_texts(TINY_TEXTS, entities=TINY_ENTITIES,
                             labels=TINY_LABELS,
                             years=[2000 + i for i in range(len(TINY_TEXTS))])


@pytest.fixture(scope="session")
def dblp_small():
    """A small synthetic DBLP dataset shared across the session."""
    return generate_dblp(DBLPConfig(max_authors=120), seed=3)


@pytest.fixture(scope="session")
def dblp_network(dblp_small):
    return build_collapsed_network(dblp_small.corpus)


@pytest.fixture(scope="session")
def dblp_term_network(dblp_small):
    return build_term_network(dblp_small.corpus)


@pytest.fixture(scope="session")
def news_small():
    return generate_news(NewsConfig(num_stories=4, articles_per_story=50),
                         seed=5)


@pytest.fixture(scope="session")
def planted_small():
    return generate_planted_lda(num_docs=600, num_topics=4, vocab_size=80,
                                doc_length=40, seed=11)


@pytest.fixture(scope="session")
def mined():
    """A 6x3 hierarchy with phrases and roles fitted on 100 authors."""
    from repro.core import LatentEntityMiner, MinerConfig
    dataset = generate_dblp(DBLPConfig(max_authors=100), seed=3)
    miner = LatentEntityMiner(
        MinerConfig(num_children=[6, 3], max_depth=2), seed=0)
    return dataset, miner.fit(dataset.corpus)
