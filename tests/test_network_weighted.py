"""Tests for repro.network.weighted."""

import numpy as np
import pytest

from repro.errors import DataError
from repro.network import HeterogeneousNetwork, canonical_link_type

NAMES = {"term": ["query", "database"], "author": ["alice"]}


@pytest.fixture
def net():
    return HeterogeneousNetwork.from_links(NAMES, {
        ("term", "term"): ([0], [1], [2.0]),
        ("term", "author"): ([0], [0], [1.0]),
    })


class TestCanonicalLinkType:
    def test_orders_lexicographically(self):
        assert canonical_link_type("venue", "author") == ("author", "venue")
        assert canonical_link_type("author", "venue") == ("author", "venue")


class TestNodes:
    def test_node_id_lookup(self, net):
        assert net.node_id("author", "alice") == 0

    def test_unknown_node_raises(self, net):
        with pytest.raises(DataError):
            net.node_id("author", "nobody")

    def test_unknown_type_raises(self, net):
        with pytest.raises(DataError):
            net.node_names("person")

    def test_types_sorted_and_empty_types_listed(self):
        network = HeterogeneousNetwork.from_links(
            {"venue": [], "author": ["a"], "term": ["t"]},
            {("term", "author"): ([0], [0], 1.0)})
        assert network.node_types() == ["author", "term", "venue"]
        assert network.node_count("venue") == 0
        assert network.offsets.tolist() == [0, 1, 2, 2]

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            HeterogeneousNetwork.from_links({"term": ["a", "a"]})


class TestLinks:
    def test_weight_accumulates(self):
        network = HeterogeneousNetwork.from_links(NAMES, {
            ("term", "term"): ([0, 1, 0], [1, 0, 1], [2.0, 3.0, 0.5])})
        assert network.link_weight("term", 0, "term", 1) == 5.5
        assert network.num_links() == 1

    def test_undirected_symmetry(self, net):
        assert net.link_weight("term", 1, "term", 0) == 2.0

    def test_cross_type_order_irrelevant(self, net):
        assert net.link_weight("author", 0, "term", 0) == 1.0
        assert net.link_weight("term", 0, "author", 0) == 1.0

    def test_absent_link_is_zero(self, net):
        assert net.link_weight("term", 1, "author", 0) == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(DataError):
            HeterogeneousNetwork.from_links(
                NAMES, {("term", "term"): ([0], [1], [-1.0])})

    def test_link_types_sorted_nonempty(self, net):
        assert net.link_types() == [("author", "term"), ("term", "term")]

    def test_total_weight(self, net):
        assert net.total_weight() == 3.0
        assert net.total_weight(("term", "term")) == 2.0

    def test_out_of_range_index_rejected(self):
        for i_idx, j_idx in (([0], [99]), ([-1], [0])):
            with pytest.raises(DataError):
                HeterogeneousNetwork.from_links(
                    NAMES, {("term", "term"): (i_idx, j_idx, [1.0])})
        with pytest.raises(DataError):
            HeterogeneousNetwork.from_links(
                NAMES, {("term", "person"): ([0], [0], [1.0])})

    def test_same_type_pairs_ordered(self):
        network = HeterogeneousNetwork.from_links(
            {"term": ["a", "b", "c"]},
            {("term", "term"): ([2, 1], [0, 2], [1.0, 4.0])})
        i_idx, j_idx, weights = network.link_arrays(("term", "term"))
        assert i_idx.tolist() == [0, 1]
        assert j_idx.tolist() == [2, 2]
        assert weights.tolist() == [1.0, 4.0]

    def test_stacked_csr_order(self, net):
        # author:alice is stacked id 0, term:query 1, term:database 2.
        assert net.rows.tolist() == [0, 1]
        assert net.cols.tolist() == [1, 2]
        assert net.indptr.tolist() == [0, 1, 2, 2]
        assert net.type_id.tolist() == [0, 1]


class TestDegree:
    def test_degree_counts_incident_weight(self, net):
        assert net.degree_vector("term").tolist() == [3.0, 2.0]
        assert net.degree_vector("author").tolist() == [1.0]

    def test_self_link_counts_once(self):
        network = HeterogeneousNetwork.from_links(
            {"term": ["a", "b"]},
            {("term", "term"): ([0, 0], [0, 1], [2.0, 1.0])})
        assert network.degree_vector("term").tolist() == [3.0, 1.0]


class TestSubnetwork:
    # The fixture's links in CSR order: author-term, then term-term.
    def test_threshold_filters_links(self, net):
        sub = net.subnetwork(np.array([0.0, 0.5]), min_weight=1.0)
        assert sub.num_links() == 0
        assert sub.node_types() == []

    def test_nodes_keep_identity(self, net):
        sub = net.subnetwork(np.array([0.0, 2.0]))
        assert sub.node_names("term") == ["query", "database"]
        assert sub.link_weight("term", 0, "term", 1) == 2.0

    def test_isolated_nodes_not_added(self, net):
        sub = net.subnetwork(np.array([1.5, 0.0]))
        assert "author" in sub.node_types()
        assert sub.node_count("author") == 1
        assert sub.node_count("term") == 1

    def test_renumbering_flips_same_type_pair(self):
        # Term "c" enters the child first (through the author-term link),
        # so the term-term pair (b, c) is stored as (c, b) = (0, 1).
        network = HeterogeneousNetwork.from_links(
            {"author": ["x"], "term": ["a", "b", "c"]},
            {("author", "term"): ([0], [2], [1.0]),
             ("term", "term"): ([1], [2], [3.0])})
        sub = network.subnetwork(np.array([1.0, 3.0]))
        assert sub.node_names("term") == ["c", "b"]
        assert sub.link_arrays(("term", "term"))[0].tolist() == [0]
        assert sub.link_arrays(("term", "term"))[1].tolist() == [1]
