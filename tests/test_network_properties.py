"""Property tests: the stacked CSR network vs per-edge dict bookkeeping.

Hypothesis drives random typed edge lists through three builds — the
pre-CSR reference (:class:`ReferenceDictNetwork`), the array constructor
fed each edge in its drawn type order, and the array constructor fed
each link type's edges in canonical order — and asserts they agree on
every aggregate solvers consume: total weights, per-node degree
vectors, stored links, and Eq. 3.23 subnetwork splits.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network import HeterogeneousNetwork
from .reference_kernels import ReferenceDictNetwork

NODE_TYPES = ("author", "term")
NUM_NODES = 5

edge_lists = st.lists(
    st.tuples(st.sampled_from(NODE_TYPES),
              st.integers(min_value=0, max_value=NUM_NODES - 1),
              st.sampled_from(NODE_TYPES),
              st.integers(min_value=0, max_value=NUM_NODES - 1),
              st.floats(min_value=0.0, max_value=8.0,
                        allow_nan=False, allow_infinity=False)),
    min_size=0, max_size=40)


NAMES = {node_type: [f"{node_type}{n}" for n in range(NUM_NODES)]
         for node_type in NODE_TYPES}


def _columns(rows):
    return tuple(np.asarray(col) for col in zip(*rows))


def _link_dict(network, link_type):
    i_idx, j_idx, weights = network.link_arrays(link_type)
    return dict(zip(zip(i_idx.tolist(), j_idx.tolist()), weights.tolist()))


def _build_all(edges):
    """(reference, per-edge CSR network, bulk CSR network) from one list.

    The per-edge build keeps every edge in its drawn type order; the bulk
    build swaps each edge into its canonical link type first.
    """
    reference = ReferenceDictNetwork()
    drawn, canonical = {}, {}
    for type_x, i, type_y, j, weight in edges:
        reference.add_link(type_x, i, type_y, j, weight)
        drawn.setdefault((type_x, type_y), []).append((i, j, weight))
        if type_x > type_y:
            type_x, type_y, i, j = type_y, type_x, j, i
        canonical.setdefault((type_x, type_y), []).append((i, j, weight))
    per_edge = HeterogeneousNetwork.from_links(
        NAMES, {lt: _columns(rows) for lt, rows in drawn.items()})
    bulk = HeterogeneousNetwork.from_links(
        NAMES, {lt: _columns(rows) for lt, rows in canonical.items()})
    return reference, per_edge, bulk


class TestDictVsCsrAgreement:
    @given(edge_lists)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_total_weight_and_link_dicts(self, edges):
        reference, per_edge, bulk = _build_all(edges)
        link_types = set(reference.links)
        for network in (per_edge, bulk):
            assert set(network.link_types()) <= link_types
            for link_type in link_types:
                assert network.total_weight(link_type) == pytest.approx(
                    reference.total_weight(link_type), rel=1e-12, abs=1e-12)
                stored = _link_dict(network, link_type)
                expected = {k: w for k, w in
                            reference.links[link_type].items() if w != 0}
                assert set(stored) <= set(reference.links[link_type])
                for key, weight in expected.items():
                    assert stored.get(key, 0.0) == pytest.approx(
                        weight, rel=1e-12, abs=1e-12)

    @given(edge_lists)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_degree_vectors(self, edges):
        reference, per_edge, bulk = _build_all(edges)
        for network in (per_edge, bulk):
            for node_type in NODE_TYPES:
                degrees = network.degree_vector(node_type)
                assert len(degrees) == NUM_NODES
                for node in range(NUM_NODES):
                    assert degrees[node] == pytest.approx(
                        reference.degree(node_type, node),
                        rel=1e-12, abs=1e-12)

    @given(edge_lists,
           st.floats(min_value=0.5, max_value=6.0, allow_nan=False))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_subnetwork_splits(self, edges, min_weight):
        """The link mask keeps exactly the links the reference split
        keeps, by node name."""
        reference, per_edge, _ = _build_all(edges)
        kept = reference.subnetwork_links(reference.links, min_weight)

        child = per_edge.subnetwork(per_edge.weights, min_weight=min_weight)
        observed = set()
        for link_type in child.link_types():
            type_x, type_y = link_type
            names_x = child.node_names(type_x)
            names_y = child.node_names(type_y)
            for i, j, weight in zip(*(a.tolist() for a in
                                      child.link_arrays(link_type))):
                # Same-type links are undirected; the child's node
                # re-indexing may flip the stored endpoint order.
                pair = frozenset if type_x == type_y else tuple
                observed.add((link_type, pair((names_x[i], names_y[j])),
                              round(weight, 9)))
        expected = set()
        for link_type, bucket in kept.items():
            pair = frozenset if link_type[0] == link_type[1] else tuple
            for (i, j), weight in bucket.items():
                expected.add((link_type,
                              pair((f"{link_type[0]}{i}",
                                    f"{link_type[1]}{j}")),
                              round(weight, 9)))
        assert observed == expected

    @given(edge_lists)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_per_edge_and_bulk_builds_identical(self, edges):
        """Edges in their drawn type order and edges swapped into their
        canonical link type are two routes to one stacked CSR."""
        _, per_edge, bulk = _build_all(edges)
        assert per_edge.link_types() == bulk.link_types()
        assert np.array_equal(per_edge.indptr, bulk.indptr)
        assert np.array_equal(per_edge.cols, bulk.cols)
        assert np.array_equal(per_edge.type_id, bulk.type_id)
        for link_type in per_edge.link_types():
            a_i, a_j, a_w = per_edge.link_arrays(link_type)
            b_i, b_j, b_w = bulk.link_arrays(link_type)
            assert (a_i == b_i).all() and (a_j == b_j).all()
            np.testing.assert_allclose(a_w, b_w, rtol=1e-12, atol=1e-12)
