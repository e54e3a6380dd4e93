"""Tests of the paper's stated theoretical properties (Section 3.2.2)."""

import numpy as np
import pytest

from repro.cathy import CathyHIN
from repro.corpus import Corpus
from repro.network import HeterogeneousNetwork, build_collapsed_network


def _scaled_network(network: HeterogeneousNetwork,
                    factor: float) -> HeterogeneousNetwork:
    names = {t: network.node_names(t) for t in network.node_types()}
    links = {}
    for link_type in network.link_types():
        i_idx, j_idx, weights = network.link_arrays(link_type)
        links[link_type] = (i_idx, j_idx, weights * factor)
    return HeterogeneousNetwork.from_links(names, links)


@pytest.fixture(scope="module")
def network():
    texts = (["red green blue"] * 8) + (["cat dog bird"] * 8)
    entities = ([{"venue": ["COLOR"]}] * 8 + [{"venue": ["ANIMAL"]}] * 8)
    corpus = Corpus.from_texts(texts, entities=entities)
    return build_collapsed_network(corpus)


class TestLemma31ScaleInvariance:
    """Lemma 3.1: the EM solution is invariant to a constant scale-up of
    all link weights."""

    def test_phi_and_rho_invariant_under_scaling(self, network):
        base = CathyHIN(num_topics=2, max_iter=60, seed=0).fit(network)
        scaled = CathyHIN(num_topics=2, max_iter=60, seed=0).fit(
            _scaled_network(network, 3.0))
        # Same seed -> same initialization -> identical trajectories.
        for node_type in base.phi:
            assert np.allclose(base.phi[node_type],
                               scaled.phi[node_type], atol=1e-8)
        assert np.allclose(base.rho, scaled.rho, atol=1e-8)
        assert base.rho0 == pytest.approx(scaled.rho0, abs=1e-8)

    def test_non_integer_weights_accepted(self, network):
        model = CathyHIN(num_topics=2, max_iter=30, seed=0).fit(
            _scaled_network(network, 0.37))
        for node_type, phi in model.phi.items():
            assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-6)


class TestTheorem32WeightNormalization:
    """Theorem 3.2: any positive weight vector has an equivalent one
    satisfying the product constraint, so learned alphas are reported in
    that normalized form."""

    def test_explicit_alpha_scaling_equivalence(self, network):
        alpha = {lt: 2.0 for lt in network.link_types()}
        doubled = CathyHIN(num_topics=2, weight_mode=alpha, max_iter=60,
                           seed=0).fit(network)
        unit = CathyHIN(num_topics=2, weight_mode="equal", max_iter=60,
                        seed=0).fit(network)
        # alpha = 2 for every type is a constant scale-up: Lemma 3.1
        # applies and the solutions coincide.
        for node_type in unit.phi:
            assert np.allclose(unit.phi[node_type],
                               doubled.phi[node_type], atol=1e-8)

    def test_learned_alpha_product_constraint(self, network):
        model = CathyHIN(num_topics=2, weight_mode="learn", max_iter=60,
                         seed=0).fit(network)
        log_product = sum(
            network.num_links(lt) * np.log(model.alpha[lt])
            for lt in network.link_types())
        assert log_product == pytest.approx(0.0, abs=1e-6)


class TestTheorem31EquivalentSolutions:
    """Theorem 3.1: the collapsed-model updates are an EM algorithm —
    so the observed-data likelihood is monotone under them."""

    def test_monotone_likelihood(self, network):
        values = []
        for iterations in (1, 5, 20, 60):
            model = CathyHIN(num_topics=2, max_iter=iterations,
                             seed=4).fit(network)
            values.append(model.log_likelihood)
        assert all(b >= a - 1e-8 for a, b in zip(values, values[1:]))
