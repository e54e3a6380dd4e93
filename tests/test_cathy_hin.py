"""Tests for the heterogeneous CATHYHIN model (Section 3.2)."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cathy import CathyHIN
from repro.corpus import Corpus
from repro.errors import ConfigurationError, NotFittedError
from repro.network import build_collapsed_network


@pytest.fixture
def hetero_network():
    """Two clean communities with authors and venues."""
    texts = (["red green blue"] * 8) + (["cat dog bird"] * 8)
    entities = ([{"author": ["ann", "abe"], "venue": ["COLOR"]}] * 8
                + [{"author": ["zoe", "zed"], "venue": ["ANIMAL"]}] * 8)
    corpus = Corpus.from_texts(texts, entities=entities)
    return build_collapsed_network(corpus)


class TestBasicModel:
    def test_separates_communities(self, hetero_network):
        model = CathyHIN(num_topics=2, seed=0).fit(hetero_network)
        venues0 = model.top_nodes("venue", 0, 1)
        venues1 = model.top_nodes("venue", 1, 1)
        assert {venues0[0], venues1[0]} == {"COLOR", "ANIMAL"}
        # Terms and authors separate consistently with the venue.
        for z, venue in ((0, venues0[0]), (1, venues1[0])):
            terms = set(model.top_nodes("term", z, 3))
            if venue == "COLOR":
                assert terms == {"red", "green", "blue"}
            else:
                assert terms == {"cat", "dog", "bird"}

    def test_phi_distributions_normalized(self, hetero_network):
        model = CathyHIN(num_topics=2, seed=0).fit(hetero_network)
        for node_type, phi in model.phi.items():
            assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-6)
            assert model.phi_background[node_type].sum() == pytest.approx(
                1.0, abs=1e-6)

    def test_rho_plus_background_is_one(self, hetero_network):
        model = CathyHIN(num_topics=2, seed=0).fit(hetero_network)
        assert model.rho.sum() + model.rho0 == pytest.approx(1.0, abs=1e-6)

    def test_no_background_option(self, hetero_network):
        model = CathyHIN(num_topics=2, background=False,
                         seed=0).fit(hetero_network)
        assert model.rho0 == 0.0

    def test_invalid_weight_mode(self):
        with pytest.raises(ConfigurationError):
            CathyHIN(num_topics=2, weight_mode="bogus")

    @pytest.mark.parametrize("restarts", [0, -2])
    def test_restarts_below_one_rejected(self, hetero_network, restarts):
        # Zero restarts would fit nothing and return no model.
        with pytest.raises(ConfigurationError, match="restarts"):
            CathyHIN(num_topics=3, restarts=restarts).fit(hetero_network)

    def test_requires_fit_for_subnetwork(self, hetero_network):
        with pytest.raises(NotFittedError):
            CathyHIN(num_topics=2).subnetwork(0)


class TestWeightModes:
    def test_explicit_weights_accepted(self, hetero_network):
        weights = {lt: 1.0 for lt in hetero_network.link_types()}
        model = CathyHIN(num_topics=2, weight_mode=weights,
                         seed=0).fit(hetero_network)
        assert set(model.alpha) == set(hetero_network.link_types())

    def test_norm_mode_equalizes_scaled_totals(self, hetero_network):
        model = CathyHIN(num_topics=2, weight_mode="norm",
                         seed=0).fit(hetero_network)
        totals = [model.alpha[lt] * hetero_network.total_weight(lt)
                  for lt in hetero_network.link_types()]
        assert max(totals) / min(totals) == pytest.approx(1.0, rel=1e-6)

    def test_learned_weights_satisfy_theorem_3_2(self, hetero_network):
        model = CathyHIN(num_topics=2, weight_mode="learn",
                         seed=0).fit(hetero_network)
        log_sum = sum(
            hetero_network.num_links(lt) * np.log(model.alpha[lt])
            for lt in hetero_network.link_types())
        assert log_sum == pytest.approx(0.0, abs=1e-6)

    def test_learned_weights_positive(self, hetero_network):
        model = CathyHIN(num_topics=2, weight_mode="learn",
                         seed=0).fit(hetero_network)
        assert all(v > 0 for v in model.alpha.values())


class TestSubnetworks:
    def test_expected_weights_bounded_by_scaled_observed(self,
                                                         hetero_network):
        estimator = CathyHIN(num_topics=2, seed=0)
        model = estimator.fit(hetero_network)
        for link_type in hetero_network.link_types():
            alpha = model.alpha[link_type]
            i_idx, j_idx, weights = hetero_network.link_arrays(link_type)
            observed = dict(zip(zip(i_idx.tolist(), j_idx.tolist()),
                                weights.tolist()))
            for z in range(2):
                bucket = estimator.expected_link_weights(z)[link_type]
                for key, value in bucket.items():
                    assert value <= alpha * observed[key] + 1e-9

    def test_subnetwork_smaller_than_parent(self, hetero_network):
        estimator = CathyHIN(num_topics=2, seed=0)
        estimator.fit(hetero_network)
        sub = estimator.subnetwork(0)
        assert sub.total_weight() < hetero_network.total_weight()

    def test_bic_computable(self, hetero_network):
        estimator = CathyHIN(num_topics=2, seed=0)
        estimator.fit(hetero_network)
        assert np.isfinite(estimator.bic())


class TestOnSyntheticDBLP:
    def test_recovers_area_venues(self, dblp_network):
        """Each discovered topic's top venues come from one true area."""
        model = CathyHIN(num_topics=6, weight_mode="learn",
                         max_iter=80, seed=0).fit(dblp_network)
        pure_topics = 0
        for z in range(6):
            venues = model.top_nodes("venue", z, 3)
            prefixes = {v.split("-")[0] for v in venues}
            if len(prefixes) == 1:
                pure_topics += 1
        assert pure_topics >= 4

    def test_monotone_likelihood_on_real_shape(self, dblp_network):
        values = []
        for iterations in (2, 10, 40):
            model = CathyHIN(num_topics=4, max_iter=iterations,
                             seed=5).fit(dblp_network)
            values.append(model.log_likelihood)
        assert values[-1] >= values[0] - 1e-6


class TestBayesianPriors:
    """The Section 3.2.3 extension: Dirichlet pseudo-count smoothing."""

    def test_phi_prior_removes_zeros(self, hetero_network):
        model = CathyHIN(num_topics=2, phi_prior=0.5, max_iter=40,
                         seed=0).fit(hetero_network)
        for phi in model.phi.values():
            assert np.all(phi > 0)

    def test_rho_prior_balances_subtopics(self):
        # Unequal communities: 24 vs 4 documents.
        texts = ["red green blue"] * 24 + ["cat dog bird"] * 4
        entities = ([{"venue": ["COLOR"]}] * 24
                    + [{"venue": ["ANIMAL"]}] * 4)
        network = build_collapsed_network(
            Corpus.from_texts(texts, entities=entities))
        plain = CathyHIN(num_topics=2, max_iter=60, seed=2).fit(network)
        smoothed = CathyHIN(num_topics=2, rho_prior=10 ** 4, max_iter=60,
                            seed=2).fit(network)

        def spread(rho):
            return float(rho.max() - rho.min())

        assert spread(smoothed.rho) < spread(plain.rho)

    def test_negative_prior_rejected(self):
        with pytest.raises(ConfigurationError):
            CathyHIN(num_topics=2, rho_prior=-1.0)
        with pytest.raises(ConfigurationError):
            CathyHIN(num_topics=2, phi_prior=-0.1)


_LL_PROBE = """
import numpy as np
from repro.cathy import CathyEM, CathyHIN
from repro.network import HeterogeneousNetwork
rng = np.random.default_rng(7)
names = {"author": [f"a{n}" for n in range(200)],
         "term": [f"t{n}" for n in range(600)]}
def column(size_x, size_y, count=15_000):
    return (rng.integers(0, size_x, count), rng.integers(0, size_y, count),
            rng.uniform(0.5, 3.0, count))
terms = {("term", "term"): column(600, 600)}
hin = {**terms, ("author", "term"): column(200, 600)}
term_network = HeterogeneousNetwork.from_links({"term": names["term"]},
                                               terms)
network = HeterogeneousNetwork.from_links(names, hin)
assert term_network.num_links() > 10_000
text = CathyEM(num_topics=3, max_iter=4, seed=0).fit(term_network)
both = CathyHIN(num_topics=3, weight_mode="learn", weight_update_every=2,
                max_iter=4, seed=0).fit(network)
print(repr(text.log_likelihood), repr(both.log_likelihood))
"""


class TestBlasThreadIndependence:
    def test_log_likelihood_bit_equal_at_one_and_two_threads(self):
        """The EM log-likelihoods of fits over more than 10,000 links do
        not depend on the BLAS thread count.

        A BLAS dot product over that many elements is split across
        OpenBLAS's threads, which changes its rounding; this test can only
        fail where OpenBLAS starts a second thread (a host with more than
        one CPU, and a numpy linked against OpenBLAS).
        """
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.path.dirname(
                os.path.dirname(repro.__file__)),
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", _LL_PROBE],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.split())
        assert outputs[0] == outputs[1]
