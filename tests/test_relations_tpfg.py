"""Tests for TPFG inference and the relation baselines (Section 6.1)."""

import pytest

from repro.errors import DataError
from repro.relations import (Candidate, CandidateGraph, CollaborationNetwork,
                             IndMaxBaseline, ROOT, RuleBaseline, TPFG,
                             build_candidate_graph, evaluate_predictions,
                             precision_at)


def manual_graph():
    """Hand-built conflict case.

    'senior' is advised by 'prof' until 2002 (estimated).  'junior'
    starts in 2000 and collaborates with both; its local likelihood
    slightly prefers 'senior' — but choosing senior conflicts with
    senior's own (strongly preferred) advisor because 2002 >= 2000.
    TPFG must override the local preference; IndMAX must not.
    """
    graph = CandidateGraph()
    graph.candidates["senior"] = [
        Candidate("senior", "prof", 1995, 2002, 0.8),
        Candidate("senior", ROOT, 1995, 2005, 0.2),
    ]
    graph.candidates["junior"] = [
        Candidate("junior", "senior", 2000, 2004, 0.45),
        Candidate("junior", "prof", 2000, 2004, 0.40),
        Candidate("junior", ROOT, 2000, 2005, 0.15),
    ]
    graph.candidates["prof"] = [Candidate("prof", ROOT, 1990, 2005, 1.0)]
    return graph


class TestTPFGInference:
    def test_constraint_overrides_local_preference(self):
        result = TPFG(max_iter=10).fit(manual_graph())
        assert result.predicted_advisor("junior") == "prof"

    def test_indmax_follows_local_preference(self):
        result = IndMaxBaseline().predict(manual_graph())
        assert result.predicted_advisor("junior") == "senior"

    def test_senior_keeps_its_advisor(self):
        result = TPFG(max_iter=10).fit(manual_graph())
        assert result.predicted_advisor("senior") == "prof"

    def test_ranking_scores_normalized(self):
        result = TPFG(max_iter=10).fit(manual_graph())
        for author in ("junior", "senior", "prof"):
            total = sum(s for _, s in result.ranking[author])
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_root_only_author_predicts_none(self):
        result = TPFG(max_iter=10).fit(manual_graph())
        assert result.predicted_advisor("prof") is None

    def test_score_lookup(self):
        result = TPFG(max_iter=10).fit(manual_graph())
        assert result.score("junior", "prof") > 0
        assert result.score("junior", "stranger") == 0.0

    def test_damping_converges_to_same_answer(self):
        plain = TPFG(max_iter=20).fit(manual_graph())
        damped = TPFG(max_iter=20, damping=0.3).fit(manual_graph())
        assert plain.predicted_advisor("junior") == \
            damped.predicted_advisor("junior")

    def test_empty_candidate_list_is_a_data_error(self):
        graph = manual_graph()
        graph.candidates["orphan"] = []
        with pytest.raises(DataError, match="'orphan'"):
            TPFG(max_iter=10).fit(graph)

    def test_repeated_advisor_is_a_data_error(self):
        graph = manual_graph()
        graph.candidates["junior"].append(
            Candidate("junior", "prof", 2001, 2003, 0.1))
        with pytest.raises(DataError, match="'junior'"):
            TPFG(max_iter=10).fit(graph)


class TestOnSyntheticData:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.datasets import DBLPConfig, generate_dblp
        dataset = generate_dblp(DBLPConfig(max_authors=250), seed=7)
        network = CollaborationNetwork.from_corpus(dataset.corpus)
        graph = build_candidate_graph(network)
        truth = {r.advisee: r.advisor
                 for r in dataset.ground_truth.advising}
        for author in network.authors:
            truth.setdefault(author, None)
        return network, graph, truth

    def test_tpfg_beats_chance_by_far(self, setup):
        _, graph, truth = setup
        result = TPFG(max_iter=15).fit(graph)
        accuracy = evaluate_predictions(result.predictions(), truth)
        assert accuracy.advisee_accuracy > 0.6

    def test_tpfg_at_least_matches_indmax(self, setup):
        _, graph, truth = setup
        tpfg = evaluate_predictions(
            TPFG(max_iter=15).fit(graph).predictions(), truth)
        indmax = evaluate_predictions(
            IndMaxBaseline().predict(graph).predictions(), truth)
        assert tpfg.advisee_accuracy >= indmax.advisee_accuracy - 1e-9

    def test_rule_baseline_runs(self, setup):
        network, _, truth = setup
        predictions = RuleBaseline().predict(network)
        accuracy = evaluate_predictions(predictions, truth)
        assert 0.3 < accuracy.advisee_accuracy < 1.0

    def test_precision_at_k_increases_with_k(self, setup):
        _, graph, truth = setup
        result = TPFG(max_iter=15).fit(graph)
        p1 = precision_at(result, truth, top_k=1).advisee_accuracy
        p2 = precision_at(result, truth, top_k=2).advisee_accuracy
        p3 = precision_at(result, truth, top_k=3).advisee_accuracy
        assert p1 <= p2 <= p3

    def test_root_authors_mostly_unassigned(self, setup):
        _, graph, truth = setup
        result = TPFG(max_iter=15).fit(graph)
        accuracy = evaluate_predictions(result.predictions(), truth)
        assert accuracy.root_accuracy > 0.8


class TestMetrics:
    def test_evaluate_counts(self):
        truth = {"a": "x", "b": None, "c": "y"}
        predictions = {"a": "x", "b": None, "c": "z"}
        accuracy = evaluate_predictions(predictions, truth)
        assert accuracy.num_advisees == 2
        assert accuracy.num_roots == 1
        assert accuracy.advisee_accuracy == pytest.approx(0.5)
        assert accuracy.root_accuracy == pytest.approx(1.0)
        assert accuracy.accuracy == pytest.approx(2 / 3)

    def test_missing_prediction_counts_as_none(self):
        accuracy = evaluate_predictions({}, {"a": "x", "b": None})
        assert accuracy.advisee_accuracy == 0.0
        assert accuracy.root_accuracy == 1.0
