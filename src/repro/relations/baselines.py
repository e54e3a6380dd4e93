"""Baselines for advisor–advisee mining (Section 6.1.6).

* :class:`RuleBaseline` — the heuristic RULE method: among earlier-starting
  coauthors, pick the one with the most joint papers in the advisee's
  early career.
* :class:`IndMaxBaseline` — independent local optimum: every author picks
  the candidate with maximal local likelihood, ignoring the structural
  time constraints (this is exactly TPFG without message passing).
* :class:`SupervisedPairClassifier` — a feature-based discriminative
  classifier (logistic regression trained from scratch), the stand-in for
  the SVM baseline of the paper.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..utils import EPS, RandomState, ensure_rng
from .collab import CollaborationNetwork
from .features import FeatureScaler, pair_features
from .preprocess import CandidateGraph
from .tpfg import ROOT, TPFGResult


class RuleBaseline:
    """Heuristic advisor choice from early-career collaboration volume.

    Args:
        early_years: how many years of the advisee's career count as
            "early"; the coauthor (with a strictly earlier first
            publication) with the most joint papers in that window wins.
    """

    def __init__(self, early_years: int = 3) -> None:
        self.early_years = early_years

    def predict(self, network: CollaborationNetwork,
                ) -> Dict[str, Optional[str]]:
        """Predicted advisor (or ranking) per author."""
        predictions: Dict[str, Optional[str]] = {}
        for author in network.authors:
            first = network.series_of(author).first_year
            if first is None:
                predictions[author] = None
                continue
            cutoff = first + self.early_years - 1
            best_name, best_count = None, 0
            for coauthor in network.coauthors(author):
                other_first = network.series_of(coauthor).first_year
                if other_first is None or other_first >= first:
                    continue
                pair = network.pair(author, coauthor)
                early = sum(c for y, c in pair.counts.items() if y <= cutoff)
                if early > best_count:
                    best_name, best_count = coauthor, early
            predictions[author] = best_name
        return predictions


class IndMaxBaseline:
    """Independently pick each author's max-likelihood candidate."""

    def predict(self, graph: CandidateGraph) -> TPFGResult:
        """Predicted advisor (or ranking) per author."""
        ranking: Dict[str, List[Tuple[str, float]]] = {}
        for author in graph.authors:
            pairs = sorted(
                ((c.advisor, c.likelihood) for c in graph.advisors_of(author)),
                key=lambda pair: (-pair[1], pair[0]))
            ranking[author] = pairs
        return TPFGResult(ranking=ranking)


class SupervisedPairClassifier:
    """Logistic regression over candidate-pair features.

    Trained on labeled pairs (positive: the true advisor; negative: the
    other candidates of the same advisee), predicts per-author by taking
    the highest-probability candidate above ``threshold``.

    Args:
        learning_rate / epochs / l2: plain batch gradient descent knobs.
        threshold: minimum positive-class probability to predict a real
            advisor at all.
    """

    def __init__(self, learning_rate: float = 0.5, epochs: int = 300,
                 l2: float = 1e-3, threshold: float = 0.5,
                 seed: RandomState = None) -> None:
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.threshold = threshold
        self._rng = ensure_rng(seed)
        self.weights_: Optional[np.ndarray] = None
        self.bias_: float = 0.0
        self.scaler_ = FeatureScaler()

    def fit(self, network: CollaborationNetwork, graph: CandidateGraph,
            labeled_advisees: Dict[str, Optional[str]],
            ) -> "SupervisedPairClassifier":
        """Train on the candidates of ``labeled_advisees``.

        ``labeled_advisees[x]`` is x's true advisor name or None.
        """
        rows, labels = [], []
        for advisee, true_advisor in labeled_advisees.items():
            for candidate in graph.advisors_of(advisee):
                if candidate.advisor == ROOT:
                    continue
                rows.append(pair_features(network, candidate))
                labels.append(1.0 if candidate.advisor == true_advisor
                              else 0.0)
        if not rows:
            self.weights_ = np.zeros(len(pair_features(
                network, graph.advisors_of(graph.authors[0])[0])))
            return self
        features = np.array(rows)
        target = np.array(labels)
        self.scaler_.fit(features)
        scaled = self.scaler_.transform(features)

        weights = np.zeros(scaled.shape[1])
        bias = 0.0
        for _ in range(self.epochs):
            logits = scaled @ weights + bias
            probs = 1.0 / (1.0 + np.exp(-logits))
            gradient_w = scaled.T @ (probs - target) / len(target) \
                + self.l2 * weights
            gradient_b = float((probs - target).mean())
            weights -= self.learning_rate * gradient_w
            bias -= self.learning_rate * gradient_b
        self.weights_ = weights
        self.bias_ = bias
        return self

    def predict(self, network: CollaborationNetwork,
                graph: CandidateGraph) -> TPFGResult:
        """Score every candidate and rank per author."""
        ranking: Dict[str, List[Tuple[str, float]]] = {}
        for author in graph.authors:
            pairs: List[Tuple[str, float]] = []
            for candidate in graph.advisors_of(author):
                if candidate.advisor == ROOT:
                    pairs.append((ROOT, self.threshold))
                    continue
                scaled = self.scaler_.transform(
                    pair_features(network, candidate)[None, :])
                logit = float((scaled @ self.weights_)[0] + self.bias_)
                prob = 1.0 / (1.0 + np.exp(-logit))
                pairs.append((candidate.advisor, prob))
            total = sum(p for _, p in pairs)
            pairs = [(name, p / max(total, EPS)) for name, p in pairs]
            pairs.sort(key=lambda pair: (-pair[1], pair[0]))
            ranking[author] = pairs
        return TPFGResult(ranking=ranking)
