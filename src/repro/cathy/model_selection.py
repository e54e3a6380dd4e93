"""Choosing the number of subtopics (Section 3.2.3).

Two strategies are provided, as discussed in the dissertation: held-out
cross-validation (Smyth) and the Bayesian information criterion.  Both
operate on the CATHYHIN model; BIC is recommended for small networks and
cross-validation when data is plentiful.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..network import HeterogeneousNetwork
from ..utils import EPS, RandomState, ensure_rng
from .hin_em import CathyHIN, HINTopicModel


def score_links(model: HINTopicModel,
                network: HeterogeneousNetwork,
                links: Iterable[Tuple[Tuple[str, str], int, int, float]],
                ) -> float:
    """Average per-unit-weight log score of held-out links under ``model``.

    Each element of ``links`` is (link_type, i, j, weight) with node ids
    in the *original* network's index space; node identity is resolved by
    name so models fitted on a subnetwork still score correctly.
    """
    total_ll = 0.0
    total_weight = 0.0
    name_index = {t: {name: idx for idx, name in enumerate(names)}
                  for t, names in model.node_names.items()}
    for link_type, i, j, weight in links:
        type_x, type_y = link_type
        name_x = network.node_names(type_x)[i]
        name_y = network.node_names(type_y)[j]
        idx_x = name_index.get(type_x, {}).get(name_x)
        idx_y = name_index.get(type_y, {}).get(name_y)
        if idx_x is None or idx_y is None:
            score = EPS
        else:
            topical = float(np.dot(
                model.rho,
                model.phi[type_x][:, idx_x] * model.phi[type_y][:, idx_y]))
            background = model.rho0 * 0.5 * (
                model.phi_background[type_x][idx_x]
                * model.phi_parent[type_y][idx_y]
                + model.phi_background[type_y][idx_y]
                * model.phi_parent[type_x][idx_x])
            score = max(topical + background, EPS)
        total_ll += weight * float(np.log(score))
        total_weight += weight
    if total_weight == 0:
        return 0.0
    return total_ll / total_weight


def split_network(network: HeterogeneousNetwork,
                  holdout_fraction: float = 0.2,
                  seed: RandomState = None,
                  ) -> Tuple[HeterogeneousNetwork, list]:
    """Randomly split links into a training network and a held-out list."""
    if not 0 < holdout_fraction < 1:
        raise ConfigurationError("holdout_fraction must be in (0, 1)")
    rng = ensure_rng(seed)
    held = np.zeros(network.num_links(), dtype=bool)
    held_out = []
    for l, link_type in enumerate(network.link_types()):
        # One batched draw per link type, over its links in CSR order.
        i_idx, j_idx, weights = network.link_arrays(link_type)
        mask = rng.random(len(weights)) < holdout_fraction
        held[network.type_id == l] = mask
        held_out.extend(
            (link_type, i, j, w)
            for i, j, w in zip(i_idx[mask].tolist(), j_idx[mask].tolist(),
                               weights[mask].tolist()))
    # The training network keeps every node and the links not held out.
    keep = ~held
    train = HeterogeneousNetwork(
        {t: network.node_names(t) for t in network.node_types()},
        network.rows[keep], network.cols[keep], network.weights[keep])
    return train, held_out


def select_num_topics(network: HeterogeneousNetwork,
                      candidates: Iterable[int] = range(2, 11),
                      method: str = "bic",
                      holdout_fraction: float = 0.2,
                      folds: int = 1,
                      seed: RandomState = None,
                      **fit_kwargs) -> Tuple[int, Dict[int, float]]:
    """Pick the number of subtopics k for one topic node.

    Args:
        method: ``"bic"`` (minimize BIC) or ``"cv"`` (maximize averaged
            held-out log-likelihood).
        folds: number of random held-out splits averaged for ``"cv"``.
        fit_kwargs: forwarded to :class:`~repro.cathy.hin_em.CathyHIN`.

    Returns:
        (best_k, score_per_k).  For BIC lower is better; for CV higher is
        better; ``best_k`` already accounts for the direction.
    """
    if method not in ("bic", "cv"):
        raise ConfigurationError("method must be 'bic' or 'cv'")
    rng = ensure_rng(seed)
    candidates = [k for k in candidates if k >= 1]
    if not candidates:
        raise ConfigurationError("no candidate topic numbers supplied")

    scores: Dict[int, float] = {}
    if method == "bic":
        for k in candidates:
            estimator = CathyHIN(num_topics=k, seed=rng, **fit_kwargs)
            estimator.fit(network)
            scores[k] = estimator.bic()
        best = min(scores, key=lambda k: scores[k])
        return best, scores

    splits = [split_network(network, holdout_fraction, seed=rng)
              for _ in range(max(folds, 1))]
    for k in candidates:
        fold_scores = []
        for train, held_out in splits:
            estimator = CathyHIN(num_topics=k, seed=rng, **fit_kwargs)
            model = estimator.fit(train)
            fold_scores.append(score_links(model, network, held_out))
        scores[k] = float(np.mean(fold_scores))
    best = max(scores, key=lambda k: scores[k])
    return best, scores
