"""Recursive topical hierarchy construction (Steps 1-3 of CATHY/CATHYHIN).

A :class:`HierarchyBuilder` clusters a network into subtopic subnetworks
with :class:`~repro.cathy.hin_em.CathyHIN` and recurses top-down until the
requested depth, a too-small subnetwork, or a model-selection stop.  The
result is a :class:`~repro.hierarchy.TopicalHierarchy` whose topics carry
per-type ranking distributions and their subnetworks — ready for phrase
ranking (Chapter 4) and role analysis (Chapter 5).

Sibling subtopic subproblems are independent (the STROD chapter's
scalability observation): each child's subtree is expanded in turn, in
rho order, and draws its randomness from a
:class:`~numpy.random.SeedSequence` spawned off its parent's, so a
resumed build replays exactly the draws of the uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..errors import ConfigurationError
from ..hierarchy import Topic, TopicalHierarchy
from ..network import HeterogeneousNetwork
from ..obs import get_logger, span
from ..resilience import checkpoint_in
from ..utils import RandomState, ensure_rng, rng_from, spawn_seed_sequences
from .hin_em import CathyHIN
from .model_selection import select_num_topics

logger = get_logger("cathy.builder")


@dataclass
class BuilderConfig:
    """Configuration for :class:`HierarchyBuilder`.

    Attributes:
        num_children: children per topic — an int used at every level, a
            sequence indexed by level, or ``"auto"`` for model selection.
        max_depth: maximal topic level (1 = flat clustering at the root).
        auto_candidates: candidate k values when ``num_children="auto"``.
        selection_method: ``"bic"`` or ``"cv"`` for auto selection.
        min_network_weight: stop recursing below this total link weight.
        min_nodes: stop recursing when any would-be clustering has fewer
            nodes than this.
        weight_mode: CATHYHIN link-type weight mode per level
            (``"equal"``/``"norm"``/``"learn"`` or mapping).
        max_iter / restarts / tol: forwarded to the EM.
        subnetwork_min_weight: threshold for dropping links when extracting
            child networks (the "expected weight >= 1" rule).
        checkpoint_dir: directory for crash-recovery checkpoints; every
            topic node gets a subtree checkpoint (finished expansions)
            and an EM checkpoint (the in-flight fit), so a killed build
            resumes without redoing completed subtrees.  None disables
            checkpointing.
        checkpoint_every: EM-iteration cadence for the in-flight
            checkpoints (1 = every iteration).
        resume: continue from existing checkpoints in ``checkpoint_dir``;
            checkpoints written under different builder parameters or a
            different seed are rejected with a
            :class:`~repro.errors.DataError` because resuming them would
            not reproduce the uninterrupted build.
    """

    num_children: Union[int, Sequence[int], str] = 4
    max_depth: int = 2
    auto_candidates: Sequence[int] = tuple(range(2, 9))
    selection_method: str = "bic"
    min_network_weight: float = 20.0
    min_nodes: int = 4
    weight_mode: object = "equal"
    max_iter: int = 150
    restarts: int = 1
    tol: float = 1e-6
    subnetwork_min_weight: float = 1.0
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1
    resume: bool = False

    #: Parameters that must match for a checkpoint to be resumable
    #: (the checkpoint knobs themselves excluded on purpose).
    _GUARDED = ("num_children", "max_depth", "auto_candidates",
                "selection_method", "min_network_weight", "min_nodes",
                "weight_mode", "max_iter", "restarts", "tol",
                "subnetwork_min_weight")


def _safe_name(notation: str) -> str:
    """A topic notation as a filesystem-safe checkpoint file stem."""
    return notation.replace("/", "-")


class HierarchyBuilder:
    """Builds a topical hierarchy from an edge-weighted network."""

    def __init__(self, config: Optional[BuilderConfig] = None,
                 seed: RandomState = None) -> None:
        self.config = config or BuilderConfig()
        self._rng = ensure_rng(seed)

    # ----------------------------------------------------------------- build
    def build(self, network: HeterogeneousNetwork) -> TopicalHierarchy:
        """Construct the hierarchy rooted at topic ``o`` for ``network``."""
        hierarchy = TopicalHierarchy()
        hierarchy.root.network = network
        self._set_parent_phi(hierarchy.root, network)
        root_seq = spawn_seed_sequences(self._rng, 1)[0]
        self._expand(hierarchy.root, network, 0, root_seq)
        return hierarchy

    def expand_topic(self, hierarchy: TopicalHierarchy, topic: Topic,
                     num_children: Optional[int] = None) -> None:
        """Re-grow the subtree under ``topic`` (the revision primitive).

        This is the "revise part of the hierarchy while remaining other
        parts intact" operation highlighted in Section 1.4.  With
        ``num_children`` given, exactly one level of that many subtopics
        is grown; otherwise the builder's configuration applies as it
        did during the original construction.
        """
        if topic.network is None:
            raise ConfigurationError(
                f"topic {topic.notation} has no attached network")
        topic.children = []
        seed_seq = spawn_seed_sequences(self._rng, 1)[0]
        if num_children is None:
            self._expand(topic, topic.network, topic.level, seed_seq)
            return
        saved_children = self.config.num_children
        saved_depth = self.config.max_depth
        self.config.num_children = [0] * topic.level + [num_children]
        self.config.max_depth = topic.level + 1
        try:
            self._expand(topic, topic.network, topic.level, seed_seq)
        finally:
            self.config.num_children = saved_children
            self.config.max_depth = saved_depth

    # -------------------------------------------------------------- recursion
    def _expand(self, topic: Topic, network: HeterogeneousNetwork,
                level: int, seed_seq: np.random.SeedSequence) -> None:
        # One span per hierarchy node: the recursion's span tree mirrors
        # the topic tree, so a flamegraph shows which subtree was slow.
        with span("cathy.builder.expand", topic=topic.notation,
                  level=level):
            self._expand_node(topic, network, level, seed_seq)

    def _expand_node(self, topic: Topic, network: HeterogeneousNetwork,
                     level: int, seed_seq: np.random.SeedSequence) -> None:
        config = self.config
        if level >= config.max_depth:
            return
        if network.total_weight() < config.min_network_weight:
            return
        num_nodes = sum(network.node_count(t) for t in network.node_types())
        if num_nodes < config.min_nodes or not network.link_types():
            return

        # Crash recovery: a finished subtree is restored wholesale; an
        # interrupted EM fit resumes from its iteration checkpoint.  The
        # guard ties every file to the builder parameters and this
        # node's spawned seed, so a stale or foreign checkpoint is
        # rejected instead of silently breaking reproducibility.
        guard = self._checkpoint_guard(seed_seq)
        stem = _safe_name(topic.notation)
        subtree_writer = checkpoint_in(
            config.checkpoint_dir, "subtree_" + stem,
            "cathy.builder.subtree", config=guard)
        if subtree_writer is not None and config.resume:
            saved = subtree_writer.load()
            if saved is not None:
                topic.children = saved["state"]["children"]
                logger.debug("restored subtree %s from checkpoint",
                             topic.notation)
                return
        em_writer = checkpoint_in(
            config.checkpoint_dir, "em_" + stem, "cathy.hin_em",
            config=guard, every=config.checkpoint_every)

        k = self._children_at(level, network, seed_seq)
        if k < 2:
            return

        logger.debug("expanding %s at level %d into %d subtopics "
                     "(%d nodes, total weight %.1f)", topic.notation,
                     level, k, num_nodes, network.total_weight())
        fit_seq = seed_seq.spawn(1)[0]
        estimator = CathyHIN(num_topics=k,
                             weight_mode=config.weight_mode,
                             max_iter=config.max_iter,
                             restarts=config.restarts,
                             tol=config.tol,
                             seed=rng_from(fit_seq),
                             checkpoint=em_writer,
                             resume=config.resume)
        model = estimator.fit(network)

        # Order children by descending rho so child index 0 is the largest
        # subtopic — stable, readable hierarchies.
        order = np.argsort(-model.rho, kind="stable")
        child_seqs = seed_seq.spawn(len(order))
        for z, child_seq in zip(order, child_seqs):
            z = int(z)
            subnetwork = estimator.subnetwork(
                z, min_weight=config.subnetwork_min_weight)
            child = Topic(
                rho=float(model.rho[z]),
                phi={t: model.topic_distribution(t, z)
                     for t in model.node_names},
                network=subnetwork)
            topic.add_child(child)
            self._expand(child, subnetwork, level + 1, child_seq)
        if subtree_writer is not None:
            subtree_writer.save(level, {"children": topic.children})
            if em_writer is not None:
                em_writer.clear()

    def _checkpoint_guard(self, seed_seq: np.random.SeedSequence,
                          ) -> Dict[str, object]:
        """The config fingerprint stored with every checkpoint of a node."""
        guard: Dict[str, object] = {
            name: getattr(self.config, name)
            for name in BuilderConfig._GUARDED}
        guard["seed_entropy"] = repr(seed_seq.entropy)
        guard["spawn_key"] = list(seed_seq.spawn_key)
        return guard

    def _children_at(self, level: int, network: HeterogeneousNetwork,
                     seed_seq: np.random.SeedSequence) -> int:
        num_children = self.config.num_children
        if num_children == "auto":
            selection_seq = seed_seq.spawn(1)[0]
            best, _ = select_num_topics(
                network,
                candidates=self.config.auto_candidates,
                method=self.config.selection_method,
                seed=rng_from(selection_seq),
                weight_mode=self.config.weight_mode,
                max_iter=min(self.config.max_iter, 60),
                restarts=1)
            return best
        if isinstance(num_children, int):
            return num_children
        if isinstance(num_children, Sequence):
            if level < len(num_children):
                return int(num_children[level])
            return 0
        raise ConfigurationError(
            f"unsupported num_children: {num_children!r}")

    @staticmethod
    def _set_parent_phi(root: Topic, network: HeterogeneousNetwork) -> None:
        """Give the root a phi built from weighted degrees.

        Matches the convention that a topic's ranking distribution is the
        normalized node participation in its own network.
        """
        for node_type in network.node_types():
            names = network.node_names(node_type)
            if not names:
                continue
            degrees = network.degree_vector(node_type)
            total = degrees.sum()
            if total <= 0:
                continue
            root.phi[node_type] = {
                name: float(d / total)
                for name, d in zip(names, degrees) if d > 0}
