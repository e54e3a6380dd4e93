"""The integrated mining framework (Section 1.4).

:class:`LatentEntityMiner` chains the dissertation's modules end to end:

1. collapse the text-attached network (Chapter 1 data model),
2. recursively construct the phrase-represented, entity-enriched topical
   hierarchy (Chapters 3-4),
3. expose entity topical role analysis over it (Chapter 5),
4. optionally mine hierarchical advisor–advisee relations when documents
   carry timestamps (Chapter 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cathy import BuilderConfig, HierarchyBuilder
from ..corpus import Corpus
from ..errors import DataError
from ..hierarchy import TopicalHierarchy
from ..network import HeterogeneousNetwork, build_collapsed_network
from ..obs import (build_run_report, get_logger, get_report_path,
                   is_enabled, span, write_report)
from ..phrases import (PhraseCounts, attach_entity_rankings, attach_phrases)
from ..relations import (CandidateGraph, CollaborationNetwork, TPFG,
                         TPFGResult, build_candidate_graph)
from ..roles import RoleAnalyzer
from ..utils import RandomState, ensure_rng

logger = get_logger("core.miner")


@dataclass
class MinerConfig:
    """End-to-end configuration.

    Attributes:
        num_children: children per topic per level (see
            :class:`~repro.cathy.BuilderConfig.num_children`).
        max_depth: hierarchy depth.
        weight_mode: CATHYHIN link-type weighting
            ("equal" / "norm" / "learn" / mapping).
        min_support: frequent-phrase mining threshold.
        max_phrase_length: longest mined phrase.
        entity_types: which entity types to use (default: all present).
        min_count: minimum term frequency to enter the network.
        top_k: phrases / entities retained per topic.
    """

    num_children: Union[int, Sequence[int], str] = 4
    max_depth: int = 2
    weight_mode: object = "learn"
    min_support: int = 5
    max_phrase_length: int = 6
    entity_types: Optional[Sequence[str]] = None
    min_count: int = 1
    top_k: int = 20
    builder_overrides: Dict[str, object] = field(default_factory=dict)


@dataclass
class MiningResult:
    """Everything the integrated pipeline produces."""

    corpus: Corpus
    network: HeterogeneousNetwork
    hierarchy: TopicalHierarchy
    counts: PhraseCounts
    roles: RoleAnalyzer
    #: Run report (see :mod:`repro.obs.report`); None while observability
    #: is disabled.
    report: Optional[Dict[str, object]] = None

    def render(self, max_phrases: int = 5,
               entity_types: Optional[List[str]] = None,
               max_entities: int = 3) -> str:
        """ASCII rendering of the hierarchy (Figure 3.4 style).

        Degrades gracefully: topics with fewer than ``max_phrases``
        ranked phrases show what they have, undecorated topics fall back
        to their term distribution, and a hierarchy that produced no
        topics at all still renders (with a placeholder root) instead of
        assuming populated children.
        """
        return self.hierarchy.render(max_phrases=max_phrases,
                                     entity_types=entity_types,
                                     max_entities=max_entities)


class LatentEntityMiner:
    """Facade over the full framework."""

    def __init__(self, config: Optional[MinerConfig] = None,
                 seed: RandomState = None) -> None:
        self.config = config or MinerConfig()
        self._rng = ensure_rng(seed)

    def fit(self, corpus: Corpus, checkpoint_dir: Optional[str] = None,
            resume: bool = False) -> MiningResult:
        """Run network collapse, hierarchy construction, and decoration.

        With observability configured (:func:`repro.obs.configure`), every
        phase is timed, the EM runs leave convergence traces, and the
        aggregated run report is attached to the result — and written to
        the configured report path, if any.

        Args:
            corpus: the input corpus.
            checkpoint_dir: when given, hierarchy construction persists
                per-topic checkpoints there (see
                :class:`~repro.cathy.BuilderConfig`), so a killed fit can
                be resumed without redoing completed subtrees.
            resume: continue from checkpoints in ``checkpoint_dir``; the
                resumed fit produces the same hierarchy bit for bit.
        """
        config = self.config
        logger.info("fit: %d documents, %d terms", len(corpus),
                    len(corpus.vocabulary))
        with span("miner.fit"):
            with span("miner.network_collapse"):
                network = build_collapsed_network(
                    corpus, entity_types=config.entity_types,
                    min_count=config.min_count)
            builder_kwargs: Dict[str, object] = {
                "num_children": config.num_children,
                "max_depth": config.max_depth,
                "weight_mode": config.weight_mode,
            }
            if checkpoint_dir is not None:
                builder_kwargs["checkpoint_dir"] = checkpoint_dir
                builder_kwargs["resume"] = resume
            builder_kwargs.update(config.builder_overrides)
            builder_config = BuilderConfig(**builder_kwargs)
            builder = HierarchyBuilder(builder_config, seed=self._rng)
            with span("miner.hierarchy"):
                hierarchy = builder.build(network)
            logger.info("fit: hierarchy has %d topics",
                        sum(1 for _ in hierarchy.topics()))
            with span("miner.phrase_decoration"):
                counts = attach_phrases(
                    hierarchy, corpus, min_support=config.min_support,
                    max_phrase_length=config.max_phrase_length,
                    top_k=config.top_k)
            with span("miner.entity_ranking"):
                attach_entity_rankings(hierarchy, top_k=config.top_k)
            with span("miner.roles"):
                roles = RoleAnalyzer(
                    hierarchy, corpus, counts,
                    max_phrase_length=config.max_phrase_length)
        report = self._finish_report(corpus)
        return MiningResult(corpus=corpus, network=network,
                            hierarchy=hierarchy, counts=counts, roles=roles,
                            report=report)

    # ------------------------------------------------------------ artifacts
    def save_model(self, result: MiningResult, path: str,
                   format: str = "v2") -> Dict[str, object]:
        """Export ``result`` as a v2 model artifact.

        The artifact carries everything the read path needs — the topic
        tree, phrase rankings, and entity role tables, in memory-mappable
        binary sections — plus a manifest fingerprinting this miner's
        configuration and the corpus vocabulary, so :meth:`load_model`
        can reject mismatched or corrupted files.  v2 is the only format
        a save writes (``format`` accepts ``"v2"`` alone); ``repro
        migrate-model --to v1`` re-encodes a saved artifact as JSON.
        The write is atomic.  Returns the manifest.

        Raises:
            ConfigurationError: ``format`` is not ``"v2"``.
            DataError: the model holds a non-finite float.
        """
        from ..serve import save_model as _save_model

        return _save_model(result, path, config=self._artifact_config(),
                           format=format)

    @staticmethod
    def load_model(path: str):
        """Load a model artifact written by :meth:`save_model`.

        The format is sniffed from the file: a v2 artifact returns a
        memory-mapped :class:`~repro.serve.MappedModel` (call its
        ``close()`` when done), and a legacy v1 JSON artifact a
        :class:`~repro.serve.ServedModel`.  Wrap either in a
        :class:`~repro.serve.ModelQueryEngine` (or ``repro serve``) to
        answer queries without re-running EM.

        Raises:
            DataError: corrupt, truncated, or schema-mismatched artifact.
        """
        from ..serve import load_model as _load_model

        return _load_model(path)

    def _artifact_config(self) -> Dict[str, object]:
        """The config fingerprint stamped into exported model manifests."""
        return dict(vars(self.config))

    def _finish_report(self, corpus: Corpus) -> Optional[Dict[str, object]]:
        """Build (and optionally persist) the run report when enabled."""
        if not is_enabled():
            return None
        config = dict(vars(self.config))
        config["num_documents"] = len(corpus)
        config["vocabulary_size"] = len(corpus.vocabulary)
        report = build_run_report(config=config)
        path = get_report_path()
        if path:
            write_report(report, path)
            logger.info("fit: wrote run report to %s", path)
        return report

    def mine_relations(self, corpus: Corpus,
                       author_type: str = "author",
                       ) -> Tuple[TPFGResult, CandidateGraph,
                                  CollaborationNetwork]:
        """Advisor–advisee mining over the corpus's author links.

        Requires documents to carry years; raises
        :class:`~repro.errors.DataError` otherwise.
        """
        if not corpus.has_year.any():
            raise DataError("relation mining requires document years")
        network = CollaborationNetwork.from_corpus(corpus,
                                                   author_type=author_type)
        graph = build_candidate_graph(network)
        result = TPFG().fit(graph)
        return result, graph, network
