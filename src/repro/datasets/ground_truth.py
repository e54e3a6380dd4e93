"""Ground-truth containers shared by the synthetic generators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..corpus import Corpus, tokenize
from .vocabularies import TopicSpec, hierarchy_paths

Path = Tuple[int, ...]


@dataclass
class AdvisingRecord:
    """One ground-truth advisor–advisee relationship with its interval."""

    advisee: str
    advisor: str
    start: int
    end: int


@dataclass
class GroundTruth:
    """Everything the evaluation harness needs about a synthetic dataset."""

    hierarchy: TopicSpec
    doc_topic_paths: List[Path] = field(default_factory=list)
    entity_topics: Dict[str, Dict[str, Path]] = field(default_factory=dict)
    advising: List[AdvisingRecord] = field(default_factory=list)

    @property
    def paths(self) -> Dict[Path, TopicSpec]:
        """Map every topic path to its spec."""
        return hierarchy_paths(self.hierarchy)

    def topic_of_document(self, doc_id: int) -> Path:
        """The leaf topic path that generated document ``doc_id``."""
        return self.doc_topic_paths[doc_id]

    def topic_of_entity(self, entity_type: str, name: str) -> Optional[Path]:
        """The home topic path of an entity (None when unknown)."""
        return self.entity_topics.get(entity_type, {}).get(name)

    def normalized_phrases(self, path: Path) -> List[str]:
        """Generating phrases of a topic, post-tokenization.

        Mined phrases are compared in tokenizer-normalized space (e.g.
        ``"part of speech tagging"`` becomes ``"part speech tagging"``
        after stopword removal), so the ground truth must be normalized
        the same way.
        """
        spec = self.paths[path]
        normalized = []
        for phrase in spec.phrases:
            tokens = tokenize(phrase)
            if tokens:
                normalized.append(" ".join(tokens))
        return normalized

    def advisor_of(self, author: str) -> Optional[str]:
        """Ground-truth advisor of ``author`` (None for forest roots)."""
        for record in self.advising:
            if record.advisee == author:
                return record.advisor
        return None


@dataclass
class SyntheticDataset:
    """A generated corpus together with its ground truth."""

    name: str
    corpus: Corpus
    ground_truth: GroundTruth

    def __repr__(self) -> str:
        return (f"SyntheticDataset({self.name!r}, docs={len(self.corpus)}, "
                f"vocab={len(self.corpus.vocabulary)})")
