"""The topical hierarchy container (Definition 2)."""

from __future__ import annotations

import json
from typing import (Callable, Dict, Iterator, List, Optional, Tuple,
                    Union)

from ..errors import DataError
from .topic import Path, Topic, notation_to_path


class TopicalHierarchy:
    """A tree of :class:`Topic` nodes rooted at topic ``o``.

    Provides path lookup, traversal, and the tree-shape quantities of
    Section 3.1 (width K, height h, topic count T).

    Attributes:
        root: the root topic ``o``.
        phrase_frequencies: f_t(P) per topic notation, the table the
            topics' phrase rankings were computed from; set by
            :func:`~repro.phrases.attach_phrases`, None before.
    """

    def __init__(self, root: Optional[Topic] = None) -> None:
        self.root = root if root is not None else Topic(path=())
        if self.root.path != ():
            raise DataError("hierarchy root must have the empty path")
        self.phrase_frequencies: Optional[
            Dict[str, Dict[Tuple[int, ...], float]]] = None

    # ------------------------------------------------------------- traversal
    def topics(self) -> Iterator[Topic]:
        """All topics in pre-order (root first)."""
        stack = [self.root]
        while stack:
            topic = stack.pop()
            yield topic
            stack.extend(reversed(topic.children))

    def leaves(self) -> List[Topic]:
        """All leaf topics in pre-order."""
        return [t for t in self.topics() if t.is_leaf]

    def topic(self, path: Union[Path, str]) -> Topic:
        """Look a topic up by path tuple or ``o/1/2`` notation."""
        if isinstance(path, str):
            path = notation_to_path(path)
        node = self.root
        for index in path:
            if not 0 <= index < len(node.children):
                raise DataError(f"no topic at path {path}")
            node = node.children[index]
        return node

    def parent_of(self, topic: Topic) -> Optional[Topic]:
        """The parent of ``topic`` (None for the root)."""
        if not topic.path:
            return None
        return self.topic(topic.path[:-1])

    # ------------------------------------------------------------ shape stats
    @property
    def height(self) -> int:
        """Maximal topic level h (root alone gives 0)."""
        return max(t.level for t in self.topics())

    @property
    def width(self) -> int:
        """Maximal number of children of any topic (tree width K)."""
        return max((len(t.children) for t in self.topics()), default=0)

    @property
    def num_topics(self) -> int:
        """Total number T of topics including the root."""
        return sum(1 for _ in self.topics())

    # ---------------------------------------------------------------- export
    def to_dict(self, max_items: int = 10) -> dict:
        """JSON-friendly dump of the full hierarchy."""
        return self.root.to_dict(max_items=max_items)

    def to_json(self, max_items: int = 10, indent: int = 2) -> str:
        """Serialized JSON dump of the hierarchy."""
        return json.dumps(self.to_dict(max_items=max_items), indent=indent)

    def render(self,
               max_phrases: int = 5,
               entity_types: Optional[List[str]] = None,
               max_entities: int = 3) -> str:
        """ASCII rendering in the style of Figures 3.3 / 3.4."""
        lines: List[str] = []
        self._render_topic(self.root, lines, max_phrases, entity_types,
                           max_entities)
        return "\n".join(lines)

    def _render_topic(self, topic: Topic, lines: List[str], max_phrases: int,
                      entity_types: Optional[List[str]],
                      max_entities: int) -> None:
        indent = "  " * topic.level
        phrases = " / ".join(topic.top_phrases(max(max_phrases, 0)))
        if not phrases:
            phrases = " / ".join(topic.top_words("term", max(max_phrases, 0)))
        if not phrases:
            # An undecorated node (empty hierarchy, or a topic that mined
            # no ranked phrases) still gets a well-formed line.
            phrases = "(no ranked phrases)"
        lines.append(f"{indent}[{topic.notation}] {phrases}")
        for etype in (entity_types or []):
            names = topic.top_entities(etype, max_entities)
            if names:
                lines.append(f"{indent}    {etype}: {', '.join(names)}")
        for child in topic.children:
            self._render_topic(child, lines, max_phrases, entity_types,
                               max_entities)

    def map_topics(self, fn: Callable[[Topic], None]) -> None:
        """Apply ``fn`` to every topic (pre-order)."""
        for topic in self.topics():
            fn(topic)

    def __repr__(self) -> str:
        return (f"TopicalHierarchy(topics={self.num_topics}, "
                f"height={self.height}, width={self.width})")
