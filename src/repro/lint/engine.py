"""The lint engine: file discovery, import resolution, pragma handling.

One file is linted in three steps: parse it once, hand the parsed
:class:`FileContext` to every rule whose path scope covers it, then
apply the file's suppression pragmas to the raw hits.  Pragmas are
line-anchored (``# repro: noqa-RL003  reason`` on the flagged line) and
audited by the implicit RL000 hygiene rule: a pragma with an unknown
rule id, a missing reason, or nothing to suppress is itself reported,
so the suppression inventory in a report is always live and justified.

Name resolution is import-based: ``np.random.seed`` resolves to
``numpy.random.seed`` because the file said ``import numpy as np``, and
a relative ``from ..obs import inc`` resolves against the module path
derived from the file's location under ``src/``.  Local variables that
shadow an imported name are not tracked — the linter is a contract
checker for this codebase's idioms, not a full type analysis — which in
practice only ever errs on the side of flagging.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .rules import PRAGMA_RE, Violation

__all__ = [
    "FileContext",
    "Pragma",
    "apply_pragmas",
    "collect_files",
    "pragma_hygiene",
    "statement_extents",
]


@dataclass
class Pragma:
    """One ``repro: noqa`` suppression comment.

    ``line`` is where the comment sits; ``anchor`` is the code line it
    suppresses — the same line for a trailing comment, the next code
    line for a comment standing on its own (the form long statements
    need).
    """

    path: str
    line: int
    rule_ids: Tuple[str, ...]
    reason: str
    anchor: int = 0
    used: int = 0


def module_name_of(path: str) -> Optional[str]:
    """Dotted module path for a root-relative file path.

    ``src/repro/phrases/topmine.py`` → ``repro.phrases.topmine``;
    package ``__init__.py`` files map to the package itself.  Files
    outside a recognizable layout (scripts, fixtures) return None and
    simply get no relative-import resolution.
    """
    if not path.endswith(".py"):
        return None
    parts = path[:-3].split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts or not all(part.isidentifier() for part in parts):
        return None
    return ".".join(parts)


class FileContext:
    """One parsed file plus everything the rules need to query it.

    Attributes:
        path: root-relative POSIX path (the scoping and report key).
        tree: the parsed AST.
        nodes: every node of ``tree`` in :func:`ast.walk` order, listed
            once at parse time for the rules, the import bindings and
            the statement extents.
        lines: raw source lines (pragma scanning).
        module: dotted module path when derivable from the layout.
    """

    def __init__(self, path: str, source: str,
                 module: Optional[str] = None) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.module = module if module is not None else module_name_of(path)
        self.tree = ast.parse(source, filename=path)
        self.nodes: List[ast.AST] = list(ast.walk(self.tree))
        self._imports = self._collect_imports()

    # --------------------------------------------------------------- queries
    def walk(self) -> Iterator[ast.AST]:
        """Every AST node, from the list made at parse time."""
        return iter(self.nodes)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully qualified dotted name of an attribute chain, if imported.

        ``np.random.seed`` → ``"numpy.random.seed"`` under
        ``import numpy as np``; unresolvable expressions return None.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self._imports.get(node.id)
        if base is None:
            return None
        parts.append(base)
        parts.reverse()
        return ".".join(parts)

    # --------------------------------------------------------------- pragmas
    def pragmas(self) -> List[Pragma]:
        """Every suppression pragma in the file, in line order.

        Pragmas are extracted from real ``COMMENT`` tokens, not raw
        lines, so a docstring that merely *mentions* the pragma syntax
        (this engine's own documentation, for one) is never mistaken
        for a suppression.  A trailing pragma anchors to its own line;
        a pragma that is the whole line anchors to the next code line,
        skipping blank and pure-comment lines.  A file whose text never
        says ``noqa-`` holds no pragma and is not tokenized.
        """
        found: List[Pragma] = []
        source = "\n".join(self.lines) + "\n"
        if "noqa-" not in source:
            return found
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            comments = [(tok.start, tok.string) for tok in tokens
                        if tok.type == tokenize.COMMENT]
        except (tokenize.TokenError, IndentationError):
            return []
        comment_lines = {start[0] for start, _ in comments}
        for (lineno, col), text in comments:
            match = PRAGMA_RE.search(text)
            if match is None:
                continue
            ids = tuple(part.strip()
                        for part in match.group(1).split(","))
            standalone = not self.lines[lineno - 1][:col].strip()
            anchor = lineno
            if standalone:
                anchor = self._next_code_line(lineno, comment_lines)
            found.append(Pragma(self.path, lineno, ids,
                                match.group(2).strip(), anchor=anchor))
        return found

    def _next_code_line(self, lineno: int, comment_lines: set) -> int:
        """First line after ``lineno`` holding code (fallback: itself)."""
        for candidate in range(lineno + 1, len(self.lines) + 1):
            if candidate in comment_lines:
                continue
            if self.lines[candidate - 1].strip():
                return candidate
        return lineno

    # --------------------------------------------------------------- imports
    def _collect_imports(self) -> Dict[str, str]:
        """Local binding → fully qualified module/attribute path."""
        bindings: Dict[str, str] = {}
        for node in self.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    bindings[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    bindings[local] = f"{base}.{alias.name}"
        return bindings

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        """Absolute module a ``from X import ...`` statement names."""
        if node.level == 0:
            return node.module
        if self.module is None:
            return None
        package = self.module.split(".")
        is_package = self.path.endswith("__init__.py")
        # level=1 targets the file's own package; each further dot climbs.
        climb = node.level - 1 if is_package else node.level
        if climb >= len(package) + (1 if is_package else 0):
            return None
        base = package[:len(package) - climb] if climb else package
        if not base:
            return None
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)


def statement_extents(nodes: Iterable[ast.AST]) -> List[Tuple[int, int]]:
    """Line extents of every multi-line statement among ``nodes``.

    ``nodes`` is a walked tree (:attr:`FileContext.nodes`, or
    ``ast.walk(tree)``).  A pragma anchored anywhere inside a multi-line
    *simple* statement (an assignment or call spanning several lines)
    covers the whole statement, because the violation it suppresses may
    be anchored at any line of the statement — the opening line for the
    statement node itself, an interior line for a nested argument.
    Compound statements (``if``/``with``/``for``/``def``) contribute
    only their *header* extent, never their body: a pragma on a
    ``with`` header must not silence the entire block under it.
    """
    extents: List[Tuple[int, int]] = []
    for node in nodes:
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        body = getattr(node, "body", None)
        if body and isinstance(body, list) and body \
                and isinstance(body[0], ast.stmt):
            # Compound statement: the header runs up to the line before
            # the first body statement.
            end = max(start, body[0].lineno - 1)
        else:
            end = getattr(node, "end_lineno", start) or start
        if end > start:
            extents.append((start, end))
    return extents


def apply_pragmas(hits: List[Violation], pragmas: List[Pragma],
                  extents: Sequence[Tuple[int, int]] = (),
                  ) -> Tuple[List[Violation], List[Violation]]:
    """Split raw ``hits`` into (surviving, suppressed) under ``pragmas``.

    A pragma matches a violation when both sit on the same line, or when
    both fall inside the same multi-line statement extent (so a trailing
    pragma on any line of a long call suppresses a violation anchored at
    any other line of that call).  Matching pragmas have their ``used``
    counter bumped, which the RL000 hygiene audit reads.
    """
    extent_of: Dict[int, Tuple[int, int]] = {}
    for start, end in extents:
        for line in range(start, end + 1):
            # Keep the innermost (shortest) extent when statements nest.
            held = extent_of.get(line)
            if held is None or (end - start) < (held[1] - held[0]):
                extent_of[line] = (start, end)

    def covers(pragma: Pragma, violation: Violation) -> bool:
        if pragma.anchor == violation.line:
            return True
        extent = extent_of.get(pragma.anchor)
        return extent is not None \
            and extent == extent_of.get(violation.line)

    surviving: List[Violation] = []
    suppressed: List[Violation] = []
    for violation in hits:
        matched = None
        for pragma in pragmas:
            if violation.rule in pragma.rule_ids and pragma.reason \
                    and covers(pragma, violation):
                matched = pragma
                break
        if matched is not None:
            matched.used += 1
            suppressed.append(violation)
        else:
            surviving.append(violation)
    return surviving, suppressed


def pragma_hygiene(pragmas: List[Pragma], known_ids: Sequence[str],
                   active_ids: Optional[Sequence[str]] = None,
                   ) -> List[Violation]:
    """RL000 audit: every pragma must be well-formed and earn its keep.

    ``known_ids`` is the full catalogue (an id outside it is a typo);
    ``active_ids`` is the subset of rules that actually ran — a pragma
    naming a rule that did not run (a whole-program rule during a
    one-file :func:`~repro.lint.program.lint_file`) is not reported as
    unused, because this run cannot know whether it suppresses anything.
    """
    if active_ids is None:
        active_ids = known_ids
    problems = []
    for pragma in pragmas:
        unknown = [rid for rid in pragma.rule_ids if rid not in known_ids]
        inactive = [rid for rid in pragma.rule_ids
                    if rid not in active_ids]
        if unknown:
            problems.append(Violation(
                "RL000", pragma.path, pragma.line, 0,
                f"pragma names unknown rule(s) {', '.join(unknown)}"))
        if not pragma.reason:
            problems.append(Violation(
                "RL000", pragma.path, pragma.line, 0,
                "pragma has no reason; write '# repro: noqa-RLxxx  why'"))
        elif not unknown and not inactive and pragma.used == 0:
            problems.append(Violation(
                "RL000", pragma.path, pragma.line, 0,
                "pragma suppresses nothing on this line; remove it"))
    return problems


def collect_files(root: str, paths: Sequence[str]) -> List[str]:
    """Root-relative POSIX paths of every ``.py`` file under ``paths``.

    Each entry may be a file or a directory (searched recursively,
    ``__pycache__`` and hidden directories skipped).  Order is sorted
    and deterministic.
    """
    found = set()
    for entry in paths:
        absolute = os.path.join(root, entry)
        if os.path.isfile(absolute):
            found.add(os.path.relpath(absolute, root))
            continue
        if not os.path.isdir(absolute):
            raise ConfigurationError(
                f"lint path {entry!r} does not exist under {root!r}")
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames[:] = sorted(
                name for name in dirnames
                if name != "__pycache__" and not name.startswith("."))
            for filename in filenames:
                if filename.endswith(".py"):
                    found.add(os.path.relpath(
                        os.path.join(dirpath, filename), root))
    return sorted(path.replace(os.sep, "/") for path in found)
