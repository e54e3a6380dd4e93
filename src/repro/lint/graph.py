"""Per-file summaries, the project symbol table and the import graph.

The per-file engine (:mod:`repro.lint.engine`) sees one file at a time,
which is enough for local idiom rules but blind to every *cross-module*
contract: the subsystem layering, schema-registry coverage, and the
global obs namespace.  This module supplies the whole-program substrate
those rule families (:mod:`repro.lint.program`) consume:

* :func:`summarize_file` distils one file into a :class:`FileSummary` —
  import sites (module-scope vs deferred), module-level symbols
  including class methods, re-export bindings, obs metric/span call
  sites, versioned-format string sites, statement extents, raw per-file
  rule hits, and pragmas.  Everything downstream works from summaries,
  never from ASTs.
* :class:`ProjectGraph` indexes summaries by module, resolves import
  targets to first-party modules by longest dotted prefix, chases
  re-export chains for symbol lookups, and finds import cycles via
  strongly connected components.

Import direction: this module imports :mod:`.engine` and ``..contracts``
and is imported by :mod:`.program` — never by :mod:`.engine` or
:mod:`.rules`, which keeps the linter itself free of the cycles it
polices.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..contracts import FORMAT_PATTERN
from .engine import FileContext, Pragma, statement_extents
from .rules import RULES, Rule, Violation

__all__ = [
    "FileSummary",
    "ProjectGraph",
    "summarize_file",
]

_FORMAT_RE = re.compile(f"^{FORMAT_PATTERN}$")

#: Obs entry point → metric kind.  ``span`` is deliberately its own kind
#: even though spans also observe into timers (DESIGN §5.4): the
#: inventory reports both and the kind-conflict rule treats them as
#: compatible.
_OBS_KINDS = {
    "inc": "counter",
    "set_gauge": "gauge",
    "observe": "timer",
    "timed": "timer",
    "timed_function": "timer",
    "span": "span",
}

_OBS_CALL = re.compile(
    r"^repro\.obs(?:\.registry|\.spans)?\."
    r"(inc|set_gauge|observe|timed|timed_function|span)$")

#: Attribute calls counted as obs sites when the receiver's terminal
#: name ends in ``registry`` (``self.registry.inc(...)`` in serve).
_OBS_METHODS = frozenset({"inc", "set_gauge", "observe"})


# ------------------------------------------------------------------ summary
@dataclass
class FileSummary:
    """Everything whole-program analysis needs from one file.

    ``imports`` entries are ``{"target", "line", "deferred"}`` where
    ``target`` is an absolute dotted name (module, or module.symbol for
    from-imports) and ``deferred`` marks function-local or
    ``TYPE_CHECKING``-guarded imports, which never execute at import
    time and are therefore exempt from layering and cycle analysis.
    ``hits`` are the file's raw (pre-suppression) per-file rule hits and
    ``pragmas`` its suppression comments.
    """

    path: str
    module: Optional[str] = None
    imports: List[Dict[str, object]] = field(default_factory=list)
    symbols: List[str] = field(default_factory=list)
    reexports: Dict[str, str] = field(default_factory=dict)
    obs_sites: List[Dict[str, object]] = field(default_factory=list)
    schema_sites: List[Dict[str, object]] = field(default_factory=list)
    extents: List[Tuple[int, int]] = field(default_factory=list)
    hits: List[Violation] = field(default_factory=list)
    pragmas: List[Pragma] = field(default_factory=list)


def _is_type_checking(test: ast.expr) -> bool:
    """Whether an ``if`` test is the ``TYPE_CHECKING`` guard."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _collect_import_sites(ctx: FileContext) -> Tuple[
        List[Dict[str, object]], Dict[str, str]]:
    """Import sites (with deferred flags) and module-scope re-exports.

    Deferral is positional: an import inside a function body (any
    nesting) or under ``if TYPE_CHECKING:`` runs late or never, so it
    cannot create an import-time cycle and does not bind the layering
    DAG.  Class bodies and try/except fallbacks execute at import time
    and stay module-scope.
    """
    sites: List[Dict[str, object]] = []
    reexports: Dict[str, str] = {}

    def visit(nodes: Sequence[ast.stmt], deferred: bool) -> None:
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    sites.append({"target": alias.name,
                                  "line": node.lineno,
                                  "deferred": deferred})
            elif isinstance(node, ast.ImportFrom):
                base = ctx._resolve_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    target = base if alias.name == "*" \
                        else f"{base}.{alias.name}"
                    sites.append({"target": target,
                                  "line": node.lineno,
                                  "deferred": deferred})
                    if not deferred and alias.name != "*":
                        local = alias.asname or alias.name
                        reexports[local] = target
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, True)
            elif isinstance(node, ast.If):
                visit(node.body,
                      deferred or _is_type_checking(node.test))
                visit(node.orelse, deferred)
            elif isinstance(node, ast.Try):
                visit(node.body, deferred)
                for handler in node.handlers:
                    visit(handler.body, deferred)
                visit(node.orelse, deferred)
                visit(node.finalbody, deferred)
            elif isinstance(node, (ast.With, ast.AsyncWith, ast.For,
                                   ast.AsyncFor, ast.While)):
                visit(node.body, deferred)
                visit(getattr(node, "orelse", []), deferred)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, deferred)

    visit(ctx.tree.body, False)
    return sites, reexports


def _collect_symbols(tree: ast.Module) -> List[str]:
    """Module-level definitions, including ``Class.method`` entries."""
    symbols: List[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols.append(node.name)
        elif isinstance(node, ast.ClassDef):
            symbols.append(node.name)
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                    symbols.append(f"{node.name}.{sub.name}")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    symbols.append(target.id)
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            symbols.append(node.target.id)
    return symbols


def _obs_name_pattern(arg: ast.expr) -> Optional[str]:
    """Metric-name pattern of an obs call's first argument.

    A plain string is itself; an f-string becomes a pattern with ``*``
    in each interpolated slot (``serve.http.*.latency``) — the same
    fragment decomposition RL005 validates.  Dynamic names that carry
    no literal fragments return None and are not inventoried.
    """
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        pieces = []
        for piece in arg.values:
            if isinstance(piece, ast.Constant) \
                    and isinstance(piece.value, str):
                pieces.append(piece.value)
            else:
                pieces.append("*")
        pattern = "".join(pieces)
        return pattern if pattern.strip("*") else None
    return None


def _collect_obs_sites(ctx: FileContext) -> List[Dict[str, object]]:
    """Every statically visible metric/span registration site."""
    sites: List[Dict[str, object]] = []
    for node in ctx.walk():
        if not isinstance(node, ast.Call) or not node.args:
            continue
        kind = None
        resolved = ctx.resolve(node.func)
        if resolved is not None:
            match = _OBS_CALL.match(resolved)
            if match:
                kind = _OBS_KINDS[match.group(1)]
        if kind is None and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _OBS_METHODS:
            receiver = node.func.value
            terminal = None
            if isinstance(receiver, ast.Attribute):
                terminal = receiver.attr
            elif isinstance(receiver, ast.Name):
                terminal = receiver.id
            if terminal is not None \
                    and terminal.lower().endswith("registry"):
                kind = _OBS_KINDS[node.func.attr]
        if kind is None:
            continue
        pattern = _obs_name_pattern(node.args[0])
        if pattern is not None:
            sites.append({"line": node.lineno, "name": pattern,
                          "kind": kind})
    return sites


def _collect_schema_sites(ctx: FileContext) -> List[Dict[str, object]]:
    """Every ``repro.<pkg>/<name>/v<N>`` string literal in the file.

    Sites inside a ``_register(...)`` call additionally carry the
    registration's ``loader`` entry point, which is how the RL302
    coverage check reads the registry *statically* — fixture trees with
    their own miniature contracts module are analyzable without
    importing them.
    """
    loaders: Dict[int, Optional[str]] = {}
    for node in ctx.walk():
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_register" and node.args):
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) \
                and isinstance(first.value, str):
            loader = None
            for keyword in node.keywords:
                if keyword.arg == "loader" \
                        and isinstance(keyword.value, ast.Constant):
                    loader = keyword.value.value
            loaders[id(first)] = loader
    sites: List[Dict[str, object]] = []
    for node in ctx.walk():
        if not (isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _FORMAT_RE.match(node.value)):
            continue
        site: Dict[str, object] = {"line": node.lineno,
                                   "col": node.col_offset,
                                   "literal": node.value}
        if id(node) in loaders:
            site["registered"] = True
            if loaders[id(node)]:
                site["loader"] = loaders[id(node)]
        sites.append(site)
    return sites


def summarize_file(path: str, source: str,
                   rules: Optional[Sequence[Rule]] = None) -> FileSummary:
    """Parse and analyze one file into a :class:`FileSummary`.

    One ``ast.parse`` plus one traversal per applicable rule plus the
    summary extractions.  A file that fails to parse yields a summary
    carrying the parse error as its single RL000 hit rather than
    aborting the run — a syntax error in one file must not hide
    violations in the rest of the tree.
    """
    try:
        ctx = FileContext(path, source)
    except SyntaxError as exc:
        return FileSummary(path=path, hits=[Violation(
            "RL000", path, exc.lineno or 1, 0,
            f"file does not parse: {exc.msg}")])
    hits: List[Violation] = []
    for rule in (RULES if rules is None else rules):
        if rule.applies_to(path):
            hits.extend(rule.check(ctx))
    imports, reexports = _collect_import_sites(ctx)
    return FileSummary(
        path=path, module=ctx.module,
        imports=imports,
        symbols=_collect_symbols(ctx.tree),
        reexports=reexports,
        obs_sites=_collect_obs_sites(ctx),
        schema_sites=_collect_schema_sites(ctx),
        extents=statement_extents(ctx.nodes),
        hits=hits, pragmas=ctx.pragmas())


# -------------------------------------------------------------------- graph
class ProjectGraph:
    """Module index + import graph over a set of file summaries."""

    def __init__(self, summaries: Sequence[FileSummary]) -> None:
        self.summaries: Dict[str, FileSummary] = {
            summary.path: summary for summary in summaries}
        #: Dotted module → summary (files with underivable modules still
        #: get the per-file rules but take no part in graph analysis).
        self.modules: Dict[str, FileSummary] = {
            summary.module: summary for summary in summaries
            if summary.module}

    # ------------------------------------------------------------ resolution
    def resolve_module(self, target: str) -> Optional[str]:
        """Longest first-party module that is a dotted prefix of ``target``.

        ``repro.serve.artifact.load_model`` → ``repro.serve.artifact``;
        ``numpy.random`` → None (third-party).
        """
        parts = target.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate
        return None

    def resolve_symbol(self, module: str, symbol: str,
                       _depth: int = 0) -> bool:
        """Whether ``module`` defines ``symbol``, chasing re-exports.

        ``symbol`` may be dotted (``ShardStore.load_shard``).  A name
        bound by a module-scope from-import is followed to its source
        module (bounded depth, so a pathological re-export cycle
        terminates).
        """
        summary = self.modules.get(module)
        if summary is None or _depth > 8:
            return False
        if symbol in summary.symbols:
            return True
        head = symbol.split(".")[0]
        target = summary.reexports.get(head)
        if target is None:
            # `from .sub import X` also makes `module.sub` importable.
            return f"{module}.{symbol.split('.')[0]}" in self.modules
        resolved = self.resolve_module(target)
        if resolved is None:
            return False
        if resolved == target:
            # Re-export of a whole module; the remainder must resolve
            # inside it.
            rest = symbol.split(".", 1)
            return len(rest) == 1 or self.resolve_symbol(
                resolved, rest[1], _depth + 1)
        remainder = target[len(resolved) + 1:]
        rest = symbol.split(".", 1)
        tail = remainder if len(rest) == 1 \
            else f"{remainder}.{rest[1]}"
        return self.resolve_symbol(resolved, tail, _depth + 1)

    # ----------------------------------------------------------------- edges
    def module_edges(self, include_deferred: bool = False,
                     ) -> Iterator[Tuple[str, str, int, bool]]:
        """First-party import edges: (source, target, line, deferred).

        Self-imports are dropped; deferred edges are included only on
        request (layering and cycle analysis bind module scope only).
        """
        for summary in self.summaries.values():
            if summary.module is None:
                continue
            for site in summary.imports:
                deferred = bool(site["deferred"])
                if deferred and not include_deferred:
                    continue
                target = self.resolve_module(str(site["target"]))
                if target is None or target == summary.module:
                    continue
                yield (summary.module, target, int(site["line"]),
                       deferred)

    def edge_count(self) -> int:
        """Number of first-party module-scope import edges."""
        return sum(1 for _ in self.module_edges())

    def find_cycles(self) -> List[List[str]]:
        """Module-scope import cycles, as sorted module lists.

        Strongly connected components of size > 1 (an import-time
        self-loop is impossible in Python).  Iterative Tarjan, so a
        deep dependency chain cannot hit the recursion limit.
        """
        adjacency: Dict[str, Set[str]] = {
            module: set() for module in self.modules}
        for source, target, _line, _deferred in self.module_edges():
            adjacency[source].add(target)

        index_of: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        for root in sorted(adjacency):
            if root in index_of:
                continue
            work: List[Tuple[str, Iterator[str]]] = [
                (root, iter(sorted(adjacency[root])))]
            index_of[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if child not in index_of:
                        index_of[child] = lowlink[child] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append(
                            (child, iter(sorted(adjacency[child]))))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node],
                                            index_of[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent],
                                          lowlink[node])
                if lowlink[node] == index_of[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))
        return sccs

    def import_chain(self, cycle: Sequence[str]) -> List[str]:
        """A concrete ``a → b → ... → a`` chain witnessing a cycle."""
        members = set(cycle)
        chain = [cycle[0]]
        current = cycle[0]
        for _ in range(len(cycle)):
            for source, target, _line, _deferred in self.module_edges():
                if source == current and target in members \
                        and target not in chain[1:]:
                    chain.append(target)
                    current = target
                    break
            if current == cycle[0] and len(chain) > 1:
                break
        if chain[-1] != cycle[0]:
            chain.append(cycle[0])
        return chain
