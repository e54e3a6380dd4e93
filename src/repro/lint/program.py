"""Whole-program rule families and the project lint orchestration.

Four rule families run over the :class:`~repro.lint.graph.ProjectGraph`
rather than over single files:

========  =============================================================
RL101     Layering.  The subsystems form a declared dependency DAG —
          ``errors/contracts < utils < obs < resilience < solvers <
          serve/stream/lint < cli`` — and every
          *module-scope* import must point sideways or downward.
          Deferred imports (function-local, ``TYPE_CHECKING``) are
          exempt: they execute late or never, so they cannot couple
          subsystems at import time.
RL102     Import cycles.  No strongly connected component of size > 1
          in the module-scope import graph; the violation names a
          concrete witnessing chain.
RL302     Registry coverage.  Every format registered in
          ``repro.contracts`` must name a loader entry point that
          statically resolves in the project symbol table — a version
          nobody can load is a write-only contract.
RL401     Obs kind conflicts.  One metric name must not be used both
          as a counter and as a timer (spans and timers are
          compatible: spans observe into timers by design, DESIGN
          §5.4).
RL402     Obs namespace collisions.  A metric/span name emitted from
          two different subsystems is almost always an accident — two
          dashboards silently summing into one series.
========  =============================================================

:func:`lint_project` is the one tree-level entry: summarize every file,
build the graph, run the per-file hits and the program families through
the same pragma/suppression machinery, and return one
:class:`LintResult`.  :func:`lint_file` lints one file's source with
the per-file rules alone, the entry the rule-fixture tests use.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import Pragma, apply_pragmas, collect_files, pragma_hygiene
from .graph import FileSummary, ProjectGraph, summarize_file
from .rules import PROGRAM_RULE_IDS, RULES, Rule, Violation

__all__ = [
    "LAYERS",
    "LintResult",
    "cycle_violations",
    "layering_violations",
    "lint_file",
    "lint_project",
    "obs_inventory",
    "obs_violations",
    "registry_violations",
    "subsystem_of",
]

#: Subsystem → layer level.  An import is legal iff
#: ``level(target) <= level(source)``; same-level imports are allowed
#: (the solver band genuinely cross-references, e.g. cathy → corpus).
LAYERS: Dict[str, int] = {
    # Foundations: zero internal dependencies.
    "root": 0, "errors": 0, "contracts": 0,
    "utils": 1,
    "obs": 2,
    # Persistence substrate (solvers import it).
    "resilience": 3,
    # The solver band.
    "core": 4, "corpus": 4, "datasets": 4, "network": 4,
    "hierarchy": 4, "phrases": 4, "baselines": 4, "cathy": 4,
    "strod": 4, "relations": 4, "roles": 4, "eval": 4,
    # Products over solvers.
    "serve": 5, "stream": 5, "lint": 5,
    # Entry points see everything.
    "cli": 6, "main": 6,
}


def subsystem_of(module: str) -> Optional[str]:
    """Layer-table key of a first-party module (None ⇒ unlayered).

    ``repro.serve.router`` → ``serve``; ``repro.errors`` → ``errors``;
    ``repro`` itself and ``repro.__main__`` map to their own keys.
    Non-``repro`` modules (tests, fixture scaffolding) are unlayered.
    """
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return "root"
    head = parts[1]
    if head == "__main__":
        return "main"
    if head == "cli":
        return "cli"
    return head


def _violation(rule: str, path: str, line: int,
               message: str) -> Violation:
    return Violation(rule, path, line, 0, message)


# -------------------------------------------------------------------- RL101
def layering_violations(graph: ProjectGraph) -> List[Violation]:
    """Module-scope imports that point *up* the layer table."""
    found: List[Violation] = []
    for source, target, line, _deferred in graph.module_edges():
        src_key = subsystem_of(source)
        dst_key = subsystem_of(target)
        if src_key is None or dst_key is None:
            continue
        src_level = LAYERS.get(src_key)
        dst_level = LAYERS.get(dst_key)
        if src_level is None or dst_level is None or \
                dst_level <= src_level:
            continue
        path = graph.modules[source].path
        found.append(_violation(
            "RL101", path, line,
            f"layering violation: {source} (layer {src_level}, "
            f"'{src_key}') imports {target} (layer {dst_level}, "
            f"'{dst_key}'); imports must point downward — chain "
            f"{source}:{line} -> {target}"))
    return found


# -------------------------------------------------------------------- RL102
def cycle_violations(graph: ProjectGraph) -> List[Violation]:
    """Import-time cycles, one violation per strongly connected set."""
    found: List[Violation] = []
    for cycle in graph.find_cycles():
        chain = graph.import_chain(cycle)
        anchor = graph.modules[cycle[0]]
        line = 1
        for site in anchor.imports:
            target = graph.resolve_module(str(site["target"]))
            if target in cycle and not site["deferred"]:
                line = int(site["line"])
                break
        found.append(_violation(
            "RL102", anchor.path, line,
            f"import cycle among {len(cycle)} modules: "
            f"{' -> '.join(chain)}; break it with a deferred "
            f"(function-local) import or by moving the shared piece "
            f"down a layer"))
    return found


# -------------------------------------------------------------------- RL302
def registry_violations(graph: ProjectGraph) -> List[Violation]:
    """Registered formats whose loader does not statically resolve.

    The registry is read from the graph itself — the ``_register``
    call sites in the tree's ``repro.contracts`` module, including the
    miniature contracts modules fixture trees carry — so this check
    never imports analyzed code.  Trees without a contracts module are
    skipped (nothing is registered, nothing to cover).
    """
    contracts = graph.modules.get("repro.contracts")
    if contracts is None:
        return []
    found: List[Violation] = []
    for site in contracts.schema_sites:
        if not site.get("registered"):
            continue
        line = int(site["line"])
        literal = str(site["literal"])
        loader = site.get("loader")
        if not loader:
            found.append(_violation(
                "RL302", contracts.path, line,
                f"registered format {literal!r} has no loader entry "
                f"point; a version nobody can load is a write-only "
                f"contract"))
            continue
        module, _, symbol = str(loader).partition(":")
        if module not in graph.modules:
            found.append(_violation(
                "RL302", contracts.path, line,
                f"format {literal!r} names loader module {module!r} "
                f"which is not in the project"))
        elif symbol and not graph.resolve_symbol(module, symbol):
            found.append(_violation(
                "RL302", contracts.path, line,
                f"format {literal!r} names loader {loader!r} but "
                f"{symbol!r} is not defined in {module}"))
    return found


# -------------------------------------------------------------- RL401/RL402
#: Spans observe into same-named timers by design, so for conflict
#: purposes they are one equivalence class.
_KIND_CLASS = {"counter": "counter", "gauge": "gauge",
               "timer": "timer", "span": "timer"}


def obs_inventory(graph: ProjectGraph) -> List[Dict[str, object]]:
    """The generated metric/span inventory, one row per name pattern.

    Each row: ``name``, sorted ``kinds``, sorted ``subsystems``, and
    ``sites`` (count).  This is what the README table and the report's
    ``obs_inventory`` section render.
    """
    by_name: Dict[str, Dict[str, object]] = {}
    for summary in graph.summaries.values():
        subsystem = None
        if summary.module:
            subsystem = subsystem_of(summary.module)
        for site in summary.obs_sites:
            name = str(site["name"])
            row = by_name.setdefault(
                name, {"name": name, "kinds": set(), "subsystems": set(),
                       "sites": 0})
            row["kinds"].add(str(site["kind"]))  # type: ignore[union-attr]
            if subsystem:
                row["subsystems"].add(subsystem)  # type: ignore
            row["sites"] = int(row["sites"]) + 1
    rows = []
    for name in sorted(by_name):
        row = by_name[name]
        rows.append({"name": name,
                     "kinds": sorted(row["kinds"]),  # type: ignore
                     "subsystems": sorted(row["subsystems"]),  # type: ignore
                     "sites": row["sites"]})
    return rows


def _obs_sites_of(graph: ProjectGraph,
                  name: str) -> List[Tuple[str, int, str, Optional[str]]]:
    """(path, line, kind, subsystem) of every site emitting ``name``."""
    sites = []
    for summary in graph.summaries.values():
        subsystem = subsystem_of(summary.module) if summary.module \
            else None
        for site in summary.obs_sites:
            if str(site["name"]) == name:
                sites.append((summary.path, int(site["line"]),
                              str(site["kind"]), subsystem))
    sites.sort()
    return sites


def obs_violations(graph: ProjectGraph) -> List[Violation]:
    """RL401 kind conflicts and RL402 cross-subsystem collisions."""
    found: List[Violation] = []
    for row in obs_inventory(graph):
        name = str(row["name"])
        kinds = list(row["kinds"])  # type: ignore[arg-type]
        classes = sorted({_KIND_CLASS[kind] for kind in kinds})
        sites = _obs_sites_of(graph, name)
        where = ", ".join(f"{path}:{line}" for path, line, _k, _s
                          in sites[:4])
        if len(classes) > 1:
            path, line = sites[0][0], sites[0][1]
            found.append(_violation(
                "RL401", path, line,
                f"obs name {name!r} is used with conflicting kinds "
                f"{'/'.join(sorted(kinds))} ({where}); one name must "
                f"stay one instrument"))
        subsystems = sorted(
            {s for _p, _l, _k, s in sites if s is not None})
        if len(subsystems) > 1:
            path, line = sites[0][0], sites[0][1]
            found.append(_violation(
                "RL402", path, line,
                f"obs name {name!r} is emitted from multiple "
                f"subsystems {'/'.join(subsystems)} ({where}); two "
                f"writers silently sum into one series — prefix the "
                f"name with its subsystem"))
    return found


# ------------------------------------------------------------ orchestration
@dataclass
class LintResult:
    """Outcome of one whole-program lint run over a set of paths."""

    root: str
    paths: List[str]
    files: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    suppressed: List[Violation] = field(default_factory=list)
    pragmas: List[Pragma] = field(default_factory=list)
    modules: Dict[str, str] = field(default_factory=dict)
    import_edges: int = 0
    obs_inventory: List[Dict[str, object]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no violation survived suppression."""
        return not self.violations

    def counts_by_rule(self) -> Dict[str, int]:
        """Surviving violation count per rule id (only non-zero rules)."""
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts


def lint_file(path: str, source: str,
              rules: Optional[Sequence[Rule]] = None,
              ) -> Tuple[List[Violation], List[Violation], List[Pragma]]:
    """Lint one file's source with the per-file rules alone.

    Returns (violations, suppressed, pragmas).  No program family runs,
    so a pragma naming one is neither unknown nor unused here.
    """
    active = list(RULES if rules is None else rules)
    summary = summarize_file(path, source, rules=active)
    surviving, suppressed = apply_pragmas(summary.hits, summary.pragmas,
                                          summary.extents)
    active_ids = [rule.id for rule in active] + ["RL000"]
    surviving.extend(pragma_hygiene(
        summary.pragmas, active_ids + list(PROGRAM_RULE_IDS), active_ids))
    return surviving, suppressed, summary.pragmas


def lint_project(paths: Sequence[str], root: str = ".",
                 rules: Optional[Sequence[Rule]] = None) -> LintResult:
    """Whole-program lint: per-file rules + program families, one result.

    Every file under ``paths`` (relative to ``root``) is parsed once
    into a summary; the import graph and obs namespace are built over
    all of them.

    Raises:
        ConfigurationError: when a requested path does not exist.
    """
    root = os.path.abspath(root)
    active = list(RULES if rules is None else rules)
    summaries: List[FileSummary] = []
    for path in collect_files(root, paths):
        with open(os.path.join(root, path), "rb") as handle:
            source = handle.read().decode("utf-8")
        summaries.append(summarize_file(path, source, rules=active))

    graph = ProjectGraph(summaries)
    program_hits: Dict[str, List[Violation]] = defaultdict(list)
    for violation in (layering_violations(graph)
                      + cycle_violations(graph)
                      + registry_violations(graph)
                      + obs_violations(graph)):
        program_hits[violation.path].append(violation)

    result = LintResult(root=root, paths=list(paths))
    result.modules = {summary.module: summary.path
                      for summary in summaries if summary.module}
    result.import_edges = graph.edge_count()
    result.obs_inventory = obs_inventory(graph)

    known_ids = [rule.id for rule in active] + ["RL000"] \
        + [rid for rid in PROGRAM_RULE_IDS
           if rid not in {rule.id for rule in active}]
    for summary in summaries:
        raw = summary.hits + program_hits.get(summary.path, [])
        surviving, suppressed = apply_pragmas(raw, summary.pragmas,
                                              summary.extents)
        # The full catalogue ran, so every pragma must earn its keep:
        # known == active.
        surviving.extend(pragma_hygiene(summary.pragmas, known_ids))
        result.files.append(summary.path)
        result.violations.extend(surviving)
        result.suppressed.extend(suppressed)
        result.pragmas.extend(summary.pragmas)
    result.violations.sort(
        key=lambda v: (v.path, v.line, v.col, v.rule))
    return result
