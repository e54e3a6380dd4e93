"""repro.lint — AST-based enforcement of the codebase's own invariants.

PRs 1–4 established the contracts that make this reproduction
trustworthy at scale: bit-deterministic seeding through
:mod:`repro.utils` (one run per seed), atomic-only
persistence through :mod:`repro.resilience.atomic`, typed error
surfaces from :mod:`repro.errors`, dotted-lowercase metric names in
:mod:`repro.obs`, and config-fingerprint-guarded checkpoints.  Every
one of those contracts is structural — visible in the syntax of the
code that honors it — so every one of them can be machine-checked
instead of re-reviewed by eye in each PR.

This package is that check: a stdlib-:mod:`ast` static analyzer that
walks ``src/`` and ``tests/`` and enforces the invariants as named
rules (see :mod:`repro.lint.rules` for the per-file catalogue:
RL001–RL006, the RL2xx async-safety family, and RL301 schema-literal
containment).  Every run is *whole-program*: :mod:`repro.lint.graph`
builds a project symbol table and import graph from one parse of each
file, and :mod:`repro.lint.program` enforces the cross-module families
on top — RL101/RL102 subsystem layering and cycle detection, RL302
schema-registry loader coverage against :mod:`repro.contracts`, and
RL401/RL402 obs-namespace consistency.  Intentional exceptions are
declared in-line with a pragma that must carry a reason::

    with open(path, "a") as handle:  # repro: noqa-RL003  append-only stream

Run it as ``repro lint`` or ``python -m repro.lint``; ``--format json``
emits a stable ``repro.lint/report/v1`` document for tooling (schema in
:mod:`repro.lint.report`).  Exit status: 0 clean, 1 violations found, 2
usage error.
"""

from .engine import FileContext, apply_pragmas, statement_extents
from .graph import FileSummary, ProjectGraph, summarize_file
from .program import (LAYERS, LintResult, lint_file, lint_project,
                      obs_inventory, subsystem_of)
from .report import (REPORT_SCHEMA, load_report, render_human,
                     render_json, to_document)
from .rules import (PRAGMA_RE, PROGRAM_RULE_IDS, RULES, Rule, Violation,
                    rule_catalogue)

__all__ = [
    "FileContext",
    "FileSummary",
    "LAYERS",
    "LintResult",
    "PRAGMA_RE",
    "PROGRAM_RULE_IDS",
    "ProjectGraph",
    "REPORT_SCHEMA",
    "RULES",
    "Rule",
    "Violation",
    "apply_pragmas",
    "lint_file",
    "lint_project",
    "load_report",
    "obs_inventory",
    "render_human",
    "render_json",
    "rule_catalogue",
    "statement_extents",
    "subsystem_of",
    "summarize_file",
    "to_document",
]
