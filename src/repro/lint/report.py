"""Lint reporters: human text and the stable JSON document.

The JSON form carries the ``repro.lint/report/v1`` schema tag, matching
the library's other versioned artifacts (run reports, checkpoints,
model manifests).  Its shape is a compatibility contract — tooling
diffs rule counts across commits — so the four sections
:func:`load_report` requires (``rules``, ``violations``,
``suppressions``, ``summary``) never change under this schema id:

.. code-block:: json

    {"schema": "repro.lint/report/v1",
     "repro_version": "1.2.0",
     "root": "/abs/path",
     "paths": ["src", "tests"],
     "files_scanned": 142,
     "clean": true,
     "rules": {"RL001": {"title": "...", "guards": "...",
                         "violations": 0, "suppressed": 0}},
     "violations": [{"rule": "RL003", "file": "src/...", "line": 9,
                     "col": 4, "message": "..."}],
     "suppressions": [{"rules": ["RL003"], "file": "src/...",
                       "line": 195, "reason": "...", "used": 1}],
     "summary": {"violations": 0, "suppressions": 3,
                 "suppressed_hits": 3},
     "program": {"modules": 180, "import_edges": 900,
                 "obs_inventory": [{"name": "...", "kinds": ["counter"],
                                    "subsystems": ["serve"],
                                    "sites": 1}]}}

``rules`` always lists the full catalogue (zero counts included) plus
an ``RL000`` entry when pragma-hygiene problems were found, so a diff
between two reports never confuses "rule removed" with "count zero".
``program`` carries the module count, the import-edge count and the
generated obs-name inventory.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from ..contracts import LINT_REPORT_V1
from ..errors import DataError
from .program import LintResult
from .rules import PROGRAM_RULE_IDS, RULES

__all__ = [
    "REPORT_SCHEMA",
    "load_report",
    "render_human",
    "render_json",
    "to_document",
]

REPORT_SCHEMA = LINT_REPORT_V1

#: Program-rule metadata for reports (per-file rules carry their own
#: title/guards on the Rule object; these five live in repro.lint.program
#: and are described here so the catalogue is always complete).
_PROGRAM_RULE_INFO: Dict[str, Dict[str, str]] = {
    "RL101": {"title": "subsystem layering (imports point downward)",
              "guards": "the declared dependency DAG stays acyclic and "
                        "layered"},
    "RL102": {"title": "no import cycles",
              "guards": "module-scope imports form a DAG"},
    "RL302": {"title": "every registered format has a loader",
              "guards": "no write-only schema versions"},
    "RL401": {"title": "obs names keep one instrument kind",
              "guards": "a counter never aliases a timer"},
    "RL402": {"title": "obs names stay within one subsystem",
              "guards": "no cross-subsystem metric collisions"},
}


def to_document(result: LintResult) -> Dict[str, Any]:
    """The ``repro.lint/report/v1`` document for one lint run."""
    from .. import get_version

    by_rule = result.counts_by_rule()
    suppressed_by_rule: Dict[str, int] = {}
    for violation in result.suppressed:
        suppressed_by_rule[violation.rule] = \
            suppressed_by_rule.get(violation.rule, 0) + 1
    rules = {
        rule.id: {
            "title": rule.title,
            "guards": rule.guards,
            "violations": by_rule.get(rule.id, 0),
            "suppressed": suppressed_by_rule.get(rule.id, 0),
        }
        for rule in RULES
    }
    for rule_id in PROGRAM_RULE_IDS:
        info = _PROGRAM_RULE_INFO.get(rule_id, {})
        rules[rule_id] = {
            "title": info.get("title", rule_id),
            "guards": info.get("guards", ""),
            "violations": by_rule.get(rule_id, 0),
            "suppressed": suppressed_by_rule.get(rule_id, 0),
        }
    if by_rule.get("RL000"):
        rules["RL000"] = {
            "title": "pragma hygiene",
            "guards": "suppressions stay justified and live",
            "violations": by_rule["RL000"],
            "suppressed": 0,
        }
    return {
        "schema": REPORT_SCHEMA,
        "repro_version": get_version(),
        "root": result.root,
        "paths": list(result.paths),
        "files_scanned": len(result.files),
        "clean": result.clean,
        "rules": rules,
        "violations": [
            {"rule": v.rule, "file": v.path, "line": v.line, "col": v.col,
             "message": v.message}
            for v in result.violations
        ],
        "suppressions": [
            {"rules": list(p.rule_ids), "file": p.path, "line": p.line,
             "reason": p.reason, "used": p.used}
            for p in result.pragmas
        ],
        "summary": {
            "violations": len(result.violations),
            "suppressions": len(result.pragmas),
            "suppressed_hits": len(result.suppressed),
        },
        "program": {
            "modules": len(result.modules),
            "import_edges": result.import_edges,
            "obs_inventory": list(result.obs_inventory),
        },
    }


def load_report(path: str) -> Dict[str, Any]:
    """Load and validate a persisted ``repro.lint/report/v1`` document.

    The registered loader for the format: checks the schema tag and the
    presence of every v1-required section, so downstream tooling
    (count-diffing across commits) can trust the shape.

    Raises:
        DataError: unreadable file, wrong schema tag, missing section.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read lint report {path!r}: {exc}") \
            from exc
    found = document.get("schema") if isinstance(document, dict) \
        else None
    if found != REPORT_SCHEMA:
        raise DataError(
            f"{path!r} is not a {REPORT_SCHEMA} document "
            f"(schema={found!r})")
    for section in ("rules", "violations", "suppressions", "summary"):
        if section not in document:
            raise DataError(
                f"lint report {path!r} is missing required section "
                f"{section!r}")
    return document


def render_json(result: LintResult) -> str:
    """The JSON report as an indented, newline-terminated string."""
    return json.dumps(to_document(result), indent=2, sort_keys=False) + "\n"


def render_human(result: LintResult) -> str:
    """Compiler-style report: one ``file:line:col RLxxx message`` per hit."""
    lines = []
    for violation in result.violations:
        lines.append(f"{violation.location()}: {violation.rule} "
                     f"{violation.message}")
    total = len(result.violations)
    if total:
        by_rule = result.counts_by_rule()
        breakdown = ", ".join(f"{rule} x{count}"
                              for rule, count in sorted(by_rule.items()))
        lines.append("")
        lines.append(f"repro lint: {total} violation"
                     f"{'s' if total != 1 else ''} in "
                     f"{len(result.files)} files ({breakdown})")
    else:
        lines.append(f"repro lint: {len(result.files)} files clean "
                     f"({len(result.pragmas)} suppression"
                     f"{'s' if len(result.pragmas) != 1 else ''} in use)")
    lines.append(f"whole-program: {len(result.modules)} modules, "
                 f"{result.import_edges} import edges, "
                 f"{len(result.obs_inventory)} obs names")
    return "\n".join(lines) + "\n"
