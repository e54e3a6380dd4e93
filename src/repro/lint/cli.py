"""Command-line front end: ``repro lint`` / ``python -m repro.lint``.

Every invocation is one whole-program pass: per-file rules plus the
import-graph layering, schema-registry, and obs-namespace families,
reported as human text or as the ``repro.lint/report/v1`` JSON
document.

Exit status: 0 when the tree is clean, 1 when violations survive
suppression, 2 on a usage error (unknown path, bad flag) — mirroring
the wider CLI's "2 means you, not the code" convention.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from ..errors import ReproError
from .program import lint_project
from .report import _PROGRAM_RULE_INFO, render_human, render_json
from .rules import PROGRAM_RULE_IDS, RULES

__all__ = ["add_lint_arguments", "main", "run"]

#: Default lint targets when none are given (must exist under --root).
DEFAULT_PATHS = ("src", "tests")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint flags on ``parser`` (shared with ``repro lint``)."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint, relative to --root "
             f"(default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument(
        "--root", default=".", metavar="DIR",
        help="repository root the rule path scopes are anchored at "
             "(default: current directory)")
    parser.add_argument(
        "--format", dest="fmt", default="human",
        choices=["human", "json"],
        help="human-readable text or the stable repro.lint/report/v1 "
             "JSON document")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")


def _list_rules() -> int:
    for rule in RULES:
        print(f"{rule.id}  {rule.title}")
        print(f"       guards: {rule.guards}")
    for rule_id in PROGRAM_RULE_IDS:
        info = _PROGRAM_RULE_INFO.get(rule_id, {})
        print(f"{rule_id}  {info.get('title', rule_id)} "
              f"[whole-program]")
        print(f"       guards: {info.get('guards', '')}")
    print("RL000  pragma hygiene")
    print("       guards: suppressions stay justified and live")
    return 0


def _resolve_root(paths: List[str], root: str,
                  ) -> Tuple[Optional[List[str]], Optional[str],
                             Optional[str]]:
    """Rebase absolute PATH arguments onto the analysis root.

    Rule scopes and the module map key files by their layout-relative
    path (``src/repro/...``), so an absolute argument linted verbatim
    would silently escape every scope and derive no module names.
    Absolute paths under ``root`` are relativized; when ``root`` is
    the default and every argument is absolute with one common
    ``src``/``tests`` ancestor, that ancestor becomes the root.
    Anything else is a usage error, not a scope-less run.

    Returns ``(paths, root, None)`` on success, ``(None, None,
    message)`` on a usage error.
    """
    if not any(os.path.isabs(path) for path in paths):
        return paths, root, None
    root_abs = os.path.abspath(root)
    rebased = [
        os.path.relpath(os.path.abspath(path), root_abs)
        .replace(os.sep, "/")
        for path in paths]
    if all(not path.startswith("..") for path in rebased):
        return rebased, root, None
    if root == "." and all(os.path.isabs(path) for path in paths):
        anchors = set()
        suffixes = []
        for path in paths:
            parts = os.path.abspath(path).replace(os.sep, "/").split("/")
            for idx in range(len(parts) - 1, 0, -1):
                if parts[idx] in ("src", "tests"):
                    anchors.add("/".join(parts[:idx]) or "/")
                    suffixes.append("/".join(parts[idx:]))
                    break
            else:
                anchors.add(None)
        if None not in anchors and len(anchors) == 1:
            return suffixes, anchors.pop(), None
    return None, None, (
        "absolute lint paths escape --root; pass --root DIR so rule "
        "scopes and the module map anchor at the repository root")


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        return _list_rules()
    paths, root, usage_error = _resolve_root(
        args.paths or list(DEFAULT_PATHS), args.root)
    if usage_error:
        print(f"repro lint: error: {usage_error}", file=sys.stderr)
        return 2
    try:
        result = lint_project(paths, root=root)
    except (ReproError, OSError) as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    render = render_json if args.fmt == "json" else render_human
    sys.stdout.write(render(result))
    return 0 if result.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Stand-alone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Enforce the repro codebase's invariants: per-file "
                    "idiom rules (RL001-RL006, RL2xx, RL301) plus the "
                    "whole-program layering, schema-registry, and obs-"
                    "namespace families (RL101/RL102/RL302/RL4xx).")
    add_lint_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
