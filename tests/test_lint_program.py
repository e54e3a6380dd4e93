"""Tests for the whole-program analyzer (:mod:`repro.lint.graph` /
:mod:`repro.lint.program`) and the new rule families.

Fixture trees are miniature ``src/repro/<subsystem>/`` layouts written
to temporary directories, so the same layer table and registry logic
that governs the real repository is exercised against seeded
violations: an upward import, an import cycle, a blocking call in an
``async def``, an unregistered schema literal, a loaderless registered
format, and obs-namespace conflicts.
"""

import json
import os
import textwrap

import pytest

from repro.lint import (lint_file, lint_project, statement_extents,
                        subsystem_of, summarize_file)
from repro.lint.cli import main as lint_main
from repro.lint.graph import ProjectGraph
from repro.lint.program import LAYERS, obs_inventory

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SERVE_PATH = "src/repro/serve/aio_fixture.py"


def write_tree(root, files):
    """Materialize ``{relpath: source}`` under ``root``; returns root."""
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(root)


def project(root, paths=("src",), **kwargs):
    return lint_project(list(paths), root=str(root), **kwargs)


def rules_hit(result):
    return sorted({v.rule for v in result.violations})


# --------------------------------------------------------------- RL101/RL102
class TestLayering:
    def test_upward_import_is_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/obs/metrics.py": """
                from repro.serve.engine import answer
            """,
            "src/repro/serve/engine.py": """
                def answer():
                    return 1
            """,
        })
        result = project(root)
        assert rules_hit(result) == ["RL101"]
        violation = result.violations[0]
        assert violation.path == "src/repro/obs/metrics.py"
        assert "repro.obs.metrics" in violation.message
        assert "repro.serve.engine" in violation.message
        assert "chain" in violation.message

    def test_downward_and_same_level_imports_pass(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/serve/engine.py": """
                from repro.obs.metrics import inc
                from repro.stream.shards import ShardStore
            """,
            "src/repro/obs/metrics.py": """
                def inc(name):
                    pass
            """,
            "src/repro/stream/shards.py": """
                class ShardStore:
                    pass
            """,
        })
        assert project(root).clean

    def test_deferred_upward_import_is_exempt(self, tmp_path):
        # A function-local import executes late, cannot cycle at import
        # time, and is the sanctioned escape hatch for upward coupling.
        root = write_tree(tmp_path, {
            "src/repro/obs/metrics.py": """
                def flush():
                    from repro.serve.engine import answer
                    return answer()
            """,
            "src/repro/serve/engine.py": """
                def answer():
                    return 1
            """,
        })
        assert project(root).clean

    def test_type_checking_guarded_import_is_exempt(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/obs/metrics.py": """
                from typing import TYPE_CHECKING
                if TYPE_CHECKING:
                    from repro.serve.engine import Engine
            """,
            "src/repro/serve/engine.py": """
                class Engine:
                    pass
            """,
        })
        assert project(root).clean

    def test_import_cycle_is_flagged_with_chain(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/cathy/em.py": """
                from repro.cathy.builder import build
            """,
            "src/repro/cathy/builder.py": """
                from repro.cathy.em import fit
            """,
        })
        result = project(root)
        assert "RL102" in rules_hit(result)
        violation = next(v for v in result.violations
                         if v.rule == "RL102")
        assert "->" in violation.message
        assert "repro.cathy.builder" in violation.message
        assert "repro.cathy.em" in violation.message

    def test_cycle_broken_by_deferred_import_passes(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/cathy/em.py": """
                from repro.cathy.builder import build
            """,
            "src/repro/cathy/builder.py": """
                def build():
                    from repro.cathy.em import fit
                    return fit
            """,
        })
        result = project(root)
        assert "RL102" not in rules_hit(result)

    def test_layer_table_is_total_over_the_real_tree(self):
        # Every repro.* module in the repository must map to a declared
        # layer — an unlayered subsystem is unenforceable.
        result = lint_project(["src"], root=REPO_ROOT)
        for module in result.modules:
            key = subsystem_of(module)
            assert key is not None, module
            assert key in LAYERS, f"{module} -> {key} not in LAYERS"


# -------------------------------------------------------------------- RL2xx
class TestAsyncSafety:
    def test_time_sleep_in_async_def_is_flagged(self):
        src = """
        import time
        async def handler():
            time.sleep(0.1)
        """
        violations, _, _ = lint_file(SERVE_PATH, textwrap.dedent(src))
        assert [v.rule for v in violations] == ["RL201"]
        assert "event loop" in violations[0].message

    def test_bare_open_and_socket_and_numpy_are_flagged(self):
        src = """
        import socket
        import numpy as np
        async def handler():
            handle = open("data.json")
            conn = socket.create_connection(("h", 80))
            order = np.argsort(scores)
        """
        violations, _, _ = lint_file(SERVE_PATH, textwrap.dedent(src))
        assert [v.rule for v in violations] == ["RL201"] * 3

    def test_offloaded_work_passes(self):
        src = """
        import asyncio
        import numpy as np
        def _kernel():
            return np.argsort([3, 1, 2])
        async def handler():
            return await asyncio.to_thread(_kernel)
        """
        violations, _, _ = lint_file(SERVE_PATH, textwrap.dedent(src))
        assert not violations

    def test_nested_sync_def_body_is_not_flagged(self):
        # The nested def is shipped to a worker thread by the caller;
        # its body does not run on the event loop.
        src = """
        import asyncio
        import time
        async def handler():
            def work():
                time.sleep(1.0)
                return open("x").read()
            return await asyncio.to_thread(work)
        """
        violations, _, _ = lint_file(SERVE_PATH, textwrap.dedent(src))
        assert not violations

    def test_sync_code_is_out_of_scope(self):
        src = """
        import time
        def handler():
            time.sleep(0.1)
            return open("x")
        """
        violations, _, _ = lint_file(SERVE_PATH, textwrap.dedent(src))
        assert not violations

    def test_await_under_sync_lock_is_flagged(self):
        src = """
        import threading
        lock = threading.Lock()
        async def swap():
            with lock:
                await drain()
        """
        violations, _, _ = lint_file(SERVE_PATH, textwrap.dedent(src))
        assert [v.rule for v in violations] == ["RL202"]

    def test_await_under_self_lock_attribute_is_flagged(self):
        src = """
        async def swap(self):
            with self._swap_lock:
                await self.drain()
        """
        violations, _, _ = lint_file(SERVE_PATH, textwrap.dedent(src))
        assert [v.rule for v in violations] == ["RL202"]

    def test_async_with_asyncio_lock_passes(self):
        src = """
        import asyncio
        lock = asyncio.Lock()
        async def swap():
            async with lock:
                await drain()
        """
        violations, _, _ = lint_file(SERVE_PATH, textwrap.dedent(src))
        assert not violations

    def test_sync_lock_without_await_passes(self):
        src = """
        import threading
        lock = threading.Lock()
        async def bump(self):
            with lock:
                self.count += 1
        """
        violations, _, _ = lint_file(SERVE_PATH, textwrap.dedent(src))
        assert not violations

    def test_dropped_create_task_is_flagged(self):
        src = """
        import asyncio
        async def serve():
            asyncio.create_task(watchdog())
        """
        violations, _, _ = lint_file(SERVE_PATH, textwrap.dedent(src))
        assert [v.rule for v in violations] == ["RL203"]

    def test_kept_task_handle_passes(self):
        src = """
        import asyncio
        async def serve(self):
            task = asyncio.create_task(watchdog())
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
            await task
        """
        violations, _, _ = lint_file(SERVE_PATH, textwrap.dedent(src))
        assert not violations

    def test_real_serve_modules_are_async_clean(self):
        # The rules were derived from serve/aio.py's offload idiom; the
        # shipped server must pass its own contract without pragmas.
        for name in ("aio.py", "router.py"):
            path = os.path.join(REPO_ROOT, "src/repro/serve", name)
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            violations, _, _ = lint_file(f"src/repro/serve/{name}",
                                         source)
            async_hits = [v for v in violations
                          if v.rule in ("RL201", "RL202", "RL203")]
            assert not async_hits, async_hits


# -------------------------------------------------------------- RL301/RL302
class TestSchemaRegistry:
    def test_unregistered_literal_is_flagged(self):
        src = """
        SCHEMA = "repro.stream/frobnicator/v1"
        """
        violations, _, _ = lint_file("src/repro/stream/frob.py",
                                     textwrap.dedent(src))
        assert [v.rule for v in violations] == ["RL301"]
        assert "not registered" in violations[0].message

    def test_registered_literal_duplicate_names_the_constant(self):
        src = """
        SCHEMA = "repro.serve/model/v1"
        """
        violations, _, _ = lint_file("src/repro/serve/x.py",
                                     textwrap.dedent(src))
        assert [v.rule for v in violations] == ["RL301"]
        assert "MODEL_V1" in violations[0].message

    def test_contracts_module_itself_is_exempt(self):
        src = """
        SCHEMA = "repro.serve/model/v1"
        """
        violations, _, _ = lint_file("src/repro/contracts.py",
                                     textwrap.dedent(src))
        assert not violations

    def test_docstring_prose_does_not_match(self):
        src = '''
        def loader():
            """Reads repro.serve/model/v1 documents from disk."""
            return 1
        '''
        violations, _, _ = lint_file("src/repro/serve/x.py",
                                     textwrap.dedent(src))
        assert not violations

    def test_registry_round_trip(self, tmp_path):
        # Unregistered literal -> RL301; registering it in the tree's
        # contracts module and importing the constant -> clean.
        seeded = {
            "src/repro/stream/frob.py": """
                SCHEMA = "repro.stream/frob/v1"
            """,
        }
        root = write_tree(tmp_path / "dirty", seeded)
        assert rules_hit(project(root)) == ["RL301"]

        registered = {
            "src/repro/contracts.py": """
                REGISTRY = {}

                def _register(fmt, *, owner, loader, title):
                    REGISTRY[fmt] = (owner, loader, title)
                    return fmt

                FROB_V1 = _register(
                    "repro.stream/frob/v1",
                    owner="repro.stream.frob",
                    loader="repro.stream.frob:load_frob",
                    title="frob artifact")
            """,
            "src/repro/stream/frob.py": """
                from repro.contracts import FROB_V1

                SCHEMA = FROB_V1

                def load_frob(path):
                    return path
            """,
        }
        root = write_tree(tmp_path / "clean", registered)
        assert project(root).clean

    def test_registered_format_without_loader_is_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/contracts.py": """
                def _register(fmt, **kwargs):
                    return fmt

                ORPHAN_V1 = _register(
                    "repro.stream/orphan/v1",
                    owner="repro.stream.orphan",
                    title="write-only format")
            """,
        })
        result = project(root)
        assert "RL302" in rules_hit(result)
        violation = next(v for v in result.violations
                         if v.rule == "RL302")
        assert "no loader" in violation.message

    def test_loader_that_does_not_resolve_is_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/contracts.py": """
                def _register(fmt, **kwargs):
                    return fmt

                GHOST_V1 = _register(
                    "repro.stream/ghost/v1",
                    owner="repro.stream.shards",
                    loader="repro.stream.shards:load_ghost",
                    title="loader points at nothing")
            """,
            "src/repro/stream/shards.py": """
                def load_shard(path):
                    return path
            """,
        })
        result = project(root)
        assert "RL302" in rules_hit(result)
        assert "load_ghost" in result.violations[-1].message

    def test_class_method_loader_resolves(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/contracts.py": """
                def _register(fmt, **kwargs):
                    return fmt

                BOX_V1 = _register(
                    "repro.stream/box/v1",
                    owner="repro.stream.box",
                    loader="repro.stream.box:BoxStore.load_box",
                    title="method entry point")
            """,
            "src/repro/stream/box.py": """
                class BoxStore:
                    def load_box(self, path):
                        return path
            """,
        })
        assert project(root).clean

    def test_tree_without_contracts_module_skips_rl302(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/stream/plain.py": """
                value = 1
            """,
        })
        assert project(root).clean


# -------------------------------------------------------------- RL401/RL402
class TestObsNamespace:
    def test_counter_vs_timer_conflict_is_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/serve/a.py": """
                from repro.obs import inc
                inc("serve.requests")
            """,
            "src/repro/serve/b.py": """
                from repro.obs import observe
                observe("serve.requests", 0.5)
            """,
            "src/repro/obs/__init__.py": """
                def inc(name, amount=1.0):
                    pass

                def observe(name, seconds):
                    pass
            """,
        })
        result = project(root)
        assert "RL401" in rules_hit(result)
        violation = next(v for v in result.violations
                         if v.rule == "RL401")
        assert "serve.requests" in violation.message

    def test_span_and_timer_same_name_are_compatible(self, tmp_path):
        # Spans observe into same-named timers by design (DESIGN §5.4).
        root = write_tree(tmp_path, {
            "src/repro/serve/a.py": """
                from repro.obs import observe, span
                observe("serve.search", 0.5)
                with span("serve.search"):
                    pass
            """,
            "src/repro/obs/__init__.py": """
                def observe(name, seconds):
                    pass

                def span(name, **attrs):
                    pass
            """,
        })
        result = project(root)
        assert "RL401" not in rules_hit(result)

    def test_cross_subsystem_collision_is_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/serve/a.py": """
                from repro.obs import inc
                inc("documents.processed")
            """,
            "src/repro/stream/b.py": """
                from repro.obs import inc
                inc("documents.processed")
            """,
            "src/repro/obs/__init__.py": """
                def inc(name, amount=1.0):
                    pass
            """,
        })
        result = project(root)
        assert "RL402" in rules_hit(result)
        violation = next(v for v in result.violations
                         if v.rule == "RL402")
        assert "serve" in violation.message
        assert "stream" in violation.message

    def test_fstring_names_become_star_patterns(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/serve/a.py": """
                from repro.obs import inc
                inc(f"serve.http.status.{status}")
            """,
            "src/repro/obs/__init__.py": """
                def inc(name, amount=1.0):
                    pass
            """,
        })
        result = project(root)
        rows = {row["name"]: row for row in result.obs_inventory}
        assert "serve.http.status.*" in rows
        assert rows["serve.http.status.*"]["kinds"] == ["counter"]

    def test_real_tree_inventory_has_no_conflicts(self):
        result = lint_project(["src"], root=REPO_ROOT)
        assert not [v for v in result.violations
                    if v.rule in ("RL401", "RL402")]
        rows = {row["name"]: row for row in result.obs_inventory}
        # Spot checks against known instrumentation sites.
        assert "serve.http.requests" in rows
        assert rows["serve.http.requests"]["subsystems"] == ["serve"]
        assert "strod.fit" in rows
        assert len(rows) > 80


# -------------------------------------------------------------------- graph
class TestGraphAndCache:
    def test_reexport_chain_resolves_symbols(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/stream/__init__.py": """
                from .shards import ShardStore
            """,
            "src/repro/stream/shards.py": """
                class ShardStore:
                    def load_shard(self, path):
                        return path
            """,
        })
        result = project(root)
        assert result.clean
        summaries = [summarize_file(
            path, open(os.path.join(str(tmp_path), path)).read())
            for path in ("src/repro/stream/__init__.py",
                         "src/repro/stream/shards.py")]
        graph = ProjectGraph(summaries)
        assert graph.resolve_symbol("repro.stream", "ShardStore")
        assert graph.resolve_symbol("repro.stream",
                                    "ShardStore.load_shard")
        assert not graph.resolve_symbol("repro.stream", "Missing")


# ---------------------------------------------------------------------- CLI
class TestProgramCli:
    def test_json_report_carries_program_section(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "src/repro/stream/a.py": """
                from repro.obs import inc
                inc("stream.documents")
            """,
            "src/repro/obs/__init__.py": """
                def inc(name, amount=1.0):
                    pass
            """,
        })
        code = lint_main(["src", "--root", str(tmp_path),
                          "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        program = doc["program"]
        assert set(program) == {"modules", "import_edges", "obs_inventory"}
        assert program["modules"] == 2
        assert program["import_edges"] >= 1
        assert program["obs_inventory"][0]["name"] == "stream.documents"
        assert set(doc["rules"]) >= {"RL101", "RL302", "RL402"}

    def test_absolute_paths_infer_the_root(self, tmp_path, capsys,
                                           monkeypatch):
        # `repro lint /repo/src` from an unrelated cwd must behave
        # like `--root /repo src`: full module map, scoped rules
        # active, no phantom RL000 "unused pragma" noise.
        write_tree(tmp_path, {
            "src/repro/obs/metrics.py": """
                from repro.serve.engine import answer
            """,
            "src/repro/serve/engine.py": """
                def answer():
                    return 1
            """,
        })
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        code = lint_main([str(tmp_path / "src"), "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["program"]["modules"] == 2
        assert [v["rule"] for v in doc["violations"]] == ["RL101"]
        assert doc["violations"][0]["file"] == "src/repro/obs/metrics.py"

    def test_absolute_path_under_explicit_root_is_relativized(
            self, tmp_path, capsys):
        write_tree(tmp_path, {
            "src/repro/a.py": """
                x = 1
            """,
        })
        code = lint_main([str(tmp_path / "src" / "repro" / "a.py"),
                          "--root", str(tmp_path), "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["program"]["modules"] == 1

    def test_absolute_path_escaping_root_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch):
        # No src/tests anchor to infer a root from -> refuse rather
        # than run with every path scope silently disarmed.
        loose = tmp_path / "loose.py"
        loose.write_text("a = 1\n")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert lint_main([str(loose)]) == 2
        err = capsys.readouterr().err
        assert "escape --root" in err

    @pytest.mark.parametrize("removed", [
        ["--cache", "lint-cache.json"], ["--per-file"], ["--changed-only"],
        ["--obs-inventory"], ["--format", "sarif"]])
    def test_removed_options_are_usage_errors(self, tmp_path, removed):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "x.py").write_text("a = 1\n")
        with pytest.raises(SystemExit) as exit_info:
            lint_main(["src", "--root", str(tmp_path), *removed])
        assert exit_info.value.code == 2


# ----------------------------------------------------------------- extents
class TestStatementExtents:
    def test_multiline_call_has_full_extent(self):
        import ast

        tree = ast.parse("x = f(\n    1,\n    2,\n)\n")
        assert (1, 4) in statement_extents(ast.walk(tree))

    def test_compound_header_extent_stops_before_body(self):
        import ast

        source = "with f(\n        'a') as h:\n    body()\n"
        tree = ast.parse(source)
        extents = statement_extents(ast.walk(tree))
        assert (1, 2) in extents
        assert all(end < 3 for _start, end in extents)
