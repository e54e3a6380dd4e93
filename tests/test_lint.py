"""Tests for :mod:`repro.lint` — the invariant linter.

Structure per rule: a positive fixture that must be flagged, a negative
fixture that must pass, a pragma-suppressed variant, and (where the
rule has one) an allowlisted path that exempts the same code.  On top
of that: pragma hygiene (RL000), the JSON report schema contract, the
CLI exit codes on a seeded-violation tree, and the self-check that the
shipped repository lints clean with no more suppressions than it
shipped with.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.lint import (REPORT_SCHEMA, lint_file, lint_project,
                        render_json, rule_catalogue, to_document)
from repro.lint.cli import main as lint_main
from repro.lint.rules import PRAGMA_RE, RULES

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Number of suppression pragmas the repository ships with.  Growing
#: this number is a reviewed decision, not a drive-by: every new pragma
#: weakens a machine-checked invariant and needs a written reason.
SHIPPED_PRAGMA_BASELINE = 4  # PR-6 added the span JSONL append stream

SOLVER_PATH = "src/repro/cathy/somefile.py"


def hits(path, source, rule=None):
    """Rule ids flagged for ``source`` linted as ``path``."""
    violations, _, _ = lint_file(path, textwrap.dedent(source))
    ids = [v.rule for v in violations]
    if rule is not None:
        return [i for i in ids if i == rule]
    return ids


# --------------------------------------------------------------------- RL001
class TestNoGlobalRng:
    def test_flags_numpy_global_seed(self):
        src = """
        import numpy as np
        np.random.seed(42)
        """
        assert hits(SOLVER_PATH, src, "RL001")

    def test_flags_legacy_draws_under_any_alias(self):
        src = """
        import numpy
        x = numpy.random.randint(0, 10)
        """
        assert hits(SOLVER_PATH, src, "RL001")

    def test_flags_stdlib_random_import_and_calls(self):
        src = """
        import random
        random.shuffle(items)
        """
        assert len(hits(SOLVER_PATH, src, "RL001")) == 2

    def test_flags_from_random_import(self):
        assert hits(SOLVER_PATH, "from random import shuffle\n", "RL001")

    def test_flags_constructor_outside_seeding_modules(self):
        src = """
        import numpy as np
        rng = np.random.default_rng(0)
        """
        assert hits(SOLVER_PATH, src, "RL001")

    def test_allows_constructor_in_seeding_modules(self):
        src = """
        import numpy as np
        rng = np.random.default_rng(0)
        """
        assert not hits("src/repro/utils.py", src, "RL001")
        # repro.utils is the only seeding module.
        assert hits("src/repro/parallel/seeding.py", src, "RL001")

    def test_allows_constructor_in_tests(self):
        src = """
        import numpy as np
        rng = np.random.default_rng(0)
        """
        assert not hits("tests/test_x.py", src, "RL001")

    def test_flags_legacy_even_in_seeding_modules(self):
        src = """
        import numpy as np
        np.random.seed(3)
        """
        assert hits("src/repro/utils.py", src, "RL001")

    def test_flags_bit_generator_outside_seeding_modules(self):
        # A blocked kernel must not mint its own bit generator for
        # batched draws; the Generator arrives via the seeding layer.
        src = """
        import numpy as np
        rng = np.random.Generator(np.random.PCG64(7))
        """
        assert hits(SOLVER_PATH, src, "RL001")

    def test_allows_bit_generator_in_seeding_modules(self):
        src = """
        import numpy as np
        rng = np.random.Generator(np.random.PCG64(7))
        """
        assert not hits("src/repro/utils.py", src, "RL001")

    def test_generator_method_calls_pass(self):
        src = """
        from repro.utils import ensure_rng
        rng = ensure_rng(0)
        x = rng.random()
        rng.shuffle(items)
        """
        assert not hits(SOLVER_PATH, src, "RL001")


# --------------------------------------------------------------------- RL002
class TestNoWallClock:
    def test_flags_time_time_in_solver(self):
        src = """
        import time
        stamp = time.time()
        """
        assert hits(SOLVER_PATH, src, "RL002")

    def test_flags_datetime_now_via_from_import(self):
        src = """
        from datetime import datetime
        stamp = datetime.now()
        """
        assert hits(SOLVER_PATH, src, "RL002")

    def test_flags_os_urandom(self):
        src = """
        import os
        blob = os.urandom(16)
        """
        assert hits(SOLVER_PATH, src, "RL002")

    def test_monotonic_timing_passes(self):
        src = """
        import time
        start = time.perf_counter()
        elapsed = time.monotonic() - start
        """
        assert not hits(SOLVER_PATH, src, "RL002")

    def test_allowlists_obs_and_serve(self):
        src = """
        import time
        stamp = time.time()
        """
        assert not hits("src/repro/obs/report.py", src, "RL002")
        assert not hits("src/repro/serve/http.py", src, "RL002")

    def test_not_applied_outside_library(self):
        src = """
        import time
        stamp = time.time()
        """
        assert not hits("tests/test_x.py", src, "RL002")


# --------------------------------------------------------------------- RL003
class TestAtomicWritesOnly:
    def test_flags_open_for_write(self):
        src = """
        with open("out.json", "w") as handle:
            handle.write("{}")
        """
        assert hits(SOLVER_PATH, src, "RL003")

    def test_flags_append_and_keyword_mode(self):
        src = """
        f = open("log.txt", mode="a")
        """
        assert hits(SOLVER_PATH, src, "RL003")

    def test_flags_json_dump_and_np_save(self):
        src = """
        import json
        import numpy as np
        json.dump(obj, handle)
        np.save("arr.npy", arr)
        """
        assert len(hits(SOLVER_PATH, src, "RL003")) == 2

    def test_flags_path_write_text(self):
        src = """
        from pathlib import Path
        Path("x").write_text("data")
        """
        assert hits(SOLVER_PATH, src, "RL003")

    def test_read_only_open_passes(self):
        src = """
        with open("data.json") as handle:
            blob = handle.read()
        binary = open("data.bin", "rb")
        """
        assert not hits(SOLVER_PATH, src, "RL003")

    def test_json_dumps_passes(self):
        src = """
        import json
        text = json.dumps(obj)
        """
        assert not hits(SOLVER_PATH, src, "RL003")

    def test_allowlists_atomic_module(self):
        src = """
        f = open("x", "w")
        """
        assert not hits("src/repro/resilience/atomic.py", src, "RL003")

    def test_not_applied_to_tests(self):
        src = """
        f = open("x", "w")
        """
        assert not hits("tests/test_x.py", src, "RL003")


# --------------------------------------------------------------------- RL004
class TestTypedErrorsOnly:
    def test_flags_bare_except(self):
        src = """
        try:
            work()
        except:
            handle()
        """
        assert hits(SOLVER_PATH, src, "RL004")

    def test_flags_swallowed_exception(self):
        src = """
        try:
            work()
        except Exception:
            pass
        """
        assert hits(SOLVER_PATH, src, "RL004")

    def test_flags_swallow_in_tuple(self):
        src = """
        try:
            work()
        except (ValueError, Exception):
            continue
        """
        # 'continue' outside a loop still parses as a module under ast?
        # It does not - wrap in a loop to keep the fixture valid.
        src = """
        for item in items:
            try:
                work(item)
            except (ValueError, Exception):
                continue
        """
        assert hits(SOLVER_PATH, src, "RL004")

    def test_flags_untyped_raise(self):
        src = """
        raise RuntimeError("boom")
        """
        assert hits(SOLVER_PATH, src, "RL004")

    def test_handled_broad_except_passes(self):
        src = """
        try:
            work()
        except Exception as exc:
            log(exc)
        """
        assert not hits(SOLVER_PATH, src, "RL004")

    def test_reraise_as_typed_passes(self):
        src = """
        from repro.errors import DataError
        try:
            work()
        except Exception as exc:
            raise DataError(str(exc)) from exc
        """
        assert not hits(SOLVER_PATH, src, "RL004")

    def test_typed_narrow_swallow_passes(self):
        src = """
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        """
        assert not hits(SOLVER_PATH, src, "RL004")


# --------------------------------------------------------------------- RL005
class TestDottedMetricNames:
    def test_flags_undotted_literal(self):
        src = """
        from repro.obs import inc
        inc("checkpoints")
        """
        assert hits(SOLVER_PATH, src, "RL005")

    def test_flags_uppercase_literal(self):
        src = """
        from repro.obs.registry import timed
        with timed("Cathy.Fit"):
            pass
        """
        assert hits(SOLVER_PATH, src, "RL005")

    def test_flags_bad_fstring_fragment(self):
        src = """
        from repro.obs import timed
        with timed(f"Parallel-{label}"):
            pass
        """
        assert hits(SOLVER_PATH, src, "RL005")

    def test_dotted_names_pass(self):
        src = """
        from repro.obs import inc, set_gauge, timed
        inc("cathy.em.iterations")
        set_gauge("parallel.workers", 4)
        with timed("strod.tensor_decomposition"):
            pass
        """
        assert not hits(SOLVER_PATH, src, "RL005")

    def test_dotted_fstring_passes(self):
        src = """
        from repro.obs import timed
        with timed(f"parallel.{label}"):
            pass
        """
        assert not hits(SOLVER_PATH, src, "RL005")

    def test_unrelated_inc_function_ignored(self):
        src = """
        from collections import Counter
        def inc(name):
            pass
        inc("whatever")
        """
        assert not hits(SOLVER_PATH, src, "RL005")


# --------------------------------------------------------------------- RL006
class TestCheckpointsCarryFingerprint:
    def test_flags_checkpoint_in_without_config(self):
        src = """
        from repro.resilience import checkpoint_in
        writer = checkpoint_in(directory, "em", "cathy.em")
        """
        assert hits(SOLVER_PATH, src, "RL006")

    def test_flags_writer_without_config(self):
        src = """
        from repro.resilience.checkpoint import CheckpointWriter
        writer = CheckpointWriter(path, "cathy.em")
        """
        assert hits(SOLVER_PATH, src, "RL006")

    def test_config_keyword_passes(self):
        src = """
        from repro.resilience import checkpoint_in
        writer = checkpoint_in(directory, "em", "cathy.em",
                               config={"seed": 0})
        """
        assert not hits(SOLVER_PATH, src, "RL006")

    def test_config_positional_passes(self):
        src = """
        from repro.resilience import checkpoint_in
        writer = checkpoint_in(directory, "em", "cathy.em", {"seed": 0})
        """
        assert not hits(SOLVER_PATH, src, "RL006")

    def test_relative_import_resolves(self):
        src = """
        from ..resilience import checkpoint_in
        writer = checkpoint_in(directory, "em", "cathy.em")
        """
        assert hits("src/repro/cathy/builder2.py", src, "RL006")

    def test_allowlists_resilience_package(self):
        src = """
        from repro.resilience.checkpoint import CheckpointWriter
        writer = CheckpointWriter(path, "x")
        """
        assert not hits("src/repro/resilience/helper.py", src, "RL006")


# -------------------------------------------------------------------- pragmas
class TestPragmas:
    def test_trailing_pragma_suppresses(self):
        src = """
        f = open("x", "w")  # repro: noqa-RL003  fixture needs a raw write
        """
        violations, suppressed, pragmas = lint_file(
            SOLVER_PATH, textwrap.dedent(src))
        assert not violations
        assert [v.rule for v in suppressed] == ["RL003"]
        assert pragmas[0].used == 1
        assert pragmas[0].reason.startswith("fixture needs")

    def test_standalone_pragma_anchors_to_next_code_line(self):
        src = """
        # repro: noqa-RL003  the statement below is too long to inline
        # a trailing comment, so the pragma stands on its own line
        f = open("some/very/long/path/to/an/artifact.json", mode="w")
        """
        violations, suppressed, _ = lint_file(
            SOLVER_PATH, textwrap.dedent(src))
        assert not violations
        assert [v.rule for v in suppressed] == ["RL003"]

    def test_pragma_only_covers_its_rule(self):
        src = """
        import time
        f = open("x", "w")  # repro: noqa-RL002  wrong rule id for this
        """
        violations, _, _ = lint_file(SOLVER_PATH, textwrap.dedent(src))
        rules = [v.rule for v in violations]
        assert "RL003" in rules      # not suppressed by the RL002 pragma
        assert "RL000" in rules      # and the pragma suppressed nothing

    def test_pragma_without_reason_does_not_suppress(self):
        src = """
        f = open("x", "w")  # repro: noqa-RL003
        """
        violations, _, _ = lint_file(SOLVER_PATH, textwrap.dedent(src))
        rules = sorted(v.rule for v in violations)
        assert rules == ["RL000", "RL003"]

    def test_unknown_rule_id_reported(self):
        src = """
        x = 1  # repro: noqa-RL999  no such rule
        """
        violations, _, _ = lint_file(SOLVER_PATH, textwrap.dedent(src))
        assert [v.rule for v in violations] == ["RL000"]

    def test_unused_pragma_reported(self):
        src = """
        x = 1  # repro: noqa-RL003  nothing to suppress here
        """
        violations, _, _ = lint_file(SOLVER_PATH, textwrap.dedent(src))
        assert [v.rule for v in violations] == ["RL000"]

    def test_comma_separated_ids_suppress_both(self):
        src = """
        import time
        # repro: noqa-RL002,RL003  fixture exercising a double hit
        json_handle = open("x.json", str("w")) or time.time()
        """
        src = """
        import json
        # repro: noqa-RL002,RL003  wall-clocked raw write in one call
        json.dump(obj, handle) if use_json else __import__("time").time()
        """
        violations, suppressed, _ = lint_file(
            SOLVER_PATH, textwrap.dedent(src))
        assert not [v for v in violations if v.rule == "RL003"]

    def test_docstring_mentioning_pragma_is_not_a_pragma(self):
        src = '''
        def helper():
            """Suppress with ``# repro: noqa-RL003  reason`` inline."""
            return 1
        '''
        violations, _, pragmas = lint_file(SOLVER_PATH, textwrap.dedent(src))
        assert not pragmas
        assert not violations

    def test_pragma_regex_requires_reason_grouping(self):
        match = PRAGMA_RE.search("# repro: noqa-RL001,RL005  because")
        assert match.group(1).replace(" ", "") == "RL001,RL005"
        assert match.group(2) == "because"

    def test_pragma_on_opening_line_covers_whole_statement(self):
        # Regression (PR 10): the violation anchors at the call node's
        # first line, but a multi-line call may carry its pragma on the
        # opening line while the flagged argument sits lines below.
        src = """
        import json
        json.dump(  # repro: noqa-RL003  fixture: multi-line raw write
            obj,
            handle,
            indent=2,
        )
        """
        violations, suppressed, pragmas = lint_file(
            SOLVER_PATH, textwrap.dedent(src))
        assert not violations
        assert [v.rule for v in suppressed] == ["RL003"]
        assert pragmas[0].used == 1

    def test_pragma_on_closing_line_covers_whole_statement(self):
        src = """
        result = open(
            "artifact.bin",
            mode="wb",
        )  # repro: noqa-RL003  fixture: pragma trails the closing paren
        """
        violations, suppressed, _ = lint_file(
            SOLVER_PATH, textwrap.dedent(src))
        assert not violations
        assert [v.rule for v in suppressed] == ["RL003"]

    def test_pragma_on_compound_header_does_not_silence_body(self):
        # A `with` header pragma covers the header extent only — it
        # must not suppress independent violations inside the block.
        src = """
        import time
        with open("out.txt",
                  "w"):  # repro: noqa-RL003  fixture: header-only cover
            stamp = time.time()
        """
        violations, _, _ = lint_file(SOLVER_PATH, textwrap.dedent(src))
        assert [v.rule for v in violations] == ["RL002"]

    def test_program_rule_pragma_not_flagged_unknown_per_file(self):
        # A pragma naming a whole-program rule (RL101 etc.) cannot be
        # validated by the per-file engine: not unknown, not unused.
        src = """
        import repro.serve  # repro: noqa-RL101  fixture: layering waiver
        """
        violations, _, _ = lint_file(SOLVER_PATH, textwrap.dedent(src))
        assert not violations


# ------------------------------------------------------------------- reports
class TestReport:
    def _seed_tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "cathy"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(textwrap.dedent("""
            import numpy as np
            np.random.seed(7)
            stamp = __import__("time").time()
        """))
        return tmp_path

    def test_document_shape_is_stable(self, tmp_path):
        root = self._seed_tree(tmp_path)
        result = lint_project(["src"], root=str(root))
        doc = to_document(result)
        assert doc["schema"] == REPORT_SCHEMA == "repro.lint/report/v1"
        for key in ("repro_version", "root", "paths", "files_scanned",
                    "clean", "rules", "violations", "suppressions",
                    "summary"):
            assert key in doc, key
        assert doc["clean"] is False
        assert set(doc["rules"]) >= {r.id for r in RULES}
        violation = doc["violations"][0]
        assert set(violation) == {"rule", "file", "line", "col", "message"}
        assert doc["summary"]["violations"] == len(doc["violations"])
        # The document round-trips through JSON unchanged.
        assert json.loads(render_json(result)) == doc

    def test_violations_carry_rule_ids_and_locations(self, tmp_path):
        root = self._seed_tree(tmp_path)
        result = lint_project(["src"], root=str(root))
        rules = {v.rule for v in result.violations}
        assert "RL001" in rules
        v = next(v for v in result.violations if v.rule == "RL001")
        assert v.path == "src/repro/cathy/bad.py"
        assert v.line == 3
        assert v.location().count(":") == 2

    def test_catalogue_covers_all_per_file_rules(self):
        assert sorted(rule_catalogue()) == [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
            "RL201", "RL202", "RL203", "RL301"]


# ----------------------------------------------------------------------- CLI
class TestCli:
    def _seed_tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "strod"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            'f = open("model.bin", "wb")\n')
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_ok.py").write_text("x = 1\n")
        return tmp_path

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "ok.py").write_text("value = 1\n")
        code = lint_main(["src", "--root", str(tmp_path)])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_with_locations_on_seeded_violation(self, tmp_path,
                                                         capsys):
        root = self._seed_tree(tmp_path)
        code = lint_main(["src", "tests", "--root", str(root)])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL003" in out
        assert "src/repro/strod/bad.py:1:" in out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        code = lint_main(["nonexistent", "--root", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_json_format_parses(self, tmp_path, capsys):
        root = self._seed_tree(tmp_path)
        code = lint_main(["src", "--format", "json", "--root", str(root)])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.lint/report/v1"
        assert doc["rules"]["RL003"]["violations"] == 1

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005",
                        "RL006", "RL101", "RL102", "RL201", "RL202",
                        "RL203", "RL301", "RL302", "RL401", "RL402",
                        "RL000"):
            assert rule_id in out

    def test_repro_lint_subcommand(self, tmp_path):
        root = self._seed_tree(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src",
             "--root", str(root)],
            capture_output=True, text=True, env=env, cwd=str(root))
        assert proc.returncode == 1, proc.stderr
        assert "RL003" in proc.stdout


# ---------------------------------------------------------------- self-check
@pytest.fixture(scope="module")
def shipped():
    """One whole-program pass over the shipped tree, shared read-only."""
    return lint_project(["src", "tests"], root=REPO_ROOT)


class TestSelfCheck:
    def test_repository_lints_clean(self, shipped):
        assert shipped.clean, "\n".join(
            f"{v.location()} {v.rule} {v.message}"
            for v in shipped.violations)
        assert len(shipped.files) > 100

    def test_pragma_count_does_not_grow(self, shipped):
        pragmas = [(p.path, p.line) for p in shipped.pragmas]
        assert len(pragmas) <= SHIPPED_PRAGMA_BASELINE, (
            f"suppression pragmas grew past the shipped baseline of "
            f"{SHIPPED_PRAGMA_BASELINE}: {pragmas}; fix the violation "
            f"instead, or raise the baseline in the same review that "
            f"justifies the new pragma")

    def test_every_shipped_pragma_is_used_and_reasoned(self, shipped):
        for pragma in shipped.pragmas:
            assert pragma.used >= 1, pragma
            assert len(pragma.reason) >= 10, pragma

    def test_whole_program_pass_is_clean(self, shipped):
        # The PR 10 analyzer: per-file rules plus layering, cycles,
        # schema-registry coverage, and obs-namespace consistency must
        # all hold on the shipped tree.
        assert shipped.clean, "\n".join(
            f"{v.location()} {v.rule} {v.message}"
            for v in shipped.violations)
        assert len(shipped.modules) > 100
        assert shipped.import_edges > 500

    def test_exact_suppression_list_is_pinned(self, shipped):
        # The shipped suppression inventory, in full.  A new pragma is
        # a reviewed decision: it must be added here with the same
        # justification discipline as raising SHIPPED_PRAGMA_BASELINE.
        inventory = sorted((p.path, tuple(p.rule_ids))
                           for p in shipped.pragmas)
        assert inventory == [
            ("src/repro/cli.py", ("RL004",)),
            ("src/repro/obs/spans.py", ("RL003",)),
            ("src/repro/obs/tracer.py", ("RL003",)),
            ("src/repro/resilience/checkpoint.py", ("RL003",)),
        ], inventory
        for pragma in shipped.pragmas:
            assert pragma.used >= 1, pragma
