"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.datasets import DBLPConfig, generate_dblp, save_dataset


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "dataset.json"
    dataset = generate_dblp(DBLPConfig(max_authors=60), seed=3)
    save_dataset(dataset, str(path))
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(
            ["generate", "dblp", "out.json", "--seed", "7"])
        assert args.kind == "dblp"
        assert args.seed == 7

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])


class TestGenerate:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        out = tmp_path / "ds.json"
        code = main(["generate", "dblp", str(out),
                     "--max-authors", "40", "--seed", "1"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["version"] == 1
        assert "wrote synthetic-dblp" in capsys.readouterr().out

    def test_news_kind(self, tmp_path, capsys):
        out = tmp_path / "news.json"
        code = main(["generate", "news", str(out), "--stories", "3",
                     "--articles", "10", "--seed", "1"])
        assert code == 0
        assert "synthetic-news" in capsys.readouterr().out


class TestHierarchy:
    def test_renders_tree(self, dataset_path, capsys):
        code = main(["hierarchy", dataset_path, "--children", "3",
                     "--top", "3", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[o/1]" in out
        assert "venue:" in out

    def test_json_output(self, dataset_path, capsys):
        code = main(["hierarchy", dataset_path, "--children", "3",
                     "--json", "--seed", "0"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["notation"] == "o"
        assert len(data["children"]) == 3


class TestPhrases:
    def test_prints_topics(self, dataset_path, capsys):
        code = main(["phrases", dataset_path, "--topics", "4",
                     "--iterations", "10", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("topic ") == 4


class TestRelations:
    def test_prints_predictions_and_accuracy(self, dataset_path, capsys):
        code = main(["relations", dataset_path, "--limit", "5"])
        assert code == 0
        captured = capsys.readouterr()
        assert "advisee accuracy" in captured.err
        assert captured.out.strip()


class TestErrorHandling:
    def test_missing_dataset_exits_2_with_one_line_error(self, tmp_path,
                                                         capsys):
        code = main(["hierarchy", str(tmp_path / "nope.json")])
        assert code == 2
        captured = capsys.readouterr()
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("repro: error:")

    def test_corrupt_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["hierarchy", str(bad)])
        assert code == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_wrong_schema_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "wrong.json"
        bad.write_text(json.dumps({"version": 1, "surprise": []}))
        code = main(["hierarchy", str(bad)])
        assert code == 2
        assert "repro: error:" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_trace_and_report_written(self, dataset_path, tmp_path,
                                      capsys):
        import repro.obs as obs
        trace = tmp_path / "trace.jsonl"
        report = tmp_path / "report.json"
        code = main(["hierarchy", dataset_path, "--children", "3",
                     "--seed", "0", "--trace", str(trace),
                     "--report", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        obs.validate_report(data)
        assert "cathy.hin_em.fit" in data["phases"]
        assert data["config"]["children"] == "3"
        events = [json.loads(line)
                  for line in trace.read_text().splitlines()]
        assert any(e["event"] == "iteration" for e in events)
        assert any(e["event"] == "end" and e["trace"] == "cathy.hin_em"
                   for e in events)

    def test_log_level_flag_accepted(self, dataset_path, capsys):
        code = main(["generate", "dblp", "/dev/null", "--max-authors",
                     "30", "--seed", "1", "--log-level", "INFO"])
        assert code == 0


class TestStrod:
    def test_prints_topic_words(self, dataset_path, capsys):
        code = main(["strod", dataset_path, "--topics", "4",
                     "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("alpha=") == 4

    def test_sparse_flag(self, dataset_path, capsys):
        code = main(["strod", dataset_path, "--topics", "3", "--sparse"])
        assert code == 0
        assert capsys.readouterr().out.count("alpha=") == 3

    def test_sparse_topics_repeat_in_one_process(self, dataset_path,
                                                 capsys):
        outputs = []
        for _ in range(2):
            code = main(["strod", dataset_path, "--topics", "3",
                         "--sparse", "--seed", "0"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("alpha=") == 3

    def test_count_rows_print_the_token_list_topics(self, dataset_path,
                                                    capsys):
        """`repro strod` fits the corpus's count CSR; it prints the
        topics a fit on the corpus's token lists finds."""
        from repro.datasets import load_dataset
        from repro.strod import STROD

        code = main(["strod", dataset_path, "--topics", "4", "--top", "6",
                     "--seed", "5"])
        assert code == 0
        corpus = load_dataset(dataset_path).corpus
        model = STROD(num_topics=4, alpha0=1.0, seed=5).fit(
            corpus.token_lists(), len(corpus.vocabulary))
        expected = [
            f"topic {z} (alpha={model.alpha[z]:.3f}): " + ", ".join(
                corpus.vocabulary.word_of(int(w))
                for w in model.phi[z].argsort()[::-1][:6])
            for z in range(4)]
        assert capsys.readouterr().out.splitlines() == expected


_IMPORT_PROBE = """
import sys
import repro, repro.obs, repro.core, repro.corpus, repro.stream, repro.cli
print(sorted(name for name in ("multiprocessing", "concurrent.futures.process")
             if name in sys.modules))
"""


class TestImportFootprint:
    def test_no_process_pool_machinery_is_imported(self):
        """Every fan-out runs in process, so the package (CLI included)
        imports neither multiprocessing nor the process-pool executor."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        from repro import get_version
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {get_version()}"


class TestExportModel:
    def test_writes_loadable_artifact(self, dataset_path, tmp_path, capsys):
        from repro.serve import MODEL_SCHEMA_V2, ModelQueryEngine, load_model
        out = tmp_path / "model.rmv2"
        code = main(["export-model", dataset_path, "-o", str(out),
                     "--children", "3", "--seed", "0"])
        assert code == 0
        assert "exported" in capsys.readouterr().out
        assert out.read_bytes()[:8] == b"REPROMV2"
        engine = ModelQueryEngine(load_model(str(out)))
        try:
            assert engine.model.manifest["schema"] == MODEL_SCHEMA_V2
            assert engine.top_phrases("o", 3)["phrases"]
        finally:
            engine.close()

    def test_output_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export-model", "ds.json"])

    @pytest.mark.parametrize("argv", [
        ["export-model", "ds.json", "-o", "m.rmv2", "--format", "v1"],
        ["ingest", "--shard-dir", "s", "--batch", "b.jsonl",
         "--format", "v2"]])
    def test_format_flag_is_gone(self, argv, capsys):
        """Every save writes v2; only migrate-model --to v1 writes JSON."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments: --format" in capsys.readouterr().err


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "model.json"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.cache_size == 1024
        assert args.request_timeout == 30.0

    def test_serve_missing_model_exits_2(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
