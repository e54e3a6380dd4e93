"""Tiny-size smoke runs: every workload, traced and untraced, emits every
metric ``BENCHMARK.json`` names, with its unit, and checks its outputs.

Slow (about two minutes on two cores): run with
``python -m pytest perfbench/tests`` from the repository root.
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
          encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SIZES", {"num_documents": 600,
                                       "max_authors": 80})
    monkeypatch.setattr(run, "MODEL_SHAPE", {
        "num_terms": 2_000, "phrases_per_topic": 120, "num_authors": 600,
        "ranks_per_topic": 150})
    monkeypatch.setattr(run, "NOMINAL_RATE", 40.0)
    monkeypatch.setattr(run, "MIN_NOMINAL_S", 5.5)
    monkeypatch.setattr(run, "CAPACITY_REQUESTS", 40)
    monkeypatch.setattr(run, "MAX_STEPS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "NUM_BATCHES", 5)
    monkeypatch.setattr(run, "FLOORS", dict.fromkeys(run.FLOORS, 0.0))


def _run(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(tiny, workload, trace):
    code, lines, result = _run(workload, trace)
    assert code == 0, "\n".join(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, "\n".join(lines)
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0
    # The per-workload metrics are printed by name with a unit.
    printed = {line.split()[1] for line in lines
               if line.startswith(workload + " ")}
    for source, _ in run.END_TO_END[workload].values():
        if not trace or source != "query_capacity_per_s":
            assert source in printed


def test_contract_matches_the_harness():
    assert CONTRACT["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} \
        == run.UNITS
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} \
        == {name: unit for name, (unit, _, _) in run.PER_LAYER.items()}
    owners = {w for _, _, ws in run.PER_LAYER.values() for w in ws}
    assert owners == set(run.WORKLOADS)
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_no_program_means_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "mine_dblp", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
