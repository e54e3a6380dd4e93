"""Unit tests for checks of the harness that a broken program must fail.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import run  # noqa: E402


def _owned(workload):
    return [name for name, (_, _, owners) in run.PER_LAYER.items()
            if workload in owners]


def _verdict(workload, layers):
    out = run.Result(layers=layers)
    run.check_layers(workload, out)
    (what, ok), = out.checks
    return ok, what


def test_every_owned_layer_measured_passes():
    assert _verdict("ingest_swap", dict.fromkeys(_owned("ingest_swap"),
                                                 1.0))[0]


def test_a_layer_whose_wrapper_caught_nothing_fails():
    layers = dict.fromkeys(_owned("mine_dblp"), 1.0)
    del layers["relations.tpfg_s"]
    ok, what = _verdict("mine_dblp", layers)
    assert not ok and "relations.tpfg_s" in what


def test_zero_fails_unless_zero_is_a_legal_reading():
    layers = dict.fromkeys(_owned("ingest_swap"), 1.0)
    layers["stream.refit.nodes_reused"] = 0.0
    assert _verdict("ingest_swap", layers)[0]
    layers["stream.refit.s"] = 0.0
    assert not _verdict("ingest_swap", layers)[0]


class _StuckServer:
    """``/healthz`` that keeps serving version 1 after every reload."""

    def __init__(self):
        self.polls = 0

    def get(self, path):
        self.polls += 1
        return 200, b'{"status": "ok", "model_version": 1}'


def test_a_version_never_served_gives_up_at_the_deadline(monkeypatch):
    monkeypatch.setattr(run, "VISIBLE_TIMEOUT_S", 0.05)
    stuck = _StuckServer()
    assert run._wait_visible(stuck, 1) is not None
    assert run._wait_visible(stuck, 2) is None
    assert 1 < stuck.polls < 100
