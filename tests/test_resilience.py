"""Crash-safety tests: atomic writes, checkpoints, resume.

The central promise under test: a run killed at any point — mid-write
or mid-iteration — resumes bit-for-bit from its checkpoints.  Faults
are injected with :mod:`tests.faults`.
"""

import json
import os

import numpy as np
import pytest

import repro.obs as obs
from repro.baselines import LDAGibbs
from repro.cathy import BuilderConfig, CathyEM, CathyHIN, HierarchyBuilder
from repro.core import LatentEntityMiner, MinerConfig
from repro.corpus import Corpus
from repro.errors import DataError
from repro.eval import held_out_perplexity
from repro.network import build_collapsed_network, build_term_network
from repro.phrases.ranking import FlatTopicModel
from repro.relations import ROOT, TPFG
from repro.resilience import (CheckpointWriter, atomic_write_bytes,
                              atomic_write_json, checkpoint_in,
                              load_checkpoint, save_checkpoint)
from repro.strod import robust_tensor_decomposition

from .faults import (CrashingCheckpoint, FaultInjected, corrupt_file,
                     truncate_file)


# --------------------------------------------------------------- fixtures
@pytest.fixture
def term_network():
    """Two term cliques: a trivially separable two-topic network."""
    texts = (["red green blue"] * 10) + (["cat dog bird"] * 10)
    return build_term_network(Corpus.from_texts(texts))


@pytest.fixture
def hetero_network():
    """Two communities with authors and venues."""
    texts = (["red green blue"] * 8) + (["cat dog bird"] * 8)
    entities = ([{"author": ["ann"], "venue": ["COLOR"]}] * 8
                + [{"author": ["zoe"], "venue": ["ANIMAL"]}] * 8)
    return build_collapsed_network(Corpus.from_texts(texts,
                                                     entities=entities))


def manual_graph():
    from repro.relations import Candidate, CandidateGraph, ROOT

    graph = CandidateGraph()
    graph.candidates["senior"] = [
        Candidate("senior", "prof", 1995, 2002, 0.8),
        Candidate("senior", ROOT, 1995, 2005, 0.2),
    ]
    graph.candidates["junior"] = [
        Candidate("junior", "senior", 2000, 2004, 0.45),
        Candidate("junior", "prof", 2000, 2004, 0.40),
        Candidate("junior", ROOT, 2000, 2005, 0.15),
    ]
    graph.candidates["prof"] = [Candidate("prof", ROOT, 1990, 2005, 1.0)]
    return graph


def planted_tensor():
    """A small odeco tensor with known components."""
    rng = np.random.default_rng(0)
    basis = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    weights = [3.0, 2.0, 1.5]
    return sum(w * np.einsum("i,j,k->ijk", v, v, v)
               for w, v in zip(weights, basis.T))


# ---------------------------------------------------------- atomic writes
class TestAtomicWrites:
    def test_bytes_roundtrip(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(str(path), b"\x00\x01payload")
        assert path.read_bytes() == b"\x00\x01payload"

    def test_crash_mid_write_keeps_previous_version(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "data.json"
        atomic_write_json(str(path), {"generation": 1})

        def refuse(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_json(str(path), {"generation": 2})
        monkeypatch.undo()
        assert json.loads(path.read_text()) == {"generation": 1}
        assert [p for p in tmp_path.iterdir()] == [path]

    def test_unserializable_object_leaves_no_artifact(self, tmp_path):
        path = tmp_path / "data.json"
        with pytest.raises(TypeError):
            atomic_write_json(str(path), {"bad": object()})
        assert list(tmp_path.iterdir()) == []

    def test_save_dataset_crash_keeps_previous_version(self, tmp_path,
                                                       monkeypatch,
                                                       dblp_small):
        from repro.datasets import save_dataset

        path = tmp_path / "dataset.json"
        save_dataset(dblp_small, str(path))
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="simulated crash"):
            save_dataset(dblp_small, str(path))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p for p in tmp_path.iterdir()] == [path]

    def test_run_report_write_is_atomic(self, tmp_path, monkeypatch):
        from repro.obs import build_run_report, write_report

        obs.configure()
        path = tmp_path / "report.json"
        write_report(build_run_report(config={"run": 1}), str(path))
        before = json.loads(path.read_text())
        assert before["config"] == {"run": 1}
        assert path.read_text().endswith("\n")

        def refuse(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_report(build_run_report(config={"run": 2}), str(path))
        monkeypatch.undo()
        assert json.loads(path.read_text())["config"] == {"run": 1}


# ---------------------------------------------------- checkpoint protocol
class TestCheckpointProtocol:
    def test_roundtrip(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "fit.ckpt"), "solver.x",
                                  config={"k": 3})
        writer.save(7, {"iteration": 7, "weights": [1.0, 2.0]})
        document = writer.load()
        assert document["iteration"] == 7
        assert document["state"]["weights"] == [1.0, 2.0]
        assert document["solver"] == "solver.x"

    def test_missing_file_loads_none(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "fit.ckpt"), "solver.x")
        assert writer.load() is None

    def test_maybe_save_cadence(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "fit.ckpt"), "solver.x",
                                  every=3)
        assert not writer.maybe_save(0, lambda: {"iteration": 0})
        assert not writer.maybe_save(1, lambda: {"iteration": 1})
        assert writer.maybe_save(2, lambda: {"iteration": 2})
        assert writer.load()["iteration"] == 2

    def test_clear_removes_file(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "fit.ckpt"), "solver.x")
        writer.save(0, {"iteration": 0})
        writer.clear()
        writer.clear()  # idempotent
        assert writer.load() is None

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "fit.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(DataError, match="not a repro checkpoint"):
            load_checkpoint(str(path))

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "fit.ckpt"
        save_checkpoint(str(path), {"schema":
                                    "repro.resilience/checkpoint/v1",
                                    "state": {}})
        truncate_file(str(path), 15)
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "fit.ckpt"), "solver.x")
        writer.save(3, {"iteration": 3, "big": list(range(100))})
        size = os.path.getsize(writer.path)
        truncate_file(writer.path, size - 10)
        with pytest.raises(DataError, match="truncated"):
            writer.load()

    def test_bit_flip_rejected(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "fit.ckpt"), "solver.x")
        writer.save(3, {"iteration": 3})
        corrupt_file(writer.path)
        with pytest.raises(DataError, match="corrupted"):
            writer.load()

    def test_wrong_solver_rejected(self, tmp_path):
        path = str(tmp_path / "fit.ckpt")
        CheckpointWriter(path, "solver.a").save(0, {"iteration": 0})
        with pytest.raises(DataError, match="written by solver"):
            CheckpointWriter(path, "solver.b").load()

    def test_config_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "fit.ckpt")
        CheckpointWriter(path, "solver.a",
                         config={"k": 3, "seed": 1}).save(0, {"iteration": 0})
        with pytest.raises(DataError, match="different configuration"):
            CheckpointWriter(path, "solver.a",
                             config={"k": 4, "seed": 1}).load()

    def test_checkpoint_in_none_directory(self, tmp_path):
        assert checkpoint_in(None, "fit", "solver.x") is None
        writer = checkpoint_in(str(tmp_path / "ckpts"), "fit", "solver.x")
        assert writer is not None
        writer.save(0, {"iteration": 0})
        assert (tmp_path / "ckpts" / "fit.ckpt").exists()


class TestCheckpointHistory:
    def test_default_keeps_all_superseded(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "fit.ckpt"), "solver.x")
        for iteration in range(5):
            writer.save(iteration, {"iteration": iteration})
        history = writer.history_paths()
        assert len(history) == 4  # iterations 0..3; 4 is the live file
        assert writer.load()["iteration"] == 4

    def test_history_files_are_valid_checkpoints(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "fit.ckpt"), "solver.x")
        for iteration in range(3):
            writer.save(iteration, {"iteration": iteration})
        iterations = [load_checkpoint(path)["iteration"]
                      for path in writer.history_paths()]
        assert iterations == [0, 1]  # oldest first

    def test_keep_last_zero_keeps_no_history(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "fit.ckpt"), "solver.x",
                                  keep_last=0)
        for iteration in range(5):
            writer.save(iteration, {"iteration": iteration})
        assert writer.history_paths() == []
        assert os.listdir(tmp_path) == ["fit.ckpt"]
        assert writer.load()["iteration"] == 4

    def test_keep_last_prunes_to_newest(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "fit.ckpt"), "solver.x",
                                  keep_last=2)
        for iteration in range(6):
            writer.save(iteration, {"iteration": iteration})
        history = writer.history_paths()
        assert [load_checkpoint(p)["iteration"] for p in history] == [3, 4]
        assert writer.load()["iteration"] == 5

    def test_negative_keep_last_rejected(self, tmp_path):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="keep_last"):
            CheckpointWriter(str(tmp_path / "fit.ckpt"), "solver.x",
                             keep_last=-1)

    def test_clear_removes_history_too(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path / "fit.ckpt"), "solver.x")
        for iteration in range(4):
            writer.save(iteration, {"iteration": iteration})
        writer.clear()
        assert os.listdir(tmp_path) == []

    def test_fresh_writer_over_existing_file_stays_monotone(self, tmp_path):
        path = str(tmp_path / "fit.ckpt")
        first = CheckpointWriter(path, "solver.x")
        for iteration in range(3):
            first.save(iteration, {"iteration": iteration})
        # A new writer that never loaded does not know the live file's
        # iteration; its archive stamp must still sort after the rest.
        second = CheckpointWriter(path, "solver.x")
        second.save(9, {"iteration": 9})
        history = second.history_paths()
        assert [load_checkpoint(p)["iteration"] for p in history[:2]] == \
            [0, 1]
        assert load_checkpoint(history[-1])["iteration"] == 2

    def test_checkpoint_in_threads_keep_last(self, tmp_path):
        writer = checkpoint_in(str(tmp_path), "fit", "solver.x",
                               keep_last=1)
        for iteration in range(4):
            writer.save(iteration, {"iteration": iteration})
        assert len(writer.history_paths()) == 1

    def test_prune_then_resume(self, term_network, tmp_path):
        """Pruned history never breaks resume: the live file is enough."""
        reference = CathyEM(num_topics=2, seed=0).fit(term_network)
        path = str(tmp_path / "em.ckpt")
        crasher = CrashingCheckpoint(path, "cathy.em", crash_after=3,
                                     keep_last=1)
        with pytest.raises(FaultInjected):
            CathyEM(num_topics=2, seed=0, checkpoint=crasher).fit(
                term_network)
        assert len(crasher.history_paths()) <= 1
        resumed = CathyEM(
            num_topics=2, seed=0,
            checkpoint=CheckpointWriter(path, "cathy.em", keep_last=1),
            resume=True).fit(term_network)
        assert np.array_equal(resumed.phi, reference.phi)
        assert resumed.log_likelihood == reference.log_likelihood


# ------------------------------------------------- kill/resume per solver
class TestKillResumeEquivalence:
    def test_cathy_em(self, term_network, tmp_path):
        reference = CathyEM(num_topics=2, seed=0).fit(term_network)
        path = str(tmp_path / "em.ckpt")
        crasher = CrashingCheckpoint(path, "cathy.em", crash_after=3)
        with pytest.raises(FaultInjected):
            CathyEM(num_topics=2, seed=0, checkpoint=crasher).fit(
                term_network)
        resumed = CathyEM(num_topics=2, seed=0,
                          checkpoint=CheckpointWriter(path, "cathy.em"),
                          resume=True).fit(term_network)
        assert np.array_equal(resumed.phi, reference.phi)
        assert np.array_equal(resumed.rho, reference.rho)
        assert resumed.log_likelihood == reference.log_likelihood

    def test_cathy_em_restarts(self, term_network, tmp_path):
        reference = CathyEM(num_topics=2, restarts=3, seed=1).fit(
            term_network)
        path = str(tmp_path / "em.ckpt")
        # Crash inside the second restart: completed restarts must be
        # restored wholesale, the live one from its iteration state.
        crasher = CrashingCheckpoint(path, "cathy.em", crash_after=8)
        with pytest.raises(FaultInjected):
            CathyEM(num_topics=2, restarts=3, seed=1,
                    checkpoint=crasher).fit(term_network)
        resumed = CathyEM(num_topics=2, restarts=3, seed=1,
                          checkpoint=CheckpointWriter(path, "cathy.em"),
                          resume=True).fit(term_network)
        assert np.array_equal(resumed.phi, reference.phi)
        assert resumed.log_likelihood == reference.log_likelihood

    def test_cathy_hin(self, hetero_network, tmp_path):
        reference = CathyHIN(num_topics=2, seed=0).fit(hetero_network)
        path = str(tmp_path / "hin.ckpt")
        crasher = CrashingCheckpoint(path, "cathy.hin_em", crash_after=4)
        with pytest.raises(FaultInjected):
            CathyHIN(num_topics=2, seed=0, checkpoint=crasher).fit(
                hetero_network)
        resumed = CathyHIN(num_topics=2, seed=0,
                           checkpoint=CheckpointWriter(path,
                                                       "cathy.hin_em"),
                           resume=True).fit(hetero_network)
        assert np.array_equal(resumed.rho, reference.rho)
        assert resumed.rho0 == reference.rho0
        for node_type in reference.phi:
            assert np.array_equal(resumed.phi[node_type],
                                  reference.phi[node_type])
        assert resumed.log_likelihood == reference.log_likelihood

    def test_lda_gibbs(self, tmp_path):
        texts = (["red green blue colors"] * 15
                 + ["cat dog bird animals"] * 15)
        corpus = Corpus.from_texts(texts)
        docs = [d.tokens for d in corpus]
        vocab = len(corpus.vocabulary)
        reference = LDAGibbs(num_topics=2, iterations=20, seed=0).fit(
            docs, vocab)
        path = str(tmp_path / "lda.ckpt")
        crasher = CrashingCheckpoint(path, "lda.gibbs", crash_after=5)
        with pytest.raises(FaultInjected):
            LDAGibbs(num_topics=2, iterations=20, seed=0,
                     checkpoint=crasher).fit(docs, vocab)
        resumed = LDAGibbs(num_topics=2, iterations=20, seed=0,
                           checkpoint=CheckpointWriter(path, "lda.gibbs"),
                           resume=True).fit(docs, vocab)
        assert np.array_equal(resumed.phi, reference.phi)
        assert np.array_equal(resumed.theta, reference.theta)
        assert len(resumed.assignments) == len(reference.assignments)
        for mine, theirs in zip(resumed.assignments,
                                reference.assignments):
            assert np.array_equal(mine, theirs)

    def test_tensor_power(self, tmp_path):
        tensor = planted_tensor()
        reference = robust_tensor_decomposition(tensor, 3, num_restarts=4,
                                                num_iterations=20, seed=1)
        path = str(tmp_path / "strod.ckpt")
        crasher = CrashingCheckpoint(path, "strod.tensor_power",
                                     crash_after=1)
        with pytest.raises(FaultInjected):
            robust_tensor_decomposition(tensor, 3, num_restarts=4,
                                        num_iterations=20, seed=1,
                                        checkpoint=crasher)
        resumed = robust_tensor_decomposition(
            tensor, 3, num_restarts=4, num_iterations=20, seed=1,
            checkpoint=CheckpointWriter(path, "strod.tensor_power"),
            resume=True)
        assert len(resumed) == len(reference)
        for a, b in zip(resumed, reference):
            assert a.eigenvalue == b.eigenvalue
            assert np.array_equal(a.eigenvector, b.eigenvector)

    def test_tpfg(self, tmp_path):
        reference = TPFG(max_iter=10).fit(manual_graph())
        path = str(tmp_path / "tpfg.ckpt")
        crasher = CrashingCheckpoint(path, "relations.tpfg", crash_after=4)
        with pytest.raises(FaultInjected):
            TPFG(max_iter=10).fit(manual_graph(), checkpoint=crasher)
        resumed = TPFG(max_iter=10).fit(
            manual_graph(),
            checkpoint=CheckpointWriter(path, "relations.tpfg"),
            resume=True)
        assert resumed.ranking == reference.ranking

    @pytest.mark.parametrize("dropped", ["prof", ROOT],
                             ids=["advisor", "root"])
    def test_tpfg_refuses_checkpoint_of_other_graph(self, tmp_path,
                                                    dropped):
        """Dropping junior's candidate "prof" changes the message keys;
        dropping its root option keeps the keys but shortens a message."""
        path = str(tmp_path / "tpfg.ckpt")
        TPFG(max_iter=10).fit(
            manual_graph(),
            checkpoint=CheckpointWriter(path, "relations.tpfg"))
        graph = manual_graph()
        graph.candidates["junior"] = [c for c in graph.candidates["junior"]
                                      if c.advisor != dropped]
        with pytest.raises(DataError, match="does not match"):
            TPFG(max_iter=10).fit(
                graph, checkpoint=CheckpointWriter(path, "relations.tpfg"),
                resume=True)

    def test_corrupted_checkpoint_refuses_resume(self, tmp_path,
                                                 term_network):
        path = str(tmp_path / "em.ckpt")
        crasher = CrashingCheckpoint(path, "cathy.em", crash_after=2)
        with pytest.raises(FaultInjected):
            CathyEM(num_topics=2, seed=0, checkpoint=crasher).fit(
                term_network)
        corrupt_file(path)
        with pytest.raises(DataError, match="corrupted"):
            CathyEM(num_topics=2, seed=0,
                    checkpoint=CheckpointWriter(path, "cathy.em"),
                    resume=True).fit(term_network)


# ------------------------------------------------ hierarchy crash/resume
def _topics_equal(a, b):
    """Bit-for-bit comparison of two built hierarchies."""
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        assert x.notation == y.notation
        assert x.rho == y.rho
        assert set(x.phi) == set(y.phi)
        for node_type in x.phi:
            assert np.array_equal(x.phi[node_type], y.phi[node_type])
        assert len(x.children) == len(y.children)
        stack.extend(zip(x.children, y.children))


class TestHierarchyKillResume:
    def test_killed_build_resumes_bit_identical(self, dblp_network,
                                                tmp_path, monkeypatch):
        import repro.cathy.builder as builder_mod

        def config(**overrides):
            return BuilderConfig(num_children=2, max_depth=2, max_iter=40,
                                 **overrides)

        reference = HierarchyBuilder(config(), seed=7).build(dblp_network)

        ckpt_dir = str(tmp_path / "ckpts")
        real_checkpoint_in = builder_mod.checkpoint_in
        armed = {"value": True}

        def crashing_checkpoint_in(directory, name, solver, config=None,
                                   every=1):
            writer = real_checkpoint_in(directory, name, solver,
                                        config=config, every=every)
            if writer is not None and armed["value"] \
                    and name.startswith("em_"):
                armed["value"] = False
                return CrashingCheckpoint(writer.path, solver,
                                          config=config, every=every,
                                          crash_after=2)
            return writer

        monkeypatch.setattr(builder_mod, "checkpoint_in",
                            crashing_checkpoint_in)
        with pytest.raises(FaultInjected):
            HierarchyBuilder(config(checkpoint_dir=ckpt_dir),
                             seed=7).build(dblp_network)
        assert os.listdir(ckpt_dir)  # the kill left state to resume from

        resumed = HierarchyBuilder(
            config(checkpoint_dir=ckpt_dir, resume=True),
            seed=7).build(dblp_network)
        _topics_equal(resumed, reference)

        # A second resume restores finished subtrees wholesale.
        restored = HierarchyBuilder(
            config(checkpoint_dir=ckpt_dir, resume=True),
            seed=7).build(dblp_network)
        _topics_equal(restored, reference)

    def test_foreign_checkpoints_rejected(self, dblp_network, tmp_path):
        ckpt_dir = str(tmp_path / "ckpts")
        cfg = BuilderConfig(num_children=2, max_depth=1, max_iter=30,
                            checkpoint_dir=ckpt_dir)
        HierarchyBuilder(cfg, seed=7).build(dblp_network)
        other = BuilderConfig(num_children=2, max_depth=1, max_iter=60,
                              checkpoint_dir=ckpt_dir, resume=True)
        with pytest.raises(DataError, match="different configuration"):
            HierarchyBuilder(other, seed=7).build(dblp_network)

    @pytest.mark.parametrize("with_links", [True, False])
    def test_checkpoint_of_per_type_link_stores_rejected(
            self, dblp_network, tmp_path, monkeypatch, with_links):
        """A subtree checkpoint pickled while networks kept one store per
        link type fails to resume with a DataError, not with a traceback
        from a solver: its link stores no longer exist, and its network
        state cannot load into the stacked network."""
        import repro.network.weighted as weighted
        from repro.resilience.checkpoint import (load_checkpoint,
                                                 save_checkpoint)

        class _LinkStore:
            pass

        class HeterogeneousNetwork:
            pass

        for stand_in in (_LinkStore, HeterogeneousNetwork):
            stand_in.__module__ = weighted.__name__
            stand_in.__qualname__ = stand_in.__name__
        old = HeterogeneousNetwork()
        old.__dict__.update(_names={"term": ["a", "b"]},
                            _index={"term": {"a": 0, "b": 1}}, _links={},
                            _version=2, _degree_cache={})
        if with_links:
            store = _LinkStore()
            store.__dict__.update(rows=np.zeros(1, dtype=np.int64),
                                  cols=np.ones(1, dtype=np.int64),
                                  weights=np.ones(1))
            old._links[("term", "term")] = store

        ckpt_dir = tmp_path / "ckpts"
        cfg = dict(num_children=2, max_depth=1, max_iter=30,
                   checkpoint_dir=str(ckpt_dir))
        HierarchyBuilder(BuilderConfig(**cfg), seed=7).build(dblp_network)
        (path,) = ckpt_dir.glob("subtree_*.ckpt")
        document = load_checkpoint(str(path))
        for child in document["state"]["children"]:
            child.network = old
        with monkeypatch.context() as patch:
            patch.setattr(weighted, "_LinkStore", _LinkStore, raising=False)
            patch.setattr(weighted, "HeterogeneousNetwork",
                          HeterogeneousNetwork)
            save_checkpoint(str(path), document)
        with pytest.raises(DataError, match="unreadable"):
            HierarchyBuilder(BuilderConfig(resume=True, **cfg),
                             seed=7).build(dblp_network)

    def test_miner_checkpoint_dir_matches_plain_fit(self, tiny_corpus,
                                                    tmp_path):
        miner_config = MinerConfig(num_children=2, max_depth=1,
                                   min_support=2)
        plain = LatentEntityMiner(miner_config, seed=3).fit(tiny_corpus)
        checkpointed = LatentEntityMiner(miner_config, seed=3).fit(
            tiny_corpus, checkpoint_dir=str(tmp_path / "ckpts"))
        _topics_equal(checkpointed.hierarchy, plain.hierarchy)


# -------------------------------------------------------- CLI failure modes
class TestCLIFailureModes:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, tmp_path,
                                          capsys):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_generate", interrupted)
        code = cli.main(["generate", "dblp", str(tmp_path / "x.json")])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err

    def test_keyboard_interrupt_flushes_report(self, monkeypatch, tmp_path,
                                               capsys):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_generate", interrupted)
        report = tmp_path / "report.json"
        code = cli.main(["generate", "dblp", str(tmp_path / "x.json"),
                         "--report", str(report)])
        assert code == 130
        data = json.loads(report.read_text())
        assert data["schema"] == "repro.obs/run-report/v2"


# ------------------------------------------------------- perplexity edges
class TestPerplexityShortDocs:
    def _model(self):
        return FlatTopicModel(rho=np.full(2, 0.5),
                              phi=np.full((2, 4), 0.25))

    def test_all_short_docs_returns_inf_with_warning(self):
        obs.configure()
        with pytest.warns(RuntimeWarning, match="skipped 3 of 3"):
            result = held_out_perplexity(self._model(), [[0], [1], []],
                                         seed=0)
        assert result == float("inf")
        counters = obs.get_registry().snapshot()["counters"]
        assert counters["eval.perplexity.skipped_docs"] == 3

    def test_mixed_corpus_warns_but_scores(self):
        with pytest.warns(RuntimeWarning, match="skipped 1 of 2"):
            result = held_out_perplexity(self._model(),
                                         [[0, 1, 2, 3], [1]], seed=0)
        assert np.isfinite(result)

    def test_long_docs_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = held_out_perplexity(self._model(), [[0, 1, 2, 3]] * 3,
                                         seed=0)
        assert np.isfinite(result)
