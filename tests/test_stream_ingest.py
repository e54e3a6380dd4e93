"""IngestPipeline: drift arithmetic, refit policies, crash-resume.

The acceptance bar for the streaming subsystem (ISSUE 9): a corpus
ingested in k batches must yield a served model equal to the one-shot
batch fit (bit-for-bit at ``dirty_threshold=0.0``), and a killed-and-
resumed ingest must land in exactly the state an uninterrupted run
reaches.  Both are pinned here, along with the pure arithmetic of the
drift detectors and the three refit policies.
"""

import os

import numpy as np
import pytest

import repro.obs as obs
from repro.corpus import Corpus
from repro.errors import ConfigurationError, DataError
from repro.resilience import CheckpointWriter
from repro.serve import ModelQueryEngine, load_model
from repro.stream import (PIPELINE_SOLVER, DriftConfig, IngestConfig,
                          IngestPipeline, ShardStore, StreamRefitter,
                          baseline_from_sketch, batch_key, detect_drift)
from repro.strod import MomentSketch
from repro.strod.hierarchy import STRODHierarchyBuilder, STRODTreeConfig

TOPIC_A = ["spectral", "tensor", "moment", "whitening",
           "decomposition", "power", "iteration", "eigenvalue"]
TOPIC_B = ["entity", "hierarchy", "mining", "network",
           "latent", "structure", "role", "linkage"]


def _make_batches(num_batches=3, docs_per_batch=8, seed=7):
    rng = np.random.default_rng(seed)
    batches = []
    for b in range(num_batches):
        batch = []
        for d in range(docs_per_batch):
            pool = TOPIC_A if d % 2 == 0 else TOPIC_B
            words = [pool[i] for i in rng.integers(0, len(pool), size=6)]
            batch.append({"text": " ".join(words) + ".",
                          "entities": {"author": [f"a{b}-{d % 3}"]},
                          "year": 2013 + b})
        batches.append(batch)
    return batches


BATCHES = _make_batches()

TREE = STRODTreeConfig(num_children=2, max_depth=1, min_documents=5,
                       num_restarts=2, num_iterations=5)


def _config(**overrides):
    kwargs = dict(refit_policy="always", tree=TREE, seed=3,
                  dirty_threshold=0.0)
    kwargs.update(overrides)
    return IngestConfig(**kwargs)


def _flatten(hierarchy):
    return {t.notation: (t.rho, t.phi) for t in hierarchy.topics()}


def _deep_equal(a, b):
    """`==` with bit-exact ndarray support (sketch states hold arrays)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(_deep_equal(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (len(a) == len(b)
                and all(_deep_equal(x, y) for x, y in zip(a, b)))
    return a == b


class TestDriftArithmetic:
    def test_missing_baseline_always_triggers(self):
        sketch = MomentSketch.from_docs([[0, 1, 2]], 4)
        report = detect_drift(None, sketch, DriftConfig())
        assert report.triggered
        assert report.reasons == ["no baseline model"]
        assert report.metrics["moment_delta"] == float("inf")

    def test_moment_delta_is_relative_l1(self):
        base = MomentSketch.from_docs([[0, 0, 0]], 4)
        baseline = baseline_from_sketch(base)
        grown = base.merge(MomentSketch.from_docs([[1, 1, 1]], 4))
        # m1 goes [1,0,0,0] -> [.5,.5,0,0]: |delta|_1 / |base|_1 = 1.0
        report = detect_drift(baseline, grown,
                              DriftConfig(moment_delta=1.0,
                                          vocab_growth=float("inf")))
        assert report.metrics["moment_delta"] == pytest.approx(1.0)
        assert report.triggered  # fires on >=
        calm = detect_drift(baseline, grown,
                            DriftConfig(moment_delta=1.01,
                                        vocab_growth=float("inf")))
        assert not calm.triggered

    def test_vocab_growth_pads_old_moment(self):
        base = MomentSketch.from_docs([[0, 1, 2]], 4)
        baseline = baseline_from_sketch(base)
        grown = base.merge(MomentSketch.from_docs([[4, 5, 5]], 6))
        report = detect_drift(baseline, grown,
                              DriftConfig(moment_delta=float("inf"),
                                          vocab_growth=0.5))
        assert report.metrics["vocab_growth"] == pytest.approx(0.5)
        assert report.triggered
        assert "vocab growth" in report.reasons[0]

    def test_doc_count_detector_disabled_at_zero(self):
        base = MomentSketch.from_docs([[0, 1, 2]], 4)
        baseline = baseline_from_sketch(base)
        grown = base.merge(MomentSketch.from_docs(
            [[0, 1, 2]] * 10, 4))
        quiet = DriftConfig(moment_delta=float("inf"),
                            vocab_growth=float("inf"), doc_count=0)
        assert not detect_drift(baseline, grown, quiet).triggered
        armed = DriftConfig(moment_delta=float("inf"),
                            vocab_growth=float("inf"), doc_count=10)
        report = detect_drift(baseline, grown, armed)
        assert report.triggered
        assert report.metrics["new_docs"] == 10.0

    def test_negative_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            DriftConfig(moment_delta=-0.1)
        with pytest.raises(ConfigurationError):
            DriftConfig(vocab_growth=-0.1)

    def test_nan_thresholds_rejected(self):
        for name in ("moment_delta", "vocab_growth"):
            with pytest.raises(ConfigurationError, match="NaN"):
                DriftConfig(**{name: float("nan")})


class TestRefitPolicies:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="refit policy"):
            IngestConfig(refit_policy="sometimes")

    def test_never_policy_sketches_without_solving(self, tmp_path):
        pipeline = IngestPipeline(ShardStore(str(tmp_path / "log")),
                                  _config(refit_policy="never"))
        report = pipeline.ingest_batch(BATCHES[0])
        assert not report.refit_ran
        assert pipeline.model_version == 0
        assert pipeline.sketch.num_docs == len(BATCHES[0])

    def test_always_policy_bumps_every_batch(self, tmp_path):
        pipeline = IngestPipeline(ShardStore(str(tmp_path / "log")),
                                  _config(refit_policy="always"))
        for expected, batch in enumerate(BATCHES, start=1):
            report = pipeline.ingest_batch(batch)
            assert report.refit_ran
            assert report.model_version == expected

    def test_drift_policy_first_batch_then_quiet(self, tmp_path):
        config = _config(
            refit_policy="drift",
            drift=DriftConfig(moment_delta=float("inf"),
                              vocab_growth=float("inf"), doc_count=0))
        pipeline = IngestPipeline(ShardStore(str(tmp_path / "log")),
                                  config)
        first = pipeline.ingest_batch(BATCHES[0])
        assert first.refit_ran  # no baseline: must solve once
        second = pipeline.ingest_batch(BATCHES[1])
        assert not second.refit_ran
        assert pipeline.model_version == 1

    def test_duplicate_batch_is_a_no_op(self, tmp_path):
        pipeline = IngestPipeline(ShardStore(str(tmp_path / "log")),
                                  _config())
        pipeline.ingest_batch(BATCHES[0])
        report = pipeline.ingest_batch(BATCHES[0])
        assert report.deduplicated
        assert not report.refit_ran
        assert pipeline.model_version == 1
        assert pipeline.store.num_shards == 1


class TestCrashResume:
    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        config = _config(refit_policy="drift", dirty_threshold=0.25)
        a = IngestPipeline(ShardStore(str(tmp_path / "a")), config,
                           checkpoint_dir=str(tmp_path / "a-ckpt"))
        for batch in BATCHES:
            a.ingest_batch(batch)

        # Interrupted run: batch 1 lands in the store but the process
        # dies before the pipeline sketches it or checkpoints.
        b_dir, b_ckpt = str(tmp_path / "b"), str(tmp_path / "b-ckpt")
        interrupted = IngestPipeline(ShardStore(b_dir), config,
                                     checkpoint_dir=b_ckpt)
        interrupted.ingest_batch(BATCHES[0])
        ShardStore(b_dir).append_batch(BATCHES[1],
                                       batch_key=batch_key(BATCHES[1]))
        resumed = IngestPipeline(ShardStore(b_dir), config,
                                 checkpoint_dir=b_ckpt)
        assert resumed.synced_shards == 2  # replayed the orphan shard
        resumed.ingest_batch(BATCHES[2])

        assert resumed.model_version == a.model_version
        assert resumed.sketch.fingerprint() == a.sketch.fingerprint()
        assert _deep_equal(resumed._state(), a._state())

    def test_retrying_the_crashed_batch_also_converges(self, tmp_path):
        """The CLI path: the killed `repro ingest` is simply re-run."""
        config = _config()
        a = IngestPipeline(ShardStore(str(tmp_path / "a")), config,
                           checkpoint_dir=str(tmp_path / "a-ckpt"))
        for batch in BATCHES[:2]:
            a.ingest_batch(batch)

        b_dir, b_ckpt = str(tmp_path / "b"), str(tmp_path / "b-ckpt")
        IngestPipeline(ShardStore(b_dir), config,
                       checkpoint_dir=b_ckpt).ingest_batch(BATCHES[0])
        ShardStore(b_dir).append_batch(BATCHES[1],
                                       batch_key=batch_key(BATCHES[1]))
        retried = IngestPipeline(ShardStore(b_dir), config,
                                 checkpoint_dir=b_ckpt)
        report = retried.ingest_batch(BATCHES[1])  # dedup + already synced
        assert report.deduplicated
        assert _deep_equal(retried._state(), a._state())

    def test_checkpoint_ahead_of_store_rejected(self, tmp_path):
        config = _config()
        ckpt = str(tmp_path / "ckpt")
        pipeline = IngestPipeline(ShardStore(str(tmp_path / "a")),
                                  config, checkpoint_dir=ckpt)
        pipeline.ingest_batch(BATCHES[0])
        with pytest.raises(DataError, match="ahead of the shard store"):
            IngestPipeline(ShardStore(str(tmp_path / "other")), config,
                           checkpoint_dir=ckpt)


    def test_checkpoint_holds_no_sketch(self, tmp_path):
        """The log holds every sketch row, so the checkpoint carries only
        the sketch's fingerprint."""
        pipeline = IngestPipeline(ShardStore(str(tmp_path / "log")),
                                  _config(),
                                  checkpoint_dir=str(tmp_path / "ckpt"))
        pipeline.ingest_batch(BATCHES[0])
        state = pipeline._state()
        assert "sketch" not in state
        assert state["fingerprint"]["sketch"] \
            == pipeline.sketch.fingerprint()

    def test_checkpoint_with_the_sketch_inside_still_resumes(self, tmp_path):
        """A checkpoint written while the state still carried the whole
        sketch resumes to the same state as one written without it."""
        config = _config(refit_policy="drift", dirty_threshold=0.25)
        log, ckpt = str(tmp_path / "log"), str(tmp_path / "ckpt")
        a = IngestPipeline(ShardStore(log), config, checkpoint_dir=ckpt)
        for batch in BATCHES[:2]:
            a.ingest_batch(batch)
        writer = CheckpointWriter(os.path.join(ckpt, "stream-pipeline.ckpt"),
                                  PIPELINE_SOLVER, config=config.to_config())
        document = writer.load()
        writer.save(document["iteration"],
                    dict(document["state"], sketch=a.sketch.to_state()))
        resumed = IngestPipeline(ShardStore(log), config,
                                 checkpoint_dir=ckpt)
        assert resumed.sketch.fingerprint() == a.sketch.fingerprint()
        assert _deep_equal(resumed._state(), a._state())
        a.ingest_batch(BATCHES[2])
        resumed.ingest_batch(BATCHES[2])
        assert _deep_equal(resumed._state(), a._state())

    def test_checkpoint_of_another_log_rejected(self, tmp_path):
        """The sketch rebuilt from the log must match the checkpoint's
        fingerprint, even when the shard counts agree."""
        config = _config()
        ckpt = str(tmp_path / "ckpt")
        IngestPipeline(ShardStore(str(tmp_path / "a")), config,
                       checkpoint_dir=ckpt).ingest_batch(BATCHES[0])
        other = ShardStore(str(tmp_path / "b"))
        other.append_batch(BATCHES[1], batch_key=batch_key(BATCHES[1]))
        with pytest.raises(DataError,
                           match="does not describe the shard store"):
            IngestPipeline(other, config, checkpoint_dir=ckpt)

    def test_disabled_ratio_detectors_export_and_resume(self, tmp_path):
        """An infinite threshold disables a ratio detector.  The export's
        manifest stores it as null (canonical JSON has no infinity) and
        the checkpoint keeps the float, so the stream exports every
        refit and a reopened pipeline resumes without replaying."""
        export = str(tmp_path / "model.rmv2")
        config = _config(refit_policy="drift", export_path=export,
                         drift=DriftConfig(moment_delta=float("inf"),
                                           vocab_growth=float("inf"),
                                           doc_count=1))
        log, ckpt = str(tmp_path / "log"), str(tmp_path / "ckpt")
        pipeline = IngestPipeline(ShardStore(log), config,
                                  checkpoint_dir=ckpt)
        for batch in BATCHES:
            assert pipeline.ingest_batch(batch).refit_ran
        model = load_model(export)
        try:
            assert model.manifest["model_version"] == 3
            assert model.manifest["config"]["drift"] == {
                "moment_delta": None, "vocab_growth": None, "doc_count": 1}
        finally:
            model.close()
        resumed = IngestPipeline(ShardStore(log), config,
                                 checkpoint_dir=ckpt)
        assert resumed.synced_shards == len(BATCHES)
        assert _deep_equal(resumed._state(), pipeline._state())
        assert resumed.ingest_batch(BATCHES[-1]).deduplicated

    def test_checkpoint_history_keeps_one_archive(self, tmp_path):
        """No superseded checkpoint is ever read back, so a stream keeps
        the latest one and at most one archive, not one per batch."""
        ckpt = str(tmp_path / "ckpt")
        pipeline = IngestPipeline(ShardStore(str(tmp_path / "log")),
                                  _config(), checkpoint_dir=ckpt)
        for batch in _make_batches(num_batches=6, seed=5):
            pipeline.ingest_batch(batch)
        names = sorted(os.listdir(ckpt))
        assert names[0] == "stream-pipeline.ckpt"
        assert len(names) <= 2
        assert all(name.startswith("stream-pipeline.ckpt.v")
                   for name in names[1:])

    def test_stopword_only_first_batch_leaves_store_usable(self, tmp_path):
        """Refused before commit, so a pipeline reopened over the store
        ingests the next real batch as the stream's first."""
        log, ckpt = str(tmp_path / "log"), str(tmp_path / "ckpt")
        pipeline = IngestPipeline(ShardStore(log), _config(),
                                  checkpoint_dir=ckpt)
        with pytest.raises(DataError, match="no word outside the stopword"):
            pipeline.ingest_batch([{"text": "the of and"}])
        reopened = IngestPipeline(ShardStore(log), _config(),
                                  checkpoint_dir=ckpt)
        report = reopened.ingest_batch(BATCHES[0])
        assert report.shard_id == 0
        assert report.refit_ran
        assert report.model_version == 1


class TestSpans:
    def test_stage_spans_cover_each_batch(self, tmp_path):
        """Each ``stream.ingest_batch`` span's children — batch key,
        append, sketch, drift, corpus load, refit, export, checkpoint —
        cover at least 90% of it."""
        batches = _make_batches(num_batches=4, docs_per_batch=200, seed=11)
        pipeline = IngestPipeline(
            ShardStore(str(tmp_path / "log")),
            _config(refit_policy="drift",
                    drift=DriftConfig(moment_delta=1e9, vocab_growth=1e9,
                                      doc_count=400),
                    export_path=str(tmp_path / "model.rmv2")),
            checkpoint_dir=str(tmp_path / "ckpt"))
        obs.configure(spans=True)
        refits = [pipeline.ingest_batch(batch).refit_ran
                  for batch in batches]
        assert refits == [True, False, True, False]
        records = obs.get_spans()
        batch_spans = [r for r in records
                       if r["name"] == "stream.ingest_batch"]
        assert len(batch_spans) == len(batches)
        seen = set()
        for parent in batch_spans:
            children = [r for r in records
                        if r["parent_id"] == parent["span_id"]]
            seen.update(r["name"] for r in children)
            covered = sum(r["dur_s"] for r in children)
            assert covered >= 0.9 * parent["dur_s"], (
                sorted((r["name"], r["dur_s"]) for r in children),
                parent["dur_s"])
        assert seen == {"stream.batch_key", "stream.append_batch",
                        "stream.sketch", "stream.drift",
                        "stream.load_corpus", "stream.refit",
                        "stream.export", "stream.checkpoint"}


class TestStreamEqualsBatch:
    def test_full_solve_refit_matches_batch_builder(self):
        corpus = Corpus.from_texts(
            [doc["text"] for batch in BATCHES for doc in batch])
        refitter = StreamRefitter(TREE, seed=3, dirty_threshold=0.0)
        streamed, _, _, stats = refitter.refit(corpus, None)
        batch = STRODHierarchyBuilder(TREE, seed=3).build(corpus)
        assert _flatten(streamed) == _flatten(batch)
        assert stats.nodes_solved >= 1
        assert stats.nodes_reused == 0

    def test_k_batch_ingest_equals_one_shot_fit(self, tmp_path):
        """ISSUE 9 end-to-end invariant: k-shard ingest == one-shot fit
        (exactly, at dirty_threshold=0.0), down to the served artifact."""
        streamed_model = str(tmp_path / "streamed.rmv2")
        streamed = IngestPipeline(
            ShardStore(str(tmp_path / "streamed")),
            _config(export_path=streamed_model))
        for batch in BATCHES:
            streamed.ingest_batch(batch)

        oneshot_model = str(tmp_path / "oneshot.rmv2")
        oneshot = IngestPipeline(
            ShardStore(str(tmp_path / "oneshot")),
            _config(export_path=oneshot_model))
        oneshot.ingest_batch([doc for batch in BATCHES for doc in batch])

        assert streamed._state()["tree_state"] \
            == oneshot._state()["tree_state"]

        left = ModelQueryEngine(load_model(streamed_model))
        right = ModelQueryEngine(load_model(oneshot_model))
        info_l, info_r = left.model_info(), right.model_info()
        assert info_l["stats"] == info_r["stats"]
        assert info_l["config_fingerprint"] == info_r["config_fingerprint"]
        assert "stream" in left.model.manifest  # sketch fingerprint tag
        assert info_l["model_version"] == 3
        assert info_r["model_version"] == 1

    def test_incremental_refit_reuses_clean_nodes(self, tmp_path):
        pipeline = IngestPipeline(
            ShardStore(str(tmp_path / "log")),
            _config(dirty_threshold=5.0))  # nothing ever re-dirties
        first = pipeline.ingest_batch(BATCHES[0])
        assert first.refit_stats["nodes_solved"] >= 1
        second = pipeline.ingest_batch(BATCHES[1])
        assert second.refit_stats["nodes_solved"] == 0
        assert second.refit_stats["nodes_reused"] >= 1
