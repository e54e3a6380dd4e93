"""The STROD node solve in blocks, each kernel against its loop in
``reference_kernels``, bit for bit.

* every tensor-power restart of a component as one (L, k) block against
  one power-iteration loop per restart: eigenpairs and the generator
  state after each component, including a resume from a checkpoint in
  the middle of the deflation;
* the block's row norms against ``np.linalg.norm``;
* M1, M2 and the whitened M3 from one length pass and one M1 per node,
  on rows sliced from a corpus-wide count matrix, against the
  ``diags(w) @ C`` pair moment and the moments that sum each row again;
* a streamed export with the reference kernels patched in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.stream.ingest as ingest
from repro.errors import ConfigurationError
from repro.resilience import CheckpointWriter
from repro.serve import load_model
from repro.stream import IngestConfig, IngestPipeline, ShardStore
from repro.strod import (first_moment, robust_tensor_decomposition,
                         second_moment, sparse_pair_moment,
                         whitened_third_moment)
from repro.strod.hierarchy import STRODTreeConfig
from repro.strod.moments import count_matrix, long_documents
from repro.strod.tensor_power import row_norms

from .faults import CrashingCheckpoint, FaultInjected
from .reference_kernels import (reference_entity_role_counts,
                                reference_first_moment,
                                reference_robust_tensor_decomposition,
                                reference_spgemm_pair_moment,
                                reference_spgemm_second_moment,
                                reference_strod_node,
                                reference_whitened_third_moment,
                                reference_word_count_rows)


def _bits(value) -> bytes:
    """The exact bytes of a float or float array (-0.0 != 0.0)."""
    return np.ascontiguousarray(value, dtype=float).tobytes()


class _Recorder:
    """A checkpoint stand-in that keeps every per-component state."""

    def __init__(self) -> None:
        self.states = []

    def maybe_save(self, iteration, state_fn) -> bool:
        self.states.append(state_fn())
        return True


def _symmetric(rng, k):
    raw = rng.standard_normal((k, k, k))
    return sum(raw.transpose(p) for p in
               [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
                (2, 1, 0)]) / 6.0


@st.composite
def tensors(draw):
    """Symmetric (k, k, k) tensors: dense random ones, the zero tensor
    and rank-one tensors (whose deflated remainder trips the 1e-12
    stop), and equal-weight diagonal ones, whose restarts converge to
    exactly equal T(v, v, v)."""
    k = draw(st.integers(min_value=2, max_value=8))
    kind = draw(st.sampled_from(["random", "zero", "rank_one", "diagonal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        return _symmetric(rng, k)
    if kind == "zero":
        return np.zeros((k, k, k))
    if kind == "rank_one":
        v = rng.standard_normal(k)
        v /= np.linalg.norm(v)
        return rng.uniform(0.5, 5.0) * np.einsum("i,j,l->ijl", v, v, v)
    tensor = np.zeros((k, k, k))
    tensor[np.arange(k), np.arange(k), np.arange(k)] = 2.0
    return tensor


class TestRestartBlock:
    @given(tensor=tensors(), data=st.data(),
           num_restarts=st.integers(min_value=1, max_value=12),
           num_iterations=st.integers(min_value=0, max_value=30),
           seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_restart_loop(self, tensor, data, num_restarts,
                                      num_iterations, seed):
        k = tensor.shape[0]
        components = data.draw(st.integers(min_value=1, max_value=k))
        recorder = _Recorder()
        pairs = robust_tensor_decomposition(
            tensor, components, num_restarts=num_restarts,
            num_iterations=num_iterations, seed=seed, checkpoint=recorder)
        expected, states = reference_robust_tensor_decomposition(
            tensor, components, num_restarts=num_restarts,
            num_iterations=num_iterations, seed=seed)
        assert len(pairs) == len(expected) == components
        for pair, ref in zip(pairs, expected):
            assert _bits(pair.eigenvalue) == _bits(ref.eigenvalue)
            assert _bits(pair.eigenvector) == _bits(ref.eigenvector)
        assert [s["rng_state"] for s in recorder.states] == states

    def test_ties_keep_the_first_restart(self):
        """Every restart of the zero tensor scores T(v, v, v) = 0: the
        first start wins, as in the per-restart loop."""
        tensor = np.zeros((3, 3, 3))
        (pair,) = robust_tensor_decomposition(tensor, 1, num_restarts=5,
                                              num_iterations=4, seed=2)
        start = np.random.default_rng(2).standard_normal(3)
        # Normalized as a start, then again as the polish's start.
        vector = start / np.linalg.norm(start)
        assert pair.eigenvalue == 0.0
        assert _bits(pair.eigenvector) == _bits(
            vector / np.linalg.norm(vector))

    @pytest.mark.parametrize("crash_after", [1, 2, 3])
    def test_resume_mid_deflation_matches_per_restart_loop(
            self, tmp_path, crash_after):
        tensor = _symmetric(np.random.default_rng(5), 4)
        expected, _ = reference_robust_tensor_decomposition(
            tensor, 4, num_restarts=8, num_iterations=25, seed=11)
        path = str(tmp_path / "tensor.ckpt")
        with pytest.raises(FaultInjected):
            robust_tensor_decomposition(
                tensor, 4, num_restarts=8, num_iterations=25, seed=11,
                checkpoint=CrashingCheckpoint(path, "strod.tensor_power",
                                              crash_after=crash_after))
        resumed = robust_tensor_decomposition(
            tensor, 4, num_restarts=8, num_iterations=25, seed=11,
            checkpoint=CheckpointWriter(path, "strod.tensor_power"),
            resume=True)
        for pair, ref in zip(resumed, expected):
            assert _bits(pair.eigenvalue) == _bits(ref.eigenvalue)
            assert _bits(pair.eigenvector) == _bits(ref.eigenvector)

    def test_no_restarts_rejected(self):
        with pytest.raises(ConfigurationError, match="num_restarts"):
            robust_tensor_decomposition(np.zeros((2, 2, 2)), 1,
                                        num_restarts=0)

    @given(rows=st.integers(min_value=1, max_value=12),
           width=st.integers(min_value=1, max_value=64),
           scale=st.integers(min_value=-150, max_value=150),
           seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_row_norms_equal_linalg_norm(self, rows, width, scale, seed):
        """The block's norms must stay BLAS ``ddot`` norms: a numpy or
        BLAS change that rounds them otherwise breaks every model."""
        block = (np.random.default_rng(seed).standard_normal((rows, width))
                 * 10.0 ** scale)
        norms = row_norms(block)
        for r in range(rows):
            assert _bits(norms[r]) == _bits(np.linalg.norm(block[r]))


@st.composite
def corpora(draw):
    """Token-id documents over a small vocabulary, empty and short
    (< 3 tokens) documents included."""
    vocab_size = draw(st.integers(min_value=1, max_value=12))
    word = st.integers(min_value=0, max_value=vocab_size - 1)
    docs = draw(st.lists(st.lists(word, max_size=9), max_size=25))
    return docs, vocab_size


class TestLeanMoments:
    @given(corpus=corpora(), data=st.data(),
           alpha0=st.sampled_from([0.5, 1.0, 5.0]),
           seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_sliced_child_rows(self, corpus, data, alpha0, seed):
        docs, vocab_size = corpus
        every = count_matrix(docs, vocab_size, min_length=0)
        picked = sorted(data.draw(st.sets(
            st.integers(min_value=0, max_value=max(len(docs) - 1, 0)),
            max_size=len(docs)))) if docs else []
        subset = [docs[i] for i in picked]
        counts, lengths = long_documents(
            every[np.array(picked, dtype=np.int64)], vocab_size)
        listed = count_matrix(subset, vocab_size)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(counts, name),
                                  getattr(listed, name))
        assert _bits(lengths) == _bits(
            [len(doc) for doc in subset if len(doc) >= 3])

        m1 = first_moment(counts, vocab_size, lengths=lengths)
        ref_rows = reference_word_count_rows(subset, vocab_size)
        assert _bits(m1) == _bits(first_moment(counts, vocab_size))
        assert _bits(m1) == _bits(reference_first_moment(ref_rows,
                                                         vocab_size))
        m2 = second_moment(counts, vocab_size, alpha0, lengths=lengths,
                           m1=m1)
        assert _bits(m2) == _bits(
            reference_spgemm_second_moment(counts, vocab_size, alpha0))
        assert _bits(sparse_pair_moment(counts, vocab_size).toarray()) \
            == _bits(reference_spgemm_pair_moment(counts,
                                                  vocab_size).toarray())
        if not ref_rows:
            return
        whitener = np.random.default_rng(seed).standard_normal(
            (vocab_size, 2))
        tensor = whitened_third_moment(counts, whitener, m1, alpha0,
                                       lengths=lengths)
        assert _bits(tensor) == _bits(
            whitened_third_moment(counts, whitener, m1, alpha0))
        ref = reference_whitened_third_moment(ref_rows, whitener, m1,
                                              alpha0)
        assert np.abs(tensor - ref).max() \
            <= 1e-12 * max(np.abs(ref).max(), 1.0)


# ------------------------------------------------------------- the stream
_POOLS = [["spectral", "tensor", "moment", "whitening", "eigenvalue",
           "decomposition"],
          ["entity", "hierarchy", "mining", "network", "latent", "role"],
          ["phrase", "segment", "frequent", "pattern", "ranking", "quality"]]


def _batches(num_batches=6, docs_per_batch=30, seed=13):
    rng = np.random.default_rng(seed)
    batches = []
    for b in range(num_batches):
        batch = []
        for d in range(docs_per_batch):
            pool = _POOLS[(d + b) % len(_POOLS)]
            words = [pool[i] for i in rng.integers(0, len(pool), size=7)]
            batch.append({"text": " ".join(words) + ".",
                          "entities": {"author": [f"a{d % 7}",
                                                  f"b{(d + b) % 5}"]},
                          "year": 2010 + b})
        batches.append(batch)
    return batches


def _stream_crcs(tmp_path, name):
    export = str(tmp_path / f"{name}.rmv2")
    pipeline = IngestPipeline(
        ShardStore(str(tmp_path / name)),
        IngestConfig(refit_policy="always", seed=4, dirty_threshold=0.25,
                     tree=STRODTreeConfig(num_children=3, max_depth=2,
                                          min_documents=10),
                     export_path=export))
    crcs, solved = [], []
    for batch in _batches():
        report = pipeline.ingest_batch(batch)
        model = load_model(export)
        try:
            crcs.append(model.manifest["payload_crc32"])
        finally:
            model.close()
        solved.append(report.refit_stats["nodes_solved"])
    return crcs, solved


class TestStreamWithReferenceKernels:
    def test_six_batches_export_the_same_models(self, tmp_path,
                                                monkeypatch):
        fast, fast_solved = _stream_crcs(tmp_path, "blocks")
        monkeypatch.setattr(
            ingest, "entity_role_counts",
            lambda corpus, doc_topics, topics:
            reference_entity_role_counts(
                corpus, [topics[t] for t in doc_topics.tolist()]))
        with reference_strod_node():
            slow, slow_solved = _stream_crcs(tmp_path, "loops")
        assert fast == slow
        assert fast_solved == slow_solved
        assert sum(fast_solved) > len(fast_solved)  # nodes below the root
