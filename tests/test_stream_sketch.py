"""MomentSketch: merge algebra, state round-trips, moment delegation.

The streaming design rests on one algebraic fact: the sketch merge is
**exactly associative**, and the in-order merge of per-shard sketches is
bit-identical to a sketch built over the whole log in one pass.  These
properties are pinned here with Hypothesis, alongside the (weaker,
floating-point) commutativity of the derived moments and the delegation
contract — a sketch's moments equal the module functions applied to the
same documents in the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DataError
from repro.strod import MomentSketch
from repro.strod.moments import (compute_whitener, first_moment,
                                 second_moment, whitened_third_moment,
                                 word_count_rows)
from repro.stream import build_shard_sketches, merge_sketches

VOCAB = 12

documents = st.lists(
    st.lists(st.integers(min_value=0, max_value=VOCAB - 1),
             min_size=0, max_size=8),
    min_size=0, max_size=6)


def _moments(sketch):
    m1 = sketch.first_moment()
    m2 = sketch.second_moment(1.0) if sketch.num_docs else None
    return m1, m2


class TestMergeAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(a=documents, b=documents, c=documents)
    def test_merge_is_exactly_associative(self, a, b, c):
        sa = MomentSketch.from_docs(a, VOCAB)
        sb = MomentSketch.from_docs(b, VOCAB)
        sc = MomentSketch.from_docs(c, VOCAB)
        left = sa.merge(sb).merge(sc)
        right = sa.merge(sb.merge(sc))
        assert left.fingerprint() == right.fingerprint()
        assert left.num_docs == right.num_docs
        assert left.num_skipped == right.num_skipped
        if left.num_docs:
            m1l, m2l = _moments(left)
            m1r, m2r = _moments(right)
            assert np.array_equal(m1l, m1r)
            assert np.array_equal(m2l, m2r)

    @settings(max_examples=50, deadline=None)
    @given(a=documents, b=documents)
    def test_moments_commute_to_1e12(self, a, b):
        """Row order differs under commutation, so the derived moments
        agree only up to floating-point summation order — within 1e-12,
        the tolerance DESIGN §5.6 documents."""
        ab = MomentSketch.from_docs(a, VOCAB).merge(
            MomentSketch.from_docs(b, VOCAB))
        ba = MomentSketch.from_docs(b, VOCAB).merge(
            MomentSketch.from_docs(a, VOCAB))
        assert ab.num_docs == ba.num_docs
        if ab.num_docs:
            np.testing.assert_allclose(ab.first_moment(),
                                       ba.first_moment(), atol=1e-12)
            np.testing.assert_allclose(ab.second_moment(1.0),
                                       ba.second_moment(1.0), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(shards=st.lists(documents, min_size=1, max_size=4))
    def test_merge_of_shards_is_bit_identical_to_whole(self, shards):
        whole = MomentSketch.from_docs(
            [doc for shard in shards for doc in shard], VOCAB)
        merged = merge_sketches(build_shard_sketches(shards, VOCAB))
        assert whole.fingerprint() == merged.fingerprint()
        if whole.num_docs:
            assert np.array_equal(whole.first_moment(),
                                  merged.first_moment())
            assert np.array_equal(whole.second_moment(1.0),
                                  merged.second_moment(1.0))


class TestMomentDelegation:
    def test_sketch_moments_equal_module_functions(self):
        rng = np.random.default_rng(1)
        docs = [list(rng.integers(0, VOCAB, size=rng.integers(3, 10)))
                for _ in range(30)]
        sketch = MomentSketch.from_docs(docs, VOCAB)
        rows = word_count_rows(docs, VOCAB)
        m1 = first_moment(rows, VOCAB)
        assert np.array_equal(sketch.first_moment(), m1)
        assert np.array_equal(sketch.second_moment(1.0),
                              second_moment(rows, VOCAB, 1.0))
        whitener, _ = compute_whitener(sketch.second_moment(1.0), 3)
        assert np.array_equal(
            sketch.whitened_third_moment(whitener, 1.0),
            whitened_third_moment(rows, whitener, m1, 1.0))


class TestLifecycle:
    def test_update_skips_short_documents(self):
        sketch = MomentSketch(VOCAB, min_length=3)
        added = sketch.update([[0, 1, 2], [0], [], [1, 2, 3, 4]])
        assert added == 2
        assert sketch.num_docs == 2
        assert sketch.num_skipped == 2

    def test_out_of_vocab_token_raises(self):
        sketch = MomentSketch(4)
        with pytest.raises(DataError, match="outside vocabulary"):
            sketch.update([[0, 1, 4]])

    def test_expand_vocab_grows_never_shrinks(self):
        sketch = MomentSketch(4)
        sketch.update([[0, 1, 2]])
        sketch.expand_vocab(6)
        assert sketch.vocab_size == 6
        assert sketch.first_moment().shape == (6,)
        with pytest.raises(ConfigurationError):
            sketch.expand_vocab(3)

    def test_merge_requires_matching_min_length(self):
        with pytest.raises(ConfigurationError, match="min_length"):
            MomentSketch(4, min_length=3).merge(
                MomentSketch(4, min_length=4))

    def test_state_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(2)
        docs = [list(rng.integers(0, VOCAB, size=5)) for _ in range(12)]
        sketch = MomentSketch.from_docs(docs, VOCAB)
        clone = MomentSketch.from_state(sketch.to_state())
        assert clone.fingerprint() == sketch.fingerprint()
        assert np.array_equal(clone.first_moment(),
                              sketch.first_moment())

    def test_from_state_rejects_wrong_schema(self):
        state = MomentSketch.from_docs([[0, 1, 2]], 4).to_state()
        state["schema"] = "something/else"
        with pytest.raises(DataError, match="schema"):
            MomentSketch.from_state(state)

    def test_fingerprint_tracks_content(self):
        a = MomentSketch.from_docs([[0, 1, 2]], 4)
        b = MomentSketch.from_docs([[0, 1, 3]], 4)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint().startswith("v4-d1-s0-")
