"""Tests for repro.utils."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils import (EPS, ensure_rng, is_distribution, normalize,
                         pointwise_kl, rng_from, safe_log, seed_sequence_of,
                         spawn_seed_sequences, top_k_indices,
                         weighted_sample)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).random()
        b = ensure_rng(42).random()
        assert a == b

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng


class TestSeeding:
    def test_spawn_is_deterministic(self):
        a = spawn_seed_sequences(42, 4)
        b = spawn_seed_sequences(42, 4)
        for seq_a, seq_b in zip(a, b):
            assert rng_from(seq_a).random(8).tolist() \
                == rng_from(seq_b).random(8).tolist()

    def test_spawned_streams_are_distinct(self):
        draws = [rng_from(seq).random()
                 for seq in spawn_seed_sequences(0, 6)]
        assert len(set(draws)) == 6

    def test_generator_spawn_consumes_spawn_state(self):
        rng = np.random.default_rng(7)
        first = spawn_seed_sequences(rng, 2)
        second = spawn_seed_sequences(rng, 2)
        assert first[0].spawn_key != second[0].spawn_key

    def test_interleaved_draws_do_not_perturb_spawns(self):
        plain = np.random.default_rng(3)
        noisy = np.random.default_rng(3)
        noisy.random(100)  # spawn keys depend only on spawn call order
        a = spawn_seed_sequences(plain, 3)
        b = spawn_seed_sequences(noisy, 3)
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]

    def test_seed_sequence_passthrough(self):
        root = np.random.SeedSequence(5)
        children = spawn_seed_sequences(root, 2)
        assert children[0].spawn_key == (0,)
        assert children[1].spawn_key == (1,)

    def test_seed_sequence_of_roundtrip(self):
        seq = np.random.SeedSequence(9)
        rng = np.random.default_rng(seq)
        assert seed_sequence_of(rng) is seq


class TestNormalize:
    def test_sums_to_one(self):
        result = normalize([1.0, 2.0, 3.0])
        assert result.sum() == pytest.approx(1.0)
        assert result[2] == pytest.approx(0.5)

    def test_zero_sum_gives_uniform(self):
        result = normalize([0.0, 0.0])
        assert np.allclose(result, [0.5, 0.5])

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize([1.0, -1.0])

    def test_non_1d_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize(np.ones((2, 2)))


class TestSafeLog:
    def test_zero_is_finite(self):
        assert np.isfinite(safe_log(np.array([0.0]))).all()

    def test_matches_log_for_positive(self):
        assert safe_log(np.array([1.0]))[0] == pytest.approx(0.0)


class TestPointwiseKL:
    def test_zero_p_gives_zero(self):
        assert pointwise_kl(0.0, 0.5) == 0.0

    def test_equal_gives_zero(self):
        assert pointwise_kl(0.3, 0.3) == pytest.approx(0.0)

    def test_larger_p_positive(self):
        assert pointwise_kl(0.5, 0.1) > 0

    def test_smaller_p_negative(self):
        assert pointwise_kl(0.1, 0.5) < 0


class TestTopK:
    def test_descending_order(self):
        assert top_k_indices([0.1, 0.9, 0.5], 2) == [1, 2]

    def test_k_larger_than_length(self):
        assert len(top_k_indices([1.0, 2.0], 5)) == 2

    def test_k_zero(self):
        assert top_k_indices([1.0], 0) == []

    def test_stable_on_ties(self):
        assert top_k_indices([0.5, 0.5, 0.5], 2) == [0, 1]


class TestIsDistribution:
    def test_valid(self):
        assert is_distribution(np.array([0.5, 0.5]))

    def test_invalid_sum(self):
        assert not is_distribution(np.array([0.5, 0.6]))

    def test_negative(self):
        assert not is_distribution(np.array([1.5, -0.5]))


class TestWeightedSample:
    def test_single_sample_in_range(self):
        rng = ensure_rng(0)
        idx = weighted_sample(np.array([0.2, 0.8]), rng)
        assert idx in (0, 1)

    def test_degenerate_always_picked(self):
        rng = ensure_rng(0)
        samples = weighted_sample(np.array([0.0, 1.0]), rng, size=20)
        assert (samples == 1).all()
