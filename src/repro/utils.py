"""Small numeric helpers shared across the library."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigurationError

#: Smallest probability used when guarding logs and divisions.
EPS = 1e-12

RandomState = Union[None, int, np.random.Generator]


def ensure_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged), so every stochastic entry point in the
    library shares one convention.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def seed_sequence_of(rng: np.random.Generator) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` driving ``rng``.

    Spawning children from it advances its spawn counter, so repeated
    calls on the same generator yield fresh, non-overlapping streams.
    """
    bit_generator = rng.bit_generator
    seed_seq = getattr(bit_generator, "seed_seq", None)
    if seed_seq is None:  # numpy < 1.24 keeps it private
        seed_seq = bit_generator._seed_seq
    return seed_seq


def spawn_seed_sequences(seed: Union[RandomState, np.random.SeedSequence],
                         n: int) -> List[np.random.SeedSequence]:
    """Derive ``n`` independent child seed sequences from ``seed``.

    ``seed`` may be anything :func:`ensure_rng` accepts, or a
    SeedSequence.  Deriving from a Generator consumes spawn state on its
    underlying sequence, not random draws, so interleaved ``.random()``
    calls do not perturb the derived seeds, and the derivation does not
    perturb the generator's own draws.  Every subproblem (a hierarchy
    node, an EM restart) takes its stream from one such child, so a
    resumed or re-grown subtree replays exactly the draws of the
    original run.
    """
    if n <= 0:
        return []
    if isinstance(seed, np.random.SeedSequence):
        return seed.spawn(n)
    return seed_sequence_of(ensure_rng(seed)).spawn(n)


def rng_from(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    """The generator of one spawned seed sequence."""
    return np.random.default_rng(seed_seq)


def normalize(values: Iterable[float]) -> np.ndarray:
    """Normalize non-negative ``values`` into a probability vector.

    A zero-sum input maps to the uniform distribution, which is the safe
    fallback inside EM iterations where a cluster may momentarily lose all
    of its mass.
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=float)
    if arr.ndim != 1:
        raise ConfigurationError("normalize expects a 1-D array")
    if np.any(arr < 0):
        raise ConfigurationError("normalize expects non-negative values")
    total = arr.sum()
    if total <= 0:
        return np.full(arr.shape, 1.0 / max(len(arr), 1))
    return arr / total


def safe_log(values: np.ndarray) -> np.ndarray:
    """Elementwise ``log`` with values clipped away from zero."""
    return np.log(np.maximum(np.asarray(values, dtype=float), EPS))


def pointwise_kl(p: float, q: float) -> float:
    """Pointwise KL divergence ``p * log(p / q)`` with zero-guards.

    This is the combination rule used throughout the dissertation for
    popularity x purity (Eq. 4.9) and entity-specific ranking (Eq. 5.1).
    """
    if p <= 0:
        return 0.0
    return p * float(np.log(max(p, EPS) / max(q, EPS)))


def top_k_indices(scores: Sequence[float], k: int) -> List[int]:
    """Indices of the ``k`` largest scores, in descending score order."""
    arr = np.asarray(scores, dtype=float)
    if k <= 0:
        return []
    k = min(k, len(arr))
    order = np.argsort(-arr, kind="stable")
    return [int(i) for i in order[:k]]


def run_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Every position of the runs ``starts[r] .. starts[r] + lengths[r] - 1``,
    run after run, as one array (no per-run loop)."""
    total = int(lengths.sum())
    run_begin = np.cumsum(lengths) - lengths
    return (np.arange(total, dtype=np.int64)
            + np.repeat(starts - run_begin, lengths))


@lru_cache(maxsize=4096)
def _pair_template(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Upper-triangle index template for all unordered pairs of n items."""
    return np.triu_indices(n, k=1)


def run_pairs(starts: np.ndarray, lengths: np.ndarray,
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of every unordered pair inside each run.

    Run ``r`` covers positions ``starts[r] .. starts[r] + lengths[r] - 1``;
    its pairs come in ``triu_indices`` order, and runs of one length
    share one cached template.
    """
    first: List[np.ndarray] = []
    second: List[np.ndarray] = []
    for length in np.unique(lengths[lengths >= 2]).tolist():
        rows = starts[lengths == length][:, None] + np.arange(length)
        iu, ju = _pair_template(length)
        first.append(rows[:, iu].ravel())
        second.append(rows[:, ju].ravel())
    if not first:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(first), np.concatenate(second)


def is_distribution(vector: np.ndarray, tol: float = 1e-6) -> bool:
    """True when ``vector`` is non-negative and sums to one within ``tol``."""
    arr = np.asarray(vector, dtype=float)
    return bool(np.all(arr >= -tol) and abs(arr.sum() - 1.0) <= tol)


def weighted_sample(probabilities: np.ndarray,
                    rng: np.random.Generator,
                    size: Optional[int] = None) -> Union[int, np.ndarray]:
    """Sample indices from a probability vector (single int when size=None)."""
    probs = normalize(probabilities)
    result = rng.choice(len(probs), size=size, p=probs)
    if size is None:
        return int(result)
    return result
