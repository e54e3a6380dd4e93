"""Robust tensor power method (Section 7.3.1, Algorithm of Anandkumar et al.).

Extracts the robust eigenpairs of a symmetric k x k x k tensor by power
iteration with random restarts and deflation.  This is the deterministic-
up-to-restarts core that gives STROD its bounded-iteration convergence
guarantee — the property the robustness experiments of Section 7.4.2
measure against Gibbs sampling's run-to-run variance.

The L restarts of a component run as one (L, k) block
(:func:`power_iterations`): one ``einsum`` per power step for all of
them instead of one per restart, each row bit-identical to
:func:`power_iteration` from the same start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..obs import inc, span, trace
from ..utils import RandomState, ensure_rng


@dataclass
class TensorEigenpair:
    """One robust eigenpair (lambda, v) of the whitened tensor."""

    eigenvalue: float
    eigenvector: np.ndarray


def tensor_apply(tensor: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """T(I, v, v): contract the last two modes with ``vector``."""
    return np.einsum("ijl,j,l->i", tensor, vector, vector)


def tensor_value(tensor: np.ndarray, vector: np.ndarray) -> float:
    """T(v, v, v)."""
    return float(np.einsum("ijl,i,j,l->", tensor, vector, vector, vector))


def power_iteration(tensor: np.ndarray, start: np.ndarray,
                    num_iterations: int,
                    tracer: object = None) -> Tuple[np.ndarray, float]:
    """Run ``num_iterations`` tensor power updates from ``start``.

    With an active ``tracer`` (see :func:`repro.obs.trace`), records the
    per-iteration residual ``||v_new - v_old||`` — the convergence
    quantity behind STROD's bounded-iteration guarantee.
    """
    vector = start / max(np.linalg.norm(start), 1e-12)
    for _ in range(num_iterations):
        candidate = tensor_apply(tensor, vector)
        norm = np.linalg.norm(candidate)
        if norm < 1e-12:
            break
        updated = candidate / norm
        if tracer is not None and tracer.active:
            tracer.record(residual=float(np.linalg.norm(updated - vector)))
        vector = updated
    return vector, tensor_value(tensor, vector)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of every row, each equal to
    ``np.linalg.norm(row)`` bit for bit.

    ``np.linalg.norm`` of a vector is ``sqrt(dot(x, x))``, a BLAS
    ``ddot`` that may fuse its multiply-adds; a stacked (1, k) @ (k, 1)
    product takes the same ``ddot``.  ``np.linalg.norm(rows, axis=1)``
    and ``einsum("ri,ri->r")`` round differently.
    """
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def power_iterations(tensor: np.ndarray, starts: np.ndarray,
                     num_iterations: int,
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`power_iteration` from every row of ``starts`` at once.

    Returns the (L, k) final vectors and their (L,) values T(v, v, v);
    row r equals ``power_iteration(tensor, starts[r], num_iterations)``
    bit for bit.  Each power step is one ``einsum`` over the block, and
    a row whose update has norm below 1e-12 stops on its own, keeping
    its last vector, as the single-vector loop breaks.
    """
    vectors = starts / np.maximum(row_norms(starts), 1e-12)[:, None]
    running = np.ones(len(starts), dtype=bool)
    for _ in range(num_iterations):
        candidates = np.einsum("ijl,rj,rl->ri", tensor, vectors, vectors)
        norms = row_norms(candidates)
        running &= ~(norms < 1e-12)
        if not running.any():
            break
        np.divide(candidates, norms[:, None], out=vectors,
                  where=running[:, None])
    values = np.einsum("ijl,ri,rj,rl->r", tensor, vectors, vectors, vectors)
    return vectors, values


def robust_tensor_decomposition(tensor: np.ndarray,
                                num_components: int,
                                num_restarts: int = 10,
                                num_iterations: int = 30,
                                seed: RandomState = None,
                                checkpoint=None,
                                resume: bool = False,
                                ) -> List[TensorEigenpair]:
    """Deflation-based extraction of the top robust eigenpairs.

    Args:
        tensor: symmetric (k, k, k) array.
        num_components: how many eigenpairs to extract (usually k).
        num_restarts: L — random restarts per component; the best
            T(v, v, v) wins (the first of equal values), making the
            outcome stable in practice.  The L starts are one
            ``standard_normal((L, k))`` draw — the numbers, and the
            generator state, of L draws of k — run as one block.
        num_iterations: N — power updates per restart.
        seed: RNG seed or generator (restart initialization only).
        checkpoint: optional
            :class:`~repro.resilience.CheckpointWriter`; the extracted
            eigenpairs, the deflated working tensor, and the restart RNG
            state are persisted after every component, so a resumed call
            continues the deflation bit for bit.
        resume: continue from the checkpoint file when it exists.
    """
    if tensor.ndim != 3 or len({*tensor.shape}) != 1:
        raise ConfigurationError("tensor must be cubic (k, k, k)")
    rng = ensure_rng(seed)
    k = tensor.shape[0]
    if num_components > k:
        raise ConfigurationError("cannot extract more components than k")
    if num_restarts < 1:
        raise ConfigurationError("num_restarts must be >= 1")

    work = np.array(tensor)
    pairs: List[TensorEigenpair] = []
    start_component = 0
    if checkpoint is not None and resume:
        document = checkpoint.load()
        if document is not None:
            saved = document["state"]
            pairs = list(saved["pairs"])
            work = saved["work"]
            rng.bit_generator.state = saved["rng_state"]
            start_component = int(saved["component"])
    for component in range(start_component, num_components):
        with span("strod.tensor_power.component", component=component,
                  num_restarts=num_restarts):
            vectors, values = power_iterations(
                work, rng.standard_normal((num_restarts, k)),
                num_iterations)
            best_vector, best_value = None, -np.inf
            for vector, value in zip(vectors, values.tolist()):
                if value > best_value:
                    best_vector, best_value = vector, value
            inc("strod.power_restarts", num_restarts)
            # A few extra polishing iterations on the winner, traced so
            # the robustness experiments can see the residual decay.
            tracer = trace("strod.tensor_power", component=component,
                           num_restarts=num_restarts,
                           num_iterations=num_iterations)
            best_vector, best_value = power_iteration(work, best_vector,
                                                      num_iterations,
                                                      tracer=tracer)
            tracer.finish("completed")
            pairs.append(TensorEigenpair(eigenvalue=best_value,
                                         eigenvector=best_vector))
            work = work - best_value * np.einsum(
                "i,j,l->ijl", best_vector, best_vector, best_vector)
        if checkpoint is not None:
            checkpoint.maybe_save(component, lambda: {  # noqa: E731
                "pairs": list(pairs), "work": work,
                "rng_state": rng.bit_generator.state,
                "component": component + 1})
    return pairs


def reconstruction_error(tensor: np.ndarray,
                         pairs: List[TensorEigenpair]) -> float:
    """Frobenius norm of T - sum_z lambda_z v_z^(x)3 (fit diagnostic)."""
    residual = np.array(tensor)
    for pair in pairs:
        v = pair.eigenvector
        residual -= pair.eigenvalue * np.einsum("i,j,l->ijl", v, v, v)
    return float(np.linalg.norm(residual))
