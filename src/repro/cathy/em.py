"""CATHY: Poisson EM clustering of a homogeneous term network (Section 3.1).

The generative model: every co-occurrence link between terms i and j in
topic ``t/z`` follows ``e_ij ~ Poisson(rho_z * phi_z,i * phi_z,j)``
(Eq. 3.1–3.2); the observed link weight is the sum over subtopics
(Eq. 3.3).  Maximum-likelihood inference is the EM of Eq. 3.5–3.7.

Both hot kernels are fully vectorized: the M-step scatters all subtopic
expectations onto the nodes in one sparse product with the link
incidence matrix (:func:`link_incidence`), and the posterior link split
(Eq. 3.5) is computed for every link and subtopic in a single ``(k, E)``
pass.  Random restarts run in turn, each from a seed derived via
:meth:`numpy.random.SeedSequence.spawn`, so a resumed restart loop
replays exactly the runs of the uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from ..errors import ConfigurationError, NotFittedError
from ..obs import inc, span, trace
from ..resilience import CheckpointWriter
from ..utils import (EPS, RandomState, ensure_rng, rng_from,
                     spawn_seed_sequences)
from ..network import HeterogeneousNetwork, TERM_TYPE


class RestartCheckpoint:
    """Checkpoint slot for the live restart inside a multi-restart fit.

    The on-disk document always holds the full restart loop state —
    completed runs, which restart is live, and that restart's
    solver-defined resume state — so a crash at any point resumes
    without redoing finished restarts.
    """

    def __init__(self, writer: CheckpointWriter, completed: List,
                 restart: int) -> None:
        self._writer = writer
        self._completed = completed
        self._restart = restart
        self.every = writer.every

    def save(self, iteration: int, state: Dict) -> None:
        """Persist ``state`` as the live restart's resume state."""
        self._writer.save(iteration, {"completed": list(self._completed),
                                      "restart": self._restart,
                                      "current": state})

    def maybe_save(self, iteration: int, state_fn) -> bool:
        """Save at the writer's cadence; ``state_fn`` is called lazily."""
        if (iteration + 1) % self.every != 0:
            return False
        self.save(iteration, state_fn())
        return True


def run_restarts(seeds: List[np.random.SeedSequence], task,
                 writer: Optional[CheckpointWriter] = None,
                 resume: bool = False) -> List:
    """The restart loop: one ``task(seed_seq, checkpoint=..., state=...)``
    call per spawned seed, in order.

    With a ``writer``, the loop state is persisted after every restart
    and the live restart checkpoints at the writer's cadence, so a
    resumed loop skips finished restarts and continues the live one.
    """
    completed: List = []
    start = 0
    inner_state = None
    document = writer.load() if writer is not None and resume else None
    if document is not None:
        outer = document["state"]
        completed = list(outer["completed"])
        start = int(outer["restart"])
        inner_state = outer["current"]
    for index in range(start, len(seeds)):
        inner = (None if writer is None
                 else RestartCheckpoint(writer, completed, index))
        run = task(seeds[index], checkpoint=inner, state=inner_state)
        inner_state = None
        completed.append(run)
        if writer is not None:
            writer.save(index, {"completed": list(completed),
                                "restart": index + 1, "current": None})
    return completed


@dataclass
class TermTopicModel:
    """Fitted parameters of the homogeneous CATHY model for one topic node.

    Attributes:
        rho: expected number of links per subtopic, shape (k,)  (Eq. 3.6).
        phi: subtopic node distributions, shape (k, V)  (Eq. 3.7).
        node_names: term names aligned with phi's columns.
        log_likelihood: observed-data log likelihood at convergence (up to
            link-independent constants).
    """

    rho: np.ndarray
    phi: np.ndarray
    node_names: List[str]
    log_likelihood: float

    @property
    def num_topics(self) -> int:
        """Number of subtopics k."""
        return self.phi.shape[0]

    def topic_distribution(self, z: int) -> Dict[str, float]:
        """phi_z as a name -> probability mapping."""
        return {name: float(p)
                for name, p in zip(self.node_names, self.phi[z]) if p > 0}


def link_incidence(i_idx: np.ndarray, j_idx: np.ndarray,
                   num_nodes: int):
    """(E, V) CSR incidence matrix of an undirected edge list.

    Row e carries a unit entry at columns ``i_e`` and ``j_e`` (a 2.0 at
    the diagonal column for self-links, so a self-link credits its node
    from both endpoints), so the whole M-step scatter becomes a
    single sparse product ``expected @ incidence`` — the (k, E) posterior
    expectations land on the (k, V) node axis in one pass.
    """
    num_links = len(i_idx)
    rows = np.repeat(np.arange(num_links, dtype=np.int64), 2)
    cols = np.empty(2 * num_links, dtype=np.int64)
    cols[0::2] = i_idx
    cols[1::2] = j_idx
    data = np.ones(2 * num_links, dtype=np.float64)
    matrix = sparse.coo_matrix((data, (rows, cols)),
                               shape=(num_links, num_nodes))
    matrix.sum_duplicates()
    return matrix.tocsr()


def posterior_link_split(rho: np.ndarray, phi: np.ndarray,
                         i_idx: np.ndarray, j_idx: np.ndarray,
                         weights: np.ndarray,
                         counter: Optional[str] = "cathy.degenerate_links",
                         ) -> np.ndarray:
    """Eq. 3.5 posterior split of every link weight, one (k, E) pass.

    Links whose mixture score degenerates to zero (``denom <= 0``) get a
    zero split; they are counted under ``counter`` instead of vanishing
    silently.
    """
    scores = rho[:, None] * phi[:, i_idx] * phi[:, j_idx]  # (k, E)
    denom = scores.sum(axis=0)
    degenerate = denom <= 0.0
    num_degenerate = int(np.count_nonzero(degenerate))
    if num_degenerate and counter:
        inc(counter, num_degenerate)
    safe = np.where(degenerate, 1.0, denom)
    expected = scores * (weights / safe)[None, :]
    if num_degenerate:
        expected[:, degenerate] = 0.0
    return expected


def sparse_topic_buckets(expected: np.ndarray, i_idx: np.ndarray,
                         j_idx: np.ndarray,
                         ) -> List[Dict[Tuple[int, int], float]]:
    """Per-subtopic ``{(i, j): weight}`` buckets from a dense (k, E) split."""
    buckets: List[Dict[Tuple[int, int], float]] = []
    i_list = i_idx.tolist()
    j_list = j_idx.tolist()
    for row in expected:
        nonzero = np.flatnonzero(row > 0)
        values = row[nonzero].tolist()
        buckets.append({(i_list[e], j_list[e]): value
                        for e, value in zip(nonzero.tolist(), values)})
    return buckets


def _fit_kernel(i_idx: np.ndarray, j_idx: np.ndarray, weights: np.ndarray,
                num_nodes: int, num_topics: int, max_iter: int, tol: float,
                rng: np.random.Generator, checkpoint=None,
                state: Optional[Dict] = None) -> Tuple[np.ndarray,
                                                       np.ndarray, float]:
    """One EM run (Eq. 3.5–3.7) from a random start; returns (rho, phi, ll).

    With ``checkpoint``, the post-iteration state — including the
    convergence decision, so a resumed run never iterates past where the
    original stopped — is persisted at the writer's cadence; ``state``
    restores such a snapshot (the RNG only seeds the initialization, so
    the replay is bit-identical).
    """
    k = num_topics
    total = weights.sum()
    if state is not None:
        rho = state["rho"]
        phi = state["phi"]
        prev_ll = state["prev_ll"]
        ll = state["ll"]
        start = int(state["iteration"]) + 1
        if state["done"]:
            return rho, phi, ll
    else:
        phi = rng.dirichlet(np.ones(num_nodes), size=k)
        rho = np.full(k, total / k)
        prev_ll = -np.inf
        ll = prev_ll
        start = 0
    incidence = link_incidence(i_idx, j_idx, num_nodes)

    tracer = trace("cathy.em", num_topics=k, num_nodes=num_nodes,
                   num_links=len(weights))
    termination = "max_iter"
    for iteration in range(start, max_iter):
        # E-step (Eq. 3.5): responsibilities per link and subtopic.
        with span("cathy.em.e_step", iteration=iteration):
            scores = rho[:, None] * phi[:, i_idx] * phi[:, j_idx]  # (k, E)
            denom = scores.sum(axis=0)
            denom = np.maximum(denom, EPS)
            q = scores / denom  # (k, E)
            # A numpy reduction, not a BLAS dot: OpenBLAS splits a long
            # ddot across its threads, which makes the sum host-dependent.
            ll = float(np.add.reduce(weights * np.log(denom)))

        # M-step (Eq. 3.6-3.7).
        with span("cathy.em.m_step", iteration=iteration):
            expected = q * weights  # (k, E)
            rho = expected.sum(axis=1)
            phi = np.asarray(expected @ incidence)
            row_sums = phi.sum(axis=1, keepdims=True)
            row_sums = np.maximum(row_sums, EPS)
            phi = phi / row_sums
            rho = np.maximum(rho, EPS)

        tracer.record(log_likelihood=ll)
        done = ll - prev_ll < tol * max(abs(prev_ll), 1.0) \
            and bool(np.isfinite(prev_ll))
        if done:
            termination = "converged"
        else:
            prev_ll = ll
        if checkpoint is not None:
            state_fn = lambda: {"iteration": iteration, "rho": rho,  # noqa: E731
                                "phi": phi, "ll": ll,
                                "prev_ll": prev_ll, "done": done}
            if done:
                checkpoint.save(iteration, state_fn())
            else:
                checkpoint.maybe_save(iteration, state_fn)
        if done:
            break
    tracer.finish(termination)
    return rho, phi, ll


class CathyEM:
    """EM estimator for the homogeneous Poisson link-clustering model.

    Args:
        num_topics: number of subtopics k.
        max_iter: EM iteration budget.
        tol: relative log-likelihood improvement below which EM stops.
        restarts: random restarts; the best-likelihood solution is kept.
        seed: RNG seed or generator.  Each restart draws its start from a
            seed spawned deterministically off this.
        checkpoint: optional :class:`~repro.resilience.CheckpointWriter`;
            when given, the fit state is persisted at the writer's
            cadence.
        resume: continue from the checkpoint file when it exists.
    """

    def __init__(self, num_topics: int, max_iter: int = 200,
                 tol: float = 1e-6, restarts: int = 1,
                 seed: RandomState = None,
                 checkpoint: Optional[CheckpointWriter] = None,
                 resume: bool = False) -> None:
        if num_topics < 1:
            raise ConfigurationError("num_topics must be >= 1")
        if restarts < 1:
            raise ConfigurationError("restarts must be >= 1")
        self.num_topics = num_topics
        self.max_iter = max_iter
        self.tol = tol
        self.restarts = restarts
        self.checkpoint = checkpoint
        self.resume = resume
        self._rng = ensure_rng(seed)
        self.model_: Optional[TermTopicModel] = None

    # ------------------------------------------------------------------- fit
    def fit(self, network: HeterogeneousNetwork,
            node_type: str = TERM_TYPE) -> TermTopicModel:
        """Fit the model to the ``node_type`` co-occurrence links."""
        names = network.node_names(node_type)
        num_nodes = len(names)
        if num_nodes == 0:
            raise ConfigurationError("network has no nodes to cluster")
        i_idx, j_idx, weights = network.link_arrays((node_type, node_type))
        if not len(weights):
            raise ConfigurationError("network has no links to cluster")

        def restart(seed_seq, checkpoint=None, state=None):
            return _fit_kernel(i_idx, j_idx, weights, num_nodes,
                               self.num_topics, self.max_iter, self.tol,
                               rng_from(seed_seq), checkpoint=checkpoint,
                               state=state)

        with span("cathy.em.fit"):
            seeds = spawn_seed_sequences(self._rng, self.restarts)
            runs = run_restarts(seeds, restart, self.checkpoint,
                                self.resume)
            best: Optional[Tuple[np.ndarray, np.ndarray, float]] = None
            for run in runs:
                if best is None or run[2] > best[2]:
                    best = run
        rho, phi, ll = best
        self.model_ = TermTopicModel(rho=rho, phi=phi,
                                     node_names=list(names),
                                     log_likelihood=ll)
        return self.model_

    # ------------------------------------------------------------ subnetwork
    def expected_link_arrays(self, network: HeterogeneousNetwork,
                             node_type: str = TERM_TYPE,
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eq. 3.5 posterior split as ``(i_idx, j_idx, (k, E) expected)``.

        The sparse-array form of :meth:`expected_link_weights`: one
        vectorized pass over the network's CSR link arrays, no dict
        materialization.  Row z of the expected matrix is the e-hat
        weight of every link under subtopic z.  Links whose posterior
        degenerates (zero mixture score) are counted under the
        ``cathy.degenerate_links`` metric.
        """
        model = self._require_fitted()
        i_idx, j_idx, weights = network.link_arrays((node_type, node_type))
        expected = posterior_link_split(model.rho, model.phi,
                                        i_idx, j_idx, weights)
        return i_idx, j_idx, expected

    def expected_link_weights(self, network: HeterogeneousNetwork,
                              node_type: str = TERM_TYPE,
                              ) -> List[Dict[Tuple[int, int], float]]:
        """Expected per-subtopic link weights e-hat (posterior split).

        Returns one ``{(i, j): weight}`` mapping per subtopic — the
        dict-bucket rendering of :meth:`expected_link_arrays`, kept for
        inspection and compatibility; hot paths should use the array
        form.
        """
        i_idx, j_idx, expected = self.expected_link_arrays(
            network, node_type)
        if not len(i_idx):
            return [{} for _ in range(self._require_fitted().num_topics)]
        return sparse_topic_buckets(expected, i_idx, j_idx)

    def subnetworks(self, network: HeterogeneousNetwork,
                    node_type: str = TERM_TYPE,
                    min_weight: float = 1.0) -> List[HeterogeneousNetwork]:
        """Per-subtopic subnetworks, dropping links below ``min_weight``.

        This is the recursion step of CATHY: extract E^{t/z} =
        {e-hat >= 1} and cluster again (Section 3.1).  The split stays
        on arrays end to end: each subtopic's row of the (k, E) expected
        matrix masks the network's links
        (:meth:`HeterogeneousNetwork.subnetwork`); links of other types
        are dropped.
        """
        _, _, expected = self.expected_link_arrays(network, node_type)
        link_types = network.link_types()
        per_link = np.full((len(expected), network.num_links()), -np.inf)
        if (node_type, node_type) in link_types:
            per_link[:, network.type_id == link_types.index(
                (node_type, node_type))] = expected
        return [network.subnetwork(row, min_weight=min_weight)
                for row in per_link]

    def _require_fitted(self) -> TermTopicModel:
        if self.model_ is None:
            raise NotFittedError("call fit() before using the model")
        return self.model_
