"""CATHYHIN: heterogeneous Poisson EM with background topic (Section 3.2).

The model generates every unit-weight link by (1) drawing a subtopic label
z in {0, 1, ..., k} from rho (0 is the background), (2) drawing the link
type from theta, and (3) drawing both end nodes from the subtopic's
per-type ranking distributions — or, for the background, the first end
node from phi_{t/0} and the second from the parent's distribution phi_t.
Inference is the EM of Eq. 3.24–3.29; link-type weights alpha are learned
with Eq. 3.37 (:meth:`CathyHIN._update_alpha`).

Undirected links are stored once; the paper's both-directions duplication
only matters for the asymmetric background component, which is handled by
averaging the two directions and crediting each endpoint its posterior
share of "being the background node".

Every link type is fitted at once over the network's own stacked link
CSR (:class:`~repro.network.HeterogeneousNetwork`): node ids are offset
per node type into one index space, and each link carries its type id
for alpha.  With the (N, k + 2) node factors

    A = [rho * phi | rho0/2 * phi0 | phi_parent   ]
    B = [phi       | phi_parent    | rho0/2 * phi0]

a link (i, j)'s mixture denominator is the row dot ``A[i] . B[j]``, so the
E-step is one SDDMM (sampled dense-dense product) over the CSR's entries.
With S the CSR carrying ``w * alpha / denominator``, the M-step's expected
counts are two SpMMs: ``A * (S B)`` credits each link's first endpoint and
``B * (S^T A)`` its second, and rho and the background counts are read off
the same products.  No (k, E) posterior, incidence matrix or per-link-type
loop is materialized.  Random restarts run in turn on the bound
estimator, each from a deterministically spawned seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from ..errors import ConfigurationError, NotFittedError
from ..network import HeterogeneousNetwork
from .em import run_restarts
from ..network.weighted import LinkType, canonical_link_type
from ..obs import inc, span, trace
from ..resilience import CheckpointWriter
from ..utils import (EPS, RandomState, ensure_rng, rng_from, run_positions,
                     spawn_seed_sequences)

LinkKey = Tuple[int, int]

#: Links gathered per SDDMM block: two (block, k + 2) float64 blocks stay
#: cache-resident between the gather and the row sums, which at the
#: ``mine_dblp`` root (~150k links) roughly halves the E-step against
#: gathering every link at once.
_SDDMM_BLOCK = 8192

#: The smallest positive float64, which bounds every per-link score
#: that underflowed to zero.
_SMALLEST_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)


class _NodeBlocks:
    """The node types that have nodes, as blocks of the stacked id space.

    A type without nodes takes no stacked ids, so per-type arrays (nodes
    on the last axis) stack node-major over just these types.
    """

    def __init__(self, network: HeterogeneousNetwork) -> None:
        sizes = np.diff(network.offsets)
        self.types = [t for t, n in zip(network.node_types(),
                                        sizes.tolist()) if n]
        self.starts = network.offsets[:-1][sizes > 0]
        self.sizes = sizes[sizes > 0]

    def stack(self, per_type: Mapping[str, np.ndarray]) -> np.ndarray:
        """Per-type arrays (nodes on the last axis) stacked node-major."""
        return np.concatenate([np.asarray(per_type[t]).T
                               for t in self.types])

    def split(self, stacked: np.ndarray) -> Dict[str, np.ndarray]:
        """Inverse of :meth:`stack`: per node type, nodes on the last axis."""
        return {t: np.ascontiguousarray(stacked[a:a + n].T) for t, a, n in
                zip(self.types, self.starts.tolist(), self.sizes.tolist())}

    def type_totals(self, stacked: np.ndarray) -> np.ndarray:
        """Sums of a stacked array over each node type's block."""
        return np.add.reduceat(stacked, self.starts, axis=0)

    def per_node(self, totals: np.ndarray) -> np.ndarray:
        """Broadcast per-node-type values back onto the stacked nodes."""
        return np.repeat(totals, self.sizes, axis=0)


def _type_weights(network: HeterogeneousNetwork) -> np.ndarray:
    """Each link type's total weight, summed over its links in order."""
    return np.array([network.total_weight(lt)
                     for lt in network.link_types()])


def _scaled_weights(network: HeterogeneousNetwork,
                    alpha: Mapping[LinkType, float]) -> np.ndarray:
    """Every link's weight times its link type's alpha."""
    scale = np.array([alpha.get(lt, 1.0) for lt in network.link_types()])
    return network.weights * scale[network.type_id]


def _sddmm(network: HeterogeneousNetwork, left: np.ndarray,
           right: np.ndarray) -> np.ndarray:
    """``left[i] . right[j]`` for every link (i, j), in CSR order.

    Each link's products are added column after column — the subtopics,
    then the two background directions — the order in which Eq. 3.24's
    mixture terms are summed, so a denominator rounds exactly as that
    sum does.
    """
    num_links = network.num_links()
    out = np.empty(num_links)
    width = left.shape[1]
    block = min(_SDDMM_BLOCK, num_links)
    rows_at = np.empty((block, width))
    cols_at = np.empty((block, width))
    for start in range(0, num_links, block):
        stop = min(start + block, num_links)
        products = rows_at[:stop - start]
        np.take(left, network.rows[start:stop], axis=0, out=products,
                mode="clip")
        np.take(right, network.cols[start:stop], axis=0,
                out=cols_at[:stop - start], mode="clip")
        products *= cols_at[:stop - start]
        total = out[start:stop]
        total[:] = products[:, 0]
        for column in range(1, width):
            total += products[:, column]
    return out


def _spmm(network: HeterogeneousNetwork, values: np.ndarray,
          left: np.ndarray, right: np.ndarray,
          ) -> Tuple[np.ndarray, np.ndarray]:
    """``(S @ right, S.T @ left)`` for S the link CSR carrying ``values``."""
    size = len(network.indptr) - 1
    matrix = csr_matrix((values, network.cols, network.indptr),
                        shape=(size, size))
    return matrix @ right, matrix.T @ left


def _incident(network: HeterogeneousNetwork, nodes: np.ndarray,
              as_column: bool) -> Tuple[np.ndarray, np.ndarray]:
    """CSR positions of the links at each of ``nodes`` (as the links' row
    or column endpoint), with the index into ``nodes`` of each."""
    by_column, ptr = network.column_order() if as_column \
        else (None, network.indptr)
    starts = ptr[nodes].astype(np.int64)
    lengths = ptr[nodes + 1] - starts
    owner = np.repeat(np.arange(len(nodes)), lengths)
    positions = run_positions(starts, lengths)
    if by_column is not None:
        positions = by_column[positions]
    return positions, owner


@dataclass
class HINTopicModel:
    """Fitted CATHYHIN parameters for one topic node.

    Attributes:
        rho: subtopic proportions, shape (k,); ``rho0`` is the background
            proportion; together they sum to one (Eq. 3.27).
        phi: per node type, subtopic ranking distributions (k, n_type).
        phi_background: per node type, the background distribution phi_{t/0}.
        phi_parent: per node type, the parent-topic distribution phi_t used
            by the background component.
        alpha: learned (or supplied) link-type weights.
        node_names: per node type, names aligned with phi columns.
        log_likelihood: scaled-weight observed-data log likelihood.
    """

    rho: np.ndarray
    rho0: float
    phi: Dict[str, np.ndarray]
    phi_background: Dict[str, np.ndarray]
    phi_parent: Dict[str, np.ndarray]
    alpha: Dict[LinkType, float]
    node_names: Dict[str, List[str]]
    log_likelihood: float
    num_free_parameters: int = 0

    @property
    def num_topics(self) -> int:
        """Number of subtopics k (excluding the background)."""
        return len(self.rho)

    def topic_distribution(self, node_type: str, z: int) -> Dict[str, float]:
        """phi^x_{t/z} as a name -> probability mapping."""
        dist = self.phi[node_type][z].tolist()
        return {name: p for name, p in zip(self.node_names[node_type], dist)
                if p > 0}

    def top_nodes(self, node_type: str, z: int, k: int = 10) -> List[str]:
        """The k most probable type-x nodes in subtopic z."""
        dist = self.phi[node_type][z]
        order = np.argsort(-dist, kind="stable")
        return [self.node_names[node_type][i] for i in order[:k]]


class CathyHIN:
    """EM estimator for the heterogeneous link-clustering model.

    Args:
        num_topics: number of subtopics k (excluding the background).
        weight_mode: ``"equal"`` (all alpha = 1), ``"norm"`` (alpha =
            1 / total type weight, the heuristic baseline of Section 3.3.1),
            ``"learn"`` (Eq. 3.37), or a mapping of explicit weights.
        background: include the background topic t/0 (Section 3.2.1); the
            dissertation always uses it for heterogeneous networks.
        max_iter: EM iteration budget.
        weight_update_every: with ``weight_mode="learn"``, how many EM
            iterations between alpha updates.
        tol: relative log-likelihood improvement stopping threshold.
        restarts: random restarts keeping the best likelihood.
        rho_prior: Dirichlet pseudo-count on the subtopic proportions —
            the Bayesian extension sketched in Section 3.2.3 for
            controlling subtree balance (larger values push toward
            even-sized subtopics).
        phi_prior: Dirichlet pseudo-count on every ranking distribution
            (smooths away zero probabilities in small subnetworks).
        seed: RNG seed or generator.  Restart starting points are drawn
            from seeds spawned deterministically off this.
        checkpoint: optional :class:`~repro.resilience.CheckpointWriter`;
            when given, the fit state is persisted at the writer's
            cadence.
        resume: continue from the checkpoint file when it exists.
    """

    def __init__(self, num_topics: int,
                 weight_mode: object = "equal",
                 background: bool = True,
                 max_iter: int = 150,
                 weight_update_every: int = 10,
                 tol: float = 1e-6,
                 restarts: int = 1,
                 rho_prior: float = 0.0,
                 phi_prior: float = 0.0,
                 seed: RandomState = None,
                 checkpoint: Optional[CheckpointWriter] = None,
                 resume: bool = False) -> None:
        if num_topics < 1:
            raise ConfigurationError("num_topics must be >= 1")
        if restarts < 1:
            raise ConfigurationError("restarts must be >= 1")
        if isinstance(weight_mode, str) and weight_mode not in (
                "equal", "norm", "learn"):
            raise ConfigurationError(
                "weight_mode must be 'equal', 'norm', 'learn', or a mapping")
        if rho_prior < 0 or phi_prior < 0:
            raise ConfigurationError("priors must be non-negative")
        self.num_topics = num_topics
        self.weight_mode = weight_mode
        self.background = background
        self.max_iter = max_iter
        self.weight_update_every = weight_update_every
        self.tol = tol
        self.restarts = restarts
        self.rho_prior = rho_prior
        self.phi_prior = phi_prior
        self.checkpoint = checkpoint
        self.resume = resume
        self._rng = ensure_rng(seed)
        self.model_: Optional[HINTopicModel] = None
        self._network: Optional[HeterogeneousNetwork] = None
        self._blocks: Optional[_NodeBlocks] = None
        self._split: Optional[Tuple] = None

    # ------------------------------------------------------------------- fit
    def fit(self, network: HeterogeneousNetwork) -> HINTopicModel:
        """Fit the model to all links of ``network``."""
        node_names = self._prepare(network)
        alpha = self._initial_alpha()

        def restart(seed_seq, checkpoint=None, state=None):
            return self._fit_once(node_names, alpha, rng=rng_from(seed_seq),
                                  checkpoint=checkpoint, state=state)

        with span("cathy.hin_em.fit"):
            seeds = spawn_seed_sequences(self._rng, self.restarts)
            runs = run_restarts(seeds, restart, self.checkpoint,
                                self.resume)
            best: Optional[HINTopicModel] = None
            for model in runs:
                if best is None or model.log_likelihood > best.log_likelihood:
                    best = model
        self.model_ = best
        return best

    def _prepare(self, network: HeterogeneousNetwork,
                 ) -> Dict[str, List[str]]:
        """Take ``network`` for fitting; returns each node type's names
        (the types with nodes, in sorted order)."""
        if not network.link_types():
            raise ConfigurationError("network has no links to cluster")
        self._network = network
        self._blocks = _NodeBlocks(network)
        self._split = None
        return {t: network.node_names(t) for t in self._blocks.types}

    def _initial_alpha(self) -> Dict[LinkType, float]:
        if isinstance(self.weight_mode, Mapping):
            return {canonical_link_type(*lt): float(w)
                    for lt, w in self.weight_mode.items()}
        network = self._network
        if self.weight_mode == "norm":
            # Force each link type's total scaled weight to be equal.
            alpha = {lt: 1.0 / max(total, EPS) for lt, total in
                     zip(network.link_types(),
                         _type_weights(network).tolist())}
            # Rescale so the geometric-mean constraint of Theorem 3.2 holds.
            return _normalize_alpha(alpha, network)
        return {lt: 1.0 for lt in network.link_types()}

    def _parent_distribution(self) -> np.ndarray:
        """phi_t, stacked: normalized weighted degree in the current network.

        The parent ranking distribution is what the background component
        samples its second end node from.  At the root we estimate it from
        the network itself, which is also how any parent topic's phi was
        estimated one level up.
        """
        network = self._network
        size = len(network.indptr) - 1
        degrees = (np.bincount(network.rows, weights=network.weights,
                               minlength=size)
                   + np.bincount(network.cols, weights=network.weights,
                                 minlength=size) + EPS)
        blocks = self._blocks
        return degrees / blocks.per_node(blocks.type_totals(degrees))

    def _fit_once(self, node_names: Dict[str, List[str]],
                  alpha: Dict[LinkType, float], rng: np.random.Generator,
                  checkpoint=None,
                  state: Optional[Dict] = None) -> HINTopicModel:
        k = self.num_topics
        network = self._network
        blocks = self._blocks
        phi_parent = self._parent_distribution()
        learn = self.weight_mode == "learn"

        if state is not None:
            # Resume: the RNG only seeds the initialization, so starting
            # from the snapshot replays the remaining EM bit-for-bit.
            rho = state["rho"]
            rho0 = state["rho0"]
            phi = blocks.stack(state["phi"])
            phi0 = blocks.stack(state["phi0"])
            alpha = dict(state["alpha"])
            prev_ll = state["prev_ll"]
            ll = state["ll"]
            start = int(state["iteration"]) + 1
            done = bool(state["done"])
        else:
            phi = blocks.stack({t: rng.dirichlet(np.ones(len(names)), size=k)
                                for t, names in node_names.items()})
            phi0 = phi_parent.copy()
            if self.background:
                rho = np.full(k, 1.0 / (k + 1))
                rho0 = 1.0 / (k + 1)
            else:
                rho = np.full(k, 1.0 / k)
                rho0 = 0.0
            prev_ll = -np.inf
            ll = prev_ll
            start = 0
            done = False

        if not done:
            tracer = trace(
                "cathy.hin_em", num_topics=k,
                num_links=network.num_links(),
                num_link_types=len(network.link_types()),
                weight_mode=str(self.weight_mode))
            termination = "max_iter"
            weights = _scaled_weights(network, alpha)
            # An alpha update computes the next step's denominators.
            raw = None
            for iteration in range(start, self.max_iter):
                with span("cathy.hin_em.em_step", iteration=iteration):
                    ll, rho, rho0, phi, phi0 = self._em_step(
                        weights, rho, rho0, phi, phi0, phi_parent, raw)
                raw = None
                if learn and (iteration + 1) % self.weight_update_every == 0:
                    with span("cathy.hin_em.alpha_update",
                              iteration=iteration):
                        raw = _sddmm(network, *self._factors(
                            rho, rho0, phi, phi0, phi_parent))
                        alpha = self._update_alpha(raw)
                        weights = _scaled_weights(network, alpha)
                tracer.record(log_likelihood=ll)
                done = bool(
                    np.isfinite(prev_ll)
                    and ll - prev_ll < self.tol * max(abs(prev_ll), 1.0)
                    and not (learn and (iteration + 1)
                             <= self.weight_update_every))
                if done:
                    termination = "converged"
                else:
                    prev_ll = ll
                if checkpoint is not None:
                    state_fn = lambda: {  # noqa: E731
                        "iteration": iteration, "rho": rho, "rho0": rho0,
                        "phi": blocks.split(phi),
                        "phi0": blocks.split(phi0),
                        "alpha": dict(alpha), "prev_ll": prev_ll, "ll": ll,
                        "done": done}
                    if done:
                        checkpoint.save(iteration, state_fn())
                    else:
                        checkpoint.maybe_save(iteration, state_fn)
                if done:
                    break
            tracer.finish(termination)

        num_params = k * sum(len(n) for n in node_names.values())
        return HINTopicModel(
            rho=rho, rho0=rho0, phi=blocks.split(phi),
            phi_background=blocks.split(phi0),
            phi_parent=blocks.split(phi_parent), alpha=dict(alpha),
            node_names=node_names, log_likelihood=ll,
            num_free_parameters=num_params)

    # --------------------------------------------------------------- EM core
    def _factors(self, rho: np.ndarray, rho0: float, phi: np.ndarray,
                 phi0: np.ndarray, phi_parent: np.ndarray,
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Node factors (A, B) whose row dot A[i] . B[j] sums link (i, j)'s
        mixture scores: k topic columns, then the two background
        directions (Eq. 3.24) when the background topic is on."""
        k = self.num_topics
        width = k + 2 if self.background else k
        left = np.empty((len(phi), width))
        right = np.empty((len(phi), width))
        left[:, :k] = phi * rho
        right[:, :k] = phi
        if self.background:
            # rho0/2 rides with phi0 on whichever side holds the link's
            # background node, the product order of Eq. 3.24's terms.
            left[:, k] = 0.5 * rho0 * phi0
            left[:, k + 1] = phi_parent
            right[:, k] = phi_parent
            right[:, k + 1] = 0.5 * rho0 * phi0
        return left, right

    def _em_step(self, weights: np.ndarray, rho: np.ndarray, rho0: float,
                 phi: np.ndarray, phi0: np.ndarray, phi_parent: np.ndarray,
                 raw: Optional[np.ndarray] = None):
        """One EM iteration over the stacked link CSR.

        ``weights`` are the alpha-scaled link weights; ``raw`` may carry
        the links' mixture denominators for these parameters when they
        are already known.  Returns ``(ll, rho, rho0, phi, phi0)``.
        """
        k = self.num_topics
        blocks = self._blocks
        left, right = self._factors(rho, rho0, phi, phi0, phi_parent)
        if raw is None:
            raw = _sddmm(self._network, left, right)
        denom = np.maximum(raw, EPS)
        # A numpy reduction, not a BLAS dot: OpenBLAS splits a long ddot
        # across its threads, which makes the sum depend on the host.
        ll = float(np.add.reduce(weights * np.log(denom)))
        # Expected counts credited to each link's first / second endpoint.
        via_rows, via_cols = _spmm(self._network, weights / denom, left,
                                   right)
        first = left * via_rows
        second = right * via_cols
        # Links whose every score underflowed sum to at most this credit.
        limit = weights.sum() / EPS * _SMALLEST_SUBNORMAL
        self._rescore_underflow(first, left, right, denom, weights, limit,
                                False)
        self._rescore_underflow(second, right, left, denom, weights, limit,
                                True)
        new_rho = first[:, :k].sum(axis=0)
        new_rho0 = float(first[:, k:].sum()) if self.background else 0.0

        # MAP smoothing (Section 3.2.3's Bayesian extension): Dirichlet
        # pseudo-counts added to the expected-count statistics.
        if self.rho_prior > 0:
            new_rho = new_rho + self.rho_prior
            if self.background:
                new_rho0 = new_rho0 + self.rho_prior
        mass = new_rho.sum() + new_rho0
        mass = max(mass, EPS)
        rho = np.maximum(new_rho / mass, EPS)
        rho0 = max(new_rho0 / mass, EPS if self.background else 0.0)
        counts = first[:, :k] + second[:, :k] + self.phi_prior
        phi = counts / blocks.per_node(
            np.maximum(blocks.type_totals(counts), EPS))
        if self.background:
            bg_counts = first[:, k] + second[:, k + 1] + self.phi_prior
            totals = blocks.type_totals(bg_counts)
            phi0 = np.where(
                blocks.per_node(totals > 0),
                bg_counts / blocks.per_node(np.where(totals > 0, totals,
                                                     1.0)),
                phi0)
        return ll, rho, rho0, phi, phi0

    def _rescore_underflow(self, credit: np.ndarray, own: np.ndarray,
                           other: np.ndarray, denom: np.ndarray,
                           weights: np.ndarray, limit: float,
                           as_column: bool) -> None:
        """Recompute link by link the expected counts that underflow decides.

        ``credit[n, z]`` is ``own[n, z] * sum_e other[partner_e, z] *
        weights_e / denom_e`` over node n's links.  Eq. 3.25 forms each
        link's score ``own * other`` first, so a score below the smallest
        subnormal adds exactly zero, while the factored product can still
        leave a subnormal count.  Every positive credit up to ``limit``
        (what such scores could sum to) is recomputed in Eq. 3.25's
        order, so which ranking entries are exactly zero does not depend
        on the factoring.
        """
        tiny = credit <= limit
        tiny &= credit > 0
        if not tiny.any():
            return
        network = self._network
        nodes, topics = np.nonzero(tiny)
        positions, owner = _incident(network, nodes, as_column)
        partners = (network.rows if as_column
                    else network.cols)[positions]
        topic = topics[owner]
        scores = own[nodes[owner], topic] * other[partners, topic]
        credit[nodes, topics] = np.bincount(
            owner, weights=scores / denom[positions] * weights[positions],
            minlength=len(nodes))

    # -------------------------------------------------------- weight learning
    def _update_alpha(self, raw: np.ndarray) -> Dict[LinkType, float]:
        """Closed-form alpha update (Eq. 3.37-3.38).

        sigma_xy measures, per link type, the average KL-style divergence
        of the observed link-weight distribution from the model's expected
        distribution; alpha is inversely proportional to sigma, normalized
        so the geometric-mean constraint of Theorem 3.2 holds.  ``raw``
        holds every link's mixture denominator under the current model.
        """
        network = self._network
        weights = network.weights
        link_types = network.link_types()
        expected = (_type_weights(network)[network.type_id]
                    * np.maximum(raw, EPS))
        divergence = np.bincount(
            network.type_id,
            weights=weights * np.log(np.maximum(weights, EPS) / expected),
            minlength=len(link_types))
        counts = np.bincount(network.type_id, minlength=len(link_types))
        sigma = np.maximum(divergence / np.maximum(counts, 1), EPS)
        alpha = {lt: 1.0 / value
                 for lt, value in zip(link_types, sigma.tolist())}
        return _normalize_alpha(alpha, network)

    # ------------------------------------------------------------ subnetwork
    def _final_split(self) -> Tuple:
        """The fitted model's factors and per-link arrays, in CSR order.

        Computed once per fit: the node factors, each link's alpha-scaled
        weight and mixture denominator, and the number of degenerate
        (zero-score) links.
        """
        if self._split is None:
            model = self._require_fitted()
            blocks = self._blocks
            left, right = self._factors(
                model.rho, model.rho0, blocks.stack(model.phi),
                blocks.stack(model.phi_background),
                blocks.stack(model.phi_parent))
            raw = _sddmm(self._network, left, right)
            self._split = (
                left, right, _scaled_weights(self._network, model.alpha),
                np.maximum(raw, EPS), int(np.count_nonzero(raw <= 0.0)))
        return self._split

    def _expected(self, subtopic: int) -> np.ndarray:
        """e-hat^{x,y,t/z} of every link, in the network's CSR order.

        Eq. 3.23's expected scaled link weight.  The fitted model's mixture
        denominators are computed once per fit, so each subtopic costs one
        gathered product per link.  Links whose mixture score degenerates
        to zero cannot be attributed to any subtopic and are counted under
        the ``cathy.degenerate_links`` metric instead of being dropped
        silently.
        """
        model = self._require_fitted()
        if not 0 <= subtopic < model.num_topics:
            raise ConfigurationError(f"subtopic {subtopic} out of range")
        left, right, weights, denom, degenerate = self._final_split()
        if degenerate:
            inc("cathy.degenerate_links", degenerate)
        network = self._network
        scores = (np.take(left[:, subtopic], network.rows)
                  * np.take(right[:, subtopic], network.cols))
        return weights * scores / denom

    def expected_link_arrays(self, subtopic: int,
                             ) -> Dict[LinkType, Tuple[np.ndarray,
                                                       np.ndarray,
                                                       np.ndarray]]:
        """e-hat^{x,y,t/z} as ``(i_idx, j_idx, weights)`` per link type,
        aligned with :meth:`HeterogeneousNetwork.link_arrays`."""
        expected = self._expected(subtopic)
        network = self._network
        return {lt: network.link_arrays(lt)[:2]
                + (expected[network.type_id == l],)
                for l, lt in enumerate(network.link_types())}

    def expected_link_weights(self, subtopic: int,
                              ) -> Dict[LinkType, Dict[LinkKey, float]]:
        """e-hat^{x,y,t/z} as ``{(i, j): weight}`` dict buckets.

        The inspection-friendly rendering of
        :meth:`expected_link_arrays`; hot paths (subnetwork recursion)
        use the array form directly.
        """
        result: Dict[LinkType, Dict[LinkKey, float]] = {}
        for link_type, (i_idx, j_idx, expected) in \
                self.expected_link_arrays(subtopic).items():
            nonzero = np.flatnonzero(expected > 0)
            result[link_type] = dict(zip(
                zip(i_idx[nonzero].tolist(), j_idx[nonzero].tolist()),
                expected[nonzero].tolist()))
        return result

    def subnetwork(self, subtopic: int,
                   min_weight: float = 1.0) -> HeterogeneousNetwork:
        """The child network G^{t/z} for recursion (Section 3.2.1)."""
        if self._network is None:
            raise NotFittedError("call fit() before extracting subnetworks")
        return self._network.subnetwork(self._expected(subtopic),
                                        min_weight=min_weight)

    def bic(self) -> float:
        """Bayesian information criterion of the fitted model (Section 3.2.3).

        Higher is worse; model selection picks the k minimizing this.
        """
        model = self._require_fitted()
        return (-2.0 * model.log_likelihood
                + model.num_free_parameters
                * np.log(max(self._network.num_links(), 2)))

    def _require_fitted(self) -> HINTopicModel:
        if self.model_ is None:
            raise NotFittedError("call fit() before using the model")
        return self.model_


def _normalize_alpha(alpha: Dict[LinkType, float],
                     network: HeterogeneousNetwork) -> Dict[LinkType, float]:
    """Rescale alpha so that prod alpha^{n_xy} = 1 (Theorem 3.2)."""
    counts = {lt: network.num_links(lt) for lt in network.link_types()}
    total = sum(counts.values())
    if total == 0:
        return dict(alpha)
    log_mean = sum(counts[lt] * np.log(max(alpha.get(lt, 1.0), EPS))
                   for lt in counts) / total
    scale = float(np.exp(-log_mean))
    return {lt: float(alpha.get(lt, 1.0) * scale) for lt in counts}
