"""Stage 2 of advisor–advisee mining: the TPFG model (Section 6.1.4–6.1.5).

The joint probability over all advisor variables ``y_i`` is the product
of local feature functions ``f_i`` (Eq. 6.7): each combines the local
likelihood ``g(y_i) = l_{i, y_i}`` with the time-constraint indicators of
Eq. 6.9 — if x is advised by i, then i's own advised period must end
before i starts advising x (Assumption 6.1).

Inference maximizes the joint likelihood by max-sum message passing on
the factor graph.  Because constraint factors couple exactly two
variables (y_x and y_i), the factor graph reduces to a pairwise MRF whose
messages cost O(|Y_x| + |Y_i|) each; the candidate graph is a DAG, so a
small number of flooding iterations converges in practice.  The ranking
score ``r_ij`` (Eq. 6.10) is the normalized max-marginal belief.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, DataError
from ..obs import span, timed_function, trace
from ..utils import EPS
from .preprocess import Candidate, CandidateGraph

ROOT = CandidateGraph.ROOT


@dataclass
class TPFGResult:
    """Ranked advisor candidates per author.

    ``ranking[author]`` is a list of (advisor name, score) pairs sorted by
    descending score; scores are normalized beliefs summing to one, so
    they are directly comparable to the prediction threshold theta.
    """

    ranking: Dict[str, List[Tuple[str, float]]]

    def score(self, advisee: str, advisor: str) -> float:
        """r_ij for one candidate pair (0 when not a candidate)."""
        for name, score in self.ranking.get(advisee, []):
            if name == advisor:
                return score
        return 0.0

    def predicted_advisor(self, advisee: str, top_k: int = 1,
                          theta: float = 0.5) -> Optional[str]:
        """P@(k, theta) prediction rule (Section 6.1.1).

        Returns the best-ranked real advisor within the top-k real
        candidates whose score exceeds the virtual-root score or
        ``theta`` — or None when the author is predicted to have no
        advisor in the data.
        """
        ranked = [(name, score)
                  for name, score in self.ranking.get(advisee, [])
                  if name != ROOT]
        root_score = self.score(advisee, ROOT)
        for name, score in ranked[:top_k]:
            if score > root_score or score > theta:
                return name
        return None

    def predictions(self, top_k: int = 1,
                    theta: float = 0.5) -> Dict[str, Optional[str]]:
        """Predicted advisor (or None) for every author."""
        return {author: self.predicted_advisor(author, top_k, theta)
                for author in self.ranking}


class TPFG:
    """Max-sum inference over the time-constrained factor graph.

    Args:
        max_iter: flooding message-passing iterations.
        penalty: log-domain penalty standing in for the hard constraint
            (a soft -infinity keeps beliefs finite under loopy passing).
        damping: message damping factor in [0, 1); 0 disables damping.
    """

    def __init__(self, max_iter: int = 25, penalty: float = 50.0,
                 damping: float = 0.0) -> None:
        if not 0 <= damping < 1:
            raise ConfigurationError("damping must be in [0, 1)")
        self.max_iter = max_iter
        self.penalty = penalty
        self.damping = damping

    @timed_function("tpfg.fit")
    def fit(self, graph: CandidateGraph, checkpoint=None,
            resume: bool = False) -> TPFGResult:
        """Run inference and return the advisor rankings.

        Args:
            graph: the candidate graph from stage 1.
            checkpoint: optional
                :class:`~repro.resilience.CheckpointWriter`; the message
                table is persisted at the writer's cadence, and a
                resumed fit replays the remaining flooding iterations
                bit for bit (message passing is deterministic).
            resume: continue from the checkpoint file when it exists.

        Raises:
            DataError: an author has no candidate (not even the virtual
                root) or names one advisor twice, or the checkpoint's
                message table belongs to a different candidate graph.
        """
        layout = _FactorLayout(graph)
        down = np.zeros(len(layout.down_pos))
        up = np.zeros(len(layout.up_pos))

        start_iter = 0
        if checkpoint is not None and resume:
            document = checkpoint.load()
            if document is not None:
                saved = document["state"]
                down, up = layout.unpack(saved["messages"])
                start_iter = int(saved["iteration"]) + 1

        tracer = trace("tpfg.message_passing",
                       num_authors=len(layout.authors),
                       num_edges=len(layout.edges), max_iter=self.max_iter,
                       damping=self.damping)
        for iteration in range(start_iter, self.max_iter):
            with span("tpfg.message_round", iteration=iteration):
                new_down, new_up = layout.round(down, up, self.penalty)

            if tracer.active:
                # Max message change — the flooding-schedule residual.
                tracer.record(residual=float(max(
                    np.max(np.abs(new_down - down), initial=0.0),
                    np.max(np.abs(new_up - up), initial=0.0))))
            else:
                tracer.record()

            if self.damping > 0:
                down = self.damping * down + (1 - self.damping) * new_down
                up = self.damping * up + (1 - self.damping) * new_up
            else:
                down, up = new_down, new_up
            if checkpoint is not None:
                checkpoint.maybe_save(iteration, lambda: {  # noqa: E731
                    "iteration": iteration,
                    "messages": layout.pack(down, up)})
        tracer.finish("max_iter")
        return TPFGResult(ranking=layout.ranking(down, up))


class _FactorLayout:
    """TPFG's pairwise MRF on flat arrays over the concatenated domains.

    Every author's candidate list occupies one segment of the flat
    domain axis.  Each factor edge (advisee x, advisor i) carries a
    *down* message x -> i over i's segment and an *up* message i -> x
    over x's segment; the messages of all edges are concatenated in edge
    order, and ``down_pos`` / ``up_pos`` map each message entry to its
    flat domain position.  One ``np.bincount`` per direction then sums
    every belief of a round, a leave-one-out belief is the full belief
    minus the excluded message, and ``np.maximum.reduceat`` takes the
    per-segment maxima.
    """

    def __init__(self, graph: CandidateGraph) -> None:
        self.authors = graph.authors
        self.domain: Dict[str, List[Candidate]] = {}
        for author in self.authors:
            candidates = graph.advisors_of(author)
            if not candidates:
                raise DataError(
                    f"TPFG: author {author!r} has an empty candidate list "
                    "(every author needs at least the virtual root)")
            advisors = [c.advisor for c in candidates]
            if len(set(advisors)) != len(advisors):
                raise DataError(
                    f"TPFG: author {author!r} lists an advisor twice")
            self.domain[author] = candidates
        self.sizes = sizes = np.array(
            [len(self.domain[a]) for a in self.authors], dtype=np.int64)
        self.starts = _segment_starts(sizes)
        flat = [c for a in self.authors for c in self.domain[a]]
        self.unary = np.log(np.maximum(
            np.array([c.likelihood for c in flat], dtype=np.float64), EPS))
        is_root = np.array([c.advisor == ROOT for c in flat], dtype=bool)
        ends = np.array([c.end for c in flat], dtype=np.int64)

        # Factor edges: (advisee x, advisor i) for every real candidate of
        # x whose advisor node exists in the graph.
        index = {a: k for k, a in enumerate(self.authors)}
        self.edges: List[Tuple[str, str]] = []
        edge_x, edge_i, chosen, start_xi = [], [], [], []
        for x in self.authors:
            for position, cand in enumerate(self.domain[x]):
                if cand.advisor != ROOT and cand.advisor in index:
                    self.edges.append((x, cand.advisor))
                    edge_x.append(index[x])
                    edge_i.append(index[cand.advisor])
                    chosen.append(position)
                    start_xi.append(cand.start)
        edge_x_arr = np.array(edge_x, dtype=np.int64)
        edge_i_arr = np.array(edge_i, dtype=np.int64)
        self.up_size = sizes[edge_x_arr]
        self.down_size = sizes[edge_i_arr]
        self.up_start, self.up_pos = _segments(self.starts[edge_x_arr],
                                               self.up_size)
        self.down_start, self.down_pos = _segments(self.starts[edge_i_arr],
                                                   self.down_size)
        # Entry of x's up segment where y_x = i.
        self.choose = self.up_start + np.array(chosen, dtype=np.int64)
        # allowed[j]: i choosing its j-th advisor does not conflict with
        # advising x (Eq. 6.9).
        self.allowed = is_root[self.down_pos] | (
            ends[self.down_pos] < np.repeat(
                np.array(start_xi, dtype=np.int64), self.down_size))

    def belief(self, down: np.ndarray, up: np.ndarray) -> np.ndarray:
        """Every author's belief: unary plus all incoming messages."""
        size = len(self.unary)
        return (self.unary
                + np.bincount(self.up_pos, weights=up, minlength=size)
                + np.bincount(self.down_pos, weights=down, minlength=size))

    def round(self, down: np.ndarray, up: np.ndarray, penalty: float,
              ) -> Tuple[np.ndarray, np.ndarray]:
        """One flooding round: every message recomputed from the old ones."""
        belief = self.belief(down, up)

        # Advisee x to advisor i over y_i, from x's belief without i's
        # up message.
        base = belief[self.up_pos] - up
        choose_i = base[self.choose]
        others = base.copy()
        others[self.choose] = -np.inf
        best_other = np.maximum.reduceat(others, self.up_start)
        new_down = np.where(
            self.allowed,
            np.repeat(np.maximum(best_other, choose_i), self.down_size),
            np.repeat(np.maximum(best_other, choose_i - penalty),
                      self.down_size))
        new_down -= np.repeat(np.maximum.reduceat(new_down, self.down_start),
                              self.down_size)

        # Advisor i to advisee x over y_x, from i's belief without x's
        # down message.
        base_i = belief[self.down_pos] - down
        best_all = np.maximum.reduceat(base_i, self.down_start)
        best_allowed = np.maximum.reduceat(
            np.where(self.allowed, base_i, -np.inf), self.down_start)
        new_up = np.repeat(best_all, self.up_size)
        new_up[self.choose] = np.maximum(best_allowed, best_all - penalty)
        new_up -= np.repeat(np.maximum.reduceat(new_up, self.up_start),
                            self.up_size)
        return new_down, new_up

    def ranking(self, down: np.ndarray, up: np.ndarray,
                ) -> Dict[str, List[Tuple[str, float]]]:
        """Normalized max-marginal beliefs r_ij (Eq. 6.10), best first."""
        belief = self.belief(down, up)
        belief -= np.repeat(np.maximum.reduceat(belief, self.starts),
                            self.sizes)
        probs = np.exp(belief)
        probs /= np.repeat(np.maximum(np.add.reduceat(probs, self.starts),
                                      EPS), self.sizes)
        values = probs.tolist()
        ranking: Dict[str, List[Tuple[str, float]]] = {}
        for a, start in zip(self.authors, self.starts.tolist()):
            ranking[a] = sorted(
                ((c.advisor, values[start + k])
                 for k, c in enumerate(self.domain[a])),
                key=lambda pair: (-pair[1], pair[0]))
        return ranking

    # ------------------------------------------------------ checkpoint state
    def pack(self, down: np.ndarray, up: np.ndarray,
             ) -> Dict[Tuple[str, str, str], np.ndarray]:
        """The checkpoint's message table: one array per directed edge."""
        table: Dict[Tuple[str, str, str], np.ndarray] = {}
        for (x, i), to_i, to_x in zip(self.edges,
                                      np.split(down, self.down_start[1:]),
                                      np.split(up, self.up_start[1:])):
            table[("down", x, i)] = to_i
            table[("up", i, x)] = to_x
        return table

    def unpack(self, table: Dict[Tuple[str, str, str], np.ndarray],
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat message arrays from a checkpoint's table.

        Raises:
            DataError: the table's keys or message lengths do not match
                this candidate graph (a checkpoint of another graph).
        """
        expected = {("down", x, i) for x, i in self.edges} | \
            {("up", i, x) for x, i in self.edges}
        if set(table) != expected:
            missing = len(expected - set(table))
            extra = len(set(table) - expected)
            raise DataError(
                "TPFG checkpoint does not match the candidate graph: "
                f"{missing} message(s) missing, {extra} unexpected")
        down, up = [np.zeros(0)], [np.zeros(0)]
        for e, (x, i) in enumerate(self.edges):
            for key, size, out in ((("down", x, i), self.down_size[e], down),
                                   (("up", i, x), self.up_size[e], up)):
                message = np.asarray(table[key], dtype=np.float64)
                if message.shape != (size,):
                    raise DataError(
                        f"TPFG checkpoint does not match the candidate "
                        f"graph: message {key!r} has shape "
                        f"{message.shape}, expected ({size},)")
                out.append(message)
        return np.concatenate(down), np.concatenate(up)


def _segment_starts(sizes: np.ndarray) -> np.ndarray:
    """Offset of each segment when segments of ``sizes`` are concatenated."""
    starts = np.zeros(len(sizes), dtype=np.int64)
    starts[1:] = np.cumsum(sizes)[:-1]
    return starts


def _segments(bases: np.ndarray, sizes: np.ndarray,
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Segment starts, and each entry's flat domain position.

    Segment e mirrors the domain positions ``bases[e] .. bases[e] +
    sizes[e]``.
    """
    starts = _segment_starts(sizes)
    positions = np.repeat(bases - starts, sizes) + np.arange(sizes.sum())
    return starts, positions
