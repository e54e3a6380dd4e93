"""Stage 1 of TPFG: candidate generation and local likelihood (Section 6.1.3).

For each ordered coauthor pair (advisee candidate ``a_i``, advisor
candidate ``a_j``), the time-resolved Kulczynski correlation (Eq. 6.1) and
imbalance ratio (Eq. 6.2) are computed; heuristic rules R1–R4 prune
implausible pairs; the advising interval [st, ed] is estimated from the
shape of the Kulczynski curve; and the local likelihood combines the two
measures averaged over the interval (Eq. 6.3).  The surviving candidate
edges form a DAG because Assumption 6.2 orders authors by first
publication year.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, FrozenSet, List, Optional

from ..errors import ConfigurationError
from ..utils import EPS
from .collab import CollaborationNetwork, YearSeries


@dataclass
class Candidate:
    """One candidate advising relation a_i -> a_j (j may advise i)."""

    advisee: str
    advisor: str
    start: int
    end: int
    likelihood: float


@dataclass
class CandidateGraph:
    """The DAG of candidate relations H' (plus the virtual root a0).

    ``candidates[advisee]`` lists that author's potential advisors with
    normalized local likelihoods (summing to one including the virtual
    no-advisor option keyed by ``ROOT``).
    """

    ROOT = ""

    candidates: Dict[str, List[Candidate]] = field(default_factory=dict)

    def advisors_of(self, advisee: str) -> List[Candidate]:
        """Candidate advisors of one author (including the root option)."""
        return self.candidates.get(advisee, [])

    @property
    def authors(self) -> List[str]:
        """All authors with candidate lists, sorted."""
        return sorted(self.candidates)

    def num_edges(self) -> int:
        """Number of real (non-root) candidate relations."""
        return sum(len(c) for c in self.candidates.values()) \
            - len(self.candidates)  # exclude the virtual-root edges

    def is_acyclic(self) -> bool:
        """Verify the DAG property along non-root candidate edges."""
        color: Dict[str, int] = {}

        def visit(node: str) -> bool:
            color[node] = 1
            for cand in self.candidates.get(node, []):
                if cand.advisor == self.ROOT:
                    continue
                state = color.get(cand.advisor, 0)
                if state == 1:
                    return False
                if state == 0 and not visit(cand.advisor):
                    return False
            color[node] = 2
            return True

        return all(visit(node) for node in self.candidates
                   if color.get(node, 0) == 0)


def kulczynski(pair: YearSeries, series_i: YearSeries,
               series_j: YearSeries, year: int) -> float:
    """kulc^t_{ij} of Eq. 6.1 at ``year`` (cumulative counts)."""
    return _kulczynski(pair.cumulative(year), series_i.cumulative(year),
                       series_j.cumulative(year))


def imbalance_ratio(pair: YearSeries, series_i: YearSeries,
                    series_j: YearSeries, year: int) -> float:
    """IR^t_{ij} of Eq. 6.2 at ``year``: positive when j out-publishes i."""
    return _imbalance_ratio(pair.cumulative(year),
                            series_i.cumulative(year),
                            series_j.cumulative(year))


def _kulczynski(joint: int, n_i: int, n_j: int) -> float:
    """Eq. 6.1 from the cumulative joint and per-author counts."""
    if joint == 0:
        return 0.0
    return joint / 2.0 * (1.0 / max(n_i, 1) + 1.0 / max(n_j, 1))


def _imbalance_ratio(joint: int, n_i: int, n_j: int) -> float:
    """Eq. 6.2 from the cumulative joint and per-author counts."""
    denominator = n_i + n_j - joint
    if denominator <= 0:
        return 0.0
    return (n_j - n_i) / denominator


@dataclass
class PreprocessConfig:
    """Stage-1 knobs.

    Attributes:
        rules: subset of {"R1", "R2", "R3", "R4"} to apply (Section 6.1.3);
            R1 = drop pairs with negative IR during collaboration,
            R2 = drop pairs whose Kulczynski curve never increases,
            R3 = drop single-year collaborations,
            R4 = drop pairs where j's career predates the collaboration by
                 less than two years (py^1_j + 2 > py^1_ij).
        end_year_method: "YEAR1" (first Kulczynski decrease), "YEAR2"
            (largest before/after Kulczynski difference), or "YEAR" (the
            earlier of the two).
        likelihood: "kulc", "ir", or "avg" (Eq. 6.3).
        root_likelihood: unnormalized weight of the no-advisor option.
    """

    rules: FrozenSet[str] = frozenset({"R1", "R2", "R3", "R4"})
    end_year_method: str = "YEAR"
    likelihood: str = "avg"
    root_likelihood: float = 0.15

    def __post_init__(self) -> None:
        unknown = set(self.rules) - {"R1", "R2", "R3", "R4"}
        if unknown:
            raise ConfigurationError(f"unknown rules: {sorted(unknown)}")
        if self.end_year_method not in ("YEAR", "YEAR1", "YEAR2"):
            raise ConfigurationError(
                "end_year_method must be YEAR, YEAR1 or YEAR2")
        if self.likelihood not in ("kulc", "ir", "avg"):
            raise ConfigurationError("likelihood must be kulc, ir or avg")


def build_candidate_graph(network: CollaborationNetwork,
                          config: Optional[PreprocessConfig] = None,
                          ) -> CandidateGraph:
    """Run Stage 1: filter pairs, estimate intervals, score likelihoods."""
    config = config or PreprocessConfig()
    graph = CandidateGraph()
    # Each author's publications up to each of their years, ascending.
    # A paper adds its year to its pairs' series and its authors' series
    # together, so every year of a pair series is a key of both authors'.
    totals: Dict[str, Dict[int, int]] = {}
    for author, series in network.author_series.items():
        years = series.years()
        totals[author] = dict(zip(years, accumulate(
            series.counts[y] for y in years)))

    for advisee in network.authors:
        series_i = network.series_of(advisee)
        raw: List[Candidate] = []
        for advisor in network.coauthors(advisee):
            candidate = _evaluate_pair(
                advisee, advisor, network.pair(advisee, advisor),
                totals[advisee], totals[advisor], config)
            if candidate is not None:
                raw.append(candidate)
        # Virtual root option: "no advisor in the data".
        raw.append(Candidate(advisee=advisee, advisor=CandidateGraph.ROOT,
                             start=series_i.first_year or 0,
                             end=series_i.last_year or 0,
                             likelihood=config.root_likelihood))
        total = sum(c.likelihood for c in raw)
        if total > 0:
            for c in raw:
                c.likelihood = c.likelihood / total
        graph.candidates[advisee] = raw
    return graph


def _evaluate_pair(advisee: str, advisor: str, pair: Optional[YearSeries],
                   totals_i: Dict[int, int], totals_j: Dict[int, int],
                   config: PreprocessConfig) -> Optional[Candidate]:
    if pair is None or not pair.counts:
        return None

    # Assumption 6.2: the advisor publishes strictly earlier.
    first_j = next(iter(totals_j))
    if first_j >= next(iter(totals_i)):
        return None

    collab_years = pair.years()
    kulc_curve: List[float] = []
    ir_curve: List[float] = []
    joint = accumulate(pair.counts[y] for y in collab_years)
    for year, joint_count in zip(collab_years, joint):
        n_i, n_j = totals_i[year], totals_j[year]
        kulc_curve.append(_kulczynski(joint_count, n_i, n_j))
        ir_curve.append(_imbalance_ratio(joint_count, n_i, n_j))

    if "R1" in config.rules and any(v < 0 for v in ir_curve):
        return None
    if "R2" in config.rules and len(kulc_curve) > 1 and all(
            kulc_curve[idx + 1] <= kulc_curve[idx]
            for idx in range(len(kulc_curve) - 1)):
        return None
    if "R3" in config.rules and len(collab_years) <= 1:
        return None
    if "R4" in config.rules and first_j + 2 > collab_years[0]:
        return None

    start = collab_years[0]
    end = _estimate_end_year(collab_years, kulc_curve, config.end_year_method)

    window = [idx for idx, y in enumerate(collab_years) if start <= y <= end]
    if not window:
        window = list(range(len(collab_years)))
    kulc_avg = sum(kulc_curve[idx] for idx in window) / len(window)
    ir_avg = sum(ir_curve[idx] for idx in window) / len(window)
    if config.likelihood == "kulc":
        likelihood = kulc_avg
    elif config.likelihood == "ir":
        likelihood = ir_avg
    else:
        likelihood = (kulc_avg + ir_avg) / 2.0
    likelihood = max(likelihood, EPS)
    return Candidate(advisee=advisee, advisor=advisor, start=start, end=end,
                     likelihood=likelihood)


def _estimate_end_year(years: List[int], kulc_curve: List[float],
                       method: str) -> int:
    """Estimate ed_ij from the Kulczynski curve (Section 6.1.3)."""
    if len(years) == 1:
        return years[0]

    def year1() -> int:
        for idx in range(1, len(kulc_curve)):
            if kulc_curve[idx] < kulc_curve[idx - 1]:
                return years[idx - 1]
        return years[-1]

    def year2() -> int:
        best_idx, best_gap = len(years) - 1, float("-inf")
        for idx in range(len(years)):
            before = sum(kulc_curve[:idx + 1]) / (idx + 1)
            after_count = len(kulc_curve) - idx - 1
            after = (sum(kulc_curve[idx + 1:]) / after_count
                     if after_count else 0.0)
            gap = before - after
            if gap > best_gap:
                best_idx, best_gap = idx, gap
        return years[best_idx]

    if method == "YEAR1":
        return year1()
    if method == "YEAR2":
        return year2()
    return min(year1(), year2())
