"""Temporal collaboration network (Section 6.1.1).

The input to advisor–advisee mining is a time-dependent collaboration
network: papers linked to authors with publication years.  This module
transforms it into the homogeneous author network G with, per author and
per coauthor pair, the publication-year vector ``py`` and publication
count vector ``pn`` of the paper's notation.

Both builders read papers as an author CSR (paper → author ids) with a
year per paper, the corpus's own array form: one ``np.unique`` over
(author, year) keys gives every author series, and one over (pair, year)
keys, with the pairs of each paper's distinct authors, every pair series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..corpus import Corpus
from ..errors import DataError
from ..utils import run_pairs

Pair = Tuple[str, str]


@dataclass
class YearSeries:
    """Sparse count-per-year series (py / pn vectors)."""

    counts: Dict[int, int] = field(default_factory=dict)

    def add(self, year: int, count: int = 1) -> None:
        """Add ``count`` publications in ``year``."""
        self.counts[year] = self.counts.get(year, 0) + count

    @property
    def first_year(self) -> Optional[int]:
        """py^1: the first year with a publication (None when empty)."""
        return min(self.counts) if self.counts else None

    @property
    def last_year(self) -> Optional[int]:
        """The last year with a publication (None when empty)."""
        return max(self.counts) if self.counts else None

    def total(self) -> int:
        """Total publication count across all years."""
        return sum(self.counts.values())

    def cumulative(self, year: int) -> int:
        """Number of publications up to and including ``year``."""
        return sum(c for y, c in self.counts.items() if y <= year)

    def years(self) -> List[int]:
        """All years with publications, sorted."""
        return sorted(self.counts)

    def __len__(self) -> int:
        return len(self.counts)


class CollaborationNetwork:
    """Author network with per-author and per-pair time series.

    Author pairs are stored unordered (canonical name ordering);
    :meth:`pair_series` accepts either order.
    """

    def __init__(self) -> None:
        self.author_series: Dict[str, YearSeries] = {}
        self.pair_series: Dict[Pair, YearSeries] = {}
        #: Sorted collaborators per author, built on first use.
        self._coauthors: Optional[Dict[str, List[str]]] = None

    # ------------------------------------------------------------------ build
    @classmethod
    def from_papers(cls, papers: Iterable[Tuple[Sequence[str], int]],
                    ) -> "CollaborationNetwork":
        """Build from (author list, year) records.

        Raises:
            DataError: a paper's year is not an integer.
        """
        index: Dict[str, int] = {}
        ids: List[int] = []
        counts: List[int] = []
        years: List[Any] = []
        for authors, year in papers:
            before = len(ids)
            ids.extend(index.setdefault(author, len(index))
                       for author in authors)
            counts.append(len(ids) - before)
            years.append(year)
        for number, year in enumerate(years):
            if type(year) is bool or not isinstance(year, (int, np.integer)):
                raise DataError(f"paper {number} has year {year!r}; "
                                "relation mining requires integer years")
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls._from_author_links(list(index), indptr,
                                      np.asarray(ids, dtype=np.int64),
                                      np.asarray(years, dtype=np.int64))

    @classmethod
    def from_corpus(cls, corpus: Corpus,
                    author_type: str = "author") -> "CollaborationNetwork":
        """Build from a corpus whose documents carry authors and years."""
        undated = np.flatnonzero(~corpus.has_year)
        if len(undated):
            raise DataError(
                f"document {int(undated[0])} has no year; relation mining "
                "requires timestamps")
        links = corpus.entity_links(author_type)
        return cls._from_author_links(links.names, links.indptr, links.ids,
                                      corpus.years)

    @classmethod
    def _from_author_links(cls, names: Sequence[str], indptr: np.ndarray,
                           ids: np.ndarray, years: np.ndarray,
                           ) -> "CollaborationNetwork":
        """The series of papers ``p`` by authors
        ``names[ids[indptr[p]:indptr[p + 1]]]`` in ``years[p]``.

        A paper lists each of its authors once however often it names
        them.  Authors are ranked by name, so each paper's distinct
        authors come out sorted and every pair in canonical order.  Pair
        keys run up to authors² × distinct years, well inside int64 for
        any bibliography.
        """
        network = cls()
        num_authors = len(names)
        if not num_authors:
            return network
        by_name = sorted(range(num_authors), key=names.__getitem__)
        rank = np.empty(num_authors, dtype=np.int64)
        rank[by_name] = np.arange(num_authors)
        sorted_names = [names[i] for i in by_name]
        papers = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64),
                           np.diff(indptr))
        # Distinct (paper, author) entries, by paper, then author name.
        entries = np.unique(papers * num_authors + rank[ids])
        paper, author = np.divmod(entries, num_authors)
        year_values, year_index = np.unique(years, return_inverse=True)
        span = len(year_values)
        paper_year = year_index.reshape(-1)[paper]
        network.author_series = _series(author * span + paper_year, span,
                                        year_values, sorted_names.__getitem__)
        per_paper = np.bincount(paper, minlength=len(indptr) - 1)
        first, second = run_pairs(np.cumsum(per_paper) - per_paper,
                                  per_paper)
        network.pair_series = _series(
            (author[first] * num_authors + author[second]) * span
            + paper_year[first], span, year_values,
            lambda pair: (sorted_names[pair // num_authors],
                          sorted_names[pair % num_authors]))
        return network

    # ------------------------------------------------------------------ views
    @property
    def authors(self) -> List[str]:
        """All author names, sorted."""
        return sorted(self.author_series)

    def series_of(self, author: str) -> YearSeries:
        """The publication series of one author."""
        try:
            return self.author_series[author]
        except KeyError:
            raise DataError(f"unknown author: {author!r}") from None

    def pair(self, a: str, b: str) -> Optional[YearSeries]:
        """The joint publication series of two authors (None if never)."""
        key = (a, b) if a <= b else (b, a)
        return self.pair_series.get(key)

    def coauthors(self, author: str) -> List[str]:
        """All collaborators of ``author``, sorted.

        The first call indexes every pair once.
        """
        if self._coauthors is None:
            adjacency: Dict[str, List[str]] = {}
            for a, b in self.pair_series:
                adjacency.setdefault(a, []).append(b)
                if b != a:
                    adjacency.setdefault(b, []).append(a)
            for names in adjacency.values():
                names.sort()
            self._coauthors = adjacency
        return list(self._coauthors.get(author, ()))

    def __repr__(self) -> str:
        return (f"CollaborationNetwork(authors={len(self.author_series)}, "
                f"pairs={len(self.pair_series)})")


def _series(keys: np.ndarray, span: int, year_values: np.ndarray,
            name_of: Callable[[int], Any]) -> Dict[Any, YearSeries]:
    """One :class:`YearSeries` per owner from ``owner * span + year``
    keys, one key per paper; owners in key order, years ascending."""
    distinct, counts = np.unique(keys, return_counts=True)
    if not len(distinct):
        return {}
    owner, year = np.divmod(distinct, span)
    years = year_values[year].tolist()
    counts = counts.tolist()
    bounds = (np.flatnonzero(np.diff(owner)) + 1).tolist()
    starts = [0] + bounds
    ends = bounds + [len(distinct)]
    return {name_of(key): YearSeries(dict(zip(years[lo:hi], counts[lo:hi])))
            for key, lo, hi in zip(owner[starts].tolist(), starts, ends)}
