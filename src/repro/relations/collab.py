"""Temporal collaboration network (Section 6.1.1).

The input to advisor–advisee mining is a time-dependent collaboration
network: papers linked to authors with publication years.  This module
transforms it into the homogeneous author network G with, per author and
per coauthor pair, the publication-year vector ``py`` and publication
count vector ``pn`` of the paper's notation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..corpus import Corpus
from ..errors import DataError

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
        """Build from (author list, year) records."""
        network = cls()
        for authors, year in papers:
            network.add_paper(authors, year)
        return network

    @classmethod
    def from_corpus(cls, corpus: Corpus,
                    author_type: str = "author") -> "CollaborationNetwork":
        """Build from a corpus whose documents carry authors and years."""
        network = cls()
        for doc in corpus:
            if doc.year is None:
                raise DataError(
                    f"document {doc.doc_id} has no year; relation mining "
                    "requires timestamps")
            network.add_paper(doc.entity_list(author_type), doc.year)
        return network

    def add_paper(self, authors: Sequence[str], year: int) -> None:
        """Record one paper: updates author and pair series."""
        unique = sorted(set(authors))
        for author in unique:
            self.author_series.setdefault(author, YearSeries()).add(year)
        for a, b in combinations(unique, 2):
            self.pair_series.setdefault((a, b), YearSeries()).add(year)
        self._coauthors = None

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

        The first call indexes every pair once; :meth:`add_paper` drops
        the index.
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
