"""Edge-weighted heterogeneous network (the G^t of Chapter 3).

A :class:`HeterogeneousNetwork` is immutable.  Its node types are sorted
and stacked into one id space: node ``n`` of ``node_types()[t]`` has the
stacked id ``offsets[t] + n``.  Every link is stored once, as one entry
of a CSR over stacked ids, sorted by row and then by column, with its
weight and the index of its link type.  Link types are *unordered* pairs
of node types, so a link's row is always its endpoint of the
lexicographically smaller type, and a same-type link has row <= column.
Within a row, column order is then also link-type order.  This matches
the dissertation's model, which duplicates undirected links in both
directions only as a modelling device (Section 3.2.1) — the sufficient
statistics are symmetric.  In array form this is the network schema of
"A Survey of Heterogeneous Information Network Analysis" (typed objects,
typed relations): one node space and a type id per link.

Solvers read the stacked arrays (``rows``, ``cols``, ``weights``,
``type_id``, ``indptr``) directly.  A child network
(:meth:`HeterogeneousNetwork.subnetwork`) is a mask over its parent's
links with the surviving nodes renumbered, so it needs no name lookup
and no re-deduplication.  :meth:`HeterogeneousNetwork.from_links` is the
one constructor for callers that start from per-type edge lists.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import DataError

LinkType = Tuple[str, str]
LinkArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: Each node type's names in id order.
NodeNames = Mapping[str, Union[Sequence[str], np.ndarray]]


def canonical_link_type(type_x: str, type_y: str) -> LinkType:
    """Order a node-type pair canonically (lexicographically)."""
    return (type_x, type_y) if type_x <= type_y else (type_y, type_x)


def _name_table(names: Union[Sequence[str], np.ndarray]) -> np.ndarray:
    """Names as a 1-D object array (object arrays pass through)."""
    if isinstance(names, np.ndarray):
        return names
    table = np.empty(len(names), dtype=object)
    table[:] = list(names)
    return table


class HeterogeneousNetwork:
    """Typed nodes plus weighted links, as one stacked link CSR.

    Args:
        names: each node type's node names in id order (types with no
            nodes are listed too).
        rows, cols, weights: the links over stacked ids, already in CSR
            order with every link type canonical and every pair once.
            Use :meth:`from_links` to build from unordered edge lists.

    Link weights are floats so subnetworks produced by soft clustering
    (expected link weights, Eq. 3.23) are representable.
    """

    __slots__ = ("_types", "_names", "offsets", "_link_types", "rows",
                 "cols", "weights", "type_id", "indptr", "_column_order",
                 "_index")

    def __init__(self, names: Optional[NodeNames] = None,
                 rows: Optional[np.ndarray] = None,
                 cols: Optional[np.ndarray] = None,
                 weights: Optional[np.ndarray] = None) -> None:
        names = names or {}
        self._types = sorted(names)
        sizes = [len(names[t]) for t in self._types]
        self.offsets = np.concatenate(([0], np.cumsum(sizes))).astype(
            np.int64)
        self._names = np.concatenate(
            [_name_table(names[t]) for t in self._types]
            + [np.empty(0, dtype=object)])
        size = int(self.offsets[-1])
        if rows is None:
            rows = cols = np.empty(0, dtype=np.int64)
            weights = np.empty(0)
        # The index dtype scipy would pick, so a sparse view copies nothing.
        index = np.int32 if max(size, len(rows)) < 2 ** 31 else np.int64
        self.rows = np.asarray(rows, dtype=index)
        self.cols = np.asarray(cols, dtype=index)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.indptr = np.zeros(size + 1, dtype=index)
        np.cumsum(np.bincount(self.rows, minlength=size), out=self.indptr[1:])
        num_types = len(self._types)
        type_of = np.repeat(np.arange(num_types), sizes)
        codes = type_of[self.rows] * num_types + type_of[self.cols]
        present = np.bincount(codes, minlength=num_types ** 2) > 0
        self._link_types = [(self._types[c // num_types],
                             self._types[c % num_types])
                            for c in np.flatnonzero(present).tolist()]
        self.type_id = (np.cumsum(present) - 1)[codes]
        self._column_order: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._index: Dict[str, Dict[str, int]] = {}

    @classmethod
    def from_links(cls, names: NodeNames,
                   links: Optional[Mapping[LinkType, Tuple[
                       Sequence[int], Sequence[int], object]]] = None,
                   ) -> "HeterogeneousNetwork":
        """Build a network from per-link-type ``(i, j, weights)`` columns.

        ``i``/``j`` index the nodes of the link type's first and second
        node type; ``weights`` is a parallel array or one scalar.  Either
        order of a type pair is accepted, same-type pairs are ordered
        ``i <= j`` and duplicate pairs sum.  Self-links are allowed.

        Raises:
            DataError: duplicate node names within a type, an unknown
                node type, a negative weight or an out-of-range node id.
        """
        for node_type, type_names in names.items():
            if len(set(type_names)) != len(type_names):
                raise DataError(f"duplicate {node_type} node names")
        probe = cls(names)
        start = dict(zip(probe._types, probe.offsets.tolist()))
        row_parts, col_parts, weight_parts = [], [], []
        for (type_x, type_y), (i_idx, j_idx, weights) in \
                (links or {}).items():
            arrays = []
            for node_type, ids in ((type_x, i_idx), (type_y, j_idx)):
                if node_type not in start:
                    raise DataError(f"unknown node type: {node_type!r}")
                ids = np.asarray(ids, dtype=np.int64).reshape(-1)
                count = len(names[node_type])
                if len(ids) and (ids.min() < 0 or ids.max() >= count):
                    raise DataError(f"{node_type} node id out of range "
                                    f"(have {count})")
                arrays.append(ids + start[node_type])
            rows, cols = arrays
            weights = np.asarray(weights, dtype=np.float64)
            if weights.ndim == 0:
                weights = np.full(rows.shape, float(weights))
            if not rows.shape == cols.shape == weights.shape:
                raise DataError("link columns must be parallel")
            if not (weights >= 0).all():
                raise DataError("link weights must be non-negative")
            row_parts.append(np.minimum(rows, cols))
            col_parts.append(np.maximum(rows, cols))
            weight_parts.append(weights)
        if not row_parts:
            return probe
        size = max(int(probe.offsets[-1]), 1)
        keys, inverse = np.unique(
            np.concatenate(row_parts) * size + np.concatenate(col_parts),
            return_inverse=True)
        weights = np.bincount(inverse, weights=np.concatenate(weight_parts),
                              minlength=len(keys))
        return cls(names, keys // size, keys % size, weights)

    # ------------------------------------------------------------------ nodes
    def node_types(self) -> List[str]:
        """All node types, sorted (types with no nodes included)."""
        return list(self._types)

    def _bounds(self, node_type: str) -> Tuple[int, int]:
        try:
            t = self._types.index(node_type)
        except ValueError:
            raise DataError(f"unknown node type: {node_type!r}") from None
        return int(self.offsets[t]), int(self.offsets[t + 1])

    def node_names(self, node_type: str) -> List[str]:
        """Names of all nodes of ``node_type`` in index order."""
        start, stop = self._bounds(node_type)
        return self._names[start:stop].tolist()

    def node_count(self, node_type: str) -> int:
        """Number of nodes of ``node_type``."""
        start, stop = self._bounds(node_type)
        return stop - start

    def node_id(self, node_type: str, name: str) -> int:
        """Index of a named node; raises :class:`DataError` if absent."""
        index = self._index.get(node_type)
        if index is None:
            names = self.node_names(node_type)
            index = self._index[node_type] = dict(
                zip(names, range(len(names))))
        try:
            return index[name]
        except KeyError:
            raise DataError(f"no {node_type} node named {name!r}") from None

    # ------------------------------------------------------------------ links
    def link_types(self) -> List[LinkType]:
        """Link types with at least one stored link, sorted."""
        return list(self._link_types)

    def _type_mask(self, link_type: LinkType) -> Optional[np.ndarray]:
        link_type = canonical_link_type(*link_type)
        if link_type not in self._link_types:
            return None
        return self.type_id == self._link_types.index(link_type)

    def link_arrays(self, link_type: LinkType) -> LinkArrays:
        """The links of one type as ``(i_idx, j_idx, weights)`` arrays.

        Node ids are per type, in the canonical type order, and the links
        are sorted by (i, j) — the network's CSR order restricted to the
        type.  The arrays are copies.
        """
        mask = self._type_mask(link_type)
        if mask is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), np.empty(0)
        type_x, type_y = canonical_link_type(*link_type)
        return (self.rows[mask] - np.int64(self._bounds(type_x)[0]),
                self.cols[mask] - np.int64(self._bounds(type_y)[0]),
                self.weights[mask])

    def link_weight(self, type_x: str, i: int, type_y: str, j: int) -> float:
        """Weight of the undirected link (0.0 when absent)."""
        ends = []
        for node_type, node in ((type_x, i), (type_y, j)):
            start, stop = self._bounds(node_type)
            if not 0 <= node < stop - start:
                raise DataError(f"{node_type} node id {node} out of range "
                                f"(have {stop - start})")
            ends.append(start + node)
        row, col = ends
        row, col = min(row, col), max(row, col)
        lo, hi = self.indptr[row:row + 2].tolist()
        pos = lo + int(np.searchsorted(self.cols[lo:hi], col))
        return float(self.weights[pos]) if pos < hi \
            and self.cols[pos] == col else 0.0

    def total_weight(self, link_type: Optional[LinkType] = None) -> float:
        """Sum of link weights for one link type, or over all types.

        Each type's weights are summed over its own links in link order,
        and the types' totals in link-type order.
        """
        if link_type is not None:
            mask = self._type_mask(link_type)
            return float(self.weights[mask].sum()) if mask is not None \
                else 0.0
        return sum((self.total_weight(lt) for lt in self._link_types), 0.0)

    def num_links(self, link_type: Optional[LinkType] = None) -> int:
        """Count of stored links (n_{x,y} in the paper)."""
        if link_type is None:
            return len(self.weights)
        mask = self._type_mask(link_type)
        return int(mask.sum()) if mask is not None else 0

    def column_order(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(by_column, colptr)``: the link positions sorted by column,
        node ``n``'s at ``colptr[n]:colptr[n + 1]``.  Computed on first
        use."""
        if self._column_order is None:
            colptr = np.zeros_like(self.indptr)
            np.cumsum(np.bincount(self.cols, minlength=len(colptr) - 1),
                      out=colptr[1:])
            self._column_order = (np.argsort(self.cols, kind="stable"),
                                  colptr)
        return self._column_order

    def degree_vector(self, node_type: str) -> np.ndarray:
        """Total incident link weight of every ``node_type`` node.

        Self-links count once.
        """
        start, stop = self._bounds(node_type)
        size = len(self.indptr) - 1
        degrees = (np.bincount(self.rows, weights=self.weights,
                               minlength=size)
                   + np.bincount(self.cols, weights=np.where(
                       self.rows == self.cols, 0.0, self.weights),
                       minlength=size))
        return degrees[start:stop]

    # ------------------------------------------------------------ subnetworks
    def subnetwork(self, weights: np.ndarray,
                   min_weight: float = 1.0) -> "HeterogeneousNetwork":
        """The child network of per-link expected weights (Eq. 3.23).

        Implements the recursion step of Section 3.2.1: ``weights`` are
        aligned with this network's links, links whose expected weight
        falls below ``min_weight`` are dropped, and nodes keep their
        identity (name) so rankings remain comparable across levels.
        Isolated nodes, and node types left without nodes, are not kept.

        Surviving nodes of each type are numbered as link types in
        canonical order introduce them: each link type contributes its
        sorted used ids, and a node's first appearance wins.

        Raises:
            DataError: ``weights`` is not one value per link.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self.weights.shape:
            raise DataError(f"expected {len(self.weights)} link weights, "
                            f"got shape {weights.shape}")
        keep = np.flatnonzero(weights >= min_weight)
        rows, cols = self.rows[keep], self.cols[keep]
        type_id = self.type_id[keep]
        # Sort every endpoint by (node type, link type, node); a node's
        # first occurrence gives its place in the child.
        size = max(len(self.indptr) - 1, 1)
        num_links = max(len(self._link_types), 1)
        type_of = np.repeat(np.arange(len(self._types)),
                            np.diff(self.offsets))
        nodes = np.concatenate((rows, cols)).astype(np.int64)
        ranks = np.concatenate((type_id, type_id))
        endpoint = np.unique((type_of[nodes] * num_links + ranks) * size
                             + nodes) % size
        order = endpoint[np.sort(np.unique(endpoint, return_index=True)[1])]
        remap = np.empty(len(self.indptr) - 1, dtype=np.int64)
        remap[order] = np.arange(len(order))
        new_rows, new_cols = remap[rows], remap[cols]
        lo = np.minimum(new_rows, new_cols)
        hi = np.maximum(new_rows, new_cols)
        by_key = np.argsort(lo * max(len(order), 1) + hi, kind="stable")
        counts = np.bincount(type_of[order], minlength=len(self._types))
        stops = np.cumsum(counts).tolist()
        names = {t: self._names[order[stop - n:stop]]
                 for t, n, stop in zip(self._types, counts.tolist(), stops)
                 if n}
        return HeterogeneousNetwork(names, lo[by_key], hi[by_key],
                                    weights[keep][by_key])

    def __repr__(self) -> str:
        types = ", ".join(f"{t}:{self.node_count(t)}" for t in self._types)
        return (f"HeterogeneousNetwork({types}; links={self.num_links()}, "
                f"weight={self.total_weight():.1f})")
