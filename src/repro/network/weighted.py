"""Edge-weighted heterogeneous network (the G^t of Chapter 3).

A :class:`HeterogeneousNetwork` holds typed nodes and non-negative link
weights grouped by link type.  Link types are *unordered* pairs of node
types; within a type pair the node pair is stored canonically so that each
undirected link appears exactly once.  This matches the dissertation's
model, which duplicates undirected links in both directions only as a
modelling device (Section 3.2.1) — the sufficient statistics are symmetric.

Storage is a COO-build / CSR-freeze backbone: mutations append to
per-link-type triplet buffers, and every read first *freezes* the buffer
into deduplicated, key-sorted index/weight arrays (duplicate pairs sum,
matching the old dict-accumulate semantics).  Solvers pull those arrays
zero-copy via :meth:`HeterogeneousNetwork.link_arrays` (or as a
:mod:`scipy.sparse` CSR matrix via :meth:`link_matrix`) instead of
iterating links one Python tuple at a time.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

import numpy as np
from scipy import sparse

from ..errors import DataError

LinkType = Tuple[str, str]
LinkKey = Tuple[int, int]
LinkArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


def canonical_link_type(type_x: str, type_y: str) -> LinkType:
    """Order a node-type pair canonically (lexicographically)."""
    return (type_x, type_y) if type_x <= type_y else (type_y, type_x)


class _LinkStore:
    """One link type's weights: COO build buffers plus a frozen view.

    ``rows``/``cols``/``weights`` hold the deduplicated links sorted by
    the scalar key ``row * enc_cols + col`` — the canonical CSR ordering.
    Mutations go into cheap append buffers; :meth:`freeze` merges them
    with one vectorized sort-and-reduce pass.
    """

    __slots__ = ("rows", "cols", "weights", "_keys", "_enc_cols",
                 "_pend_i", "_pend_j", "_pend_w", "_chunks", "_matrix")

    def __init__(self) -> None:
        self.rows = np.empty(0, dtype=np.int64)
        self.cols = np.empty(0, dtype=np.int64)
        self.weights = np.empty(0, dtype=np.float64)
        self._keys = np.empty(0, dtype=np.int64)
        self._enc_cols = 1
        self._pend_i: List[int] = []
        self._pend_j: List[int] = []
        self._pend_w: List[float] = []
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._matrix = None

    # _matrix is a derived scipy handle; drop it when pickling so workers
    # ship plain arrays and rebuild the CSR lazily.
    def __getstate__(self) -> Tuple:
        return (self.rows, self.cols, self.weights, self._keys,
                self._enc_cols, self._pend_i, self._pend_j, self._pend_w,
                self._chunks)

    def __setstate__(self, state: Tuple) -> None:
        (self.rows, self.cols, self.weights, self._keys, self._enc_cols,
         self._pend_i, self._pend_j, self._pend_w, self._chunks) = state
        self._matrix = None

    @property
    def dirty(self) -> bool:
        """True when appended links have not been folded in yet."""
        return bool(self._pend_i or self._chunks)

    def __len__(self) -> int:
        """Stored links after the last freeze (callers freeze first)."""
        return len(self.weights)

    def append(self, i: int, j: int, weight: float) -> None:
        """Buffer one accumulating link."""
        self._pend_i.append(i)
        self._pend_j.append(j)
        self._pend_w.append(weight)
        self._matrix = None

    def append_arrays(self, i_idx: np.ndarray, j_idx: np.ndarray,
                      weights: np.ndarray) -> None:
        """Buffer a whole edge-list column (the bulk build path)."""
        self._chunks.append((i_idx, j_idx, weights))
        self._matrix = None

    def freeze(self, num_cols: int) -> None:
        """Fold the append buffers into the deduplicated sorted arrays."""
        if not self.dirty:
            return
        parts_i: List[np.ndarray] = [self.rows]
        parts_j: List[np.ndarray] = [self.cols]
        parts_w: List[np.ndarray] = [self.weights]
        if self._pend_i:
            parts_i.append(np.asarray(self._pend_i, dtype=np.int64))
            parts_j.append(np.asarray(self._pend_j, dtype=np.int64))
            parts_w.append(np.asarray(self._pend_w, dtype=np.float64))
        for chunk_i, chunk_j, chunk_w in self._chunks:
            parts_i.append(chunk_i)
            parts_j.append(chunk_j)
            parts_w.append(chunk_w)
        i_all = np.concatenate(parts_i)
        j_all = np.concatenate(parts_j)
        w_all = np.concatenate(parts_w)
        enc = max(int(num_cols), 1)
        keys = i_all * enc + j_all
        uniq, inverse = np.unique(keys, return_inverse=True)
        self.weights = np.bincount(inverse, weights=w_all,
                                   minlength=len(uniq))
        self.rows = uniq // enc
        self.cols = uniq - self.rows * enc
        self._keys = uniq
        self._enc_cols = enc
        self._pend_i = []
        self._pend_j = []
        self._pend_w = []
        self._chunks = []
        self._matrix = None

    def find(self, i: int, j: int) -> int:
        """Position of link (i, j) in the frozen arrays, or -1."""
        if j >= self._enc_cols or i < 0 or j < 0:
            # Encoded after a smaller freeze: the pair cannot be stored
            # (new columns always arrive with pending links, which would
            # have re-frozen with a larger encoding).
            return -1
        key = i * self._enc_cols + j
        pos = int(np.searchsorted(self._keys, key))
        if pos < len(self._keys) and self._keys[pos] == key:
            return pos
        return -1

    def set_weight(self, pos: int, weight: float) -> None:
        """Overwrite one frozen entry in place."""
        self.weights[pos] = weight
        self._matrix = None

    def delete(self, pos: int) -> None:
        """Physically remove one frozen entry (rare: ``set_link(0)``)."""
        keep = np.ones(len(self.weights), dtype=bool)
        keep[pos] = False
        self.rows = self.rows[keep]
        self.cols = self.cols[keep]
        self.weights = self.weights[keep]
        self._keys = self._keys[keep]
        self._matrix = None

    def matrix(self, shape: Tuple[int, int]):
        """The frozen links as a :class:`scipy.sparse.csr_matrix`."""
        if self._matrix is not None and self._matrix.shape == shape:
            return self._matrix
        mat = sparse.coo_matrix(
            (self.weights, (self.rows, self.cols)), shape=shape).tocsr()
        self._matrix = mat
        return mat


#: ``subnetwork`` accepts either the classic per-link dict buckets or
#: zero-copy (i_idx, j_idx, weights) array triples per link type.
LinkWeights = Mapping[LinkType,
                      Union[Mapping[LinkKey, float], LinkArrays]]


class HeterogeneousNetwork:
    """Typed nodes plus weighted links grouped by unordered link type.

    Node identities are (type, name) pairs; each type has its own dense
    integer index space.  Link weights are floats so subnetworks produced
    by soft clustering (expected link weights, Eq. 3.23) are representable.
    """

    def __init__(self, node_types: Iterable[str] = ()) -> None:
        self._names: Dict[str, List[str]] = {}
        self._index: Dict[str, Dict[str, int]] = {}
        self._links: Dict[LinkType, _LinkStore] = {}
        self._version = 0
        self._degree_cache: Dict[str, Tuple[int, np.ndarray]] = {}
        for node_type in node_types:
            self.add_node_type(node_type)

    # ------------------------------------------------------------------ nodes
    def add_node_type(self, node_type: str) -> None:
        """Register an (initially empty) node type."""
        if node_type not in self._names:
            self._names[node_type] = []
            self._index[node_type] = {}

    def add_node(self, node_type: str, name: str) -> int:
        """Add a node (idempotent) and return its per-type index."""
        self.add_node_type(node_type)
        index = self._index[node_type]
        existing = index.get(name)
        if existing is not None:
            return existing
        node_id = len(self._names[node_type])
        self._names[node_type].append(name)
        index[name] = node_id
        self._version += 1
        return node_id

    def add_nodes(self, node_type: str, names: Iterable[str]) -> np.ndarray:
        """Bulk-add nodes; returns their per-type indices as an array."""
        self.add_node_type(node_type)
        index = self._index[node_type]
        name_list = self._names[node_type]
        ids: List[int] = []
        for name in names:
            existing = index.get(name)
            if existing is None:
                existing = len(name_list)
                name_list.append(name)
                index[name] = existing
            ids.append(existing)
        self._version += 1
        return np.asarray(ids, dtype=np.int64)

    def node_types(self) -> List[str]:
        """All registered node types, sorted."""
        return sorted(self._names)

    def node_names(self, node_type: str) -> List[str]:
        """Names of all nodes of ``node_type`` in index order."""
        self._require_type(node_type)
        return list(self._names[node_type])

    def node_count(self, node_type: str) -> int:
        """Number of nodes of ``node_type``."""
        self._require_type(node_type)
        return len(self._names[node_type])

    def node_id(self, node_type: str, name: str) -> int:
        """Index of a named node; raises :class:`DataError` if absent."""
        self._require_type(node_type)
        try:
            return self._index[node_type][name]
        except KeyError:
            raise DataError(f"no {node_type} node named {name!r}") from None

    def has_node(self, node_type: str, name: str) -> bool:
        """True when a node of that type and name exists."""
        return node_type in self._index and name in self._index[node_type]

    # ------------------------------------------------------------------ links
    @staticmethod
    def _canonical_key(link_type: LinkType, i: int, j: int) -> LinkKey:
        type_x, type_y = link_type
        if type_x == type_y and i > j:
            return (j, i)
        return (i, j)

    def _store(self, link_type: LinkType) -> _LinkStore:
        store = self._links.get(link_type)
        if store is None:
            store = _LinkStore()
            self._links[link_type] = store
        return store

    def _frozen(self, link_type: LinkType) -> Optional[_LinkStore]:
        """The frozen store for a canonical link type, or None."""
        store = self._links.get(link_type)
        if store is None:
            return None
        if store.dirty:
            store.freeze(len(self._names[link_type[1]]))
        return store

    def add_link(self, type_x: str, i: int, type_y: str, j: int,
                 weight: float = 1.0) -> None:
        """Accumulate ``weight`` onto the undirected link (x:i, y:j)."""
        if weight < 0:
            raise DataError("link weights must be non-negative")
        self._require_type(type_x)
        self._require_type(type_y)
        self._check_index(type_x, i)
        self._check_index(type_y, j)
        link_type = canonical_link_type(type_x, type_y)
        if (type_x, type_y) != link_type:
            i, j = j, i
        i, j = self._canonical_key(link_type, i, j)
        self._store(link_type).append(i, j, float(weight))
        self._version += 1

    def add_links(self, type_x: str, i_idx: Sequence[int], type_y: str,
                  j_idx: Sequence[int],
                  weights: Union[None, float, Sequence[float]] = None,
                  ) -> None:
        """Accumulate a whole edge list columnwise (the bulk build path).

        ``i_idx``/``j_idx`` are parallel index arrays; ``weights`` is a
        parallel array, a scalar broadcast to every link, or None for
        unit weights.  Equivalent to calling :meth:`add_link` per edge,
        but validated and canonicalized in one vectorized pass.
        """
        self._require_type(type_x)
        self._require_type(type_y)
        i_arr = np.ascontiguousarray(i_idx, dtype=np.int64)
        j_arr = np.ascontiguousarray(j_idx, dtype=np.int64)
        if i_arr.shape != j_arr.shape or i_arr.ndim != 1:
            raise DataError("add_links expects parallel 1-D index arrays")
        if len(i_arr) == 0:
            return
        if weights is None:
            w_arr = np.ones(len(i_arr), dtype=np.float64)
        else:
            w_arr = np.broadcast_to(
                np.asarray(weights, dtype=np.float64),
                i_arr.shape).astype(np.float64, copy=True)
        if np.any(w_arr < 0):
            raise DataError("link weights must be non-negative")
        for node_type, arr in ((type_x, i_arr), (type_y, j_arr)):
            count = len(self._names[node_type])
            low = int(arr.min())
            high = int(arr.max())
            if low < 0 or high >= count:
                raise DataError(
                    f"{node_type} node id {low if low < 0 else high} out "
                    f"of range (have {count})")
        link_type = canonical_link_type(type_x, type_y)
        if (type_x, type_y) != link_type:
            i_arr, j_arr = j_arr, i_arr
        if link_type[0] == link_type[1]:
            flip = i_arr > j_arr
            if np.any(flip):
                i_new = np.where(flip, j_arr, i_arr)
                j_arr = np.where(flip, i_arr, j_arr)
                i_arr = i_new
        self._store(link_type).append_arrays(i_arr, j_arr, w_arr)
        self._version += 1

    def set_link(self, type_x: str, i: int, type_y: str, j: int,
                 weight: float) -> None:
        """Overwrite (rather than accumulate) a link weight."""
        if weight < 0:
            raise DataError("link weights must be non-negative")
        link_type = canonical_link_type(type_x, type_y)
        if (type_x, type_y) != link_type:
            i, j = j, i
        i, j = self._canonical_key(link_type, i, j)
        self.add_node_type(link_type[0])
        self.add_node_type(link_type[1])
        store = self._store(link_type)
        store.freeze(len(self._names[link_type[1]]))
        pos = store.find(i, j)
        if pos < 0:
            if weight != 0:
                store.append(i, j, float(weight))
        elif weight == 0:
            store.delete(pos)
        else:
            store.set_weight(pos, float(weight))
        self._version += 1

    def link_weight(self, type_x: str, i: int, type_y: str, j: int) -> float:
        """Weight of the undirected link (0.0 when absent)."""
        link_type = canonical_link_type(type_x, type_y)
        if (type_x, type_y) != link_type:
            i, j = j, i
        i, j = self._canonical_key(link_type, i, j)
        store = self._frozen(link_type)
        if store is None:
            return 0.0
        pos = store.find(i, j)
        return float(store.weights[pos]) if pos >= 0 else 0.0

    def link_types(self) -> List[LinkType]:
        """Link types with at least one stored link, sorted."""
        result = []
        for link_type in self._links:
            store = self._frozen(link_type)
            if store is not None and len(store):
                result.append(link_type)
        return sorted(result)

    def links(self, link_type: LinkType) -> Iterator[Tuple[int, int, float]]:
        """Iterate (i, j, weight) over the links of ``link_type``.

        Links stream in CSR order — sorted by (i, j) — which is also the
        order of :meth:`link_arrays`.
        """
        store = self._frozen(canonical_link_type(*link_type))
        if store is None:
            return
        yield from zip(store.rows.tolist(), store.cols.tolist(),
                       store.weights.tolist())

    def link_arrays(self, link_type: LinkType) -> LinkArrays:
        """The links of ``link_type`` as (i_idx, j_idx, weights) arrays.

        This is the zero-copy solver entry point: the arrays are the
        frozen storage itself, sorted by (i, j).  Treat them as
        read-only; mutate via :meth:`add_link`/:meth:`set_link` only.
        """
        store = self._frozen(canonical_link_type(*link_type))
        if store is None:
            empty_i = np.empty(0, dtype=np.int64)
            return empty_i, np.empty(0, dtype=np.int64), np.empty(0)
        return store.rows, store.cols, store.weights

    def link_matrix(self, link_type: LinkType):
        """The links of ``link_type`` as a ``scipy.sparse`` CSR matrix.

        Shape is ``(node_count(type_x), node_count(type_y))`` in the
        canonical type order.
        """
        canonical = canonical_link_type(*link_type)
        self._require_type(canonical[0])
        self._require_type(canonical[1])
        shape = (len(self._names[canonical[0]]),
                 len(self._names[canonical[1]]))
        store = self._frozen(canonical)
        if store is None:
            return sparse.csr_matrix(shape)
        return store.matrix(shape)

    def link_dict(self, link_type: LinkType) -> Dict[LinkKey, float]:
        """A copy of the weight mapping for ``link_type``."""
        store = self._frozen(canonical_link_type(*link_type))
        if store is None:
            return {}
        return dict(zip(zip(store.rows.tolist(), store.cols.tolist()),
                        store.weights.tolist()))

    def total_weight(self, link_type: Optional[LinkType] = None) -> float:
        """Sum of link weights for one link type, or over all types."""
        if link_type is not None:
            store = self._frozen(canonical_link_type(*link_type))
            return float(store.weights.sum()) if store is not None else 0.0
        total = 0.0
        for lt in self._links:
            store = self._frozen(lt)
            if store is not None:
                total += float(store.weights.sum())
        return total

    def num_links(self, link_type: Optional[LinkType] = None) -> int:
        """Count of stored links (n_{x,y} in the paper)."""
        if link_type is not None:
            store = self._frozen(canonical_link_type(*link_type))
            return len(store) if store is not None else 0
        return sum(len(self._frozen(lt) or ()) for lt in list(self._links))

    # ------------------------------------------------------------ subnetworks
    def subnetwork(self, link_weights: LinkWeights,
                   min_weight: float = 1.0) -> "HeterogeneousNetwork":
        """Build a child network from per-link expected weights.

        Implements the recursion step of Section 3.2.1: links whose expected
        topic weight falls below ``min_weight`` are dropped, and nodes keep
        their identity (name) so rankings remain comparable across levels.
        Isolated nodes are *not* added to the child network.

        ``link_weights`` maps each link type to either a ``{(i, j):
        weight}`` mapping (the classic interface) or an ``(i_idx, j_idx,
        weights)`` array triple (the zero-copy solver path).
        """
        child = HeterogeneousNetwork()
        for link_type, bucket in link_weights.items():
            canonical = canonical_link_type(*link_type)
            type_x, type_y = canonical
            if isinstance(bucket, Mapping):
                if not bucket:
                    continue
                keys = np.asarray(list(bucket.keys()), dtype=np.int64)
                i_arr, j_arr = keys[:, 0], keys[:, 1]
                w_arr = np.fromiter(bucket.values(), dtype=np.float64,
                                    count=len(bucket))
            else:
                i_arr, j_arr, w_arr = bucket
                i_arr = np.asarray(i_arr, dtype=np.int64)
                j_arr = np.asarray(j_arr, dtype=np.int64)
                w_arr = np.asarray(w_arr, dtype=np.float64)
            mask = w_arr >= min_weight
            if not np.any(mask):
                continue
            i_arr, j_arr, w_arr = i_arr[mask], j_arr[mask], w_arr[mask]
            names_x = self._names[type_x]
            names_y = self._names[type_y]
            if type_x == type_y:
                used = np.unique(np.concatenate([i_arr, j_arr]))
                new_ids = child.add_nodes(
                    type_x, (names_x[t] for t in used.tolist()))
                remap = np.empty(int(used[-1]) + 1, dtype=np.int64)
                remap[used] = new_ids
                child.add_links(type_x, remap[i_arr], type_y, remap[j_arr],
                                w_arr)
            else:
                used_x = np.unique(i_arr)
                used_y = np.unique(j_arr)
                new_x = child.add_nodes(
                    type_x, (names_x[t] for t in used_x.tolist()))
                new_y = child.add_nodes(
                    type_y, (names_y[t] for t in used_y.tolist()))
                remap_x = np.empty(int(used_x[-1]) + 1, dtype=np.int64)
                remap_x[used_x] = new_x
                remap_y = np.empty(int(used_y[-1]) + 1, dtype=np.int64)
                remap_y[used_y] = new_y
                child.add_links(type_x, remap_x[i_arr], type_y,
                                remap_y[j_arr], w_arr)
        return child

    # -------------------------------------------------------------- utilities
    def degree_vector(self, node_type: str) -> np.ndarray:
        """Total incident link weight of every ``node_type`` node.

        Self-links count once, matching :meth:`degree`.  The vector is
        cached until the network mutates.
        """
        self._require_type(node_type)
        count = len(self._names[node_type])
        cached = self._degree_cache.get(node_type)
        if cached is not None and cached[0] == self._version \
                and len(cached[1]) == count:
            return cached[1]
        degrees = np.zeros(count, dtype=np.float64)
        for link_type in list(self._links):
            if node_type not in link_type:
                continue
            store = self._frozen(link_type)
            if store is None or not len(store):
                continue
            type_x, type_y = link_type
            if type_x == node_type:
                degrees += np.bincount(store.rows, weights=store.weights,
                                       minlength=count)
            if type_y == node_type:
                weights = store.weights
                if type_x == type_y:
                    # Self-links already counted via the row endpoint.
                    weights = np.where(store.rows == store.cols, 0.0,
                                       weights)
                degrees += np.bincount(store.cols, weights=weights,
                                       minlength=count)
        self._degree_cache[node_type] = (self._version, degrees)
        return degrees

    def degree(self, node_type: str, node_id: int) -> float:
        """Total weight of links incident to one node (self-links once)."""
        self._require_type(node_type)
        self._check_index(node_type, node_id)
        return float(self.degree_vector(node_type)[node_id])

    def _require_type(self, node_type: str) -> None:
        if node_type not in self._names:
            raise DataError(f"unknown node type: {node_type!r}")

    def _check_index(self, node_type: str, node_id: int) -> None:
        if not 0 <= node_id < len(self._names[node_type]):
            raise DataError(
                f"{node_type} node id {node_id} out of range "
                f"(have {len(self._names[node_type])})")

    def __repr__(self) -> str:
        types = ", ".join(f"{t}:{len(names)}"
                          for t, names in sorted(self._names.items()))
        return (f"HeterogeneousNetwork({types}; links={self.num_links()}, "
                f"weight={self.total_weight():.1f})")
