"""Read-optimized query engine over a loaded model artifact.

:class:`ModelQueryEngine` answers the paper's end-user queries — browse
the topic tree (§3), ranked topical phrases (§4), entity topical roles
(§5) — from read-optimized indexes, behind an LRU result cache whose
hit / miss counts are kept locally (always, for the ``/metrics``
endpoint) and mirrored into the :mod:`repro.obs` metrics registry (when
enabled) as ``serve.cache.hits`` / ``serve.cache.misses``.

The engine has one backend: the v2 blob (:mod:`repro.serve.artifact_v2`).
A loaded v2 artifact (:class:`~repro.serve.artifact_v2.MappedModel`) is
served as mapped: the topic skeleton and string tables come from the
artifact header and the numeric data stays in the memory-mapped
sections, so construction touches none of the topic-word matrices and
engine cold start is ~O(mmap).  A v1 :class:`~repro.serve.ServedModel`
and an in-memory :class:`~repro.core.MiningResult` are first packed into
the bytes the v2 writer would save, and those bytes are served from
memory — so disk, memory and HTTP answer every query byte-identically
by construction, the round-trip invariant the serve test suite
property-checks.

**Sharded phrase search**: with ``phrase_shards=N`` the phrase index is
hash-partitioned (CRC32 of the phrase, stable across processes) into N
sorted sub-lists.  :meth:`search_phrases` fans out across the shards
and merges the per-shard top-k by ``(-best score, phrase)``; each
shard's scan is wrapped in a ``serve.search.shard`` span and timed into
``serve.search.shard.<i>.latency``, so per-shard latency attribution
flows through :mod:`repro.obs` like every other phase.  Shard results
merge to exactly the unsharded answer.  The per-shard entry points
(:meth:`search_shard` / :meth:`merge_shard_matches`) are public so the
asyncio server can run the fan-out concurrently.

All answers are plain JSON data.
"""

from __future__ import annotations

import threading
import time
import zlib
from bisect import bisect_left
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, DataError
from ..obs import get_logger, inc, observe, span, timed
from .artifact import ServedModel, parts_of_result
from .artifact_v2 import MappedModel, _row, pack_model

__all__ = ["ModelQueryEngine"]

#: Query operations exposed through :meth:`ModelQueryEngine.batch`.
_BATCH_OPS = ("model_info", "topic", "children", "top_phrases",
              "search_phrases", "entity_roles")

_SEARCH_MODES = ("prefix", "substring")

logger = get_logger("serve.engine")


def _shard_of(phrase: str, shards: int) -> int:
    """Stable shard assignment (CRC32, identical in every process)."""
    return zlib.crc32(phrase.encode("utf-8")) % shards


def _size(name: str, value: Any) -> int:
    """A request's size argument, negatives clamped to 0.

    Sizes arrive from JSON batch bodies as well as from code, so a
    float, string, ``null`` or boolean gets a typed error naming the
    parameter here instead of failing deep inside a slice or a sort.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"{name} must be an integer, got {value!r}")
    return max(value, 0)


def _top_entries(ids: np.ndarray, values: np.ndarray,
                 k: int) -> np.ndarray:
    """Positions of a row's ``k`` best entries, best first.

    The answer equals the first ``k`` positions of a full sort by
    ``(-value, id)``, but only entries at or above the k-th largest
    value are sorted: ``np.partition`` finds that cut in linear time
    and keeps every entry tied at it, so the id tie-break stays exact.
    """
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    negated = -values
    if k < len(values):
        cut = np.partition(negated, k - 1)[k - 1]
        kept = np.flatnonzero(negated <= cut)
    else:
        kept = np.arange(len(values))
    order = np.lexsort((ids[kept], negated[kept]))
    return kept[order[:k]]


class ModelQueryEngine:
    """Cached queries over one served model.

    Args:
        model: the artifact to serve — a :class:`ServedModel` (a v1
            document, packed into a v2 blob in memory) or a
            :class:`~repro.serve.artifact_v2.MappedModel` (v2, served
            as it is).
        cache_size: LRU result-cache capacity (0 disables caching).
        phrase_shards: number of hash shards for the phrase index
            (1 = unsharded; answers are identical for every value).
    """

    def __init__(self, model, cache_size: int = 1024,
                 phrase_shards: int = 1) -> None:
        if cache_size < 0:
            raise ConfigurationError("cache_size must be >= 0")
        if phrase_shards < 1:
            raise ConfigurationError("phrase_shards must be >= 1")
        if isinstance(model, ServedModel):
            self._mapped = pack_model(model.parts())[1]
        elif isinstance(model, MappedModel):
            self._mapped = model
        else:
            raise ConfigurationError(
                f"model must be a ServedModel or MappedModel, "
                f"got {type(model).__name__}")
        self.model = model
        self._cache_capacity = cache_size
        self._cache: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._cache_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        with timed("serve.index_build"):
            strings = self._mapped.strings
            self._topics: List[Dict[str, Any]] = strings["topics"]
            self._index = {meta["notation"]: i
                           for i, meta in enumerate(self._topics)}
            self._phrase_list: List[str] = strings["phrases"]
            self._entities: Dict[str, List[str]] = strings["entities"]
            self._role_keys: List[str] = strings["role_keys"]
            self._phi_names: Dict[str, List[str]] = strings.get(
                "phi_names", {})
            self._rank_names: Dict[str, List[str]] = strings.get(
                "rank_names", {})
            self._meta = {meta["notation"]: {
                "path": meta["path"],
                "rho": meta["rho"],
                "parent": (None if meta["parent"] is None
                           else self._topics[meta["parent"]]["notation"]),
                "children": [self._topics[c]["notation"]
                             for c in meta["children"]],
            } for meta in self._topics}
            self._build_shards(phrase_shards)

    @classmethod
    def from_result(cls, result, config: Optional[Dict[str, Any]] = None,
                    cache_size: int = 1024,
                    phrase_shards: int = 1) -> "ModelQueryEngine":
        """An engine over a fitted result, without touching the disk: it
        serves, from memory, the bytes ``save_model(format="v2")`` would
        write."""
        _, mapped = pack_model(parts_of_result(result, config))
        return cls(mapped, cache_size=cache_size,
                   phrase_shards=phrase_shards)

    # -------------------------------------------------------------- indexes
    def _build_shards(self, phrase_shards: int) -> None:
        phrase_list = self._phrase_list
        self.num_shards = phrase_shards
        if phrase_shards == 1:
            self._shards = [phrase_list]
        else:
            shards: List[List[str]] = [[] for _ in range(phrase_shards)]
            for phrase in phrase_list:  # sorted input -> sorted shards
                shards[_shard_of(phrase, phrase_shards)].append(phrase)
            self._shards = shards

    # ----------------------------------------------------------- rows
    def _phrases(self, notation: str, limit: int) -> List[List[Any]]:
        ids, scores = _row(self._mapped, "phrases", self._index[notation],
                           "scores")
        table = self._phrase_list
        return [[table[int(i)], float(s)]
                for i, s in zip(ids[:limit], scores[:limit])]

    def _num_phrases(self, notation: str) -> int:
        return len(_row(self._mapped, "phrases", self._index[notation],
                        "scores")[0])

    def _top_terms(self, notation: str, limit: int) -> List[List[Any]]:
        index = self._index[notation]
        if "term" not in self._topics[index]["phi_types"]:
            return []
        names = self._phi_names["term"]
        ids, values = _row(self._mapped, "phi.term", index)
        return [[names[int(ids[i])], float(values[i])]
                for i in _top_entries(ids, values, limit)]

    def _entity_ranks(self, notation: str,
                      limit: int) -> Dict[str, List[List[Any]]]:
        index = self._index[notation]
        ranks: Dict[str, List[List[Any]]] = {}
        for etype in self._topics[index]["rank_types"]:
            names = self._rank_names[etype]
            ids, scores = _row(self._mapped, f"entity_ranks.{etype}",
                               index, "scores")
            ranks[etype] = [[names[int(i)], float(s)]
                            for i, s in zip(ids[:limit], scores[:limit])]
        return ranks

    def _inverted(self, phrase: str) -> Tuple[np.ndarray, np.ndarray]:
        index = bisect_left(self._phrase_list, phrase)
        if index >= len(self._phrase_list) \
                or self._phrase_list[index] != phrase:
            raise DataError(f"no phrase {phrase!r} in model")
        return _row(self._mapped, "inverted", index, "scores")

    def _phrase_topics(self, phrase: str) -> List[List[Any]]:
        ids, scores = self._inverted(phrase)
        return [[self._topics[int(i)]["notation"], float(s)]
                for i, s in zip(ids, scores)]

    def _role_types(self) -> List[str]:
        return sorted(self._entities)

    def _frequencies(self, entity_type: str,
                     name: str) -> Optional[Dict[str, float]]:
        names = self._entities[entity_type]
        index = bisect_left(names, name)
        if index >= len(names) or names[index] != name:
            return None
        ids, values = _row(self._mapped, f"roles.{entity_type}", index)
        table = self._role_keys
        return {table[int(i)]: float(v) for i, v in zip(ids, values)}

    # -------------------------------------------------------------- caching
    def cache_get(self, key: Tuple) -> Tuple[bool, Any]:
        """``(True, value)`` on a cache hit for ``key``, else
        ``(False, None)`` — counting the hit, never the miss (the miss
        is counted when the computed value is stored).

        Public so an async frontend can wrap its own fan-out in the
        same cache: peek with ``cache_get``, compute concurrently,
        store with :meth:`cache_put`.
        """
        if self._cache_capacity == 0:
            return False, None
        with self._cache_lock:
            if key in self._cache:
                self._cache.move_to_end(key)
                self._hits += 1
                inc("serve.cache.hits")
                return True, self._cache[key]
        return False, None

    def cache_put(self, key: Tuple, value: Any) -> Any:
        """Store a freshly computed ``value`` (counts the miss)."""
        if self._cache_capacity == 0:
            return value
        with self._cache_lock:
            self._misses += 1
            inc("serve.cache.misses")
            self._cache[key] = value
            self._cache.move_to_end(key)
            while len(self._cache) > self._cache_capacity:
                self._cache.popitem(last=False)
        return value

    def _cached(self, key: Tuple, compute) -> Any:
        hit, value = self.cache_get(key)
        if hit:
            return value
        return self.cache_put(key, compute())

    def cache_info(self) -> Dict[str, int]:
        """Hit / miss / occupancy counters of the LRU result cache."""
        with self._cache_lock:
            return {"hits": self._hits, "misses": self._misses,
                    "size": len(self._cache),
                    "capacity": self._cache_capacity}

    @property
    def artifact_format(self) -> str:
        """``"v1"`` for an engine built from a v1 document, else
        ``"v2"``."""
        return "v1" if isinstance(self.model, ServedModel) else "v2"

    def close(self) -> None:
        """Release the served blob (unmap a v2 artifact file).

        Idempotent; called by the servers once a hot-swapped-out engine
        has drained its last in-flight request.
        """
        self._mapped.close()

    # -------------------------------------------------------------- queries
    def _meta_of(self, topic_id: str) -> Dict[str, Any]:
        meta = self._meta.get(topic_id)
        if meta is None:
            raise DataError(f"no topic with id {topic_id!r}")
        return meta

    def model_info(self) -> Dict[str, Any]:
        """Manifest plus provenance and tree-shape statistics."""
        return self._cached(("model_info",), self._compute_model_info)

    def _compute_model_info(self) -> Dict[str, Any]:
        depths = [len(m["path"]) for m in self._meta.values()]
        manifest = self.model.manifest
        return {
            "manifest": manifest,
            "repro_version": manifest.get("repro_version"),
            "artifact_format": self.artifact_format,
            "config_fingerprint": manifest.get("config"),
            "model_version": int(manifest.get("model_version", 0)),
            "stats": {
                "num_topics": len(self._meta),
                "height": max(depths) if depths else 0,
                "width": max((len(m["children"])
                              for m in self._meta.values()), default=0),
                "num_phrases": len(self._phrase_list),
                "entity_types": self._role_types(),
                "num_entities": {etype: len(self._entities[etype])
                                 for etype in self._role_types()},
            },
        }

    def topic(self, topic_id: str, max_phrases: int = 10,
              max_entities: int = 5, max_terms: int = 10) -> Dict[str, Any]:
        """Full detail of one topic node."""
        max_phrases = _size("max_phrases", max_phrases)
        max_entities = _size("max_entities", max_entities)
        max_terms = _size("max_terms", max_terms)
        key = ("topic", topic_id, max_phrases, max_entities, max_terms)
        return self._cached(key, lambda: self._compute_topic(
            topic_id, max_phrases, max_entities, max_terms))

    def _compute_topic(self, topic_id: str, max_phrases: int,
                       max_entities: int, max_terms: int) -> Dict[str, Any]:
        meta = self._meta_of(topic_id)
        return {
            "topic": topic_id,
            "level": len(meta["path"]),
            "rho": meta["rho"],
            "parent": meta["parent"],
            "children": meta["children"],
            "phrases": self._phrases(topic_id, max_phrases),
            "num_phrases": self._num_phrases(topic_id),
            "top_terms": self._top_terms(topic_id, max_terms),
            "entity_ranks": self._entity_ranks(topic_id, max_entities),
        }

    def children(self, topic_id: str) -> Dict[str, Any]:
        """One-line summaries of a topic's direct subtopics."""
        return self._cached(("children", topic_id),
                            lambda: self._compute_children(topic_id))

    def _compute_children(self, topic_id: str) -> Dict[str, Any]:
        meta = self._meta_of(topic_id)
        summaries = []
        for child in meta["children"]:
            summaries.append({"topic": child,
                              "rho": self._meta[child]["rho"],
                              "label": self._label(child)})
        return {"topic": topic_id, "children": summaries}

    def _label(self, topic_id: str) -> str:
        """The best phrase, else the top term, else ``""``."""
        best = (self._phrases(topic_id, 1)
                or self._top_terms(topic_id, 1))
        return best[0][0] if best else ""

    def top_phrases(self, topic_id: str, k: int = 10) -> Dict[str, Any]:
        """The ``k`` best ranked phrases of one topic."""
        k = _size("k", k)
        return self._cached(("top_phrases", topic_id, k),
                            lambda: self._compute_top_phrases(topic_id, k))

    def _compute_top_phrases(self, topic_id: str, k: int) -> Dict[str, Any]:
        self._meta_of(topic_id)
        return {"topic": topic_id,
                "phrases": self._phrases(topic_id, k)}

    # --------------------------------------------------------------- search
    def search_phrases(self, query: str, mode: str = "prefix",
                       limit: int = 10) -> Dict[str, Any]:
        """Phrases matching ``query``, each with its ranked topics.

        ``mode="prefix"`` binary-searches the sorted phrase list(s);
        ``mode="substring"`` scans.  With ``phrase_shards > 1`` the
        search fans out across the hash shards and merges — matches are
        ordered by their best topic score, then alphabetically, exactly
        as in the unsharded case.
        """
        if mode not in _SEARCH_MODES:
            raise ConfigurationError(
                f"unsupported search mode {mode!r} (one of {_SEARCH_MODES})")
        limit = _size("limit", limit)
        key = ("search_phrases", query, mode, limit)
        return self._cached(key, lambda: self._compute_search(
            query, mode, limit))

    def _compute_search(self, query: str, mode: str,
                        limit: int) -> Dict[str, Any]:
        match_lists = [self.search_shard(index, query, mode)
                       for index in range(self.num_shards)]
        return self.merge_shard_matches(match_lists, query, mode, limit)

    def search_shard(self, shard: int, query: str,
                     mode: str) -> List[str]:
        """Matching phrases from one hash shard (span- and metric-timed).

        Public so an async front can run the per-shard scans
        concurrently; ``merge_shard_matches`` folds the results back
        into the canonical answer.
        """
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"shard {shard} out of range (engine has "
                f"{self.num_shards})")
        start_s = time.perf_counter()
        with span("serve.search.shard", shard=shard, mode=mode):
            phrases = self._shards[shard]
            if mode == "prefix":
                start = bisect_left(phrases, query)
                matches = []
                for phrase in phrases[start:]:
                    if not phrase.startswith(query):
                        break
                    matches.append(phrase)
            else:
                matches = [p for p in phrases if query in p]
        observe(f"serve.search.shard.{shard}.latency",
                time.perf_counter() - start_s)
        inc(f"serve.search.shard.{shard}.queries")
        return matches

    def merge_shard_matches(self, match_lists: List[List[str]],
                            query: str, mode: str,
                            limit: int) -> Dict[str, Any]:
        """Fold per-shard match lists into the canonical search answer."""
        limit = max(limit, 0)
        matches = [phrase for shard_matches in match_lists
                   for phrase in shard_matches]
        matches.sort(
            key=lambda p: (-float(self._inverted(p)[1][0]), p))
        return {
            "query": query,
            "mode": mode,
            "num_matches": len(matches),
            "matches": [{"phrase": phrase,
                         "topics": self._phrase_topics(phrase)}
                        for phrase in matches[:limit]],
        }

    # -------------------------------------------------------------- entities
    def entity_roles(self, name: str, entity_type: Optional[str] = None,
                     topic: str = "o") -> Dict[str, Any]:
        """An entity's topical roles: frequencies plus the normalized
        distribution over ``topic``'s children (Eq. 5.3–5.6 read path).
        """
        key = ("entity_roles", name, entity_type, topic)
        return self._cached(key, lambda: self._compute_entity_roles(
            name, entity_type, topic))

    def _compute_entity_roles(self, name: str, entity_type: Optional[str],
                              topic: str) -> Dict[str, Any]:
        meta = self._meta_of(topic)
        if entity_type is not None:
            if entity_type not in self._entities:
                raise DataError(f"no entity type {entity_type!r} in model")
            types = [entity_type]
        else:
            types = self._role_types()
        roles = {}
        for etype in types:
            frequencies = self._frequencies(etype, name)
            if frequencies is None:
                continue
            shares = {child: frequencies.get(child, 0.0)
                      for child in meta["children"]}
            total = sum(shares.values())
            distribution = ({c: v / total for c, v in shares.items()}
                            if total > 0 else {c: 0.0 for c in shares})
            roles[etype] = {
                "total": frequencies.get("o", 0.0),
                "frequencies": frequencies,
                "distribution": distribution,
            }
        if not roles:
            raise DataError(f"no entity named {name!r} in model"
                            + (f" under type {entity_type!r}"
                               if entity_type else ""))
        return {"entity": name, "topic": topic, "roles": roles}

    # ---------------------------------------------------------------- batch
    def batch_op(self, request: Any) -> Dict[str, Any]:
        """Execute one batch entry, never letting its failure escape.

        Every malformed entry — a non-object request, an unknown
        ``op``, a non-object ``args`` — and every per-op exception maps
        to an in-band error record, so one bad entry can never turn the
        whole batch into a 500.
        """
        if not isinstance(request, dict):
            return {"ok": False, "status": 400,
                    "error": f"batch entry must be an object, got: "
                             f"{request!r}"}
        op = request.get("op")
        if op not in _BATCH_OPS:
            return {"ok": False, "status": 400,
                    "error": f"unsupported batch op: {op!r}"}
        args = request.get("args")
        if args is None:
            args = {}
        if not isinstance(args, dict) \
                or not all(isinstance(key, str) for key in args):
            return {"ok": False, "status": 400,
                    "error": f"batch op {op!r} args must be an object "
                             f"with string keys, got: {args!r}"}
        try:
            result = getattr(self, op)(**args)
        except DataError as exc:
            return {"ok": False, "status": 404, "error": str(exc)}
        except (ConfigurationError, TypeError, ValueError) as exc:
            return {"ok": False, "status": 400, "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - in-band per-op error
            logger.error("batch op %r failed unexpectedly: %r", op, exc)
            return {"ok": False, "status": 500,
                    "error": f"internal error in batch op {op!r}: "
                             f"{exc!r}"}
        return {"ok": True, "result": result}

    def batch(self, requests: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Execute many queries in one call.

        Each request is ``{"op": <name>, "args": {...}}``; per-request
        failures are reported in-band, in order, so one bad entry keeps
        neither valid results nor their ordering from the client.
        """
        if not isinstance(requests, list):
            raise ConfigurationError("batch payload must be an array")
        return {"results": [self.batch_op(request)
                            for request in requests]}
