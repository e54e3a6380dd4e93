"""Persistence for synthetic datasets (JSON).

Saving a generated dataset pins the exact corpus and ground truth used
by an experiment, so results can be regenerated without re-running the
generator (or compared across library versions).
"""

from __future__ import annotations

import json
import os
from typing import Optional

from ..corpus import Corpus
from ..errors import DataError
from ..resilience import atomic_write_json
from .ground_truth import AdvisingRecord, GroundTruth, SyntheticDataset
from .vocabularies import TopicSpec

FORMAT_VERSION = 1


def _spec_to_dict(spec: TopicSpec) -> dict:
    return {
        "name": spec.name,
        "phrases": list(spec.phrases),
        "unigrams": list(spec.unigrams),
        "children": [_spec_to_dict(child) for child in spec.children],
    }


def _spec_from_dict(data: dict) -> TopicSpec:
    return TopicSpec(
        name=data["name"],
        phrases=list(data["phrases"]),
        unigrams=list(data["unigrams"]),
        children=[_spec_from_dict(child) for child in data["children"]])


def dataset_to_dict(dataset: SyntheticDataset) -> dict:
    """Serialize a dataset (corpus + ground truth) to plain data.

    ``repro_version`` records the library that generated the file (for
    traceability); :func:`dataset_from_dict` ignores it, so datasets
    written by any 1.x version stay mutually loadable.
    """
    from .. import get_version

    corpus = dataset.corpus
    truth = dataset.ground_truth
    return {
        "version": FORMAT_VERSION,
        "repro_version": get_version(),
        "name": dataset.name,
        "vocabulary": list(corpus.vocabulary),
        "documents": [
            {
                "chunks": [list(chunk) for chunk in doc.chunks],
                "entities": {k: list(v) for k, v in doc.entities.items()},
                "year": doc.year,
                "label": doc.label,
            }
            for doc in corpus
        ],
        "ground_truth": {
            "hierarchy": _spec_to_dict(truth.hierarchy),
            "doc_topic_paths": [list(p) for p in truth.doc_topic_paths],
            "entity_topics": {
                etype: {name: list(path) for name, path in mapping.items()}
                for etype, mapping in truth.entity_topics.items()
            },
            "advising": [
                {"advisee": r.advisee, "advisor": r.advisor,
                 "start": r.start, "end": r.end}
                for r in truth.advising
            ],
        },
    }


def dataset_from_dict(data: dict) -> SyntheticDataset:
    """Deserialize a dataset written by :func:`dataset_to_dict`."""
    if data.get("version") != FORMAT_VERSION:
        raise DataError(f"unsupported dataset format version: "
                        f"{data.get('version')!r}")
    from ..corpus import Vocabulary

    records = data["documents"]
    corpus = Corpus.from_chunks(
        [record["chunks"] for record in records],
        Vocabulary(data["vocabulary"]),
        entities=[record.get("entities") for record in records],
        years=[record.get("year") for record in records],
        labels=[record.get("label") for record in records])

    truth_data = data["ground_truth"]
    truth = GroundTruth(
        hierarchy=_spec_from_dict(truth_data["hierarchy"]),
        doc_topic_paths=[tuple(p)
                         for p in truth_data["doc_topic_paths"]],
        entity_topics={
            etype: {name: tuple(path) for name, path in mapping.items()}
            for etype, mapping in truth_data["entity_topics"].items()
        },
        advising=[AdvisingRecord(**record)
                  for record in truth_data["advising"]])
    return SyntheticDataset(name=data["name"], corpus=corpus,
                            ground_truth=truth)


def save_dataset(dataset: SyntheticDataset, path: str,
                 indent: Optional[int] = None) -> None:
    """Write a dataset to a JSON file.

    The write is atomic (temp file + rename): a crash mid-write leaves
    any existing file at ``path`` untouched instead of truncated.

    Raises:
        DataError: when ``path`` is a streaming shard directory
            (``repro.stream.ShardStore``) — a one-shot dataset file
            must not clobber an append-only log; append a batch with
            ``repro ingest`` instead.
    """
    if os.path.isdir(path):
        from ..stream.shards import is_shard_dir

        if is_shard_dir(path):
            raise DataError(
                f"{path} is a streaming shard store; refusing to "
                f"overwrite it with a one-shot dataset file (use "
                f"'repro ingest --shard-dir {path}' to append to the "
                f"stream instead)")
        raise DataError(f"{path} is a directory, not a dataset file")
    atomic_write_json(path, dataset_to_dict(dataset), indent=indent)


def load_dataset(path: str) -> SyntheticDataset:
    """Read a dataset from a JSON file written by :func:`save_dataset`.

    Raises:
        DataError: when the file is not valid JSON or not a dataset.
        OSError: when the file cannot be read.
    """
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError(f"{path} does not contain a dataset object")
    try:
        return dataset_from_dict(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise DataError(
            f"{path} is not a valid dataset file: {exc!r}") from exc
