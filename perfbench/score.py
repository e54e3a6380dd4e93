"""Score a mined model against the generator's planted truth.

Everything is read back through a :class:`repro.serve.ModelQueryEngine`
over the artifact on disk, so what is scored is what would be served.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple


def nmi(labels_a: Sequence[Hashable], labels_b: Sequence[Hashable]) -> float:
    """Normalized mutual information, arithmetic-mean normalization."""
    n = len(labels_a)
    if n != len(labels_b) or n == 0:
        raise ValueError("nmi needs two non-empty labelings of equal length")
    joint = Counter(zip(labels_a, labels_b))
    count_a, count_b = Counter(labels_a), Counter(labels_b)

    def entropy(counts: Counter) -> float:
        return -sum(c / n * math.log(c / n) for c in counts.values())

    mutual = sum(c / n * math.log(c * n / (count_a[a] * count_b[b]))
                 for (a, b), c in joint.items())
    h_a, h_b = entropy(count_a), entropy(count_b)
    if h_a + h_b == 0:
        return 1.0
    return 2.0 * mutual / (h_a + h_b)


def leaf_topics(engine) -> List[str]:
    """Notations of the served hierarchy's leaves, depth-first."""
    leaves, stack = [], ["o"]
    while stack:
        notation = stack.pop()
        children = engine.topic(notation)["children"]
        if children:
            stack.extend(reversed(children))
        elif notation != "o":
            leaves.append(notation)
    return leaves


def author_leaves(engine, authors: Sequence[str], leaves: Sequence[str],
                  ) -> Dict[str, str]:
    """Each author's mined leaf: the one with the largest role share."""
    out = {}
    for name in authors:
        roles = engine.entity_roles(name, entity_type="author")
        freqs = roles["roles"]["author"]["frequencies"]
        best = max(leaves, key=lambda leaf: (freqs.get(leaf, 0.0), leaf))
        if freqs.get(best, 0.0) > 0:
            out[name] = best
    return out


def topic_nmi(engine, truth, authors: Sequence[str],
              ) -> Tuple[float, Dict[str, str]]:
    """NMI of planted vs mined leaves over ``authors`` (those in the
    corpus), plus the mined assignment."""
    planted = truth.entity_topics["author"]
    assignment = author_leaves(engine, sorted(authors), leaf_topics(engine))
    names = sorted(assignment)
    return (nmi([planted[n] for n in names],
                [assignment[n] for n in names]), assignment)


def phrase_precision(engine, truth, assignment: Mapping[str, str],
                     k: int = 10) -> float:
    """Share of each mined leaf's top-``k`` phrases that are generating
    phrases of its best-matching planted leaf.

    A mined leaf matches the planted leaf most of its authors come from.
    """
    planted = truth.entity_topics["author"]
    votes: Dict[str, Counter] = {}
    for name, leaf in assignment.items():
        votes.setdefault(leaf, Counter())[planted[name]] += 1
    hits = total = 0
    for leaf, counter in sorted(votes.items()):
        path = max(counter, key=lambda p: (counter[p], p))
        reference = set(truth.normalized_phrases(path))
        phrases = [p for p, _ in engine.topic(leaf, max_phrases=k)["phrases"]]
        hits += sum(1 for p in phrases if p in reference)
        total += len(phrases)
    return hits / total if total else 0.0


def advisor_accuracy(predictions: Mapping[str, Optional[str]],
                     authors: Sequence[str], truth) -> float:
    """TPFG advisee accuracy against the planted advising records of
    ``authors`` (those in the corpus)."""
    from repro.relations.metrics import evaluate_predictions

    reference: Dict[str, Optional[str]] = dict.fromkeys(authors)
    for record in truth.advising:
        if record.advisee in reference:
            reference[record.advisee] = record.advisor
    return evaluate_predictions(predictions, reference).advisee_accuracy
