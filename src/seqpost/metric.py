"""Min-over-K normalized edit-distance evaluation.

Each example is scored on three axes: verb ids, noun ids, and the full
(verb, noun) pair.  The per-example score is the minimum over the K
predicted patterns of edit_distance(pattern, truth) / len(truth); the
corpus score is the arithmetic mean over examples, per axis independently.

The default distance is the restricted Damerau-Levenshtein (insert, delete,
substitute, adjacent transposition, all cost 1); a flag drops the
transposition for plain Levenshtein.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from .refine import PredictionSet
from .vocab import ActionSequence


def edit_distance(a: Sequence, b: Sequence, allow_transposition: bool = True) -> int:
    """Dynamic-program edit distance over any equatable tokens."""
    la, lb = len(a), len(b)
    dist = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        dist[i][0] = i
    for j in range(1, lb + 1):
        dist[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            best = min(
                dist[i - 1][j] + 1,  # deletion
                dist[i][j - 1] + 1,  # insertion
                dist[i - 1][j - 1] + cost,  # substitution
            )
            if (
                allow_transposition
                and i > 1
                and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                best = min(best, dist[i - 2][j - 2] + 1)  # adjacent transposition
            dist[i][j] = best
    return dist[la][lb]


def project_axis(actions, axis: str) -> list:
    if axis == "verb":
        return [a.verb_id for a in actions]
    if axis == "noun":
        return [a.noun_id for a in actions]
    if axis == "action":
        return [(a.verb_id, a.noun_id) for a in actions]
    raise ValueError(f"unknown axis {axis!r}")


def ed_at_k(
    preds: PredictionSet,
    truth: ActionSequence,
    axis: str,
    allow_transposition: bool = True,
) -> float:
    """min over patterns of edit_distance / len(truth) on one axis."""
    z = len(truth.actions)
    for k, pattern in enumerate(preds.patterns):
        if len(pattern) != z:
            raise ValueError(
                f"example {preds.example_id!r}: pattern {k} has length "
                f"{len(pattern)}, truth has length {z}"
            )
    truth_tokens = project_axis(truth.actions, axis)
    return min(
        edit_distance(project_axis(pattern, axis), truth_tokens, allow_transposition) / z
        for pattern in preds.patterns
    )


@dataclass
class EvalReport:
    ed_verb: float
    ed_noun: float
    ed_action: float
    n_examples: int
    unmatched: int = 0
    per_example: Optional[list[dict]] = field(default=None)

    def to_json(self) -> str:
        obj = asdict(self)
        if self.per_example is None:
            del obj["per_example"]
        return json.dumps(obj)


def evaluate_corpus(
    pred_sets: list[PredictionSet],
    truths: list[ActionSequence],
    allow_transposition: bool = True,
    keep_per_example: bool = False,
) -> EvalReport:
    """Mean min-over-K normalized edit distance per axis over a corpus.

    Predictions whose example_id has no truth are counted as unmatched and
    excluded; zero matched examples is an error.
    """
    truth_by_id = {t.episode_id: t for t in truths}
    per_example: list[dict] = []
    sums = {"verb": 0.0, "noun": 0.0, "action": 0.0}
    unmatched = 0
    for preds in pred_sets:
        truth = truth_by_id.get(preds.example_id)
        if truth is None:
            unmatched += 1
            continue
        triple = {
            axis: ed_at_k(preds, truth, axis, allow_transposition)
            for axis in ("verb", "noun", "action")
        }
        for axis in sums:
            sums[axis] += triple[axis]
        per_example.append({"example_id": preds.example_id, **triple})
    if not per_example:
        raise ValueError("zero matched examples")
    n = len(per_example)
    return EvalReport(
        ed_verb=sums["verb"] / n,
        ed_noun=sums["noun"] / n,
        ed_action=sums["action"] / n,
        n_examples=n,
        unmatched=unmatched,
        per_example=per_example if keep_per_example else None,
    )
