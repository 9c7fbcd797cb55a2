"""Min-over-K normalized edit-distance evaluation.

Each example is scored on three axes: verb ids, noun ids, and the full
(verb, noun) pair.  The per-example score is the minimum over the K
predicted patterns of edit_distance(pattern, truth) / len(truth); the
corpus score is the arithmetic mean over examples, per axis independently.

The default distance is the restricted Damerau-Levenshtein (insert, delete,
substitute, adjacent transposition, all cost 1); a flag drops the
transposition for plain Levenshtein.  Both are computed by Hyyro's
bit-parallel algorithm with Python ints as bit vectors, so sequences of any
length work; tokens must be hashable (ints, (verb, noun) tuples, strings).
``tests/oracles.recursive_edit_distance`` is the scalar reference.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .refine import PredictionSet
from .vocab import Action, ActionSequence


def edit_distance(a: Sequence, b: Sequence, allow_transposition: bool = True) -> int:
    """Edit distance over hashable tokens, by Hyyro's bit-parallel algorithm.

    Column j of the DP table is kept as two bit vectors (Python ints, so any
    length of ``a`` fits): bit i of ``vp``/``vn`` is set when
    D[i+1][j] - D[i][j] is +1/-1.  Each token of ``b`` updates the whole
    column with a fixed number of integer operations; the bottom cell is
    len(b) plus the last column's deltas.  Myers (1999) for Levenshtein; the
    transposition term is Hyyro (2003), "A bit-vector algorithm for computing
    Levenshtein and Damerau edit distances".
    """
    peq: dict = {}  # token -> bit mask of its positions in a
    bit = 1
    for token in a:
        peq[token] = peq.get(token, 0) | bit
        bit <<= 1
    mask = bit - 1
    vp, vn = mask, 0
    d0 = pm_prev = 0  # pm_prev stays 0 when transpositions are off
    for token in b:
        pm = peq.get(token, 0)
        # the transposition term reads the previous column's d0 and pm
        d0 = (((pm & vp) + vp) ^ vp) | pm | vn | (((~d0 & pm) << 1) & pm_prev)
        hp = ((vn | ~(d0 | vp)) << 1) | 1  # row 0 of the table grows by one per column
        hn = (vp & d0) << 1
        vp = (hn | ~(d0 | hp)) & mask
        vn = hp & d0 & mask
        if allow_transposition:
            pm_prev = pm
    return len(b) + vp.bit_count() - vn.bit_count()


def project_axis(actions: Sequence[Action], axis: str) -> Sequence:
    """The tokens of one axis: the verb ids, the noun ids, or for ``action``
    the Actions themselves, which hash and compare as (verb_id, noun_id)."""
    if axis == "verb":
        return [a.verb_id for a in actions]
    if axis == "noun":
        return [a.noun_id for a in actions]
    if axis == "action":
        return actions
    raise ValueError(f"unknown axis {axis!r}")


def min_normalized_ed(patterns: Iterable[Sequence], truth: Sequence,
                      allow_transposition: bool = True) -> float:
    """min over ``patterns`` of edit_distance(pattern, truth) / len(truth), for
    the tokens of one axis; ``truth`` must not be empty."""
    z = len(truth)
    return min(edit_distance(pattern, truth, allow_transposition) / z for pattern in patterns)


def _check_lengths(preds: PredictionSet, truth: ActionSequence) -> None:
    z = len(truth.actions)
    for k, pattern in enumerate(preds.patterns):
        if len(pattern) != z:
            raise ValueError(f"example {preds.example_id!r}: pattern {k} has length {len(pattern)}, "
                             f"truth has length {z}")


def ed_at_k(
    preds: PredictionSet,
    truth: ActionSequence,
    axis: str,
    allow_transposition: bool = True,
) -> float:
    """min over patterns of edit_distance / len(truth) on one axis; ``truth``
    must have at least one action."""
    _check_lengths(preds, truth)
    return min_normalized_ed((project_axis(pattern, axis) for pattern in preds.patterns),
                             project_axis(truth.actions, axis), allow_transposition)


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


def index_truths(truths: Iterable[ActionSequence]) -> dict[str, ActionSequence]:
    """Each truth by its episode id; an id given twice, or a truth with no
    actions, is a ValueError."""
    truth_by_id: dict = {}
    for truth in truths:
        if truth.episode_id in truth_by_id:
            raise ValueError(f"duplicate example_id {truth.episode_id!r} in the truth")
        if not truth.actions:
            raise ValueError(f"example {truth.episode_id!r}: truth has no actions")
        truth_by_id[truth.episode_id] = truth
    return truth_by_id


def match_truths(
    pred_sets: Iterable[PredictionSet], truth_by_id: dict[str, ActionSequence]
) -> Iterator[tuple[PredictionSet, Optional[ActionSequence]]]:
    """Each prediction set in order, with the truth of its example_id or None.
    An example_id repeated in the predictions, or a matched pattern whose
    length is not its truth's, is an error as it is read; zero matched examples
    and a truth with no prediction (so leaving out a hard example cannot lower
    the score) are errors after the last prediction."""
    seen: set = set()
    for preds in pred_sets:
        if preds.example_id in seen:
            raise ValueError(f"duplicate example_id {preds.example_id!r} in the predictions")
        seen.add(preds.example_id)
        truth = truth_by_id.get(preds.example_id)
        if truth is not None:
            _check_lengths(preds, truth)
        yield preds, truth
    if seen.isdisjoint(truth_by_id):
        raise ValueError("zero matched examples")
    missing = [truth_id for truth_id in truth_by_id if truth_id not in seen]
    if missing:
        raise ValueError(f"{len(missing)} of {len(truth_by_id)} truth examples have no prediction "
                         f"(first {missing[0]!r})")


def evaluate_corpus(
    pred_sets: list[PredictionSet],
    truths: list[ActionSequence],
    allow_transposition: bool = True,
    keep_per_example: bool = False,
) -> EvalReport:
    """Mean min-over-K normalized edit distance per axis over a corpus.

    Predictions whose example_id has no truth are counted as unmatched and
    excluded. The truths are checked before the first prediction is read, so
    a fault ``match_truths`` finds in a prediction is that prediction's.
    """
    per_example: list[dict] = []
    sums = {"verb": 0.0, "noun": 0.0, "action": 0.0}
    unmatched = 0
    for preds, truth in match_truths(pred_sets, index_truths(truths)):
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
    n = len(per_example)
    return EvalReport(
        ed_verb=sums["verb"] / n,
        ed_noun=sums["noun"] / n,
        ed_action=sums["action"] / n,
        n_examples=n,
        unmatched=unmatched,
        per_example=per_example if keep_per_example else None,
    )
