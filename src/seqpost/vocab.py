"""Vocabularies, actions, action sequences and the JSON readers every module shares.

Class ids are dense array indices: id i is the i-th name in the vocabulary,
so ids line up with logit-array columns with no remapping.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

import numpy as np

T = TypeVar("T")


@dataclass(frozen=True)
class Vocabulary:
    """Dense id <-> name map for one class axis (verb or noun)."""

    kind: str  # "verb" | "noun"
    names: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in ("verb", "noun"):
            raise ValueError(f"vocabulary kind must be 'verb' or 'noun', got {self.kind!r}")
        if len(self.names) < 1:
            raise ValueError("vocabulary must contain at least one name")
        if len(set(self.names)) != len(self.names):
            raise ValueError("vocabulary names must be unique")
        object.__setattr__(self, "names", tuple(self.names))

    def __len__(self) -> int:
        return len(self.names)

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "names": list(self.names)})

    @classmethod
    def from_json(cls, text: str, kind: str) -> "Vocabulary":
        """The vocabulary in ``text``, which must be of kind ``kind``."""
        obj = json.loads(text)
        if obj["kind"] != kind:
            raise ValueError(f"kind is {obj['kind']!r}, expected {kind!r}")
        names = obj["names"]
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise ValueError("names must be a list of strings")
        return cls(kind=obj["kind"], names=tuple(names))


class Action(NamedTuple):
    """One step's class ids. A tuple, so files spell it ``[verb_id, noun_id]``
    and it hashes and compares as the pair ``(verb_id, noun_id)``."""

    verb_id: int
    noun_id: int


def parse_actions(pairs) -> tuple[Action, ...]:
    """``[[verb_id, noun_id], ...]`` as Actions; it must be a JSON list and
    each id a JSON integer, so a bool, float or string raises ValueError."""
    if not isinstance(pairs, list):
        raise ValueError(f"actions {pairs!r} are not a list of [verb_id, noun_id] pairs")
    actions = []
    for pair in pairs:
        if not (
            isinstance(pair, list) and len(pair) == 2
            and type(pair[0]) is int and type(pair[1]) is int
        ):
            raise ValueError(f"action {pair!r} is not a [verb_id, noun_id] pair of integers")
        actions.append(Action(pair[0], pair[1]))
    return tuple(actions)


def json_numbers(obj: dict, key: str) -> np.ndarray:
    """``obj[key]`` as a float64 array of JSON numbers. The array is first
    built without a dtype, so a string (``"1.5"``), a null, a boolean or an
    integer literal too large for 64 bits is refused rather than converted."""
    raw = obj[key]
    values = np.array(raw)
    if values.dtype.kind not in "fi":
        raise ValueError(f"{key} must be JSON numbers")
    # numpy reads true and false among numbers as 1 and 0, so an array with a 0 or a 1 has
    # the types of its entries scanned in C; being regular, it has them all ndim lists deep
    entries = [raw]
    for _ in range(values.ndim):
        entries = itertools.chain.from_iterable(entries)  # lazy: nothing is read here
    if ((values == 0) | (values == 1)).any() and bool in set(map(type, entries)):
        raise ValueError(f"{key} must be JSON numbers")
    return values.astype(np.float64, copy=False)


def record_id(obj: dict, key: str) -> str:
    """``obj[key]``, which must be a JSON string: a numeric id such as ``7``
    would never match the same id spelled ``"7"`` in another file."""
    value = obj[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} {value!r} is not a string")
    return value


@dataclass(frozen=True)
class ActionSequence:
    episode_id: str
    actions: tuple[Action, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))

    def __len__(self) -> int:
        return len(self.actions)

    def to_json(self) -> str:
        return json.dumps({"episode_id": self.episode_id, "actions": self.actions})

    @classmethod
    def from_obj(cls, obj: dict) -> "ActionSequence":
        return cls(
            episode_id=record_id(obj, "episode_id"),
            actions=parse_actions(obj["actions"]),
        )


def validate_sequence(seq: ActionSequence, c_verb: int, c_noun: int) -> None:
    """Raise ValueError at the first fault of ``seq``: an empty sequence, or a
    class id outside [0, C) of its axis, in step order and verb before noun."""
    if not seq.actions:
        raise ValueError(f"episode {seq.episode_id!r}: empty sequence")
    for action in seq.actions:
        for axis, class_id, classes in (
            ("verb", action.verb_id, c_verb), ("noun", action.noun_id, c_noun)
        ):
            if not 0 <= class_id < classes:
                raise ValueError(f"episode {seq.episode_id!r}: {axis}_id {class_id} "
                                 f"out of range [0, {classes})")


def load_corpus(path: str) -> list[ActionSequence]:
    """Read a JSON Lines corpus file, one ActionSequence per line."""
    return list(iter_records(path, ActionSequence.from_obj, "sequence"))


def dump_corpus(corpus: Iterable[ActionSequence], path: str) -> None:
    with open(path, "w") as handle:
        for seq in corpus:
            handle.write(seq.to_json() + "\n")


def iter_numbered_records(path: str, parse: Callable[[dict], T], kind: str) -> Iterator[tuple[int, T]]:
    """(lineno, ``parse`` of the record) for each non-empty line of a JSONL file; a fault names
    ``path:lineno``. Each form of a line is dropped once the next is made, so only the record is
    held while the caller has it. ``enumerate``'s reused tuple would keep the last line's bytes."""
    with open(path, "rb") as handle:
        lineno = 0
        for raw in handle:
            lineno += 1
            try:
                line = raw.decode().strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            del raw
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            del line
            try:
                record = parse(obj)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad {kind} record: {exc}") from exc
            del obj
            yield lineno, record


def iter_records(path: str, parse: Callable[[dict], T], kind: str) -> Iterator[T]:
    """The records of :func:`iter_numbered_records`, without their line numbers."""
    return (record for _, record in iter_numbered_records(path, parse, kind))
