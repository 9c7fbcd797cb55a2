"""Vocabularies, actions and action sequences shared by every module.

Class ids are dense array indices: id i is the i-th name in the vocabulary,
so ids line up with logit-array columns with no remapping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

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
    def from_json(cls, text: str) -> "Vocabulary":
        obj = json.loads(text)
        names = obj["names"]
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise ValueError("names must be a list of strings")
        return cls(kind=obj["kind"], names=tuple(names))


@dataclass(frozen=True)
class Action:
    verb_id: int
    noun_id: int


def parse_actions(pairs) -> tuple[Action, ...]:
    """``[[verb_id, noun_id], ...]`` as Actions; each id must be a JSON
    integer, so a bool, float or string raises ValueError."""
    actions = []
    for pair in pairs:
        if not (
            isinstance(pair, list) and len(pair) == 2
            and type(pair[0]) is int and type(pair[1]) is int
        ):
            raise ValueError(f"action {pair!r} is not a [verb_id, noun_id] pair of integers")
        actions.append(Action(pair[0], pair[1]))
    return tuple(actions)


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
        return json.dumps(
            {
                "episode_id": self.episode_id,
                "actions": [[a.verb_id, a.noun_id] for a in self.actions],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ActionSequence":
        return cls.from_obj(json.loads(text))

    @classmethod
    def from_obj(cls, obj: dict) -> "ActionSequence":
        return cls(
            episode_id=record_id(obj, "episode_id"),
            actions=parse_actions(obj["actions"]),
        )


@dataclass(frozen=True)
class Violation:
    position: int  # -1 for sequence-level problems
    axis: str  # "verb" | "noun" | "sequence"
    message: str


def validate_sequence(
    seq: ActionSequence, verb_vocab: Vocabulary, noun_vocab: Vocabulary
) -> list[Violation]:
    """Check every action id against its vocabulary.

    Returns an empty list when the sequence is valid; violations are data,
    not exceptions.
    """
    violations: list[Violation] = []
    if len(seq.actions) == 0:
        violations.append(Violation(-1, "sequence", "empty sequence"))
        return violations
    for pos, action in enumerate(seq.actions):
        if not (0 <= action.verb_id < len(verb_vocab)):
            violations.append(
                Violation(pos, "verb", f"verb_id {action.verb_id} out of range [0, {len(verb_vocab)})")
            )
        if not (0 <= action.noun_id < len(noun_vocab)):
            violations.append(
                Violation(pos, "noun", f"noun_id {action.noun_id} out of range [0, {len(noun_vocab)})")
            )
    return violations


def load_corpus(path: str) -> list[ActionSequence]:
    """Read a JSON Lines corpus file, one ActionSequence per line."""
    return load_records(path, ActionSequence.from_obj, "sequence")


def dump_corpus(corpus: Iterable[ActionSequence], path: str) -> None:
    with open(path, "w") as handle:
        for seq in corpus:
            handle.write(seq.to_json() + "\n")


def iter_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    """Yield (lineno, parsed object) for each non-empty line of a JSONL file.
    Each line is decoded on its own, so a non-UTF-8 byte names its own line."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                line = raw.decode().strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc


def iter_records(path: str, parse: Callable[[dict], T], kind: str) -> Iterator[T]:
    """``parse`` applied to each record of a JSONL file, one record at a time;
    a record it rejects raises ValueError naming ``path:lineno``."""
    for lineno, obj in iter_jsonl(path):
        try:
            record = parse(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad {kind} record: {exc}") from exc
        yield record


def load_records(path: str, parse: Callable[[dict], T], kind: str) -> list[T]:
    """Every record of ``iter_records`` in a list."""
    return list(iter_records(path, parse, kind))
