"""Weighted combination of two models' logits and conversion to distributions.

Two models sharing the same vocabularies are combined in logit space by a
weighted sum, then a single numerically-stable softmax turns each per-step
row into a probability distribution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .vocab import iter_records, record_id


@dataclass(frozen=True)
class LogitsTensor:
    example_id: str
    verb_logits: np.ndarray  # (Z, C_verb)
    noun_logits: np.ndarray  # (Z, C_noun)

    def __post_init__(self):
        vl = np.asarray(self.verb_logits, dtype=np.float64)
        nl = np.asarray(self.noun_logits, dtype=np.float64)
        if vl.ndim != 2 or nl.ndim != 2:
            raise ValueError("logits must be 2-D (steps x classes)")
        if vl.shape[0] != nl.shape[0]:
            raise ValueError(
                f"verb and noun logits disagree on step count: {vl.shape} vs {nl.shape}"
            )
        if not (np.isfinite(vl).all() and np.isfinite(nl).all()):
            raise ValueError("logits must be finite")
        object.__setattr__(self, "verb_logits", vl)
        object.__setattr__(self, "noun_logits", nl)

    @property
    def num_steps(self) -> int:
        return self.verb_logits.shape[0]

    def to_json(self) -> str:
        return json.dumps(
            {
                "example_id": self.example_id,
                "verb_logits": self.verb_logits.tolist(),
                "noun_logits": self.noun_logits.tolist(),
            }
        )

    @classmethod
    def from_obj(cls, obj: dict) -> "LogitsTensor":
        return cls(
            example_id=record_id(obj, "example_id"),
            verb_logits=np.array(obj["verb_logits"], dtype=np.float64),
            noun_logits=np.array(obj["noun_logits"], dtype=np.float64),
        )


@dataclass(frozen=True)
class EnsembleWeights:
    alpha: float = 0.6
    beta: float = 1.4

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("ensemble weights must be finite")


@dataclass(frozen=True)
class StepDistributions:
    example_id: str
    verb_probs: np.ndarray  # (Z, C_verb), rows sum to 1
    noun_probs: np.ndarray  # (Z, C_noun), rows sum to 1

    @property
    def num_steps(self) -> int:
        return self.verb_probs.shape[0]


def combine_logits(a: LogitsTensor, b: LogitsTensor, w: EnsembleWeights) -> LogitsTensor:
    """Elementwise alpha * a + beta * b on both axes."""
    if a.example_id != b.example_id:
        raise ValueError(f"example_id mismatch: {a.example_id!r} vs {b.example_id!r}")
    if a.verb_logits.shape != b.verb_logits.shape or a.noun_logits.shape != b.noun_logits.shape:
        raise ValueError(
            "shape mismatch: "
            f"a=(verb {a.verb_logits.shape}, noun {a.noun_logits.shape}) vs "
            f"b=(verb {b.verb_logits.shape}, noun {b.noun_logits.shape})"
        )
    return LogitsTensor(
        example_id=a.example_id,
        verb_logits=w.alpha * a.verb_logits + w.beta * b.verb_logits,
        noun_logits=w.alpha * a.noun_logits + w.beta * b.noun_logits,
    )


def _softmax(matrix: np.ndarray) -> np.ndarray:
    shifted = matrix - matrix.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def softmax_rows(logits: LogitsTensor) -> StepDistributions:
    """Max-subtracted rowwise softmax on both axes."""
    return StepDistributions(
        example_id=logits.example_id,
        verb_probs=_softmax(logits.verb_logits),
        noun_probs=_softmax(logits.noun_logits),
    )


def iter_logits(path: str) -> Iterator[LogitsTensor]:
    """The records of a logits file, parsed one at a time as they are read."""
    return iter_records(path, LogitsTensor.from_obj, "logits")


def load_logits(path: str) -> list[LogitsTensor]:
    return list(iter_logits(path))


def dump_logits(tensors: Iterable[LogitsTensor], path: str) -> None:
    with open(path, "w") as handle:
        for tensor in tensors:
            handle.write(tensor.to_json() + "\n")
