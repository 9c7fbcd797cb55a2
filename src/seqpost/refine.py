"""Per-step refinement of predicted distributions and K-pattern generation.

Each step's noun distribution is reweighted by the rectified transition
indicator of the previously selected noun; the verb distribution is
additionally reweighted by the verb-given-noun conditional of the noun just
selected.  If rectification removes all probability mass the step falls back
to the unrefined distribution.

Three tiers of output patterns:
  raw_argmax      per-step argmax of the unrefined distributions
  refined_argmax  sequential greedy argmax over refined distributions
  refined_sampled sequential inverse-CDF sampling from refined distributions

Sampled patterns chain on their own sampled selections, and all draws come
from one CounterRng stream consumed in pattern order, step order, noun
before verb, so a (inputs, seed) pair is bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cooc import CoocStats, IndicatorMode, transition_score_row
from .ensemble import StepDistributions
from .rng import CounterRng
from .vocab import Action, dump_records, iter_records, parse_actions, record_id

TIER_RAW_ARGMAX = "raw_argmax"
TIER_REFINED_ARGMAX = "refined_argmax"
TIER_REFINED_SAMPLED = "refined_sampled"
TIERS = (TIER_RAW_ARGMAX, TIER_REFINED_ARGMAX, TIER_REFINED_SAMPLED)


@dataclass(frozen=True, kw_only=True)
class PredictionConfig:
    """How to decode one example; its step count Z comes from the distributions."""

    num_patterns: int  # patterns per example
    rng_seed: int = 0
    mode: IndicatorMode = IndicatorMode.AS_WRITTEN

    def __post_init__(self):
        if self.num_patterns < 1:
            raise ValueError("num_patterns must be >= 1")


@dataclass(frozen=True)
class PredictionSet:
    example_id: str
    patterns: tuple[tuple[Action, ...], ...]  # K patterns of Z actions
    tiers: tuple[str, ...]

    def __post_init__(self):
        if not self.patterns:
            raise ValueError(f"example {self.example_id!r}: prediction has no patterns")

    def to_json(self) -> str:
        return json.dumps({"example_id": self.example_id, "patterns": self.patterns, "tiers": self.tiers})

    @classmethod
    def from_obj(cls, obj: dict) -> "PredictionSet":
        """The record's prediction set; ``tiers`` must name one known tier
        for each pattern."""
        example_id = record_id(obj, "example_id")
        patterns = tuple(parse_actions(pattern) for pattern in obj["patterns"])
        tiers = obj["tiers"]
        if not (isinstance(tiers, list) and len(tiers) == len(patterns)
                and all(tier in TIERS for tier in tiers)):
            raise ValueError(f"tiers {tiers!r} must be {len(patterns)} tier name(s), one per "
                             f"pattern, each one of {', '.join(TIERS)}")
        return cls(example_id=example_id, patterns=patterns, tiers=tuple(tiers))


def refine_noun_step(
    noun_probs: np.ndarray,
    prev_noun: int,
    stats: CoocStats,
    mode: IndicatorMode,
) -> tuple[np.ndarray, bool]:
    """Reweight by ReLU(transition score); fall back when mass vanishes."""
    return _reweight(noun_probs, prev_noun, "noun", stats, mode)


def refine_verb_step(
    verb_probs: np.ndarray,
    prev_verb: int,
    selected_noun: int,
    stats: CoocStats,
    mode: IndicatorMode,
) -> tuple[np.ndarray, bool]:
    """Like refine_noun_step but also weighted by p(verb | selected noun)."""
    return _reweight(
        verb_probs, prev_verb, "verb", stats, mode, stats.verb_given_noun[selected_noun]
    )


def _reweight(
    probs: np.ndarray,
    prev: int,
    axis: str,
    stats: CoocStats,
    mode: IndicatorMode,
    weight: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, bool]:
    """probs * ReLU(scores of prev) [* weight], renormalised; (probs, True)
    when no mass survives."""
    raw = np.maximum(transition_score_row(stats, prev, axis, mode), 0.0)
    raw *= probs
    if weight is not None:
        raw *= weight
    total = np.add.reduce(raw)  # raw.sum()'s reduction, without its Python wrapper
    if total > 0.0:
        raw /= total
        return raw, False
    return probs, True


def argmax_actions(verb_probs: np.ndarray, noun_probs: np.ndarray) -> list[Action]:
    """The argmax of each row as an Action, one per step of the (steps, C)
    verb and noun arrays; argmax returns the lowest index on ties."""
    return list(map(Action, verb_probs.argmax(axis=-1).tolist(), noun_probs.argmax(axis=-1).tolist()))


def _pick(probs: np.ndarray, rng: Optional[CounterRng]) -> int:
    if rng is None:
        return int(probs.argmax())
    return rng.choice_from_cdf(probs)


def _sequential_pattern(
    dists: StepDistributions,
    stats: CoocStats,
    cfg: PredictionConfig,
    rng: Optional[CounterRng],
) -> tuple[Action, ...]:
    """One refined pattern; rng=None selects greedily, otherwise samples."""
    actions: list[Action] = []
    prev = None
    for z in range(dists.num_steps):
        noun_probs = dists.noun_probs[z]
        verb_probs = dists.verb_probs[z]
        if prev is None:
            # the first step has no previous action: use the raw distributions
            noun = _pick(noun_probs, rng)
            verb = _pick(verb_probs, rng)
        else:
            refined_noun, _ = refine_noun_step(noun_probs, prev.noun_id, stats, cfg.mode)
            noun = _pick(refined_noun, rng)
            refined_verb, _ = refine_verb_step(
                verb_probs, prev.verb_id, noun, stats, cfg.mode
            )
            verb = _pick(refined_verb, rng)
        prev = Action(verb, noun)
        actions.append(prev)
    return tuple(actions)


def generate_patterns(
    dists: StepDistributions, stats: Optional[CoocStats], cfg: PredictionConfig, stream: int = 0
) -> PredictionSet:
    """Produce the K tiered patterns for one example.

    ``stream`` selects an independent PRNG stream (callers pass the example
    index) so per-example work can be scheduled in any order. Distributions whose
    class counts differ from ``stats``' are a ValueError naming the example."""
    classes = (dists.verb_probs.shape[1], dists.noun_probs.shape[1])
    if stats is not None and classes != (stats.c_verb, stats.c_noun):
        raise ValueError(f"example {dists.example_id!r} has {classes[0]} verb and {classes[1]} noun "
                         f"classes, the stats have {stats.c_verb} and {stats.c_noun}")
    patterns: list[tuple[Action, ...]] = []
    tiers: list[str] = []

    patterns.append(tuple(argmax_actions(dists.verb_probs, dists.noun_probs)))
    tiers.append(TIER_RAW_ARGMAX)

    if cfg.num_patterns >= 2:
        patterns.append(_sequential_pattern(dists, stats, cfg, rng=None))
        tiers.append(TIER_REFINED_ARGMAX)

    rng = CounterRng(cfg.rng_seed, stream)
    for _ in range(cfg.num_patterns - 2):
        patterns.append(_sequential_pattern(dists, stats, cfg, rng=rng))
        tiers.append(TIER_REFINED_SAMPLED)

    return PredictionSet(
        example_id=dists.example_id, patterns=tuple(patterns), tiers=tuple(tiers)
    )


def load_predictions(path: str) -> list[PredictionSet]:
    return list(iter_records(path, PredictionSet.from_obj, "prediction"))


dump_predictions = dump_records
