"""Synthetic corpora with planted transition and co-occurrence structure.

The generator plants circulant Markov transition tables (each class has one
designated successor carrying ``transition_sharpness`` times the weight of
any other class) and a verb-given-noun table mixing a designated verb per
noun with the uniform distribution.  Sequences are drawn by ancestral
sampling; the emitted verb is replaced by the noun's designated verb with
probability ``verb_noun_coupling``, which is what plants the coupling.

``corrupt_to_logits_sized`` turns a ground-truth sequence into noisy logits with a
tunable signal-to-noise ratio, and ``run_refinement_experiment`` closes the
loop: build statistics on a train split, decode the corrupted eval split
with and without refinement, and report the edit-distance deltas.  All
stages derive their PRNG streams from (seed, episode index), so results are
independent of scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from numbers import Real

import numpy as np

from .cooc import CoocStats, IndicatorMode, SmoothingConfig, build_stats
from .ensemble import LogitsTensor, softmax_rows
from .metric import evaluate_corpus
from .refine import PredictionConfig, PredictionSet, generate_patterns
from .rng import NORMAL_BOUND, CounterRng
from .vocab import Action, ActionSequence, Vocabulary


@dataclass(frozen=True)
class SynthConfig:
    c_verb: int = 6
    c_noun: int = 8
    num_sequences: int = 200
    seq_len: int = 20
    transition_sharpness: float = 1.0  # 1.0 plants nothing (uniform rows)
    verb_noun_coupling: float = 0.0
    logit_noise_sigma: float = 1.0
    rng_seed: int = 0
    logit_scale: float = 1.0  # one-hot height of the truth in the corrupted logits
    num_patterns: int = 5  # K of the experiment's prediction sets
    mode: str = IndicatorMode.AS_WRITTEN.value  # the experiment's IndicatorMode value

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "str":
                continue
            if field.type == "int":
                ok, what = isinstance(value, int), "an integer"
            else:
                ok, what = isinstance(value, Real) and math.isfinite(value), "a finite number"
            if isinstance(value, bool) or not ok:
                raise TypeError(f"{field.name} must be {what}, got {value!r}")
        if min(self.c_verb, self.c_noun, self.num_sequences) < 1:
            raise ValueError("class and sequence counts must be >= 1")
        if self.seq_len < 2:
            raise ValueError("seq_len must be >= 2")
        if self.transition_sharpness < 1.0:
            raise ValueError("transition_sharpness must be >= 1")
        if not (0.0 <= self.verb_noun_coupling <= 1.0):
            raise ValueError("verb_noun_coupling must lie in [0, 1]")
        if self.logit_noise_sigma < 0.0:
            raise ValueError("logit_noise_sigma must be nonnegative")
        if self.logit_scale <= 0.0:
            raise ValueError("logit_scale must be positive")
        if not math.isfinite(self.logit_scale + self.logit_noise_sigma * NORMAL_BOUND):
            raise ValueError(f"the corrupted logits can overflow: logit_scale + "
                             f"logit_noise_sigma * {NORMAL_BOUND} must be finite")
        if self.num_patterns < 1:
            raise ValueError("num_patterns must be >= 1")
        modes = [m.value for m in IndicatorMode]
        if self.mode not in modes:
            raise ValueError(f"mode must be one of {', '.join(modes)}, got {self.mode!r}")


def make_vocabularies(cfg: SynthConfig) -> tuple[Vocabulary, Vocabulary]:
    return (
        Vocabulary("verb", tuple(f"verb{i}" for i in range(cfg.c_verb))),
        Vocabulary("noun", tuple(f"noun{i}" for i in range(cfg.c_noun))),
    )


def _circulant_transition(num_classes: int, sharpness: float) -> np.ndarray:
    table = np.ones((num_classes, num_classes))
    for i in range(num_classes):
        table[i, (i + 1) % num_classes] = sharpness
    table /= table.sum(axis=1, keepdims=True)
    return table


def planted_tables(cfg: SynthConfig) -> CoocStats:
    """Ground-truth tables in CoocStats shape (fingerprint 'planted')."""
    vgn = np.full((cfg.c_noun, cfg.c_verb), (1.0 - cfg.verb_noun_coupling) / cfg.c_verb)
    for n in range(cfg.c_noun):
        vgn[n, n % cfg.c_verb] += cfg.verb_noun_coupling
    return CoocStats(
        verb_marginal=np.full(cfg.c_verb, 1.0 / cfg.c_verb),
        noun_marginal=np.full(cfg.c_noun, 1.0 / cfg.c_noun),
        verb_transition=_circulant_transition(cfg.c_verb, cfg.transition_sharpness),
        noun_transition=_circulant_transition(cfg.c_noun, cfg.transition_sharpness),
        verb_given_noun=vgn,
        smoothing=SmoothingConfig(),
        corpus_fingerprint="planted",
    )


def gen_markov_corpus(cfg: SynthConfig) -> list[ActionSequence]:
    """Ancestral sampling from the planted tables, one PRNG stream per episode."""
    planted = planted_tables(cfg)
    corpus: list[ActionSequence] = []
    for i in range(cfg.num_sequences):
        rng = CounterRng(cfg.rng_seed, stream=i)
        actions: list[Action] = []
        verb = rng.randint(cfg.c_verb)
        noun = rng.randint(cfg.c_noun)
        for z in range(cfg.seq_len):
            if z > 0:
                verb = rng.choice_from_cdf(planted.verb_transition[verb])
                noun = rng.choice_from_cdf(planted.noun_transition[noun])
            if rng.uniform() < cfg.verb_noun_coupling:
                verb = noun % cfg.c_verb
            actions.append(Action(verb, noun))
        corpus.append(ActionSequence(episode_id=f"ep{i:05d}", actions=tuple(actions)))
    return corpus


def corrupt_to_logits_sized(truth: ActionSequence, cfg: SynthConfig, stream: int = 0) -> LogitsTensor:
    """logit_scale * one-hot(truth) + logit_noise_sigma * gaussian noise over
    (c_verb, c_noun) classes, drawn from (rng_seed, stream)."""
    z, c_verb, c_noun = len(truth.actions), cfg.c_verb, cfg.c_noun
    verb_logits = np.zeros((z, c_verb))
    noun_logits = np.zeros((z, c_noun))
    for step, action in enumerate(truth.actions):
        verb_logits[step, action.verb_id] = cfg.logit_scale
        noun_logits[step, action.noun_id] = cfg.logit_scale
    # fixed draw order: all verb entries row-major, then all noun entries;
    # adding to the zeros keeps sigma = 0 noise at +0.0
    noise = cfg.logit_noise_sigma * CounterRng(cfg.rng_seed, stream=stream).normals(
        z * (c_verb + c_noun)
    )
    verb_logits += noise[: z * c_verb].reshape(z, c_verb)
    noun_logits += noise[z * c_verb :].reshape(z, c_noun)
    return LogitsTensor(example_id=truth.episode_id, verb_logits=verb_logits, noun_logits=noun_logits)


def run_refinement_experiment(cfg: SynthConfig) -> dict:
    """Raw-argmax vs refined decoding on a corrupted held-out split.

    Even-index episodes train the statistics, odd-index episodes are
    evaluated.  Returns mean ED triples for the raw pattern alone and for the
    full K-pattern set, plus the deltas (positive delta = refinement helped).
    """
    if cfg.num_sequences < 2:
        raise ValueError("num_sequences must be >= 2: even-index episodes build the "
                         "statistics and odd-index ones are evaluated")
    corpus = gen_markov_corpus(cfg)
    verb_vocab, noun_vocab = make_vocabularies(cfg)
    train_split = [s for i, s in enumerate(corpus) if i % 2 == 0]
    eval_split = [s for i, s in enumerate(corpus) if i % 2 == 1]
    stats = build_stats(train_split, verb_vocab, noun_vocab, SmoothingConfig())
    pred_cfg = PredictionConfig(
        num_patterns=cfg.num_patterns, rng_seed=cfg.rng_seed, mode=IndicatorMode(cfg.mode)
    )

    full_preds: list[PredictionSet] = []
    raw_preds: list[PredictionSet] = []
    for j, truth in enumerate(eval_split):
        dists = softmax_rows(corrupt_to_logits_sized(truth, cfg, stream=cfg.num_sequences + j))
        preds = generate_patterns(dists, stats, pred_cfg, stream=j)
        full_preds.append(preds)
        raw_preds.append(
            PredictionSet(
                example_id=preds.example_id,
                patterns=preds.patterns[:1],
                tiers=preds.tiers[:1],
            )
        )

    reports = {name: evaluate_corpus(preds, eval_split, keep_per_example=True)
               for name, preds in (("raw", raw_preds), ("refined", full_preds))}
    eds = {name: {key: getattr(report, key) for key in ("ed_verb", "ed_noun", "ed_action")}
           for name, report in reports.items()}
    return {
        "config": asdict(cfg),
        **eds,
        "delta": {key: eds["raw"][key] - eds["refined"][key] for key in eds["raw"]},
        "n_eval": reports["refined"].n_examples,
        "per_example": {name: report.per_example for name, report in reports.items()},
    }
