"""Post-hoc refinement and evaluation tooling for multi-step (verb, noun)
sequence prediction: weighted logit ensembling, co-occurrence-based
sequential refinement, label-smoothing targets, and min-over-K normalized
edit-distance evaluation."""

from .cooc import (
    CoocStats,
    IndicatorMode,
    SmoothingConfig,
    build_stats,
)
from .decoder import (
    MultiHeadDecoder,
    TrainConfig,
    cross_entropy,
    decoder_forward,
    smooth_labels,
    train,
)
from .ensemble import (
    EnsembleWeights,
    LogitsTensor,
    StepDistributions,
    combine_logits,
    softmax,
    softmax_rows,
)
from .metric import EvalReport, ed_at_k, edit_distance, evaluate_corpus
from .refine import (
    PredictionConfig,
    PredictionSet,
    generate_patterns,
    refine_noun_step,
    refine_verb_step,
)
from .rng import CounterRng
from .synth import (
    SynthConfig,
    corrupt_to_logits_sized,
    gen_markov_corpus,
    run_refinement_experiment,
)
from .vocab import Action, ActionSequence, Vocabulary, validate_sequence

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ActionSequence",
    "CoocStats",
    "CounterRng",
    "EnsembleWeights",
    "EvalReport",
    "IndicatorMode",
    "LogitsTensor",
    "MultiHeadDecoder",
    "PredictionConfig",
    "PredictionSet",
    "SmoothingConfig",
    "StepDistributions",
    "SynthConfig",
    "TrainConfig",
    "Vocabulary",
    "build_stats",
    "combine_logits",
    "corrupt_to_logits_sized",
    "cross_entropy",
    "decoder_forward",
    "ed_at_k",
    "edit_distance",
    "evaluate_corpus",
    "gen_markov_corpus",
    "generate_patterns",
    "refine_noun_step",
    "refine_verb_step",
    "run_refinement_experiment",
    "smooth_labels",
    "softmax",
    "softmax_rows",
    "train",
    "validate_sequence",
]
