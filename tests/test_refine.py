import numpy as np
import pytest

from seqpost.cooc import CoocStats, IndicatorMode, SmoothingConfig, build_stats
from seqpost.ensemble import StepDistributions
from seqpost.refine import (
    TIER_RAW_ARGMAX,
    TIER_REFINED_ARGMAX,
    TIER_REFINED_SAMPLED,
    PredictionConfig,
    PredictionSet,
    generate_patterns,
    refine_noun_step,
    refine_verb_step,
)
from seqpost.rng import CounterRng
from seqpost.vocab import Action, ActionSequence, Vocabulary, validate_sequence


def _stats_with_scores(c, transition_row, marginal=None, vgn=None):
    """Stats whose transition/marginal entries are set directly."""
    marginal = np.asarray(marginal if marginal is not None else np.full(c, 1.0 / c))
    transition = np.tile(np.asarray(transition_row, dtype=np.float64), (c, 1))
    vgn = np.asarray(vgn if vgn is not None else np.full((c, c), 1.0 / c))
    return CoocStats(
        verb_marginal=marginal,
        noun_marginal=marginal,
        verb_transition=transition,
        noun_transition=transition,
        verb_given_noun=vgn,
        smoothing=SmoothingConfig(),
        corpus_fingerprint="test",
    )


def _uniform_stats(c):
    """All transition scores equal and g uniform: refinement is the identity."""
    return _stats_with_scores(c, np.full(c, 1.0 / c))


def test_noun_fallback_when_all_scores_nonpositive():
    # transition row equal to the product of marginals gives score exactly 0
    marginal = np.array([0.5, 0.5])
    stats = _stats_with_scores(2, 0.5 * marginal, marginal=marginal)
    probs = np.array([0.3, 0.7])
    out, fallback = refine_noun_step(probs, 0, stats, IndicatorMode.AS_WRITTEN)
    assert fallback
    assert np.array_equal(out, probs)


def test_noun_constant_score_is_identity():
    stats = _uniform_stats(3)
    probs = np.array([0.2, 0.5, 0.3])
    out, fallback = refine_noun_step(probs, 1, stats, IndicatorMode.AS_WRITTEN)
    assert not fallback
    assert np.allclose(out, probs, atol=1e-12)


def test_noun_hand_renormalization(monkeypatch):
    import seqpost.refine as refine_mod

    monkeypatch.setattr(
        refine_mod, "transition_score_row", lambda *a, **k: np.array([1.0, 3.0])
    )
    out, fallback = refine_noun_step(np.array([0.5, 0.5]), 0, _uniform_stats(2), IndicatorMode.AS_WRITTEN)
    assert not fallback
    assert np.allclose(out, [0.25, 0.75])


def test_verb_hand_renormalization(monkeypatch):
    import seqpost.refine as refine_mod

    monkeypatch.setattr(
        refine_mod, "transition_score_row", lambda *a, **k: np.array([1.0, 1.0])
    )
    stats = _stats_with_scores(2, [0.5, 0.5], vgn=np.array([[0.2, 0.8], [0.5, 0.5]]))
    out, fallback = refine_verb_step(np.array([0.5, 0.5]), 0, 0, stats, IndicatorMode.AS_WRITTEN)
    assert not fallback
    assert np.allclose(out, [0.2, 0.8])


def test_verb_single_survivor(monkeypatch):
    import seqpost.refine as refine_mod

    monkeypatch.setattr(
        refine_mod, "transition_score_row", lambda *a, **k: np.array([1.0, 1.0])
    )
    stats = _stats_with_scores(2, [0.5, 0.5], vgn=np.array([[0.0, 1.0], [0.5, 0.5]]))
    out, _ = refine_verb_step(np.array([0.5, 0.5]), 0, 0, stats, IndicatorMode.AS_WRITTEN)
    assert np.allclose(out, [0.0, 1.0])


def test_scale_invariance_of_refinement(monkeypatch):
    import seqpost.refine as refine_mod

    base = np.array([0.7, 1.9, 0.4])
    rng = CounterRng(21)
    probs = np.array([rng.uniform() for _ in range(3)])
    probs /= probs.sum()
    outputs = []
    for factor in (1.0, 7.3):
        monkeypatch.setattr(
            refine_mod, "transition_score_row", lambda *a, _f=factor, **k: _f * base
        )
        out, _ = refine_noun_step(probs, 0, _uniform_stats(3), IndicatorMode.AS_WRITTEN)
        outputs.append(out)
    assert np.allclose(outputs[0], outputs[1], atol=1e-9)


def _synthetic_dists(seed, z=6, c_verb=3, c_noun=4, example_id="e0"):
    rng = CounterRng(seed)
    verb = np.array([[rng.uniform() + 0.05 for _ in range(c_verb)] for _ in range(z)])
    noun = np.array([[rng.uniform() + 0.05 for _ in range(c_noun)] for _ in range(z)])
    verb /= verb.sum(axis=1, keepdims=True)
    noun /= noun.sum(axis=1, keepdims=True)
    return StepDistributions(example_id, verb, noun)


def _corpus_stats(seed=0, c_verb=3, c_noun=4):
    rng = CounterRng(seed)
    corpus = [
        ActionSequence(
            f"e{i}",
            tuple(Action(rng.randint(c_verb), rng.randint(c_noun)) for _ in range(10)),
        )
        for i in range(30)
    ]
    vv = Vocabulary("verb", tuple(f"v{i}" for i in range(c_verb)))
    nv = Vocabulary("noun", tuple(f"n{i}" for i in range(c_noun)))
    return build_stats(corpus, vv, nv, SmoothingConfig())


def _tied_dists():
    """Uniform rows and rows whose maximum appears twice or three times."""
    verb = np.array([
        [1 / 3, 1 / 3, 1 / 3],
        [0.1, 0.45, 0.45],
        [0.4, 0.2, 0.4],
        [0.2, 0.4, 0.4],
        [0.5, 0.5, 0.0],
        [1 / 3, 1 / 3, 1 / 3],
    ])
    noun = np.array([
        [0.25, 0.25, 0.25, 0.25],
        [0.1, 0.3, 0.3, 0.3],
        [0.0, 0.4, 0.2, 0.4],
        [0.3, 0.1, 0.3, 0.3],
        [0.0, 0.0, 0.5, 0.5],
        [0.25, 0.25, 0.25, 0.25],
    ])
    return StepDistributions("ties", verb, noun)


@pytest.mark.parametrize(
    "dists", [_synthetic_dists(1), _tied_dists()], ids=["synthetic", "ties"]
)
def test_k1_truncates_to_raw_argmax(dists):
    preds = generate_patterns(dists, _corpus_stats(), PredictionConfig(num_patterns=1))
    assert preds.tiers == (TIER_RAW_ARGMAX,)
    assert len(preds.patterns) == 1
    for z, action in enumerate(preds.patterns[0]):
        assert action.verb_id == int(np.argmax(dists.verb_probs[z]))
        assert action.noun_id == int(np.argmax(dists.noun_probs[z]))


def test_tier_layout():
    preds = generate_patterns(_synthetic_dists(2), _corpus_stats(),
                              PredictionConfig(num_patterns=5))
    assert preds.tiers == (
        TIER_RAW_ARGMAX,
        TIER_REFINED_ARGMAX,
        TIER_REFINED_SAMPLED,
        TIER_REFINED_SAMPLED,
        TIER_REFINED_SAMPLED,
    )
    assert all(len(p) == 6 for p in preds.patterns)


def test_uniform_stats_make_refined_argmax_equal_raw():
    dists = _synthetic_dists(3, c_verb=3, c_noun=3)
    preds = generate_patterns(dists, _uniform_stats(3), PredictionConfig(num_patterns=2))
    assert preds.patterns[0] == preds.patterns[1]


def test_same_seed_bit_reproducible():
    cfg = PredictionConfig(num_patterns=5, rng_seed=1234)
    stats = _corpus_stats()
    a = generate_patterns(_synthetic_dists(4), stats, cfg, stream=7)
    b = generate_patterns(_synthetic_dists(4), stats, cfg, stream=7)
    assert a == b
    c = generate_patterns(_synthetic_dists(4), stats, cfg, stream=8)
    assert a != c  # different stream, different samples


def test_pattern_zero_never_consults_stats():
    dists = _synthetic_dists(5)
    cfg = PredictionConfig(num_patterns=5, rng_seed=1)
    good = generate_patterns(dists, _corpus_stats(0), cfg)
    corrupted = generate_patterns(dists, _corpus_stats(31), cfg)
    assert good.patterns[0] == corrupted.patterns[0]


def test_patterns_validate_against_vocabularies():
    c_verb, c_noun = 3, 4
    preds = generate_patterns(
        _synthetic_dists(6), _corpus_stats(), PredictionConfig(num_patterns=5, rng_seed=2)
    )
    for k, pattern in enumerate(preds.patterns):
        seq = ActionSequence(f"p{k}", pattern)
        validate_sequence(seq, c_verb, c_noun)


@pytest.mark.parametrize("z", [1, 5, 9])
def test_patterns_take_their_length_from_the_distributions(z):
    preds = generate_patterns(
        _synthetic_dists(7, z=z), _corpus_stats(), PredictionConfig(num_patterns=4, rng_seed=3)
    )
    assert [len(p) for p in preds.patterns] == [z] * 4


def test_prediction_config_is_keyword_only():
    # a positional call from when the first field was the step count
    with pytest.raises(TypeError):
        PredictionConfig(6, 5)


def test_prediction_set_json_roundtrip():
    preds = generate_patterns(
        _synthetic_dists(9), _corpus_stats(), PredictionConfig(num_patterns=3, rng_seed=5)
    )
    assert PredictionSet.from_obj(__import__("json").loads(preds.to_json())) == preds


def test_refined_beats_raw_on_structured_episodes():
    """Near-deterministic transitions + noisy dists: the greedy refined
    pattern should match the truth at least as well on average."""
    from dataclasses import replace

    from seqpost.metric import edit_distance
    from seqpost.synth import SynthConfig, corrupt_to_logits_sized, gen_markov_corpus, make_vocabularies
    from seqpost.ensemble import softmax_rows

    cfg = SynthConfig(
        c_verb=3, c_noun=3, num_sequences=200, seq_len=8,
        transition_sharpness=99.0, verb_noun_coupling=0.9,
        logit_noise_sigma=1.0, rng_seed=17,
    )
    corpus = gen_markov_corpus(cfg)
    vv, nv = make_vocabularies(cfg)
    stats = build_stats(corpus[:100], vv, nv, SmoothingConfig())
    raw_total = refined_total = 0
    for j, truth in enumerate(corpus[100:]):
        logits = corrupt_to_logits_sized(truth, replace(cfg, rng_seed=5), stream=j)
        dists = softmax_rows(logits)
        preds = generate_patterns(dists, stats, PredictionConfig(num_patterns=2), stream=j)
        tokens = [(a.verb_id, a.noun_id) for a in truth.actions]
        raw_total += edit_distance([(a.verb_id, a.noun_id) for a in preds.patterns[0]], tokens)
        refined_total += edit_distance([(a.verb_id, a.noun_id) for a in preds.patterns[1]], tokens)
    assert refined_total <= raw_total
