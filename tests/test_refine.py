import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_patterns, refined_row, score_table

import seqpost.refine
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


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("c_verb, c_noun", [(3, 3), (2, 5), (3, 5), (1, 3)],
                         ids=["more_verbs", "more_nouns", "both", "fewer_verbs"])
def test_class_counts_other_than_the_stats_name_the_example(c_verb, c_noun, k):
    # unchecked, more classes than the stats index past a score row (an IndexError);
    # K=1 reads no stats, but stats it is given must still fit
    dists = _synthetic_dists(0, c_verb=c_verb, c_noun=c_noun, example_id="ex7")
    stats = _corpus_stats(c_verb=2, c_noun=3)
    with pytest.raises(ValueError, match=f"^example 'ex7' has {c_verb} verb and {c_noun} noun classes, "
                                         "the stats have 2 and 3$"):
        generate_patterns(dists, stats, PredictionConfig(num_patterns=k))
    assert generate_patterns(dists, None, PredictionConfig(num_patterns=1)).tiers == (TIER_RAW_ARGMAX,)


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


def _refine_case(seed):
    """(distributions, stats, config, stream) drawn from ``seed``: 1 to 10
    classes per axis, 1 to 12 steps, 1 to 6 patterns and either mode; the
    corpus uses only the lower classes of each axis, and about half the
    distributions have zero entries, so that both axes fall back. About a
    quarter of the rows are weights that sum short of 1, so that a draw at a
    first step can pass the last class and take the last one with mass."""
    rng = np.random.default_rng(seed)
    c_verb, c_noun = rng.integers(1, 11, 2).tolist()
    seen_verbs, seen_nouns = int(rng.integers(1, c_verb + 1)), int(rng.integers(1, c_noun + 1))
    corpus = [ActionSequence(f"t{i}", tuple(map(Action, rng.integers(seen_verbs, size=n).tolist(),
                                                  rng.integers(seen_nouns, size=n).tolist())))
              for i, n in enumerate(rng.integers(1, 6, int(rng.integers(1, 4))).tolist())]
    vocab = lambda kind, c: Vocabulary(kind, tuple(f"{kind}{i}" for i in range(c)))
    stats = build_stats(corpus, vocab("verb", c_verb), vocab("noun", c_noun),
                        SmoothingConfig(add_k=float(rng.choice([0.0, 0.5]))))
    z = int(rng.integers(1, 13))
    axes = []
    for c in (c_verb, c_noun):
        probs = rng.random((z, c))
        if rng.random() < 0.5:
            probs *= rng.random((z, c)) < 0.5
            probs[np.arange(z), rng.integers(c, size=z)] = 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        if rng.random() < 0.25:
            probs *= rng.random((z, 1))
        axes.append(probs)
    cfg = PredictionConfig(num_patterns=int(rng.integers(1, 7)), rng_seed=int(rng.integers(2**32)),
                           mode=list(IndicatorMode)[rng.integers(2)])
    return StepDistributions("x", *axes), stats, cfg, int(rng.integers(100))


@pytest.mark.bits
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_generate_patterns_equals_the_reference_loop(seed):
    dists, stats, cfg, stream = _refine_case(seed)
    assert generate_patterns(dists, stats, cfg, stream) == reference_patterns(dists, stats, cfg, stream)
    # each refined row, after every previous class, has the reference's bits: a pick
    # above depends on them only where a draw or a tie falls within an ulp
    verbs, nouns = (score_table(stats, axis, cfg.mode) for axis in ("verb", "noun"))
    for z, (verb_row, noun_row) in enumerate(zip(dists.verb_probs, dists.noun_probs)):
        noun = z % stats.c_noun
        for prev in range(stats.c_noun):
            refined, _ = refine_noun_step(noun_row, prev, stats, cfg.mode)
            assert refined.tobytes() == refined_row(noun_row, nouns[prev]).tobytes()
        for prev in range(stats.c_verb):
            refined, _ = refine_verb_step(verb_row, prev, noun, stats, cfg.mode)
            assert refined.tobytes() == refined_row(verb_row, verbs[prev], stats.verb_given_noun[noun]).tobytes()


def test_the_reference_cases_make_both_axes_fall_back(monkeypatch):
    fallbacks = set()
    reweight = seqpost.refine._reweight

    def recording(probs, prev, axis, *args):
        refined, fallback = reweight(probs, prev, axis, *args)
        if fallback:
            fallbacks.add(axis)
        return refined, fallback

    monkeypatch.setattr(seqpost.refine, "_reweight", recording)
    for seed in range(100):
        generate_patterns(*_refine_case(seed))
    assert fallbacks == {"verb", "noun"}
