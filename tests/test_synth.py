import math
import re
import sys
from dataclasses import asdict

import numpy as np
import pytest

from seqpost.rng import NORMAL_BOUND, CounterRng
from seqpost.synth import (
    SynthConfig,
    corrupt_to_logits_sized,
    gen_markov_corpus,
    planted_tables,
    run_refinement_experiment,
)
from seqpost.vocab import Action, ActionSequence, validate_sequence

from oracles import corrupt_logits_loop, count_stats


def sharpness_for_mass(designated_mass: float, num_classes: int) -> float:
    """Sharpness that puts ``designated_mass`` on the designated successor."""
    if num_classes < 2:
        return 1.0
    return designated_mass * (num_classes - 1) / (1.0 - designated_mass)


def test_sharpness_uniform_when_one():
    planted = planted_tables(SynthConfig(c_verb=4, c_noun=4, transition_sharpness=1.0))
    assert np.allclose(planted.verb_transition, 0.25)
    assert np.allclose(planted.noun_transition, 0.25)


def test_sharpness_for_mass():
    sharpness = sharpness_for_mass(0.9, 6)
    planted = planted_tables(SynthConfig(c_verb=6, c_noun=6, transition_sharpness=sharpness))
    assert planted.verb_transition[0][1] == pytest.approx(0.9)


def test_same_seed_identical_corpora():
    cfg = SynthConfig(num_sequences=20, seq_len=5, rng_seed=42)
    a = gen_markov_corpus(cfg)
    b = gen_markov_corpus(cfg)
    assert a == b


def test_corpora_validate():
    cfg = SynthConfig(c_verb=3, c_noun=5, num_sequences=30, seq_len=6, rng_seed=1)
    corpus = gen_markov_corpus(cfg)
    for seq in corpus:
        validate_sequence(seq, cfg.c_verb, cfg.c_noun)


def test_sharp_transitions_dominate_bigrams():
    cfg = SynthConfig(
        c_verb=4, c_noun=4, num_sequences=1000, seq_len=20,
        transition_sharpness=sharpness_for_mass(0.99, 4), rng_seed=2,
    )
    corpus = gen_markov_corpus(cfg)
    _, _, _, noun_bi, _ = count_stats(corpus, 4, 4)
    designated = sum(noun_bi[i][(i + 1) % 4] for i in range(4))
    total = sum(sum(row) for row in noun_bi)
    assert designated / total >= 0.9


def test_empirical_transitions_converge_to_planted():
    cfg = SynthConfig(
        c_verb=4, c_noun=5, num_sequences=2000, seq_len=20,
        transition_sharpness=sharpness_for_mass(0.6, 5),
        verb_noun_coupling=0.0, rng_seed=3,
    )
    corpus, planted = gen_markov_corpus(cfg), planted_tables(cfg)
    _, _, verb_bi, noun_bi, _ = count_stats(corpus, 4, 5)
    for counts, table in ((verb_bi, planted.verb_transition), (noun_bi, planted.noun_transition)):
        empirical = np.array(counts, dtype=float)
        empirical /= empirical.sum(axis=1, keepdims=True)
        assert np.max(np.abs(empirical - table)) <= 0.05


def test_empirical_verb_given_noun_converges_to_planted():
    # uniform transitions keep the base verb distribution uniform, so the
    # replacement mixture matches the planted coupling table
    cfg = SynthConfig(
        c_verb=4, c_noun=5, num_sequences=2000, seq_len=20,
        transition_sharpness=1.0, verb_noun_coupling=0.9, rng_seed=4,
    )
    corpus, planted = gen_markov_corpus(cfg), planted_tables(cfg)
    _, _, _, _, vn = count_stats(corpus, 4, 5)
    empirical = np.array(vn, dtype=float)
    empirical /= empirical.sum(axis=1, keepdims=True)
    assert np.max(np.abs(empirical - planted.verb_given_noun)) <= 0.05


def test_corrupt_noiseless_argmax_is_truth():
    cfg = SynthConfig(c_verb=3, c_noun=4, num_sequences=5, seq_len=6, rng_seed=5)
    corpus = gen_markov_corpus(cfg)
    noiseless = SynthConfig(c_verb=3, c_noun=4, logit_noise_sigma=0.0, rng_seed=9)
    for seq in corpus:
        logits = corrupt_to_logits_sized(seq, noiseless)
        for z, action in enumerate(seq.actions):
            assert int(np.argmax(logits.verb_logits[z])) == action.verb_id
            assert int(np.argmax(logits.noun_logits[z])) == action.noun_id


def test_corrupt_deterministic():
    seq = ActionSequence("e", gen_markov_corpus(SynthConfig(num_sequences=1, seq_len=5))[0].actions)
    a = corrupt_to_logits_sized(seq, SynthConfig(rng_seed=7), stream=3)
    b = corrupt_to_logits_sized(seq, SynthConfig(rng_seed=7), stream=3)
    assert np.array_equal(a.verb_logits, b.verb_logits)
    assert np.array_equal(a.noun_logits, b.noun_logits)


def test_corrupt_huge_noise_accuracy_near_chance():
    c = 5
    cfg = SynthConfig(c_verb=c, c_noun=c, num_sequences=500, seq_len=20, rng_seed=6)
    corpus = gen_markov_corpus(cfg)
    noisy = SynthConfig(c_verb=c, c_noun=c, logit_noise_sigma=100.0, rng_seed=11)
    hits = total = 0
    for i, seq in enumerate(corpus):
        logits = corrupt_to_logits_sized(seq, noisy, stream=i)
        for z, action in enumerate(seq.actions):
            hits += int(np.argmax(logits.noun_logits[z])) == action.noun_id
            total += 1
    p = 1.0 / c
    sigma = (p * (1 - p) / total) ** 0.5
    assert abs(hits / total - p) <= 3 * sigma


def test_experiment_noiseless_is_zero_everywhere():
    cfg = SynthConfig(
        c_verb=4, c_noun=4, num_sequences=40, seq_len=8,
        transition_sharpness=5.0, verb_noun_coupling=0.5,
        logit_noise_sigma=0.0, rng_seed=7,
    )
    report = run_refinement_experiment(cfg)
    assert report["raw"]["ed_action"] == 0.0
    assert report["refined"]["ed_action"] == 0.0


def test_experiment_reproducible():
    cfg = SynthConfig(num_sequences=30, seq_len=6, logit_noise_sigma=1.0, rng_seed=8)
    assert run_refinement_experiment(cfg) == run_refinement_experiment(cfg)


def test_experiment_of_one_sequence_names_the_setting():
    # one episode leaves nothing to evaluate once the even-index ones build the statistics
    with pytest.raises(ValueError, match=r"^num_sequences must be >= 2: even-index episodes build "
                                         r"the statistics and odd-index ones are evaluated$"):
        run_refinement_experiment(SynthConfig(num_sequences=1))


def test_experiment_reads_num_patterns_and_mode_from_its_config():
    base = dict(c_verb=4, c_noun=5, num_sequences=40, seq_len=8, transition_sharpness=5.0,
                verb_noun_coupling=0.7, rng_seed=2)
    configs = [SynthConfig(**base, num_patterns=k, mode=m)
               for k, m in ((5, "as_written"), (2, "as_written"), (5, "standard_npmi"))]
    reports = [run_refinement_experiment(cfg) for cfg in configs]
    assert [r["config"] for r in reports] == [asdict(cfg) for cfg in configs]
    # each setting changes the refined numbers, so the report must record it
    assert reports[0]["refined"] != reports[1]["refined"]
    assert reports[0]["refined"] != reports[2]["refined"]


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(seq_len=1)
    with pytest.raises(ValueError):
        SynthConfig(transition_sharpness=0.5)
    with pytest.raises(ValueError):
        SynthConfig(verb_noun_coupling=1.5)
    with pytest.raises(ValueError):
        SynthConfig(logit_noise_sigma=-1.0)
    with pytest.raises(ValueError, match="^num_patterns must be >= 1$"):
        SynthConfig(num_patterns=0)
    with pytest.raises(ValueError, match=re.escape("mode must be one of as_written, standard_npmi, got 'npmi'")):
        SynthConfig(mode="npmi")


@pytest.mark.parametrize(
    "z, c_verb, c_noun, sigma, scale, seed, stream",
    [
        (5, 3, 4, 1.0, 1.0, 9, 0),  # odd z*c_verb: the Box-Muller spare crosses from verb to noun
        (6, 3, 5, 0.7, 2.5, 1, 17),
        (7, 1, 1, 1.0, 1.0, 3, 2),
        (1, 1, 2, 2.0, 1.0, 0, 5),
        (5, 3, 4, 0.0, 1.0, 9, 0),  # sigma = 0: every non-truth entry stays +0.0
        (0, 3, 4, 1.0, 1.0, 2, 0),
        (20, 115, 478, 1.0, 1.0, 7, 400),  # the benchmark's synth size
    ],
)
def test_corrupt_equals_scalar_triple_loop(z, c_verb, c_noun, sigma, scale, seed, stream):
    rng = CounterRng(seed + 1000, stream=stream)
    actions = tuple(Action(rng.randint(c_verb), rng.randint(c_noun)) for _ in range(z))
    cfg = SynthConfig(c_verb=c_verb, c_noun=c_noun, logit_noise_sigma=sigma,
                      logit_scale=scale, rng_seed=seed)
    logits = corrupt_to_logits_sized(ActionSequence("e", actions), cfg, stream=stream)
    verb, noun = corrupt_logits_loop(actions, sigma, scale, seed, c_verb, c_noun, stream=stream)
    assert logits.verb_logits.tobytes() == verb.tobytes()
    assert logits.noun_logits.tobytes() == noun.tobytes()
    assert logits.verb_logits.shape == (z, c_verb) and logits.noun_logits.shape == (z, c_noun)


@pytest.mark.parametrize(
    "field, value",
    [
        ("c_verb", True),
        ("seq_len", 2.5),
        ("num_sequences", "3"),
        ("rng_seed", "x"),
        ("transition_sharpness", float("inf")),
        ("verb_noun_coupling", False),
        ("logit_noise_sigma", "1.0"),
        ("num_patterns", 2.5),
    ],
)
def test_config_rejects_mistyped_fields(field, value):
    with pytest.raises(TypeError, match=f"^{field} must be"):
        SynthConfig(**{field: value})


def _accepts(**fields):
    try:
        SynthConfig(**fields)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("scale", [1.0, 1e307])
def test_largest_accepted_noise_corrupts_to_finite_logits(monkeypatch, scale):
    sigma = (sys.float_info.max - scale) / NORMAL_BOUND
    while _accepts(logit_scale=scale, logit_noise_sigma=math.nextafter(sigma, math.inf)):
        sigma = math.nextafter(sigma, math.inf)
    while not _accepts(logit_scale=scale, logit_noise_sigma=sigma):
        sigma = math.nextafter(sigma, 0.0)
    cfg = SynthConfig(c_verb=3, c_noun=4, logit_scale=scale, logit_noise_sigma=sigma)
    truth = ActionSequence("e", (Action(0, 1), Action(2, 3)))
    with np.errstate(all="raise"):
        for stream in range(20):
            logits = corrupt_to_logits_sized(truth, cfg, stream=stream)
            assert np.isfinite(logits.verb_logits).all() and np.isfinite(logits.noun_logits).all()
        # every draw at the bound, added to the truth's height on every step
        monkeypatch.setattr(CounterRng, "_next_u64_block", lambda self, m: np.zeros(m, dtype=np.uint64))
        logits = corrupt_to_logits_sized(truth, cfg)
    assert logits.verb_logits[0, 0] == scale + sigma * NORMAL_BOUND
