"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines even on success.
"""

import json
import time

import numpy as np
import pytest

from seqpost.cli import main
from seqpost.cooc import (
    CoocStats,
    IndicatorMode,
    SmoothingConfig,
    build_stats,
    transition_score_row,
)
from seqpost.decoder import MultiHeadDecoder, loss_and_grad, smooth_labels
from seqpost.ensemble import EnsembleWeights, LogitsTensor, combine_logits
from seqpost.metric import ed_at_k, edit_distance
from seqpost.refine import PredictionConfig, PredictionSet, refine_noun_step, refine_verb_step
from seqpost.rng import CounterRng
from seqpost.synth import SynthConfig, run_refinement_experiment
from seqpost.vocab import Action, ActionSequence, Vocabulary

from oracles import all_sequences, gauss_draws, recursive_edit_distance
from test_synth import sharpness_for_mass


def _report(num, description):
    print(f"ACCEPTANCE {num}: PASS - {description}")


def test_criterion_1_edit_distance_oracle_equivalence():
    start = time.monotonic()
    seqs = all_sequences(3, 4)
    for flag in (False, True):
        for a in seqs:
            for b in seqs:
                assert edit_distance(a, b, flag) == recursive_edit_distance(a, b, flag)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, f"DP == exhaustive oracle on all pairs len<=4, alphabet 3, both modes ({elapsed:.1f}s)")


def test_criterion_2_label_smoothing_invariants():
    rng = CounterRng(2024)
    for _ in range(1000):
        z = 1 + rng.randint(20)
        c = 2 + rng.randint(49)
        ids = [rng.randint(c) for _ in range(z)]
        rows = np.zeros((z, c))
        rows[np.arange(z), ids] = 1.0
        out = smooth_labels(rows)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert [int(np.argmax(row)) for row in out] == ids
    # constant-class sequences are exact fixed points
    for c, z in ((3, 5), (10, 1), (7, 20)):
        rows = np.zeros((z, c))
        rows[:, c // 2] = 1.0
        assert np.array_equal(smooth_labels(rows), rows)
    _report(2, "1000 random one-hot matrices: rows sum to 1, argmax preserved, fixed points exact")


def test_criterion_3_gradient_check():
    rng = CounterRng(33)
    gauss = gauss_draws(rng)
    h = 1e-5
    feature_dim, z, c_verb, c_noun = 3, 2, 3, 4
    dataset = []
    for i in range(3):
        features = np.array([next(gauss) for _ in range(feature_dim)])
        actions = tuple(Action(rng.randint(c_verb), rng.randint(c_noun)) for _ in range(z))
        dataset.append((features, ActionSequence(f"e{i}", actions)))

    for point in range(20):
        smoothing = point % 2 == 1
        dec = MultiHeadDecoder.init(feature_dim, z, c_verb, c_noun, seed=500 + point, init_scale=0.5)
        _, grads = loss_and_grad(dec, dataset, smoothing)
        for key in ("verb_weights", "verb_biases", "noun_weights", "noun_biases"):
            param = getattr(dec, key)
            fd = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + h
                up, _ = loss_and_grad(dec, dataset, smoothing)
                param[idx] = orig - h
                down, _ = loss_and_grad(dec, dataset, smoothing)
                param[idx] = orig
                fd[idx] = (up - down) / (2 * h)
            rel = np.linalg.norm(fd - grads[key]) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-4
    _report(3, "analytic gradients match central differences (h=1e-5) at 20 points, rel err <= 1e-4")


def test_criterion_4_ensemble_identity_and_linearity():
    rng = CounterRng(44)

    def tensor(seed):
        gauss = gauss_draws(CounterRng(seed))
        return LogitsTensor(
            "e",
            np.array([[next(gauss) for _ in range(5)] for _ in range(4)]),
            np.array([[next(gauss) for _ in range(7)] for _ in range(4)]),
        )

    for trial in range(20):
        a = tensor(rng.next_u64())
        b = tensor(rng.next_u64())
        ident = combine_logits(a, b, EnsembleWeights(1.0, 0.0))
        assert np.array_equal(ident.verb_logits, a.verb_logits)
        assert np.array_equal(ident.noun_logits, a.noun_logits)
        w1 = EnsembleWeights(rng.uniform(), rng.uniform())
        w2 = EnsembleWeights(rng.uniform(), rng.uniform())
        wsum = EnsembleWeights(w1.alpha + w2.alpha, w1.beta + w2.beta)
        lhs = combine_logits(a, b, w1).verb_logits + combine_logits(a, b, w2).verb_logits
        rhs = combine_logits(a, b, wsum).verb_logits
        assert np.allclose(lhs, rhs, atol=1e-9)
    _report(4, "alpha=1/beta=0 bit-identical to input A; weight linearity within 1e-9")


def _random_built_stats(rng, c_verb, c_noun):
    corpus = []
    for i in range(3 + rng.randint(5)):
        actions = tuple(
            Action(rng.randint(c_verb), rng.randint(c_noun)) for _ in range(2 + rng.randint(6))
        )
        corpus.append(ActionSequence(f"e{i}", actions))
    vv = Vocabulary("verb", tuple(f"v{i}" for i in range(c_verb)))
    nv = Vocabulary("noun", tuple(f"n{i}" for i in range(c_noun)))
    return build_stats(corpus, vv, nv, SmoothingConfig(add_k=float(rng.randint(3))))


def test_criterion_5_refinement_distribution_contract(monkeypatch):
    rng = CounterRng(55)
    for trial in range(10_000):
        c_verb = 2 + rng.randint(4)
        c_noun = 2 + rng.randint(4)
        stats = _random_built_stats(rng, c_verb, c_noun)
        mode = IndicatorMode.AS_WRITTEN if trial % 2 == 0 else IndicatorMode.STANDARD_NPMI

        noun_probs = np.array([rng.uniform() + 1e-6 for _ in range(c_noun)])
        noun_probs /= noun_probs.sum()
        out, fallback = refine_noun_step(noun_probs, rng.randint(c_noun), stats, mode)
        if fallback:
            assert np.array_equal(out, noun_probs)
        else:
            assert np.all(out >= 0.0)
            assert abs(out.sum() - 1.0) <= 1e-9

        verb_probs = np.array([rng.uniform() + 1e-6 for _ in range(c_verb)])
        verb_probs /= verb_probs.sum()
        out, fallback = refine_verb_step(
            verb_probs, rng.randint(c_verb), rng.randint(c_noun), stats, mode
        )
        if fallback:
            assert np.array_equal(out, verb_probs)
        else:
            assert np.all(out >= 0.0)
            assert abs(out.sum() - 1.0) <= 1e-9

    # constant-factor score scaling leaves the output invariant
    import seqpost.refine as refine_mod

    stats = _random_built_stats(CounterRng(56), 3, 3)
    probs = np.array([0.2, 0.5, 0.3])
    base_scores = transition_score_row(stats, 0, "noun", IndicatorMode.AS_WRITTEN)
    outputs = []
    for factor in (1.0, 13.7):
        monkeypatch.setattr(
            refine_mod, "transition_score_row", lambda *a, _f=factor, **k: _f * base_scores
        )
        out, _ = refine_noun_step(probs, 0, stats, IndicatorMode.AS_WRITTEN)
        outputs.append(out)
    monkeypatch.undo()
    assert np.allclose(outputs[0], outputs[1], atol=1e-9)

    # as_written mode is exactly 0 at constructed independence
    marginal = np.array([0.3, 0.7])
    independent = CoocStats(
        verb_marginal=marginal,
        noun_marginal=marginal,
        verb_transition=np.outer(marginal, marginal),
        noun_transition=np.outer(marginal, marginal),
        verb_given_noun=np.full((2, 2), 0.5),
        smoothing=SmoothingConfig(),
        corpus_fingerprint="constructed",
    )
    for prev in range(2):
        for nxt in range(2):
            assert transition_score_row(independent, prev, "verb", IndicatorMode.AS_WRITTEN)[nxt] == 0.0
    _report(5, "10^4 draws: refined output valid or exact fallback; scale-invariant; 0 at independence")


def test_criterion_6_statistics_correctness():
    vv = Vocabulary("verb", ("v0", "v1"))
    nv = Vocabulary("noun", ("n0",))
    one_seq = [ActionSequence("e0", (Action(0, 0), Action(1, 0)))]

    stats0 = build_stats(one_seq, vv, nv, SmoothingConfig(add_k=0.0))
    assert np.array_equal(stats0.verb_marginal, [0.5, 0.5])
    assert np.array_equal(stats0.verb_transition[0], [0.0, 1.0])
    assert np.array_equal(stats0.verb_given_noun[0], [0.5, 0.5])

    stats1 = build_stats(one_seq, vv, nv, SmoothingConfig(add_k=1.0))
    assert np.array_equal(stats1.verb_transition[0], [1.0 / 3.0, 2.0 / 3.0])

    rng = CounterRng(66)
    corpus = [
        ActionSequence(
            f"e{i}", tuple(Action(rng.randint(3), rng.randint(4)) for _ in range(6))
        )
        for i in range(40)
    ]
    vv3 = Vocabulary("verb", ("a", "b", "c"))
    nv4 = Vocabulary("noun", ("w", "x", "y", "z"))
    stats = build_stats(corpus, vv3, nv4, SmoothingConfig())
    for matrix in (stats.verb_transition, stats.noun_transition, stats.verb_given_noun):
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
    reordered = build_stats(list(reversed(corpus)), vv3, nv4, SmoothingConfig())
    assert np.array_equal(stats.verb_transition, reordered.verb_transition)
    assert np.array_equal(stats.noun_transition, reordered.noun_transition)
    assert np.array_equal(stats.verb_given_noun, reordered.verb_given_noun)
    _report(6, "hand-countable corpora exact; rows sum to 1; corpus-order invariant")


def test_criterion_7_directional_synthetic_claim():
    start = time.monotonic()
    structured = SynthConfig(
        c_verb=6, c_noun=6, num_sequences=200, seq_len=20,
        transition_sharpness=sharpness_for_mass(0.9, 6),
        verb_noun_coupling=0.9, logit_noise_sigma=1.0, rng_seed=77,
    )
    report = run_refinement_experiment(structured)
    assert report["n_eval"] == 100
    structured_delta = report["delta"]["ed_action"]
    assert report["refined"]["ed_action"] < report["raw"]["ed_action"]

    unstructured = SynthConfig(
        c_verb=6, c_noun=6, num_sequences=200, seq_len=20,
        transition_sharpness=1.0, verb_noun_coupling=0.0,
        logit_noise_sigma=1.0, rng_seed=77,
    )
    report = run_refinement_experiment(unstructured)
    flat_delta = report["delta"]["ed_action"]
    assert abs(flat_delta) < 0.05

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(
        7,
        f"structured delta {structured_delta:+.3f} > 0; unstructured |{flat_delta:+.3f}| < 0.05 "
        f"({elapsed:.1f}s, 100 episodes, Z=20, K=5)",
    )


def test_criterion_8_cli_pipeline_determinism(tmp_path):
    config = {
        "c_verb": 5, "c_noun": 5, "num_sequences": 30, "seq_len": 10,
        "transition_sharpness": 15.0, "verb_noun_coupling": 0.8,
        "logit_noise_sigma": 1.0, "rng_seed": 88,
    }
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps(config))

    def run(tag):
        base = tmp_path / tag
        base.mkdir()
        assert main([
            "synth", "gen", "--config", str(config_path), "--quiet",
            "--out-corpus", str(base / "corpus.jsonl"),
            "--out-logits", str(base / "logits.jsonl"),
            "--out-vocab-prefix", str(base / "vocab"),
        ]) == 0
        assert main([
            "stats", "--quiet",
            "--train", str(base / "corpus.jsonl"),
            "--verb-vocab", str(base / "vocab.verb.json"),
            "--noun-vocab", str(base / "vocab.noun.json"),
            "--out", str(base / "stats.json"),
        ]) == 0
        assert main([
            "refine", "--quiet",
            "--stats", str(base / "stats.json"),
            "--logits", str(base / "logits.jsonl"),
            "--z", "10", "--k", "5", "--seed", "88",
            "--out", str(base / "preds.jsonl"),
        ]) == 0
        assert main([
            "eval", "--quiet",
            "--preds", str(base / "preds.jsonl"),
            "--truth", str(base / "corpus.jsonl"),
            "--out", str(base / "report.json"),
        ]) == 0
        return (base / "preds.jsonl").read_bytes(), (base / "report.json").read_bytes()

    preds_a, report_a = run("run_a")
    preds_b, report_b = run("run_b")
    assert preds_a == preds_b
    assert report_a == report_b
    _report(8, "synth -> stats -> refine -> eval twice: byte-identical predictions and report")


def test_criterion_9_min_over_k_monotonicity():
    rng = CounterRng(99)
    for _ in range(1000):
        z = 2 + rng.randint(6)
        truth = ActionSequence(
            "e", tuple(Action(rng.randint(3), rng.randint(3)) for _ in range(z))
        )
        patterns = [
            tuple(Action(rng.randint(3), rng.randint(3)) for _ in range(z))
            for _ in range(4)
        ]
        axis = ("verb", "noun", "action")[rng.randint(3)]
        prev = None
        for k in range(1, 5):
            preds = PredictionSet("e", tuple(patterns[:k]), ("raw_argmax",) * k)
            value = ed_at_k(preds, truth, axis)
            if prev is not None:
                assert value <= prev
            prev = value
    _report(9, "appending patterns never increases ed_at_k over 1000 random cases")
