import hashlib
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import seqpost.cli
import seqpost.metric
from seqpost.cli import main
from seqpost.cooc import CoocStats, IndicatorMode, SmoothingConfig, build_stats
from seqpost.decoder import TrainConfig
from seqpost.ensemble import EnsembleWeights, LogitsTensor, dump_logits, load_logits
from seqpost.refine import PredictionSet
from seqpost.vocab import Action, ActionSequence, Vocabulary, dump_corpus, load_corpus

from oracles import sweep_scores, sweep_stdout


@pytest.fixture
def workspace(tmp_path):
    """Synthetic corpus, logits and vocab files plus a config."""
    config = {
        "c_verb": 4,
        "c_noun": 4,
        "num_sequences": 20,
        "seq_len": 6,
        "transition_sharpness": 10.0,
        "verb_noun_coupling": 0.7,
        "logit_noise_sigma": 1.0,
        "rng_seed": 5,
        "num_patterns": 4,
    }
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps(config))
    assert main([
        "synth", "gen", "--config", str(config_path), "--quiet",
        "--out-corpus", str(tmp_path / "corpus.jsonl"),
        "--out-logits", str(tmp_path / "logits.jsonl"),
        "--out-vocab-prefix", str(tmp_path / "vocab"),
    ]) == 0
    return tmp_path


def _build_stats(ws, out="stats.json", extra=()):
    return main([
        "stats", "--quiet",
        "--train", str(ws / "corpus.jsonl"),
        "--verb-vocab", str(ws / "vocab.verb.json"),
        "--noun-vocab", str(ws / "vocab.noun.json"),
        "--out", str(ws / out),
        *extra,
    ])


def test_stats_roundtrip(workspace):
    assert _build_stats(workspace) == 0
    stats = CoocStats.from_json((workspace / "stats.json").read_text())
    assert np.allclose(stats.verb_transition.sum(axis=1), 1.0)
    manifest = json.loads((workspace / "stats.json.manifest.json").read_text())
    assert str(workspace / "corpus.jsonl") in manifest["inputs"]


def test_stats_bad_corpus_exit_nonzero(workspace, capsys):
    bad = workspace / "bad.jsonl"
    bad.write_text('{"episode_id": "broken-ep", "actions": [[99, 0]]}\n')
    code = main([
        "stats", "--quiet",
        "--train", str(bad),
        "--verb-vocab", str(workspace / "vocab.verb.json"),
        "--noun-vocab", str(workspace / "vocab.noun.json"),
        "--out", str(workspace / "unused.json"),
    ])
    assert code != 0
    assert "broken-ep" in capsys.readouterr().err


def test_stats_parse_error_names_line(workspace, capsys):
    bad = workspace / "garbled.jsonl"
    bad.write_text('{"episode_id": "ok", "actions": [[0, 0]]}\nnot json\n')
    code = main([
        "stats", "--quiet",
        "--train", str(bad),
        "--verb-vocab", str(workspace / "vocab.verb.json"),
        "--noun-vocab", str(workspace / "vocab.noun.json"),
        "--out", str(workspace / "unused.json"),
    ])
    assert code != 0
    assert ":2" in capsys.readouterr().err


def test_train_val_concatenation(workspace):
    corpus = (workspace / "corpus.jsonl").read_text().splitlines()
    (workspace / "part1.jsonl").write_text("\n".join(corpus[:10]) + "\n")
    (workspace / "part2.jsonl").write_text("\n".join(corpus[10:]) + "\n")
    assert _build_stats(workspace, out="whole.json") == 0
    code = main([
        "stats", "--quiet",
        "--train", str(workspace / "part1.jsonl"),
        "--val", str(workspace / "part2.jsonl"),
        "--verb-vocab", str(workspace / "vocab.verb.json"),
        "--noun-vocab", str(workspace / "vocab.noun.json"),
        "--out", str(workspace / "split.json"),
    ])
    assert code == 0
    assert (workspace / "whole.json").read_text() == (workspace / "split.json").read_text()


def _run_pipeline(ws, out, seed=3, extra=()):
    return main([
        "refine", "--quiet",
        "--stats", str(ws / "stats.json"),
        "--logits", str(ws / "logits.jsonl"),
        "--z", "6", "--k", "4", "--seed", str(seed),
        "--out", str(ws / out),
        *extra,
    ])


def test_pipeline_and_eval(workspace, capsys):
    assert _build_stats(workspace) == 0
    assert _run_pipeline(workspace, "preds.jsonl") == 0
    code = main([
        "eval",
        "--preds", str(workspace / "preds.jsonl"),
        "--truth", str(workspace / "corpus.jsonl"),
        "--out", str(workspace / "report.json"),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.index("Verb") < printed.index("Noun") < printed.index("Action")
    report = json.loads((workspace / "report.json").read_text())
    assert report["n_examples"] == 20
    assert report["unmatched"] == 0


def test_pipeline_rerun_byte_identical(workspace):
    assert _build_stats(workspace) == 0
    assert _run_pipeline(workspace, "a.jsonl") == 0
    assert _run_pipeline(workspace, "b.jsonl") == 0
    assert (workspace / "a.jsonl").read_bytes() == (workspace / "b.jsonl").read_bytes()


def test_pipeline_missing_stats_errors(workspace, capsys):
    code = main([
        "refine", "--quiet",
        "--logits", str(workspace / "logits.jsonl"),
        "--z", "6", "--k", "4",
        "--out", str(workspace / "x.jsonl"),
    ])
    assert code != 0
    assert "--stats" in capsys.readouterr().err


def test_pipeline_k1_is_pure_argmax(workspace):
    from seqpost.ensemble import load_logits
    from seqpost.refine import load_predictions

    code = main([
        "refine", "--quiet",
        "--logits", str(workspace / "logits.jsonl"),
        "--z", "6", "--k", "1",
        "--out", str(workspace / "argmax.jsonl"),
    ])
    assert code == 0
    preds = load_predictions(str(workspace / "argmax.jsonl"))
    logits = load_logits(str(workspace / "logits.jsonl"))
    for pred, tensor in zip(preds, logits):
        assert pred.tiers == ("raw_argmax",)
        for z, action in enumerate(pred.patterns[0]):
            assert action.verb_id == int(np.argmax(tensor.verb_logits[z]))
            assert action.noun_id == int(np.argmax(tensor.noun_logits[z]))


def test_two_identical_logits_files_equal_single(workspace):
    assert _build_stats(workspace) == 0
    assert _run_pipeline(workspace, "single.jsonl") == 0
    assert _run_pipeline(
        workspace, "double.jsonl",
        extra=["--logits-b", str(workspace / "logits.jsonl"), "--alpha", "0.5", "--beta", "0.5"],
    ) == 0
    assert (workspace / "single.jsonl").read_text() == (workspace / "double.jsonl").read_text()


def test_ensemble_command(workspace):
    code = main([
        "ensemble", "--quiet",
        "--logits-a", str(workspace / "logits.jsonl"),
        "--logits-b", str(workspace / "logits.jsonl"),
        "--alpha", "0.6", "--beta", "1.4",
        "--out", str(workspace / "combined.jsonl"),
    ])
    assert code == 0
    from seqpost.ensemble import load_logits

    a = load_logits(str(workspace / "logits.jsonl"))
    combined = load_logits(str(workspace / "combined.jsonl"))
    assert np.allclose(combined[0].verb_logits, 2.0 * a[0].verb_logits)


def test_eval_unmatched_warning(workspace):
    assert _build_stats(workspace) == 0
    assert _run_pipeline(workspace, "preds.jsonl") == 0
    lines = (workspace / "corpus.jsonl").read_text().splitlines()
    (workspace / "truth_partial.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    code = main([
        "eval", "--quiet",
        "--preds", str(workspace / "preds.jsonl"),
        "--truth", str(workspace / "truth_partial.jsonl"),
        "--out", str(workspace / "partial.json"),
    ])
    assert code == 0
    assert json.loads((workspace / "partial.json").read_text())["unmatched"] == 1


def test_eval_refuses_a_truth_with_no_prediction(workspace, capsys):
    """Leaving a hard example out of the predictions cannot lower the score."""
    truth, preds = workspace / "truth2.jsonl", workspace / "preds1.jsonl"
    _write_lines(truth, [json.dumps({"episode_id": f"e{i}", "actions": [[0, 0]]}) for i in range(2)])
    _write_lines(preds, [json.dumps({"example_id": "e0", "patterns": [[[0, 0]]], "tiers": ["raw_argmax"]})])
    assert main(["eval", "--quiet", "--preds", str(preds), "--truth", str(truth),
                 "--out", str(workspace / "out.jsonl")]) == 1
    assert capsys.readouterr() == (
        "", f"error: {preds}: 1 of 2 truth examples have no prediction (first 'e1')\n"
    )
    _assert_no_output(workspace)


def test_eval_per_example_consistent(workspace):
    assert _build_stats(workspace) == 0
    assert _run_pipeline(workspace, "preds.jsonl") == 0
    code = main([
        "eval", "--quiet", "--per-example",
        "--preds", str(workspace / "preds.jsonl"),
        "--truth", str(workspace / "corpus.jsonl"),
        "--out", str(workspace / "detail.json"),
    ])
    assert code == 0
    report = json.loads((workspace / "detail.json").read_text())
    for axis in ("verb", "noun", "action"):
        mean = sum(e[axis] for e in report["per_example"]) / len(report["per_example"])
        assert abs(report[f"ed_{axis}"] - mean) < 1e-12


def test_train_command(workspace, tmp_path):
    rows = []
    for i in range(6):
        features = [1.0 if d == i % 3 else 0.0 for d in range(4)]
        actions = [[i % 3, (i + 1) % 4] for _ in range(3)]
        rows.append(json.dumps({"features": features, "actions": actions}))
    data = tmp_path / "train.jsonl"
    data.write_text("\n".join(rows) + "\n")
    code = main([
        "train", "--quiet",
        "--data", str(data),
        "--smooth", "on", "--seed", "1",
        "--epochs", "30", "--lr", "0.3", "--batch-size", "2",
        "--out", str(tmp_path / "ckpt.json"),
    ])
    assert code == 0
    from seqpost.decoder import MultiHeadDecoder

    dec = MultiHeadDecoder.from_json((tmp_path / "ckpt.json").read_text())
    assert dec.num_steps == 3
    assert dec.feature_dim == 4


def test_synth_experiment_command(workspace):
    code = main([
        "synth", "experiment", "--quiet",
        "--config", str(workspace / "synth.json"),
        "--out", str(workspace / "exp.json"),
    ])
    assert code == 0
    report = json.loads((workspace / "exp.json").read_text())
    assert set(report) >= {"config", "raw", "refined", "delta", "n_eval"}


def test_synth_experiment_report_records_logit_scale(workspace):
    config = json.loads((workspace / "synth.json").read_text())
    reports = []
    for scale in (1.0, 3.0):
        path = workspace / f"synth_{scale}.json"
        path.write_text(json.dumps({**config, "logit_scale": scale}))
        assert main(["synth", "experiment", "--quiet", "--config", str(path),
                     "--out", str(workspace / "exp.json")]) == 0
        reports.append(json.loads((workspace / "exp.json").read_text()))
    assert [r["config"]["logit_scale"] for r in reports] == [1.0, 3.0]
    # the setting changes the numbers, so a report without it could not be reproduced
    assert reports[0]["raw"] != reports[1]["raw"]


PINNED_SYNTH_EXPERIMENT = {
    "c_verb": 6, "c_noun": 8, "num_sequences": 60, "seq_len": 10,
    "transition_sharpness": 5.0, "verb_noun_coupling": 0.7, "logit_noise_sigma": 1.0,
    "rng_seed": 3, "num_patterns": 4, "mode": "standard_npmi",
}


@pytest.mark.bits
def test_synth_experiment_report_bytes_pinned(tmp_path):
    config, report = tmp_path / "synth.json", tmp_path / "exp.json"
    config.write_text(json.dumps(PINNED_SYNTH_EXPERIMENT))
    assert main(["synth", "experiment", "--quiet", "--per-example",
                 "--config", str(config), "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "dcae416ccd3543b81733fd937686369677e8e5a7e43462718492b0a1fed2e5d6"
    )


def test_commands_do_not_mutate_inputs(workspace):
    before = (workspace / "logits.jsonl").read_bytes()
    assert _build_stats(workspace) == 0
    assert _run_pipeline(workspace, "preds.jsonl") == 0
    assert (workspace / "logits.jsonl").read_bytes() == before


def _stats_cmd(ws, train="corpus.jsonl", verb_vocab="vocab.verb.json"):
    return main([
        "stats", "--quiet",
        "--train", str(ws / train),
        "--verb-vocab", str(ws / verb_vocab),
        "--noun-vocab", str(ws / "vocab.noun.json"),
        "--out", str(ws / "unused.json"),
    ])


@pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\u0085", "\x0c", "\x1c"],
                         ids=["nbsp", "line_separator", "next_line", "form_feed", "file_separator"])
def test_a_record_line_ending_in_non_json_whitespace_is_one_error_line(workspace, capsys, space):
    # a short corpus line goes to json.loads; a long logits line is offered to the kernel first
    corpus = (workspace / "corpus.jsonl").read_text()
    bad = workspace / "spaced.jsonl"
    bad.write_text(corpus.replace("\n", space + "\n", 1), encoding="utf-8")
    assert _stats_cmd(workspace, train="spaced.jsonl") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:1: invalid JSON: ") and err.count("\n") == 1
    rng = np.random.default_rng(0)
    wide = LogitsTensor("e0", rng.normal(size=(4, 700)), rng.normal(size=(4, 700))).to_json()
    logits = workspace / "wide.jsonl"
    logits.write_text(wide + "\n" + wide + space + "\n", encoding="utf-8")
    out = workspace / "combined.jsonl"
    assert main(["ensemble", "--quiet", "--logits-a", str(logits), "--logits-b", str(logits),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {logits}:2: invalid JSON: ") and err.count("\n") == 1
    assert not out.exists()


def test_corpus_record_error_names_file_and_line(workspace, capsys):
    bad = workspace / "wide.jsonl"
    bad.write_text('{"episode_id": "e", "actions": [[0, 1, 2]]}\n')
    assert _stats_cmd(workspace, train="wide.jsonl") == 1
    assert f"{bad}:1: bad sequence record" in capsys.readouterr().err


def test_vocabulary_without_kind_is_one_error_line(workspace, capsys):
    bad = workspace / "nokind.json"
    bad.write_text('{"names": ["a", "b", "c", "d"]}\n')
    assert _stats_cmd(workspace, verb_vocab="nokind.json") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: bad vocabulary file")
    assert err.count("\n") == 1


@pytest.mark.parametrize("verb_file, noun_file, bad, found, expected", [
    ("noun", "noun", "noun", "noun", "verb"),
    ("noun", "verb", "noun", "noun", "verb"),
    ("verb", "verb", "verb", "verb", "noun"),
], ids=["noun_as_verb", "both_swapped", "verb_as_noun"])
def test_stats_vocabulary_of_the_wrong_kind_is_one_error_line(
    tmp_path, capsys, verb_file, noun_file, bad, found, expected
):
    # 6 verbs and 8 nouns, so a swapped vocabulary also has the wrong size
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"c_verb": 6, "c_noun": 8, "num_sequences": 10, "seq_len": 4}))
    assert main(["synth", "gen", "--quiet", "--config", str(config),
                 "--out-corpus", str(tmp_path / "corpus.jsonl"),
                 "--out-vocab-prefix", str(tmp_path / "vocab")]) == 0
    assert main([
        "stats", "--quiet", "--train", str(tmp_path / "corpus.jsonl"),
        "--verb-vocab", str(tmp_path / f"vocab.{verb_file}.json"),
        "--noun-vocab", str(tmp_path / f"vocab.{noun_file}.json"),
        "--out", str(tmp_path / "stats.json"),
    ]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / f'vocab.{bad}.json'}: bad vocabulary file: "
        f"kind is '{found}', expected '{expected}'\n"
    )
    assert not (tmp_path / "stats.json").exists()


@pytest.mark.parametrize("corrupt, message", [
    (lambda obj: obj.pop("verb_given_noun"), "'verb_given_noun'"),
    (lambda obj: obj.update(verb_given_noun=obj["verb_given_noun"][:2]),
     "verb_given_noun has shape (2, 4), expected (4, 4)"),
    (lambda obj: obj.update(c_verb=99),
     "c_verb 99 and c_noun 4 do not match the 4 verb and 4 noun marginal entries"),
    (lambda obj: obj["verb_marginal"].__setitem__(1, math.nan),
     "verb_marginal holds nan, expected finite entries >= 0"),
    (lambda obj: obj["noun_transition"][1].__setitem__(2, math.inf),
     "noun_transition holds inf, expected finite entries >= 0"),
    (lambda obj: obj["verb_given_noun"][2].__setitem__(0, -0.5),
     "verb_given_noun holds -0.5, expected finite entries >= 0"),
    (lambda obj: obj.update(corpus_fingerprint=7), "corpus_fingerprint 7 is not a string"),
    (lambda obj: obj.update(c_verb=4.0), "c_verb 4.0 is not an integer"),
    (lambda obj: obj["smoothing"].update(add_k=True), "add_k must be a number, got True"),
    (lambda obj: obj["smoothing"].update(prob_clamp_max="0.9"), "prob_clamp_max must be a number, got '0.9'"),
    (lambda obj: obj["smoothing"].pop("prob_clamp_min"), "smoothing lacks prob_clamp_min"),
    (lambda obj: obj["verb_marginal"].__setitem__(slice(0, 2), ["0.5", True]),
     "verb_marginal must be JSON numbers"),
    (lambda obj: obj.update(verb_marginal=[True] * 4), "verb_marginal must be JSON numbers"),
    (lambda obj: obj.update(noun_transition=[[True, False, False, False]] * 4),
     "noun_transition must be JSON numbers"),
    (lambda obj: obj["verb_given_noun"][1].__setitem__(0, None), "verb_given_noun must be JSON numbers"),
    (lambda obj: obj.update(noun_marginal=0.25), "noun_marginal has shape (), expected one entry per class"),
    (lambda obj: obj["noun_transition"][2].__setitem__(1, False), "noun_transition must be JSON numbers"),
], ids=["missing_table", "short_table", "wrong_class_count", "NaN_entry", "Infinity_entry",
        "negative_entry", "numeric_fingerprint", "float_class_count", "boolean_add_k", "string_clamp",
        "missing_smoothing_key", "string_and_boolean_entries", "boolean_table", "boolean_rows",
        "null_entry", "scalar_marginal", "boolean_among_numbers"])
def test_malformed_stats_is_one_error_line(workspace, capsys, corrupt, message):
    assert _build_stats(workspace) == 0
    obj = json.loads((workspace / "stats.json").read_text())
    corrupt(obj)
    bad = workspace / "bad_stats.json"
    bad.write_text(json.dumps(obj))
    code = main([
        "refine", "--quiet", "--stats", str(bad),
        "--logits", str(workspace / "logits.jsonl"),
        "--z", "6", "--k", "4", "--out", str(workspace / "x.jsonl"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: bad stats file: {message}\n"
    assert not (workspace / "x.jsonl").exists()


def test_boolean_class_count_is_one_error_line(tmp_path, capsys):
    """``true`` equals 1, so it would pass as the class count of a one-verb stats file."""
    corpus = [ActionSequence("e", (Action(0, 0), Action(0, 1)))]
    vocab = lambda kind, n: Vocabulary(kind, tuple(f"{kind}{i}" for i in range(n)))
    obj = json.loads(build_stats(corpus, vocab("verb", 1), vocab("noun", 2), SmoothingConfig()).to_json())
    obj["c_verb"] = True
    bad, logits = tmp_path / "stats.json", tmp_path / "logits.jsonl"
    bad.write_text(json.dumps(obj))
    dump_logits([LogitsTensor("e", np.zeros((2, 1)), np.zeros((2, 2)))], str(logits))
    assert main(["refine", "--quiet", "--stats", str(bad), "--logits", str(logits),
                 "--z", "2", "--k", "2", "--out", str(tmp_path / "x.jsonl")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: bad stats file: c_verb True is not an integer\n"
    assert not (tmp_path / "x.jsonl").exists()


def _refine_with_stats(ws, stats_path):
    return main([
        "refine", "--quiet", "--stats", str(stats_path),
        "--logits", str(ws / "logits.jsonl"),
        "--z", "6", "--k", "4", "--out", str(ws / "x.jsonl"),
    ])


def _indent2(text):
    return json.dumps(json.loads(text), indent=2)


def _semicolon_3mb_in(text):
    """The text with the first comma 3 MB in, inside noun_transition, made a semicolon."""
    at = text.index(",", 3_000_000)
    assert text.index('"noun_transition"') < at < text.index('"verb_given_noun"')
    return text[:at] + ";" + text[at + 1:]


@pytest.mark.parametrize("corrupt", [
    _semicolon_3mb_in,
    lambda text: _semicolon_3mb_in(_indent2(text)),
    lambda text: text[:len(text) // 2],
    lambda text: text[:-1],
    lambda text: text + ' {"c_verb": 115}',
    lambda text: _indent2(text) + "\n\n x",
], ids=["semicolon", "semicolon_indent2", "truncated_in_table", "truncated_before_brace",
        "trailing_object", "trailing_data_indent2"])
def test_malformed_lta_stats_gives_the_json_loads_error(workspace, capsys, lta_stats_text, corrupt):
    """A 478-noun stats file read a chunk at a time fails with the error, and
    the file-absolute line, column and char, of json.loads of the whole file."""
    text = corrupt(lta_stats_text)
    with pytest.raises(json.JSONDecodeError) as whole:
        json.loads(text)
    bad = workspace / "bad_stats.json"
    bad.write_text(text)
    assert _refine_with_stats(workspace, bad) == 1
    assert capsys.readouterr().err == f"error: {bad}: bad stats file: {whole.value}\n"
    assert not (workspace / "x.jsonl").exists()


def test_non_utf8_byte_deep_in_lta_stats_is_one_error_line(workspace, capsys, lta_stats_text):
    raw = lta_stats_text.encode()
    at = raw.index(b'"corpus_fingerprint": "') + 30
    bad = workspace / "latin1_stats.json"
    bad.write_bytes(raw[:at] + b"\xe9" + raw[at + 1:])
    assert _refine_with_stats(workspace, bad) == 1
    _one_error_line(capsys, f"{bad}: bad stats file: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("split", ["--train", "--val"])
@pytest.mark.parametrize("actions, message", [
    ([[4, 0]], "verb_id 4 out of range [0, 4)"),
    ([[0, 0], [1, 9]], "noun_id 9 out of range [0, 4)"),
    ([], "empty sequence"),
], ids=["verb_out_of_range", "noun_out_of_range", "empty"])
def test_stats_corpus_violation_is_one_error_line(workspace, capsys, split, actions, message):
    bad = workspace / "bad.jsonl"
    bad.write_text(json.dumps({"episode_id": "bad-ep", "actions": actions}) + "\n")
    splits = ["--train", str(bad)] if split == "--train" else [
        "--train", str(workspace / "corpus.jsonl"), "--val", str(bad)]
    code = main([
        "stats", "--quiet", *splits,
        "--verb-vocab", str(workspace / "vocab.verb.json"),
        "--noun-vocab", str(workspace / "vocab.noun.json"),
        "--out", str(workspace / "unused.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: episode 'bad-ep': {message}\n"
    assert not (workspace / "unused.json").exists()


def test_logits_wider_than_stats_rejected_at_load(workspace, capsys):
    assert _build_stats(workspace) == 0
    wide = workspace / "wide_logits.jsonl"
    wide.write_text(json.dumps({
        "example_id": "ep00000",
        "verb_logits": np.zeros((6, 4)).tolist(),
        "noun_logits": np.zeros((6, 5)).tolist(),
    }) + "\n")
    code = main([
        "refine", "--quiet", "--stats", str(workspace / "stats.json"),
        "--logits", str(wide), "--z", "6", "--k", "4",
        "--out", str(workspace / "x.jsonl"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {wide}: example 'ep00000' has 4 verb and 5 noun classes")
    assert not (workspace / "x.jsonl").exists()


def test_logits_with_other_step_count_is_one_error_line(tmp_path, capsys):
    logits, out = tmp_path / "logits.jsonl", tmp_path / "out.jsonl"
    dump_logits([LogitsTensor("e0", np.zeros((3, 2)), np.zeros((3, 4)))], str(logits))
    assert main(["refine", "--quiet", "--logits", str(logits), "--z", "2", "--k", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {logits}: example 'e0' has 3 steps, expected 2\n"
    assert not out.exists()


def _synth_gen(ws, config):
    path = ws / "bad_synth.json"
    path.write_text(json.dumps(config))
    return path, main([
        "synth", "gen", "--quiet", "--config", str(path),
        "--out-corpus", str(ws / "c.jsonl"), "--out-logits", str(ws / "l.jsonl"),
    ])


def test_synth_config_rejects_unknown_key(workspace, capsys):
    path, code = _synth_gen(workspace, {"c_verb": 3, "c_noun": 3, "transition_sharpnes": 5.0})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: bad synth config file")
    assert "transition_sharpnes" in err
    assert not (workspace / "c.jsonl").exists()


def test_synth_config_rejects_nonpositive_logit_scale(workspace, capsys):
    _, code = _synth_gen(workspace, {"c_verb": 3, "c_noun": 3, "logit_scale": 0.0})
    assert code == 1
    assert "scale must be positive" in capsys.readouterr().err


def _assert_rejected_before_writing(ws, capsys, config, key):
    path, code = _synth_gen(ws, {"c_verb": 3, "c_noun": 3, **config})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: bad synth config file: {key} must be")
    assert err.count("\n") == 1
    assert not (ws / "c.jsonl").exists()


@pytest.mark.parametrize("scale", ["big", True, 0, -1.5])
def test_synth_config_rejects_bad_logit_scale(workspace, capsys, scale):
    _assert_rejected_before_writing(workspace, capsys, {"logit_scale": scale}, "logit_scale")


@pytest.mark.parametrize("k", ["5", 2.5, False, 0])
def test_synth_config_rejects_bad_num_patterns(workspace, capsys, k):
    _assert_rejected_before_writing(workspace, capsys, {"num_patterns": k}, "num_patterns")


@pytest.mark.parametrize(
    "key, value", [("seq_len", 2.5), ("num_sequences", 2.5), ("rng_seed", "x"), ("c_verb", True)]
)
def test_synth_config_rejects_mistyped_field(workspace, capsys, key, value):
    _assert_rejected_before_writing(workspace, capsys, {key: value}, key)


def test_synth_config_rejects_unknown_mode(workspace, capsys):
    _assert_rejected_before_writing(workspace, capsys, {"mode": "npmi"}, "mode")


def test_eval_duplicate_prediction_id_is_one_error_line(workspace, capsys):
    assert _build_stats(workspace) == 0
    assert _run_pipeline(workspace, "preds.jsonl") == 0
    lines = (workspace / "preds.jsonl").read_text().splitlines()
    (workspace / "dup.jsonl").write_text("\n".join(lines + lines[:1]) + "\n")
    code = main([
        "eval", "--quiet",
        "--preds", str(workspace / "dup.jsonl"),
        "--truth", str(workspace / "corpus.jsonl"),
        "--out", str(workspace / "dup_report.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    example_id = json.loads(lines[0])["example_id"]
    assert err == (f"error: {workspace / 'dup.jsonl'}:{len(lines) + 1}: "
                   f"duplicate example_id {example_id!r} in the predictions\n")
    assert not (workspace / "dup_report.json").exists()


NON_INTEGER_IDS = [1.7, "3", True]


def _one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("bad_id", NON_INTEGER_IDS)
def test_corpus_non_integer_id_is_one_error_line(workspace, capsys, bad_id):
    bad = workspace / "floaty.jsonl"
    bad.write_text(
        '{"episode_id": "ok", "actions": [[0, 0]]}\n'
        + json.dumps({"episode_id": "e", "actions": [[0, 1], [bad_id, 2]]}) + "\n"
    )
    assert _stats_cmd(workspace, train="floaty.jsonl") == 1
    _one_error_line(capsys, f"{bad}:2: bad sequence record: ")
    assert not (workspace / "unused.json").exists()


@pytest.mark.parametrize("bad_id", NON_INTEGER_IDS)
def test_predictions_non_integer_id_is_one_error_line(workspace, capsys, bad_id):
    assert _build_stats(workspace) == 0
    assert _run_pipeline(workspace, "preds.jsonl") == 0
    lines = (workspace / "preds.jsonl").read_text().splitlines()
    obj = json.loads(lines[1])
    obj["patterns"][0][0] = [bad_id, 2]
    lines[1] = json.dumps(obj)
    bad = workspace / "floaty_preds.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    code = main([
        "eval", "--quiet", "--preds", str(bad),
        "--truth", str(workspace / "corpus.jsonl"),
        "--out", str(workspace / "report.json"),
    ])
    assert code == 1
    _one_error_line(capsys, f"{bad}:2: bad prediction record: ")
    assert not (workspace / "report.json").exists()


def _train_cmd(ws, rows, extra=()):
    data = ws / "train.jsonl"
    data.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return main([
        "train", "--quiet", "--data", str(data), "--epochs", "2",
        "--out", str(ws / "ckpt.json"), *extra,
    ])


@pytest.mark.parametrize("bad_id", NON_INTEGER_IDS)
def test_training_non_integer_id_is_one_error_line(workspace, capsys, bad_id):
    rows = [
        {"features": [1.0, 0.0], "actions": [[0, 1], [1, 0]]},
        {"features": [0.0, 1.0], "actions": [[1, 1], [bad_id, 2]]},
    ]
    assert _train_cmd(workspace, rows) == 1
    _one_error_line(capsys, f"{workspace / 'train.jsonl'}:2: bad training record: ")
    assert not (workspace / "ckpt.json").exists()


@pytest.mark.parametrize("action, message", [
    ([3, 0], "verb_id 3 out of range [0, 3)"),
    ([0, -1], "noun_id -1 out of range [0, 2)"),
], ids=["verb_id_too_large", "negative_noun_id"])
def test_train_class_id_outside_decoder_is_one_error_line(workspace, capsys, action, message):
    rows = [
        {"features": [1.0, 0.0], "actions": [[0, 1], [1, 0]]},
        {"features": [0.0, 1.0], "actions": [[2, 1], action]},
    ]
    assert _train_cmd(workspace, rows, ["--c-verb", "3", "--c-noun", "2"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: episode 'line2': {message}\n"
    assert not (workspace / "ckpt.json").exists()


def test_stats_and_train_report_the_same_first_fault(workspace, capsys):
    # a bad noun id at step 0 and a bad verb id at step 1: both commands stop at the noun
    actions = [[0, 9], [9, 0]]
    corpus = workspace / "bad.jsonl"
    corpus.write_text(json.dumps({"episode_id": "line1", "actions": actions}) + "\n")
    assert main(["stats", "--quiet", "--train", str(corpus), "--out", str(workspace / "unused.json"),
                 "--verb-vocab", str(workspace / "vocab.verb.json"),
                 "--noun-vocab", str(workspace / "vocab.noun.json")]) == 1
    stats_err = capsys.readouterr().err
    assert _train_cmd(workspace, [{"features": [1.0], "actions": actions}],
                      ["--c-verb", "4", "--c-noun", "4"]) == 1
    assert capsys.readouterr().err == stats_err == "error: episode 'line1': noun_id 9 out of range [0, 4)\n"
    assert not (workspace / "unused.json").exists() and not (workspace / "ckpt.json").exists()


@pytest.mark.parametrize("add_k", ["inf", "nan"])
def test_stats_non_finite_add_k_is_one_error_line(workspace, capsys, add_k):
    assert _build_stats(workspace, extra=["--add-k", add_k]) == 1
    err = capsys.readouterr().err
    assert err == f"error: add_k must be nonnegative and finite, got {float(add_k)}\n"
    assert not (workspace / "stats.json").exists()


@pytest.mark.parametrize("actions, extra, message", [
    ([[-3, 0], [-2, 0]], [], "episode 'line1': verb_id -3 out of range [0, 1)"),
    ([[0, -4], [0, -2]], [], "episode 'line1': noun_id -4 out of range [0, 1)"),
    ([[0, 0], [1, 0]], ["--c-verb", "-5"], "--c-verb must be >= 1, got -5"),
    ([[0, 0], [1, 0]], ["--c-noun", "0"], "--c-noun must be >= 1, got 0"),
], ids=["negative_verb_ids_inferred", "negative_noun_ids_inferred", "negative_c_verb", "zero_c_noun"])
def test_train_class_count_below_one_is_one_error_line(workspace, capsys, actions, extra, message):
    rows = [{"features": [1.0, 0.0], "actions": actions}]
    assert _train_cmd(workspace, rows, extra) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workspace / "ckpt.json").exists()


@pytest.mark.parametrize("lineno", [1, 2], ids=["line1", "line2"])
def test_train_empty_actions_is_one_error_line(workspace, capsys, lineno):
    # the first record's action count is the decoder's step count Z
    rows = [{"features": [1.0, 0.0], "actions": [[0, 0], [1, 0]]}] * 2
    rows[lineno - 1] = {"features": [1.0, 0.0], "actions": []}
    assert _train_cmd(workspace, rows) == 1
    assert capsys.readouterr().err == (
        f"error: {workspace / 'train.jsonl'}:{lineno}: bad training record: "
        "actions must not be empty\n"
    )
    assert not (workspace / "ckpt.json").exists()


def test_train_empty_dataset_is_one_error_line(workspace, capsys):
    assert _train_cmd(workspace, []) == 1
    assert capsys.readouterr().err == "error: empty training dataset\n"
    assert not (workspace / "ckpt.json").exists()


def test_train_empty_features_is_one_error_line(tmp_path):
    data, ckpt = tmp_path / "train.jsonl", tmp_path / "ckpt.json"
    data.write_text("".join(json.dumps({"features": [], "actions": [[i, i]]}) + "\n"
                            for i in range(2)))
    done = _seqpost_subprocess("train", "--quiet", "--data", str(data), "--out", str(ckpt))
    assert (done.returncode, done.stderr) == (
        1, f"error: {data}:1: bad training record: features must not be empty\n"
    )
    assert not ckpt.exists()


# a first line longer than one 8 KiB decoding chunk, then a bad byte on line 2
LONG_FIRST_LINE = json.dumps({"episode_id": "e" * 9000, "actions": [[0, 0]]}).encode() + b"\n"


def test_non_utf8_corpus_line_is_one_error_line(workspace, capsys):
    bad = workspace / "latin1.jsonl"
    bad.write_bytes(LONG_FIRST_LINE + b'{"episode_id": "caf\xe9", "actions": [[0, 0]]}\n')
    assert _stats_cmd(workspace, train="latin1.jsonl") == 1
    _one_error_line(capsys, f"{bad}:2: not UTF-8: ")
    assert not (workspace / "unused.json").exists()


def test_non_utf8_logits_line_is_one_error_line(workspace, capsys):
    bad = workspace / "latin1_logits.jsonl"
    lines = (workspace / "logits.jsonl").read_bytes().splitlines(keepends=True)
    long_first = json.loads(lines[0]) | {"example_id": "e" * 9000}
    bad.write_bytes(json.dumps(long_first).encode() + b"\n" + lines[1].replace(b'"ep', b'"\xff', 1))
    code = main([
        "refine", "--quiet", "--logits", str(bad), "--z", "6", "--k", "1",
        "--out", str(workspace / "x.jsonl"),
    ])
    assert code == 1
    _one_error_line(capsys, f"{bad}:2: not UTF-8: ")


@pytest.mark.parametrize("kind", ["vocabulary", "stats", "synth config"])
def test_non_utf8_json_file_is_one_error_line(workspace, capsys, kind):
    bad = workspace / "latin1.json"
    bad.write_bytes(b'{"kind": "verb", "names": ["caf\xe9"]}\n')
    if kind == "vocabulary":
        code = _stats_cmd(workspace, verb_vocab="latin1.json")
    elif kind == "stats":
        code = main(["refine", "--quiet", "--stats", str(bad), "--logits",
                     str(workspace / "logits.jsonl"), "--z", "6", "--out", str(workspace / "x.jsonl")])
    else:
        code = main(["synth", "gen", "--quiet", "--config", str(bad),
                     "--out-corpus", str(workspace / "c.jsonl")])
    assert code == 1
    _one_error_line(capsys, f"{bad}: bad {kind} file: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("names", ["abcd", [1, 2, 3, 4]], ids=["string", "integers"])
def test_vocabulary_names_not_strings_is_one_error_line(workspace, capsys, names):
    bad = workspace / "badnames.json"
    bad.write_text(json.dumps({"kind": "verb", "names": names}))
    assert _stats_cmd(workspace, verb_vocab="badnames.json") == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: bad vocabulary file: names must be a list of strings\n"


SYNTH_KEYS = {"c_verb", "c_noun", "num_sequences", "seq_len", "transition_sharpness",
              "verb_noun_coupling", "logit_noise_sigma", "rng_seed", "num_patterns"}

# argv (paths relative to the workspace), then the manifest's expected input
# paths, output paths (the first one names the manifest), seed and config keys
MANIFEST_CASES = {
    "stats": (
        "stats --train corpus.jsonl --verb-vocab vocab.verb.json --noun-vocab vocab.noun.json "
        "--out m.json",
        {"corpus.jsonl", "vocab.verb.json", "vocab.noun.json"}, ["m.json"], None,
        {"add_k", "prob_clamp_min", "prob_clamp_max"},
    ),
    "ensemble": (
        "ensemble --logits-a logits.jsonl --logits-b logits_b.jsonl --out m.jsonl",
        {"logits.jsonl", "logits_b.jsonl"}, ["m.jsonl"], None, {"alpha", "beta", "sweep"},
    ),
    "refine": (
        "refine --stats stats.json --logits logits.jsonl --z 6 --k 4 --seed 3 --out m.jsonl",
        {"stats.json", "logits.jsonl"}, ["m.jsonl"], 3,
        {"alpha", "beta", "z", "k", "seed", "mode"},
    ),
    "refine_logits_b": (
        "refine --stats stats.json --logits logits.jsonl --logits-b logits_b.jsonl "
        "--z 6 --k 4 --seed 3 --out m.jsonl",
        {"stats.json", "logits.jsonl", "logits_b.jsonl"}, ["m.jsonl"], 3,
        {"alpha", "beta", "z", "k", "seed", "mode"},
    ),
    "refine_k1_no_stats": (
        "refine --logits logits.jsonl --z 6 --k 1 --out m.jsonl",
        {"logits.jsonl"}, ["m.jsonl"], 0, {"alpha", "beta", "z", "k", "seed", "mode"},
    ),
    "train": (
        "train --data train.jsonl --epochs 2 --seed 1 --c-verb 3 --c-noun 2 --out m.json",
        {"train.jsonl"}, ["m.json"], 1,
        {"smooth", "seed", "lr", "epochs", "batch_size", "c_verb", "c_noun"},
    ),
    "eval": (
        "eval --preds preds.jsonl --truth corpus.jsonl --out m.json",
        {"preds.jsonl", "corpus.jsonl"}, ["m.json"], None, {"no_transposition", "per_example"},
    ),
    "synth_gen": (
        "synth gen --config synth.json --out-corpus m.jsonl --out-logits m_logits.jsonl "
        "--out-vocab-prefix m_vocab",
        {"synth.json"}, ["m.jsonl", "m_logits.jsonl", "m_vocab.verb.json", "m_vocab.noun.json"],
        5, {"seed"} | SYNTH_KEYS,
    ),
    "synth_experiment": (
        "synth experiment --config synth.json --seed 9 --out m.json",
        {"synth.json"}, ["m.json"], 9, {"seed", "per_example"} | SYNTH_KEYS,
    ),
}


@pytest.fixture
def manifest_workspace(workspace, monkeypatch):
    """The workspace as working directory, with stats, predictions, a second
    logits file and training data in it."""
    monkeypatch.chdir(workspace)
    assert _build_stats(workspace) == 0
    assert _run_pipeline(workspace, "preds.jsonl") == 0
    (workspace / "logits_b.jsonl").write_bytes((workspace / "logits.jsonl").read_bytes())
    rows = [{"features": [1.0, 0.0], "actions": [[0, 1], [2, 0]]},
            {"features": [0.0, 1.0], "actions": [[1, 1], [2, 1]]}]
    (workspace / "train.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    return workspace


@pytest.mark.parametrize("case", list(MANIFEST_CASES))
def test_manifest_records_paths_seed_and_every_other_option(manifest_workspace, case):
    argv, inputs, outputs, seed, config_keys = MANIFEST_CASES[case]
    assert main(argv.split() + ["--quiet"]) == 0
    manifest = json.loads((manifest_workspace / f"{outputs[0]}.manifest.json").read_text())
    assert set(manifest) == {"tool", "command", "seed", "inputs", "config", "outputs"}
    assert manifest["command"] == argv.split()[:2 if argv.startswith("synth") else 1]
    assert set(manifest["inputs"]) == inputs
    assert set(manifest["outputs"]) == set(outputs)
    assert manifest["seed"] == seed
    assert set(manifest["config"]) == config_keys


def test_manifest_records_the_library_defaults(manifest_workspace):
    """An option left out is recorded as the default of the library's config type."""
    smoothing, weights, train_cfg = SmoothingConfig(), EnsembleWeights(), TrainConfig()
    cases = [
        ("stats --train corpus.jsonl --verb-vocab vocab.verb.json --noun-vocab vocab.noun.json "
         "--out m.json", {"add_k": smoothing.add_k, "prob_clamp_min": smoothing.prob_clamp_min,
                          "prob_clamp_max": smoothing.prob_clamp_max}),
        ("ensemble --logits-a logits.jsonl --logits-b logits_b.jsonl --out m.jsonl",
         {"alpha": weights.alpha, "beta": weights.beta}),
        ("refine --stats stats.json --logits logits.jsonl --logits-b logits_b.jsonl --z 6 "
         "--out m.jsonl", {"alpha": weights.alpha, "beta": weights.beta,
                           "mode": IndicatorMode.AS_WRITTEN.value}),
        ("train --data train.jsonl --out m.json",
         {"lr": train_cfg.learning_rate, "epochs": train_cfg.epochs,
          "batch_size": train_cfg.batch_size}),
    ]
    for argv, defaults in cases:
        assert main(argv.split() + ["--quiet"]) == 0, argv
        manifest = manifest_workspace / f"{argv.split()[-1]}.manifest.json"
        config = json.loads(manifest.read_text())["config"]
        assert {key: config[key] for key in defaults} == defaults, argv


def test_manifest_option_sets_the_path(manifest_workspace):
    assert main(["eval", "--quiet", "--preds", "preds.jsonl", "--truth", "corpus.jsonl",
                 "--out", "m.json", "--manifest", "elsewhere.json"]) == 0
    manifest = json.loads((manifest_workspace / "elsewhere.json").read_text())
    assert set(manifest["outputs"]) == {"m.json"}
    assert "manifest" not in manifest["config"]
    assert not (manifest_workspace / "m.json.manifest.json").exists()


def test_sweep_writes_no_manifest(manifest_workspace):
    before = set(manifest_workspace.iterdir())
    assert main(["ensemble", "--quiet", "--sweep", "--truth", "corpus.jsonl",
                 "--logits-a", "logits.jsonl", "--logits-b", "logits_b.jsonl",
                 "--manifest", "sweep.json"]) == 0
    assert set(manifest_workspace.iterdir()) == before


@pytest.mark.bits
@pytest.mark.parametrize("smooth, digest, line", [
    ("off", "6fa73791671c29f51a90a2602a0db89ed1df58a3fe53a5c7cb59e14453a63a6d",
     "loss 11.0258 -> 4.7843"),
    ("on", "f72c1fcada85b64b6ee673b7531b41a23f65c309a5b37fb3289efbbd0fc9e6d7",
     "loss 10.7666 -> 7.5192"),
], ids=["off", "on"])
def test_train_checkpoint_bytes_and_loss_line_pinned(tmp_path, capsys, smooth, digest, line):
    from test_decoder import pinned_train_rows

    data, ckpt = tmp_path / "train.jsonl", tmp_path / "ckpt.json"
    data.write_text("".join(json.dumps(row) + "\n" for row in pinned_train_rows()))
    assert main([
        "train", "--data", str(data), "--smooth", smooth, "--seed", "2",
        "--lr", "0.4", "--epochs", "6", "--batch-size", "3", "--c-verb", "4", "--c-noun", "9",
        "--out", str(ckpt),
    ]) == 0
    assert capsys.readouterr().out == f"trained 7 examples for 6 epochs; {line} -> {ckpt}\n"
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == digest


def test_train_diverging_run_is_one_error_line(workspace, capsys):
    rows = [{"features": [1e308, 1e308], "actions": [[0, 1], [1, 0]]}] * 2
    assert _train_cmd(workspace, rows, ["--lr", "10", "--epochs", "3"]) == 1
    assert capsys.readouterr().err == ("error: training diverged: noun_weights[0, 0, 0] is not "
                                       "finite; lower the learning rate\n")
    assert not (workspace / "ckpt.json").exists()


def _seqpost_subprocess(*argv):
    """The CLI run in a child process, so that a numpy RuntimeWarning on stderr is seen."""
    src = str(Path(seqpost.cli.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "seqpost.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.parametrize("features, extra, message", [
    ([1.0], ["--lr", "inf"], "learning_rate must be positive and finite, epochs and batch_size positive"),
    ([1e300], ["--lr", "1e10"], "training diverged: verb_weights[0, 0, 0] is not finite; "
                                "lower the learning rate"),
], ids=["infinite_lr", "overflowing_update"])
def test_train_non_finite_weights_are_one_error_line_and_no_file(tmp_path, features, extra, message):
    data, ckpt = tmp_path / "train.jsonl", tmp_path / "ckpt.json"
    data.write_text("".join(json.dumps({"features": features, "actions": [[i, i]]}) + "\n"
                            for i in range(2)))
    done = _seqpost_subprocess("train", "--quiet", "--data", str(data),
                               "--epochs", "1", "--batch-size", "8", "--out", str(ckpt), *extra)
    assert (done.returncode, done.stderr) == (1, f"error: {message}\n")
    assert not ckpt.exists()


def test_train_step_count_differing_from_the_first_record_names_the_episode(workspace, capsys):
    rows = [{"features": [1.0, 0.0], "actions": [[0, 1], [1, 0]]},
            {"features": [0.0, 1.0], "actions": [[1, 1]]}]
    assert _train_cmd(workspace, rows) == 1
    assert capsys.readouterr().err == "error: episode 'line2': sequence length 1 != decoder steps 2\n"
    assert not (workspace / "ckpt.json").exists()


@pytest.mark.parametrize("features", [3, None, [[1.0], [0.0]], ["1", 0.0], [True, 0.0], [1.0, math.nan],
                                      [0.5, False], [[1.0], [0.0, 2.0]]],
                         ids=["scalar", "null", "nested", "string", "bool", "nan", "bool_among_numbers",
                              "ragged"])
def test_train_features_not_a_finite_number_list_is_one_error_line(workspace, capsys, features):
    rows = [
        {"features": [1.0, 0.0], "actions": [[0, 1], [1, 0]]},
        {"features": features, "actions": [[1, 1], [0, 0]]},
    ]
    assert _train_cmd(workspace, rows) == 1
    assert capsys.readouterr().err == (
        f"error: {workspace / 'train.jsonl'}:2: bad training record: "
        "features must be a 1-D list of finite numbers\n"
    )
    assert not (workspace / "ckpt.json").exists()


@pytest.mark.parametrize("truth, patterns, message", [
    ([], [[]], "{truth}: example 'e': truth has no actions"),
    ([[0, 0]], [], "{preds}:1: bad prediction record: example 'e': prediction has no patterns"),
    ([[0, 0], [1, 1]], [[[0, 0]]], "{preds}:1: example 'e': pattern 0 has length 1, truth has length 2"),
], ids=["empty_truth", "no_patterns", "pattern_length"])
def test_eval_empty_truth_or_patterns_is_one_error_line(tmp_path, capsys, truth, patterns, message):
    (tmp_path / "truth.jsonl").write_text(json.dumps({"episode_id": "e", "actions": truth}) + "\n")
    (tmp_path / "preds.jsonl").write_text(
        json.dumps({"example_id": "e", "patterns": patterns, "tiers": ["raw_argmax"] * len(patterns)}) + "\n"
    )
    code = main([
        "eval", "--quiet", "--preds", str(tmp_path / "preds.jsonl"),
        "--truth", str(tmp_path / "truth.jsonl"), "--out", str(tmp_path / "report.json"),
    ])
    assert code == 1
    paths = {name: tmp_path / f"{name}.jsonl" for name in ("truth", "preds")}
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# refine, ensemble and eval read their JSONL inputs one record at a time


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def _assert_no_output(ws, out="out.jsonl"):
    assert not (ws / out).exists()
    assert not (ws / f"{out}.manifest.json").exists()


def _two_model_argv(ws, command, logits_b):
    """refine (with stats, K=4) or ensemble over logits.jsonl and ``logits_b``, to out.jsonl,
    or ensemble --sweep over them against corpus.jsonl."""
    if command == "ensemble":
        return ["ensemble", "--quiet", "--logits-a", str(ws / "logits.jsonl"),
                "--logits-b", str(logits_b), "--out", str(ws / "out.jsonl")]
    if command == "sweep":
        return ["ensemble", "--sweep", "--logits-a", str(ws / "logits.jsonl"),
                "--logits-b", str(logits_b), "--truth", str(ws / "corpus.jsonl")]
    return ["refine", "--quiet", "--stats", str(ws / "stats.json"), "--logits", str(ws / "logits.jsonl"),
            "--logits-b", str(logits_b), "--z", "6", "--k", "4", "--out", str(ws / "out.jsonl")]


@pytest.mark.parametrize("command", ["refine", "ensemble", "sweep"])
@pytest.mark.parametrize("edit, counts", [
    (lambda lines: lines[:15], "20 vs 15"),
    (lambda lines: lines + lines[:5], "20 vs 25"),
], ids=["b_shorter", "b_longer"])
def test_logits_files_differ_in_length_is_one_error_line(workspace, capsys, command, edit, counts):
    assert _build_stats(workspace) == 0
    logits_b = workspace / "logits_b.jsonl"
    _write_lines(logits_b, edit((workspace / "logits.jsonl").read_text().splitlines()))
    assert main(_two_model_argv(workspace, command, logits_b)) == 1
    assert capsys.readouterr() == ("", f"error: logits files differ in length: {counts}\n")
    _assert_no_output(workspace)


@pytest.mark.parametrize("command, alpha", [("ensemble", "nan"), ("refine", "inf")])
def test_non_finite_ensemble_weights_are_one_error_line(workspace, capsys, command, alpha):
    assert _build_stats(workspace) == 0
    assert main([*_two_model_argv(workspace, command, workspace / "logits.jsonl"), "--alpha", alpha]) == 1
    assert capsys.readouterr().err == "error: ensemble weights must be finite\n"
    _assert_no_output(workspace)


@pytest.mark.parametrize("command, consumer", [
    ("refine", "generate_patterns"), ("ensemble", "combine_logits"),
])
def test_two_logits_files_are_read_in_lockstep(workspace, monkeypatch, command, consumer):
    """Example i is refined or combined once exactly i + 1 records of each file are parsed. Each
    line has a key that ``LogitsTensor.from_lines`` leaves to ``json.loads``, which the reader
    calls for one record at a time as it hands each over."""
    assert _build_stats(workspace) == 0
    lines = (workspace / "logits.jsonl").read_text().splitlines()
    logits_b = workspace / "logits_b.jsonl"
    for path, model in ((workspace / "logits.jsonl", "a"), (logits_b, "b")):
        _write_lines(path, [json.dumps(json.loads(line) | {"model": model}) for line in lines])
    parsed = {"a": 0, "b": 0}
    from_obj = LogitsTensor.from_obj

    def counting_from_obj(obj):
        parsed[obj.get("model", "a")] += 1
        return from_obj(obj)

    seen = []
    consume = getattr(seqpost.cli, consumer)

    def recording(*args, **kwargs):
        seen.append((parsed["a"], parsed["b"]))
        return consume(*args, **kwargs)

    monkeypatch.setattr(LogitsTensor, "from_obj", staticmethod(counting_from_obj))
    monkeypatch.setattr(seqpost.cli, consumer, recording)
    assert main(_two_model_argv(workspace, command, logits_b)) == 0
    assert seen == [(i + 1, i + 1) for i in range(len(lines))]


def test_eval_scores_each_prediction_as_it_is_read(workspace, monkeypatch):
    assert _build_stats(workspace) == 0
    assert _run_pipeline(workspace, "preds.jsonl") == 0
    parsed = []
    from_obj = PredictionSet.from_obj

    def counting_from_obj(obj):
        parsed.append(obj["example_id"])
        return from_obj(obj)

    seen = []
    ed_at_k = seqpost.metric.ed_at_k

    def recording(preds, *args, **kwargs):
        seen.append((preds.example_id, len(parsed)))
        return ed_at_k(preds, *args, **kwargs)

    monkeypatch.setattr(PredictionSet, "from_obj", staticmethod(counting_from_obj))
    monkeypatch.setattr(seqpost.metric, "ed_at_k", recording)
    assert main(["eval", "--quiet", "--preds", str(workspace / "preds.jsonl"),
                 "--truth", str(workspace / "corpus.jsonl"), "--out", str(workspace / "r.json")]) == 0
    # three axes per example, each scored before the next record is parsed
    assert seen == [(example_id, i + 1) for i, example_id in enumerate(parsed) for _ in range(3)]


def test_synth_gen_writes_each_logits_record_before_making_the_next(workspace, monkeypatch):
    expected = (workspace / "logits.jsonl").read_bytes()
    events = []
    corrupt = seqpost.cli.corrupt_to_logits_sized
    to_json = LogitsTensor.to_json

    def recording_corrupt(*args, **kwargs):
        events.append("make")
        return corrupt(*args, **kwargs)

    def recording_to_json(self):
        events.append("write")
        return to_json(self)

    monkeypatch.setattr(seqpost.cli, "corrupt_to_logits_sized", recording_corrupt)
    monkeypatch.setattr(LogitsTensor, "to_json", recording_to_json)
    out = workspace / "again"
    assert main(["synth", "gen", "--quiet", "--config", str(workspace / "synth.json"),
                 "--out-corpus", f"{out}.corpus.jsonl", "--out-logits", f"{out}.logits.jsonl"]) == 0
    assert events == ["make", "write"] * 20
    assert (workspace / "again.logits.jsonl").read_bytes() == expected


@pytest.mark.parametrize("two_models", [False, True], ids=["one_model", "two_models"])
def test_refine_frees_each_example_before_reading_the_next(workspace, monkeypatch, two_models):
    """While refine parses a logits record, nothing made from an earlier
    example is alive: neither its parsed nor its combined logits, nor its
    distributions."""
    assert _build_stats(workspace) == 0
    made = []  # (example_id, weak reference) of each LogitsTensor and StepDistributions
    held = []  # (example parsed, earlier example still alive)
    from_obj = LogitsTensor.from_obj.__func__
    post_init = LogitsTensor.__post_init__
    softmax_rows = seqpost.cli.softmax_rows

    def checking_from_obj(cls, obj):
        held.extend((obj["example_id"], example_id) for example_id, ref in made
                    if example_id != obj["example_id"] and ref() is not None)
        return from_obj(cls, obj)

    def recording_post_init(self):
        post_init(self)
        made.append((self.example_id, weakref.ref(self)))

    def recording_softmax_rows(logits):
        dists = softmax_rows(logits)
        made.append((dists.example_id, weakref.ref(dists)))
        return dists

    monkeypatch.setattr(LogitsTensor, "from_obj", classmethod(checking_from_obj))
    monkeypatch.setattr(LogitsTensor, "__post_init__", recording_post_init)
    monkeypatch.setattr(seqpost.cli, "softmax_rows", recording_softmax_rows)
    argv = _two_model_argv(workspace, "refine", workspace / "logits.jsonl")
    if not two_models:
        argv = argv[:argv.index("--logits-b")] + argv[argv.index("--logits-b") + 2:]
    assert main(argv) == 0
    assert len({example_id for example_id, _ in made}) == 20
    assert held == []


def _drop_key_of_last_line(path, key):
    lines = path.read_text().splitlines()
    obj = json.loads(lines[-1])
    del obj[key]
    _write_lines(path, lines[:-1] + [json.dumps(obj)])
    return len(lines)


def test_refine_bad_last_record_of_logits_b_is_one_error_line(workspace, capsys):
    assert _build_stats(workspace) == 0
    logits_b = workspace / "logits_b.jsonl"
    logits_b.write_bytes((workspace / "logits.jsonl").read_bytes())
    last = _drop_key_of_last_line(logits_b, "noun_logits")
    assert main(_two_model_argv(workspace, "refine", logits_b)) == 1
    assert capsys.readouterr().err == f"error: {logits_b}:{last}: bad logits record: 'noun_logits'\n"
    _assert_no_output(workspace)


def test_eval_bad_last_record_of_preds_is_one_error_line(workspace, capsys):
    assert _build_stats(workspace) == 0
    assert _run_pipeline(workspace, "preds.jsonl") == 0
    preds = workspace / "preds.jsonl"
    last = _drop_key_of_last_line(preds, "tiers")
    assert main(["eval", "--quiet", "--preds", str(preds), "--truth", str(workspace / "corpus.jsonl"),
                 "--out", str(workspace / "out.jsonl")]) == 1
    assert capsys.readouterr().err == f"error: {preds}:{last}: bad prediction record: 'tiers'\n"
    _assert_no_output(workspace)


@pytest.mark.parametrize("kind", ["sequence", "logits", "prediction"])
def test_non_string_record_id_is_one_error_line(workspace, capsys, kind):
    assert _build_stats(workspace) == 0
    assert _run_pipeline(workspace, "preds.jsonl") == 0
    source, key = {
        "sequence": ("corpus.jsonl", "episode_id"),
        "logits": ("logits.jsonl", "example_id"),
        "prediction": ("preds.jsonl", "example_id"),
    }[kind]
    lines = (workspace / source).read_text().splitlines()
    bad = workspace / f"numeric_{source}"
    _write_lines(bad, [lines[0], json.dumps(json.loads(lines[1]) | {key: 7})] + lines[2:])
    argv = {
        "sequence": ["stats", "--train", str(bad), "--verb-vocab", str(workspace / "vocab.verb.json"),
                     "--noun-vocab", str(workspace / "vocab.noun.json")],
        "logits": ["refine", "--logits", str(bad), "--z", "6", "--k", "1"],
        "prediction": ["eval", "--preds", str(bad), "--truth", str(workspace / "corpus.jsonl")],
    }[kind]
    assert main(argv + ["--quiet", "--out", str(workspace / "out.jsonl")]) == 1
    assert capsys.readouterr().err == f"error: {bad}:2: bad {kind} record: {key} 7 is not a string\n"
    _assert_no_output(workspace)


def test_eval_numeric_truth_id_does_not_silently_miss_a_string_prediction_id(tmp_path, capsys):
    truth = tmp_path / "truth.jsonl"
    _write_lines(truth, [json.dumps({"episode_id": 7, "actions": [[0, 0]]})])
    preds = tmp_path / "preds.jsonl"
    _write_lines(preds, [json.dumps({"example_id": "7", "patterns": [[[0, 0]]], "tiers": ["raw_argmax"]})])
    assert main(["eval", "--quiet", "--preds", str(preds), "--truth", str(truth),
                 "--out", str(tmp_path / "out.jsonl")]) == 1
    assert capsys.readouterr().err == f"error: {truth}:1: bad sequence record: episode_id 7 is not a string\n"
    _assert_no_output(tmp_path)


@pytest.mark.parametrize("extra, message", [
    ([], "--out is required unless --sweep is given"),
    (["--sweep"], "--sweep requires --truth"),
], ids=["no_out", "sweep_no_truth"])
def test_ensemble_usage_error_comes_before_reading_logits(tmp_path, capsys, extra, message):
    missing = str(tmp_path / "missing.jsonl")
    assert main(["ensemble", "--quiet", "--logits-a", missing, "--logits-b", missing, *extra]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["refine", "eval"])
def test_stats_or_truth_error_comes_before_reading_the_stream(workspace, capsys, command):
    """A command that streams logits or predictions first loads the file it holds whole."""
    bad = workspace / "bad.json"
    bad.write_text("not json\n")
    missing = str(workspace / "missing.jsonl")
    if command == "refine":
        argv = ["refine", "--stats", str(bad), "--logits", missing, "--z", "6"]
        prefix = f"{bad}: bad stats file: "
    else:
        argv = ["eval", "--preds", missing, "--truth", str(bad)]
        prefix = f"{bad}:1: invalid JSON: "
    assert main(argv + ["--quiet", "--out", str(workspace / "out.jsonl")]) == 1
    _one_error_line(capsys, prefix)
    _assert_no_output(workspace)


@pytest.mark.parametrize("command, weights", [
    ("refine", "alpha=0.6, beta=1.4"),
    ("ensemble", "alpha=0.6, beta=1.4"),
    ("sweep", "alpha=0.0, beta=1.8"),  # the first grid pair past the largest float
])
def test_combined_logits_that_overflow_are_one_error_line(tmp_path, command, weights):
    logits, truth, out = tmp_path / "big.jsonl", tmp_path / "truth.jsonl", tmp_path / "out.jsonl"
    logits.write_text('{"example_id": "big", "verb_logits": [[1e308, 2.0]], "noun_logits": [[1.0]]}\n')
    truth.write_text('{"episode_id": "big", "actions": [[0, 0]]}\n')
    argv = {
        "refine": ["refine", "--logits", logits, "--logits-b", logits, "--z", 1, "--k", 1, "--out", out],
        "ensemble": ["ensemble", "--logits-a", logits, "--logits-b", logits, "--out", out],
        "sweep": ["ensemble", "--sweep", "--truth", truth, "--logits-a", logits, "--logits-b", logits],
    }[command]
    done = _seqpost_subprocess(*map(str, argv))
    assert (done.returncode, done.stderr) == (
        1, f"error: example 'big': weighted logits must be finite ({weights})\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["gen", "experiment"])
def test_synth_config_whose_logits_can_overflow_is_one_error_line_and_no_file(tmp_path, subcommand):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"c_verb": 3, "c_noun": 4, "num_sequences": 3, "seq_len": 3,
                                  "logit_noise_sigma": 1e308}))
    outputs = {"gen": ["--out-corpus", tmp_path / "c.jsonl", "--out-logits", tmp_path / "l.jsonl"],
               "experiment": ["--out", tmp_path / "r.json"]}[subcommand]
    done = _seqpost_subprocess(*map(str, ["synth", subcommand, "--config", config, *outputs]))
    assert (done.returncode, done.stderr) == (
        1, f"error: {config}: bad synth config file: the corrupted logits can overflow: "
           "logit_scale + logit_noise_sigma * 8.571674348652905 must be finite\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("subcommand", ["gen", "experiment"])
def test_synth_config_not_a_json_object_is_one_error_line_and_no_file(tmp_path, capsys, subcommand):
    config = tmp_path / "c.json"
    config.write_text("[1, 2]")
    outputs = {"gen": ["--out-corpus", tmp_path / "c.jsonl", "--out-logits", tmp_path / "l.jsonl"],
               "experiment": ["--out", tmp_path / "r.json"]}[subcommand]
    assert main([*map(str, ["synth", subcommand, "--quiet", "--config", config, *outputs])]) == 1
    assert capsys.readouterr() == ("", f"error: {config}: bad synth config file: expected a JSON object\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_synth_experiment_of_one_sequence_is_one_error_line_and_no_file(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"num_sequences": 1}))
    done = _seqpost_subprocess("synth", "experiment", "--config", str(config),
                               "--out", str(tmp_path / "r.json"))
    assert (done.returncode, done.stderr) == (
        1, f"error: {config}: bad synth config file: num_sequences must be >= 2: "
           "even-index episodes build the statistics and odd-index ones are evaluated\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("late_output", [
    ["--out-logits", "l.jsonl", "--out-vocab-prefix", "nodir/v"],
    ["--manifest", "nodir/m.json"],
])
def test_missing_output_directory_is_one_error_line_and_no_file(tmp_path, monkeypatch, capsys,
                                                                 late_output):
    # the missing directory is named before the corpus, the first output, is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps({"num_sequences": 3, "seq_len": 3}))
    code = main(["synth", "gen", "--config", "s.json", "--out-corpus", "c.jsonl", *late_output])
    path = late_output[-1]
    assert (code, capsys.readouterr()) == (1, ("", f"error: {path}: no such directory: nodir\n"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


@pytest.mark.parametrize("command", ["refine", "ensemble"])
@pytest.mark.parametrize("axis", ["verb", "noun"])
def test_logits_record_without_classes_is_one_error_line(workspace, capsys, command, axis):
    logits, out = workspace / "empty.jsonl", workspace / "out.jsonl"
    record = {"example_id": "a", "verb_logits": [[1.0]], "noun_logits": [[1.0]], f"{axis}_logits": [[]]}
    first = (workspace / "logits.jsonl").read_text().splitlines()[0]
    _write_lines(logits, [first, json.dumps(record)])
    argv = {
        "refine": ["refine", "--logits", logits, "--z", 6, "--k", 1, "--out", out],
        "ensemble": ["ensemble", "--logits-a", logits, "--logits-b", logits, "--out", out],
    }[command]
    assert main([*map(str, argv), "--quiet"]) == 1
    shapes = "(1, 0) and (1, 1)" if axis == "verb" else "(1, 1) and (1, 0)"
    assert capsys.readouterr().err == (
        f"error: {logits}:2: bad logits record: logits need at least one class per axis, got {shapes}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("tiers", [[], ["whatever", 7], ["raw_argmax", "raw_argmax"], "raw_argmax"],
                         ids=["empty", "unknown", "one_too_many", "not_a_list"])
def test_eval_tiers_not_one_known_name_per_pattern_is_one_error_line(tmp_path, capsys, tiers):
    truth, preds, out = tmp_path / "truth.jsonl", tmp_path / "preds.jsonl", tmp_path / "out.jsonl"
    _write_lines(truth, [json.dumps({"episode_id": "e", "actions": [[0, 0]]})])
    _write_lines(preds, [json.dumps({"example_id": "e", "patterns": [[[0, 0]]], "tiers": tiers})])
    assert main(["eval", "--quiet", "--preds", str(preds), "--truth", str(truth), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {preds}:1: bad prediction record: tiers {tiers!r} must be 1 tier name(s), one per "
        "pattern, each one of raw_argmax, refined_argmax, refined_sampled\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("verb_logits", [[["1.5", True]], [["1.5", 0.5]], [[True, False]], [[None, 1.0]],
                                         [[10 ** 30, 1.0]], [[1.5, True]], [[2, False]]],
                         ids=["string_and_bool", "string", "bools", "null", "int_beyond_64_bits",
                              "bool_among_floats", "bool_among_ints"])
def test_logits_that_are_not_json_numbers_are_one_error_line(tmp_path, capsys, verb_logits):
    logits, out = tmp_path / "logits.jsonl", tmp_path / "out.jsonl"
    _write_lines(logits, [json.dumps({"example_id": "e", "verb_logits": verb_logits,
                                      "noun_logits": [[1.0, 2.0]]})])
    assert main(["refine", "--quiet", "--logits", str(logits), "--z", "1", "--k", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {logits}:1: bad logits record: verb_logits must be JSON numbers\n"
    )
    assert not out.exists()


def test_integer_logits_are_numbers(tmp_path):
    logits = tmp_path / "logits.jsonl"
    _write_lines(logits, [json.dumps({"example_id": "e", "verb_logits": [[1, 2]], "noun_logits": [[3, 1.5]]})])
    (tensor,) = load_logits(str(logits))
    assert tensor.verb_logits.dtype == np.float64
    assert tensor.verb_logits.tolist() == [[1.0, 2.0]] and tensor.noun_logits.tolist() == [[3.0, 1.5]]


# ---------------------------------------------------------------------------
# ensemble --sweep scores the stacked dev split as the per-example loop did


def _dev_split(root, seed, steps, near_ties=False, same_models=False, c_verb=3, c_noun=4):
    """Seeded logits of two models and a truth corpus for examples of the
    given step counts, written to ``root``; returns the three paths."""
    gen = np.random.default_rng(seed)
    models = {"a": [], "b": []}
    truths = []
    for i, z in enumerate(steps):
        example_id = f"dev{i}"
        for name in models:
            verb, noun = gen.normal(size=(z, c_verb)), gen.normal(size=(z, c_noun))
            if near_ties:
                # classes 0 and 1 an ulp apart at the top of each verb row: where
                # the weighted sums differ the raw argmax is 1, but exp rounds
                # both to 1.0 after the max is subtracted, so the softmax's is 0
                verb[:, 0], verb[:, 1] = 0.05, np.nextafter(0.05, 1.0)
                verb[:, 2:] = -5.0
            models[name].append(LogitsTensor(example_id, verb, noun))
        if same_models:
            models["b"][-1] = models["a"][-1]
        verbs = np.ones(z, dtype=int) if near_ties else gen.integers(c_verb, size=z)
        truths.append(ActionSequence(example_id, tuple(
            map(Action, verbs.tolist(), gen.integers(c_noun, size=z).tolist()))))
    paths = [root / "dev_a.jsonl", root / "dev_b.jsonl", root / "dev_truth.jsonl"]
    dump_logits(models["a"], str(paths[0]))
    dump_logits(models["b"], str(paths[1]))
    dump_corpus(truths, str(paths[2]))
    return paths


def _sweep_argv(paths):
    a, b, truth = map(str, paths)
    return ["ensemble", "--sweep", "--logits-a", a, "--logits-b", b, "--truth", truth]


@pytest.mark.parametrize("seed, steps, near_ties, same_models", [
    (0, [3, 5, 1, 4], False, False),
    (1, [6, 2, 6], True, False),
    (2, [4, 4, 2], False, True),
], ids=["different_z", "near_ties_in_exp", "same_models"])
def test_sweep_prints_what_the_per_example_loop_prints(tmp_path, capsys, seed, steps, near_ties, same_models):
    paths = _dev_split(tmp_path, seed, steps, near_ties, same_models)
    scores = sweep_scores(load_logits(str(paths[0])), load_logits(str(paths[1])), load_corpus(str(paths[2])))
    best = min(key for key, _, _ in scores)
    assert sum(key == best for key, _, _ in scores) > 1  # ties between grid pairs go to the first
    assert main(_sweep_argv(paths)) == 0
    assert capsys.readouterr() == (sweep_stdout(scores), "")


def test_sweep_overflow_names_the_first_example_the_per_example_loop_names(tmp_path, capsys):
    paths = _dev_split(tmp_path, 3, [2, 3, 2], same_models=True)
    tensors = load_logits(str(paths[0]))
    # dev1 overflows once alpha + beta > 1.79, in its first row; so does dev2
    tensors[1].noun_logits[0, 1] = 1e308
    tensors[2].verb_logits[0, 0] = 1e308
    for path in paths[:2]:
        dump_logits(tensors, str(path))
    with pytest.raises(ValueError) as excinfo:
        sweep_scores(tensors, tensors, load_corpus(str(paths[2])))
    assert str(excinfo.value) == "example 'dev1': weighted logits must be finite (alpha=0.0, beta=1.8)"
    assert main(_sweep_argv(paths)) == 1
    assert capsys.readouterr().err == f"error: {excinfo.value}\n"


def _pairs_per_block(steps, c_verb, c_noun):
    return max(1, seqpost.cli._SWEEP_BLOCK_FLOATS // (sum(steps) * (c_verb + c_noun)))


@pytest.mark.bits
@pytest.mark.parametrize("steps, c_verb, c_noun, drop_truth, per_block", [
    ([3, 5, 2], 3, 4, False, 117),
    ([7, 6], 30, 40, True, 9),
    ([5, 4], 120, 130, False, 3),
    ([2, 2], 1000, 1100, False, 1),
], ids=["117_per_block", "9_per_block_one_unmatched", "3_per_block", "1_per_block"])
def test_sweep_prints_what_the_per_example_loop_prints_at_block_edges(
        tmp_path, capsys, steps, c_verb, c_noun, drop_truth, per_block):
    assert _pairs_per_block(steps, c_verb, c_noun) == per_block  # so blocks end inside the grid
    paths = _dev_split(tmp_path, 8, steps, c_verb=c_verb, c_noun=c_noun)
    if drop_truth:  # the dev split's first example has no truth, so it is not scored
        _write_lines(paths[2], paths[2].read_text().splitlines()[1:])
    scores = sweep_scores(load_logits(str(paths[0])), load_logits(str(paths[1])), load_corpus(str(paths[2])))
    assert main(_sweep_argv(paths)) == 0
    assert capsys.readouterr() == (sweep_stdout(scores), "")


@pytest.mark.bits
def test_sweep_overflow_first_in_a_later_block_is_the_per_example_loops_error(tmp_path, capsys):
    steps = [2, 3, 2]
    per_block = _pairs_per_block(steps, 3, 4)
    paths = _dev_split(tmp_path, 9, steps, same_models=True)
    tensors = load_logits(str(paths[0]))
    # dev1 overflows once alpha + beta >= 3.6 and dev2 once it is >= 3.0: the
    # first such pair in grid order, (1.0, 2.0), is pair 229, so the error
    # names dev2 although dev1's rows come first
    tensors[1].noun_logits[1, 2] = 5e307
    tensors[2].verb_logits[0, 1] = 6e307
    for path in paths[:2]:
        dump_logits(tensors, str(path))
    with pytest.raises(ValueError) as excinfo:
        sweep_scores(tensors, tensors, load_corpus(str(paths[2])))
    assert str(excinfo.value) == "example 'dev2': weighted logits must be finite (alpha=1.0, beta=2.0)"
    # the pair's block is not the first, and holds finite pairs before it
    assert per_block <= 229 and 229 % per_block > 0
    assert main(_sweep_argv(paths)) == 1  # any numpy warning would be an error here
    assert capsys.readouterr() == ("", f"error: {excinfo.value}\n")


def test_sweep_calls_edit_distance_three_times_per_dev_example_and_pair(tmp_path, monkeypatch):
    calls = []
    edit_distance = seqpost.metric.edit_distance

    def counting(*args, **kwargs):
        calls.append(args)
        return edit_distance(*args, **kwargs)

    monkeypatch.setattr(seqpost.metric, "edit_distance", counting)
    paths = _dev_split(tmp_path, 10, [3, 5, 1, 4])
    assert main(_sweep_argv(paths)) == 0
    assert len(calls) == 440 * 4 * 3


def test_sweep_of_an_empty_dev_split_is_one_error_line(tmp_path, capsys):
    paths = _dev_split(tmp_path, 5, [])
    assert main(_sweep_argv(paths)) == 1
    assert capsys.readouterr().err == f"error: {paths[0]}: the dev split has no examples\n"


def test_sweep_dev_record_with_other_class_counts_is_one_error_line(tmp_path, capsys):
    paths = _dev_split(tmp_path, 4, [2, 2], same_models=True)
    tensors = load_logits(str(paths[0]))
    tensors[1] = LogitsTensor("dev1", tensors[1].verb_logits, np.zeros((2, 5)))
    for path in paths[:2]:
        dump_logits(tensors, str(path))
    assert main(_sweep_argv(paths)) == 1
    assert capsys.readouterr().err == (
        f"error: {paths[0]}: example 'dev1' has 3 verb and 5 noun classes, "
        "the first example 'dev0' has 3 and 4\n"
    )


@pytest.mark.parametrize("truths, message", [
    ([("dev0", [[0, 0]]), ("dev1", [[1, 1]]), ("dev0", [[2, 2]])], "duplicate example_id 'dev0' in the truth"),
    ([("dev0", [[0, 0]]), ("dev1", [])], "example 'dev1': truth has no actions"),
], ids=["duplicate_id", "empty_truth"])
def test_sweep_truth_fault_names_the_truth_file(tmp_path, capsys, truths, message):
    paths = _dev_split(tmp_path, 6, [2, 2])
    _write_lines(paths[2], [json.dumps({"episode_id": episode_id, "actions": actions})
                            for episode_id, actions in truths])
    assert main(_sweep_argv(paths)) == 1
    assert capsys.readouterr() == ("", f"error: {paths[2]}: {message}\n")


def test_sweep_refuses_a_truth_with_no_dev_example(tmp_path, capsys):
    paths = _dev_split(tmp_path, 7, [2, 2])
    with open(paths[2], "a") as handle:
        handle.write(json.dumps({"episode_id": "extra", "actions": [[0, 0], [1, 1]]}) + "\n")
    assert main(_sweep_argv(paths)) == 1
    assert capsys.readouterr() == (
        "", f"error: {paths[0]}: 1 of 3 truth examples have no prediction (first 'extra')\n"
    )
