import hashlib
import json
import math

import numpy as np
import pytest

import seqpost.cli
import seqpost.metric
from seqpost.cli import main
from seqpost.cooc import CoocStats
from seqpost.ensemble import LogitsTensor
from seqpost.refine import PredictionSet


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
        "--z", "3", "--smooth", "on", "--seed", "1",
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
], ids=["missing_table", "short_table", "wrong_class_count", "NaN_entry", "Infinity_entry",
        "negative_entry"])
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
    assert err == f"error: duplicate example_id {example_id!r} in the predictions\n"
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
        "train", "--quiet", "--data", str(data), "--z", "2", "--epochs", "2",
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
    assert err == f"error: episode 'line2': {message} of the decoder\n"
    assert not (workspace / "ckpt.json").exists()


@pytest.mark.parametrize("add_k", ["inf", "nan"])
def test_stats_non_finite_add_k_is_one_error_line(workspace, capsys, add_k):
    assert _build_stats(workspace, extra=["--add-k", add_k]) == 1
    err = capsys.readouterr().err
    assert err == f"error: add_k must be nonnegative and finite, got {float(add_k)}\n"
    assert not (workspace / "stats.json").exists()


@pytest.mark.parametrize("actions, extra, message", [
    ([[-3, 0], [-2, 0]], [], "episode 'line1': verb_id -3 out of range [0, 1) of the decoder"),
    ([[0, -4], [0, -2]], [], "episode 'line1': noun_id -4 out of range [0, 1) of the decoder"),
    ([[0, 0], [1, 0]], ["--c-verb", "-5"], "--c-verb must be >= 1, got -5"),
    ([[0, 0], [1, 0]], ["--c-noun", "0"], "--c-noun must be >= 1, got 0"),
], ids=["negative_verb_ids_inferred", "negative_noun_ids_inferred", "negative_c_verb", "zero_c_noun"])
def test_train_class_count_below_one_is_one_error_line(workspace, capsys, actions, extra, message):
    rows = [{"features": [1.0, 0.0], "actions": actions}]
    assert _train_cmd(workspace, rows, extra) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workspace / "ckpt.json").exists()


@pytest.mark.parametrize("z", ["-1", "0"])
def test_train_z_below_one_is_one_error_line(workspace, capsys, z):
    rows = [{"features": [1.0, 0.0], "actions": [[0, 0], [1, 0]]}]
    assert _train_cmd(workspace, rows, ["--z", z]) == 1
    assert capsys.readouterr().err == f"error: --z must be >= 1, got {z}\n"
    assert not (workspace / "ckpt.json").exists()


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
        "train --data train.jsonl --z 2 --epochs 2 --seed 1 --c-verb 3 --c-noun 2 --out m.json",
        {"train.jsonl"}, ["m.json"], 1,
        {"z", "smooth", "seed", "lr", "epochs", "batch_size", "c_verb", "c_noun"},
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


@pytest.mark.parametrize("smooth, digest, line", [
    ("off", "61c1dac03041aa8c6495870a2f0e99030d2ab11c481fe37939cd6ad68a28fa47",
     "loss 11.0258 -> 4.7843"),
    ("on", "a610b85930a61c71d5e0276e588ba4a22bd484e4e68ad0b00cc299dbeadf8185",
     "loss 10.7666 -> 7.5192"),
], ids=["off", "on"])
def test_train_checkpoint_bytes_and_loss_line_pinned(tmp_path, capsys, smooth, digest, line):
    from test_decoder import pinned_train_rows

    data, ckpt = tmp_path / "train.jsonl", tmp_path / "ckpt.json"
    data.write_text("".join(json.dumps(row) + "\n" for row in pinned_train_rows()))
    assert main([
        "train", "--data", str(data), "--z", "3", "--smooth", smooth, "--seed", "2",
        "--lr", "0.4", "--epochs", "6", "--batch-size", "3", "--c-verb", "4", "--c-noun", "9",
        "--out", str(ckpt),
    ]) == 0
    assert capsys.readouterr().out == f"trained 7 examples for 6 epochs; {line} -> {ckpt}\n"
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == digest


def test_train_diverging_run_is_one_error_line(workspace, capsys):
    rows = [{"features": [1e308, 1e308], "actions": [[0, 1], [1, 0]]}] * 2
    assert _train_cmd(workspace, rows, ["--lr", "10", "--epochs", "3"]) == 1
    assert capsys.readouterr().err == "error: logits must be finite\n"
    assert not (workspace / "ckpt.json").exists()


@pytest.mark.parametrize("features", [3, None, [[1.0], [0.0]], ["1", 0.0], [True, 0.0], [1.0, math.nan]],
                         ids=["scalar", "null", "nested", "string", "bool", "nan"])
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
    ([], [[]], "truth has no actions"),
    ([[0, 0]], [], "prediction has no patterns"),
], ids=["empty_truth", "no_patterns"])
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
    assert capsys.readouterr().err == f"error: example 'e': {message}\n"
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# refine, ensemble and eval read their JSONL inputs one record at a time


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def _assert_no_output(ws, out="out.jsonl"):
    assert not (ws / out).exists()
    assert not (ws / f"{out}.manifest.json").exists()


def _two_model_argv(ws, command, logits_b):
    """refine (with stats, K=4) or ensemble over logits.jsonl and ``logits_b``, to out.jsonl."""
    if command == "ensemble":
        return ["ensemble", "--quiet", "--logits-a", str(ws / "logits.jsonl"),
                "--logits-b", str(logits_b), "--out", str(ws / "out.jsonl")]
    return ["refine", "--quiet", "--stats", str(ws / "stats.json"), "--logits", str(ws / "logits.jsonl"),
            "--logits-b", str(logits_b), "--z", "6", "--k", "4", "--out", str(ws / "out.jsonl")]


@pytest.mark.parametrize("command", ["refine", "ensemble"])
@pytest.mark.parametrize("edit, counts", [
    (lambda lines: lines[:15], "20 vs 15"),
    (lambda lines: lines + lines[:5], "20 vs 25"),
], ids=["b_shorter", "b_longer"])
def test_logits_files_differ_in_length_is_one_error_line(workspace, capsys, command, edit, counts):
    assert _build_stats(workspace) == 0
    logits_b = workspace / "logits_b.jsonl"
    _write_lines(logits_b, edit((workspace / "logits.jsonl").read_text().splitlines()))
    assert main(_two_model_argv(workspace, command, logits_b)) == 1
    assert capsys.readouterr().err == f"error: logits files differ in length: {counts}\n"
    _assert_no_output(workspace)


@pytest.mark.parametrize("command, consumer", [
    ("refine", "generate_patterns"), ("ensemble", "combine_logits"),
])
def test_two_logits_files_are_read_in_lockstep(workspace, monkeypatch, command, consumer):
    """Example i is refined or combined once exactly i + 1 records of each file are parsed."""
    assert _build_stats(workspace) == 0
    lines = (workspace / "logits.jsonl").read_text().splitlines()
    logits_b = workspace / "logits_b.jsonl"
    _write_lines(logits_b, [json.dumps(json.loads(line) | {"model": "b"}) for line in lines])
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
