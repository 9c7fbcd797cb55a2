"""A boundary fuzzer for every input file the CLI reads: a stats file and a
logits record, read by ``refine``; a predictions record and a truth corpus
record, read by ``eval``; a corpus record and a vocabulary, read by ``stats``;
a synth config, read by ``synth gen``; and a training record, read by
``train``.

Each example starts from valid small files and applies one mutation to one of
them. At one place in the file's JSON: a type swap to a string, a boolean
(among numbers too), null or a nested list; a dropped key; ``NaN``; or an extra
key. To the file's text: a truncation, or a non-UTF-8 byte. Or a duplicate id,
where ids must be unique: ``eval`` pairs predictions with truths by id, and a
vocabulary's names are its ids. It then runs ``cli.main`` in-process and
checks the error contract: exit 1, exactly one stderr line, starting
``error: <that file>``, and no output file or manifest. An extra key may
instead be ignored, with the same output bytes as the valid files give.

A logits record too wide to enumerate, whose line is long enough for the
reader to offer it to ``LogitsTensor.from_line``, is read by ``ensemble``;
hypothesis samples its places and the fractions of its text where a text
mutation goes.

Left out: a dropped synth config key, since every ``SynthConfig`` field has a
default; and a duplicate id in ``stats`` and ``refine`` inputs, which read
each record on its own.
"""

import contextlib
import functools
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqpost.cli import main
from seqpost.cooc import SmoothingConfig, build_stats
from seqpost.ensemble import LogitsTensor
from seqpost.vocab import PARSE_LINE_BYTES, Action, ActionSequence, Vocabulary

CORPUS = {"episode_id": "e0", "actions": [[0, 1], [1, 2]]}
LOGITS = {"example_id": "e0", "verb_logits": [[0.5, -1.0], [0.0, 2.0]],
          "noun_logits": [[0.25, 1.5, -0.5], [1.0, 0.0, 3.0]]}
PREDICTIONS = {"example_id": "e0", "patterns": [[[0, 1], [1, 2]], [[1, 0], [0, 0]]],
               "tiers": ["raw_argmax", "refined_argmax"]}
VERBS, NOUNS = Vocabulary("verb", ("v0", "v1")), Vocabulary("noun", ("n0", "n1", "n2"))
SYNTH_CONFIG = {"c_verb": 2, "c_noun": 3, "num_sequences": 2, "seq_len": 2, "transition_sharpness": 1.5,
                "verb_noun_coupling": 0.5, "logit_noise_sigma": 1.0, "rng_seed": 0, "logit_scale": 1.0,
                "num_patterns": 2, "mode": "as_written"}
TRAINING = {"features": [0.5, -1.0], "actions": [[0, 1], [1, 2]]}
WIDE_LOGITS = json.loads(LogitsTensor("w0", np.random.default_rng(0).normal(size=(2, 500)),
                                      np.random.default_rng(1).normal(size=(2, 700))).to_json())


def _stats():
    corpus = [ActionSequence("t0", (Action(0, 1), Action(1, 2), Action(1, 0))),
              ActionSequence("t1", (Action(1, 1), Action(0, 2)))]
    return json.loads(build_stats(corpus, VERBS, NOUNS, SmoothingConfig()).to_json())


# each input file the fuzzer mutates, by name, with its valid content
BASES = {"stats": _stats(), "logits": LOGITS, "predictions": PREDICTIONS, "truth": CORPUS,
         "corpus": CORPUS, "vocabulary": json.loads(VERBS.to_json()), "synth_config": SYNTH_CONFIG,
         "training": TRAINING, "wide_logits": WIDE_LOGITS}
JSONL = {"logits", "predictions", "truth", "corpus", "training", "wide_logits", "wide_logits_b"}
SAMPLED = {"wide_logits"}  # too many places to enumerate
UNIQUE_IDS = {"predictions", "truth", "vocabulary"}


def _paths(value, path=()):
    """Every place in ``value`` a mutation can go: each dict value, and the
    first element of each list, down to the leaves."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,)
            yield from _paths(item, path + (key,))
    elif isinstance(value, list) and value:
        yield path + (0,)
        yield from _paths(value[0], path + (0,))


PLACE_MUTATIONS = ("string", "bool", "null", "nested", "drop", "nan", "extra")
TEXT_MUTATIONS = ("truncate", "non_utf8")
# where in the file's first line a text mutation goes, as a fraction of its length
TEXT_PLACES = ((0.0,), (0.25,), (0.5,), (0.75,), (1.0,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutated(kind, path, mutation, text, depth):
    """A copy of ``BASES[kind]`` with the place mutation applied at ``path``
    (``()`` is the whole object); None when it does not apply there (it would
    leave the value's type as it was, drop a list element or a synth config
    key, add a key to a non-object, or replace the whole object)."""
    obj = json.loads(json.dumps(BASES[kind]))
    if mutation == "extra":
        target = _at(obj, path)
        if not isinstance(target, dict):
            return None
        target[f"extra{text}"] = depth
        return obj
    if not path:
        return None
    *outer, last = path
    parent = _at(obj, outer)
    old = parent[last]
    if mutation == "drop":
        if not isinstance(parent, dict) or kind == "synth_config":
            return None
        del parent[last]
        return obj
    if mutation == "string":
        if isinstance(old, str):
            return None
        new = text
    elif mutation == "bool":
        new = True
    elif mutation == "null":
        new = None
    elif mutation == "nested":
        new = old
        for _ in range(depth):
            new = [new]
    else:
        new = math.nan
    parent[last] = new
    return obj


def _file_bytes(kind, place, mutation, text, depth):
    """The bytes of the ``kind`` file with one mutation that applies there."""
    obj = BASES[kind]
    if mutation in PLACE_MUTATIONS:
        obj = _mutated(kind, place, mutation, text, depth)
    elif mutation == "duplicate":
        if kind == "vocabulary":
            obj = {**obj, "names": obj["names"] + obj["names"][:1]}
        else:
            return ((json.dumps(obj) + "\n") * 2).encode()
    line = json.dumps(obj).encode()
    if mutation == "truncate":
        # a proper prefix of an object's text never closes it: never valid JSON
        return line[: 1 + round(place[0] * (len(line) - 2))]
    if mutation == "non_utf8":
        cut = round(place[0] * len(line))
        return line[:cut] + b"\xff" + line[cut:] + b"\n"
    return line + b"\n"


def _argv(kind, files, out):
    """The command that reads the ``kind`` file and writes ``out``."""
    if kind in ("predictions", "truth"):
        argv = ["eval", "--preds", files["predictions"], "--truth", files["truth"], "--out"]
    elif kind in ("corpus", "vocabulary"):
        argv = ["stats", "--train", files["corpus"], "--verb-vocab", files["vocabulary"],
                "--noun-vocab", files["noun_vocabulary"], "--out"]
    elif kind == "synth_config":
        argv = ["synth", "gen", "--config", files["synth_config"], "--out-corpus"]
    elif kind == "training":
        argv = ["train", "--data", files["training"], "--epochs", "1", "--out"]
    elif kind == "wide_logits":
        argv = ["ensemble", "--logits-a", files["wide_logits"], "--logits-b", files["wide_logits_b"], "--out"]
    else:
        argv = ["refine", "--stats", files["stats"], "--logits", files["logits"], "--z", "2", "--k", "3",
                "--out"]
    return argv + [out, "--quiet"]


def _run(kind, data):
    """Write the inputs, with ``data`` as the ``kind`` file, and run the command
    that reads it; (exit code, stderr, that file, directory before, after, the
    output's bytes or None)."""
    with tempfile.TemporaryDirectory() as tmp:
        texts = {name: (json.dumps(base) + "\n").encode() for name, base in BASES.items()}
        texts["noun_vocabulary"] = (NOUNS.to_json() + "\n").encode()
        texts["wide_logits_b"] = texts["wide_logits"]
        texts[kind] = data
        files = {name: os.path.join(tmp, f"{name}.json{'l' if name in JSONL else ''}") for name in texts}
        for name, path in files.items():
            with open(path, "wb") as handle:
                handle.write(texts[name])
        out = os.path.join(tmp, "out.json")
        before = sorted(os.listdir(tmp))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(_argv(kind, files, out))
        output = None
        if os.path.exists(out):
            with open(out, "rb") as handle:
                output = handle.read()
        return code, err.getvalue(), files[kind], before, sorted(os.listdir(tmp)), output


@functools.cache
def _valid_output(kind):
    code, err, _, before, after, output = _run(kind, (json.dumps(BASES[kind]) + "\n").encode())
    assert (code, err) == (0, ""), (kind, err)
    return output, set(after) - set(before)


def test_unmutated_inputs_are_valid():
    for kind in BASES:
        output, written = _valid_output(kind)
        assert output and written == {"out.json", "out.json.manifest.json"}


def _check(kind, place, mutation, text, depth):
    data = _file_bytes(kind, place, mutation, text, depth)
    code, err, path_of_file, before, after, output = _run(kind, data)
    case = (kind, place, mutation, err)
    if mutation == "extra" and code == 0:
        assert (err, output) == ("", _valid_output(kind)[0]), case
        return
    assert code == 1, case
    assert err.startswith(f"error: {path_of_file}") and err.count("\n") == 1, case
    assert after == before, case


# (input, place, mutation) for every mutation that applies at every place
ENUMERATED = [kind for kind in BASES if kind not in SAMPLED]
CASES = (
    [(kind, path, mutation) for kind in ENUMERATED for path in [(), *_paths(BASES[kind])]
     for mutation in PLACE_MUTATIONS if _mutated(kind, path, mutation, "", 1) is not None]
    + [(kind, place, mutation) for kind in ENUMERATED for place in TEXT_PLACES for mutation in TEXT_MUTATIONS]
    + [(kind, (), "duplicate") for kind in sorted(UNIQUE_IDS)]
)


def test_every_mutation_at_every_place_is_one_error_line_and_no_output():
    for case in CASES:
        _check(*case, text="x", depth=1)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from(CASES), st.text(max_size=8), st.integers(1, 3))
def test_one_mutation_is_one_error_line_and_no_output(case, text, depth):
    _check(*case, text, depth)


def test_the_wide_logits_line_is_offered_to_the_kernel():
    line = (json.dumps(WIDE_LOGITS) + "\n").encode()
    assert len(line) > PARSE_LINE_BYTES
    assert LogitsTensor.from_line(line) is not None


@st.composite
def _wide_places(draw):
    """A place in the wide logits record: the whole, a key's value, a row or an element."""
    key = draw(st.sampled_from(sorted(WIDE_LOGITS)))
    place = (key,)
    while isinstance(value := _at(WIDE_LOGITS, place), list) and draw(st.booleans()):
        place += (draw(st.integers(0, len(value) - 1)),)
    return draw(st.sampled_from([(), place]))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.one_of(st.tuples(_wide_places(), st.sampled_from(PLACE_MUTATIONS)),
                 st.tuples(st.tuples(st.floats(0, 1)), st.sampled_from(TEXT_MUTATIONS))),
       st.text(max_size=8), st.integers(1, 3))
def test_one_mutation_of_a_wide_logits_record_is_one_error_line_and_no_output(case, text, depth):
    place, mutation = case
    assume(mutation in TEXT_MUTATIONS or _mutated("wide_logits", place, mutation, text, depth) is not None)
    _check("wide_logits", place, mutation, text, depth)
