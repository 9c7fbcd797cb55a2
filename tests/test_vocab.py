import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from seqpost.cooc import corpus_fingerprint
from seqpost.refine import PredictionSet
from seqpost.vocab import (
    Action, ActionSequence, Vocabulary, iter_numbered_records, json_numbers, validate_sequence,
)


@pytest.fixture
def vocabs():
    return (
        Vocabulary("verb", ("take", "put")),
        Vocabulary("noun", ("cup", "pan", "knife")),
    )


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError):
        Vocabulary("verb", ("take", "take"))


def test_vocabulary_rejects_empty():
    with pytest.raises(ValueError):
        Vocabulary("noun", ())


def test_vocabulary_rejects_bad_kind():
    with pytest.raises(ValueError):
        Vocabulary("adjective", ("red",))


def test_vocabulary_roundtrip(vocabs):
    vv, nv = vocabs
    assert Vocabulary.from_json(vv.to_json(), "verb") == vv
    assert Vocabulary.from_json(nv.to_json(), "noun") == nv


def test_sequence_roundtrip():
    seq = ActionSequence("ep1", (Action(0, 2), Action(1, 1)))
    assert ActionSequence.from_obj(json.loads(seq.to_json())) == seq


def test_action_is_the_pair_it_spells():
    assert json.dumps(Action(1, 2)) == "[1, 2]"
    assert hash(Action(1, 2)) == hash((1, 2))
    assert Action(1, 2) == (1, 2) and Action(1, 2) != (2, 1)


# The bytes below are the corpus and predictions files' spelling, which the
# corpus fingerprint in every stats file and the golden digests depend on.
TWO_EPISODES = [
    ActionSequence("ep0", (Action(0, 2), Action(1, 1), Action(3, 0))),
    ActionSequence("ep1", (Action(2, 2),)),
]


def test_sequence_json_bytes_pinned():
    assert TWO_EPISODES[0].to_json() == '{"episode_id": "ep0", "actions": [[0, 2], [1, 1], [3, 0]]}'
    assert TWO_EPISODES[1].to_json() == '{"episode_id": "ep1", "actions": [[2, 2]]}'


def test_prediction_set_json_bytes_pinned():
    preds = PredictionSet("ex0", ((Action(0, 1), Action(2, 3)), (Action(4, 5), Action(6, 7))),
                          ("raw_argmax", "refined_sampled"))
    assert preds.to_json() == ('{"example_id": "ex0", "patterns": [[[0, 1], [2, 3]], [[4, 5], [6, 7]]], '
                               '"tiers": ["raw_argmax", "refined_sampled"]}')
    assert PredictionSet.from_obj(json.loads(preds.to_json())) == preds


def test_corpus_fingerprint_pinned():
    expected = "38bcf6c8350834c1ee27800766aaf880b43ca650f7f1a171444e67a11e05c75d"
    assert corpus_fingerprint(TWO_EPISODES) == expected
    lines = "".join(seq.to_json() + "\n" for seq in TWO_EPISODES)
    assert hashlib.sha256(lines.encode()).hexdigest() == expected


@pytest.mark.parametrize("actions", ["", "ab", {}, None], ids=["empty_string", "string", "object", "null"])
def test_actions_must_be_a_list(actions):
    # a string or an object would otherwise be iterated: "" as no actions at all
    with pytest.raises(ValueError, match=r"^actions .* are not a list of \[verb_id, noun_id\] pairs$"):
        ActionSequence.from_obj({"episode_id": "e", "actions": actions})


def test_validate_ok(vocabs):
    vv, nv = vocabs
    seq = ActionSequence("e", (Action(0, 0), Action(1, 2)))
    assert validate_sequence(seq, len(vv), len(nv)) is None


def test_validate_out_of_range_verb(vocabs):
    vv, nv = vocabs
    seq = ActionSequence("e", (Action(2, 0),))
    with pytest.raises(ValueError) as exc:
        validate_sequence(seq, len(vv), len(nv))
    assert str(exc.value) == "episode 'e': verb_id 2 out of range [0, 2)"


def test_validate_empty_sequence(vocabs):
    vv, nv = vocabs
    with pytest.raises(ValueError) as exc:
        validate_sequence(ActionSequence("e", ()), len(vv), len(nv))
    assert str(exc.value) == "episode 'e': empty sequence"


def test_validate_raises_the_first_fault_in_step_order(vocabs):
    vv, nv = vocabs
    cases = [
        ((Action(0, 9), Action(5, 0)), "noun_id 9 out of range [0, 3)"),  # step 0 before step 1
        ((Action(0, 0), Action(-1, 9)), "verb_id -1 out of range [0, 2)"),  # verb before noun
    ]
    for actions, message in cases:
        with pytest.raises(ValueError) as exc:
            validate_sequence(ActionSequence("e", actions), len(vv), len(nv))
        assert str(exc.value) == f"episode 'e': {message}"


def _zero_heavy_with_true():
    """A 60 x 60 table of zeros, a few other numbers and one true near its end."""
    table = [[0] * 60 for _ in range(60)]
    table[3][7], table[41][0], table[59][58] = 0.25, 1, True
    return table


@pytest.mark.parametrize("values", [
    [[0.5, 1.0], [2.0, True]], [[0, 3], [False, 2]], [[[1.0, 0.0, False]]], _zero_heavy_with_true(),
])
def test_json_numbers_refuses_a_boolean_anywhere(values):
    with pytest.raises(ValueError, match="^x must be JSON numbers$"):
        json_numbers({"x": json.loads(json.dumps(values))}, "x")


def test_json_numbers_keeps_zeros_and_ones_that_are_numbers():
    values = json_numbers(json.loads('{"x": [[0, 1, 0.0], [1.0, -0.0, 2]]}'), "x")
    assert values.dtype == np.float64
    assert values.tolist() == [[0.0, 1.0, 0.0], [1.0, -0.0, 2.0]]


def test_reader_names_each_fault_by_its_line_and_counts_blank_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"n": 1}\n\n  \n{"n": 2}\n')

    def parse(obj):
        return obj["n"]

    assert list(iter_numbered_records(str(path), parse, "test")) == [(1, 1), (4, 2)]
    for line, message in [
        (b'{"n": "caf\xe9"}', "not UTF-8: "),
        (b'{"n": 3', "invalid JSON: "),
        (b'{"m": 3}', "bad test record: 'n'"),
    ]:
        path.write_bytes(b'{"n": 1}\n\n' + line + b"\n")
        records = iter_numbered_records(str(path), parse, "test")
        assert next(records) == (1, 1)
        with pytest.raises(ValueError) as excinfo:
            next(records)
        assert str(excinfo.value).startswith(f"{path}:3: {message}")


def test_reader_holds_only_the_record_while_the_caller_has_it(tmp_path):
    """While the caller has a record, the suspended reader keeps neither the
    line's bytes, nor its text, nor its parsed object: an ``enumerate`` tuple
    or a name bound to any of them would keep about a line's worth or more."""
    path = tmp_path / "wide.jsonl"
    line = json.dumps({"x": np.random.default_rng(0).normal(size=50_000).tolist()}) + "\n"
    path.write_text(line * 2)
    assert len(line) > 1_000_000
    records = iter_numbered_records(str(path), lambda obj: len(obj["x"]), "wide")
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for lineno in (1, 2):
            assert next(records) == (lineno, 50_000)
            held = tracemalloc.get_traced_memory()[0] - baseline
            assert held < 0.1 * len(line), f"line {lineno}: {held} bytes held"
    finally:
        tracemalloc.stop()
        records.close()
