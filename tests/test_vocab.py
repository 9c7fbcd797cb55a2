import hashlib
import json

import numpy as np
import pytest

from seqpost.cooc import corpus_fingerprint
from seqpost.refine import PredictionSet
from seqpost.vocab import Action, ActionSequence, Vocabulary, json_numbers, validate_sequence


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


@pytest.mark.parametrize("values", [[[0.5, 1.0], [2.0, True]], [[0, 3], [False, 2]], [[[1.0, 0.0, False]]]])
def test_json_numbers_refuses_a_boolean_anywhere(values):
    with pytest.raises(ValueError, match="^x must be JSON numbers$"):
        json_numbers({"x": json.loads(json.dumps(values))}, "x")


def test_json_numbers_keeps_zeros_and_ones_that_are_numbers():
    values = json_numbers(json.loads('{"x": [[0, 1, 0.0], [1.0, -0.0, 2]]}'), "x")
    assert values.dtype == np.float64
    assert values.tolist() == [[0.0, 1.0, 0.0], [1.0, -0.0, 2.0]]
