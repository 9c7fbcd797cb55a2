import json

import pytest

from seqpost.vocab import Action, ActionSequence, Vocabulary, validate_sequence


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
