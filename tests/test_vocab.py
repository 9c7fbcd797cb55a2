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
    assert ActionSequence.from_json(seq.to_json()) == seq


def test_validate_ok(vocabs):
    vv, nv = vocabs
    seq = ActionSequence("e", (Action(0, 0), Action(1, 2)))
    assert validate_sequence(seq, vv, nv) == []


def test_validate_out_of_range_verb(vocabs):
    vv, nv = vocabs
    seq = ActionSequence("e", (Action(2, 0),))
    violations = validate_sequence(seq, vv, nv)
    assert len(violations) == 1
    assert violations[0].position == 0
    assert violations[0].axis == "verb"


def test_validate_empty_sequence(vocabs):
    vv, nv = vocabs
    violations = validate_sequence(ActionSequence("e", ()), vv, nv)
    assert len(violations) == 1
    assert "empty sequence" in violations[0].message


def test_validate_reports_every_position(vocabs):
    vv, nv = vocabs
    seq = ActionSequence("e", (Action(0, 9), Action(5, 0)))
    violations = validate_sequence(seq, vv, nv)
    assert {(v.position, v.axis) for v in violations} == {(0, "noun"), (1, "verb")}
