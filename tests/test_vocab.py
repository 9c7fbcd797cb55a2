import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seqpost.cooc import corpus_fingerprint
from seqpost.refine import PredictionSet
from seqpost.vocab import (
    Action, ActionSequence, Vocabulary, iter_numbered_records, json_number_text, json_numbers,
    validate_sequence,
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


SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    hnp.arrays(np.uint64, SHAPES).map(lambda bits: bits.view(np.float64)),  # any bit pattern
    hnp.arrays(np.float64, SHAPES),
    hnp.arrays(np.float64, SHAPES, elements=st.floats(1e-4, 1e15) | st.floats(-1e15, -1e-4)),
))
def test_json_number_text_is_json_dumps_of_any_array(values):
    assert json_number_text(values) == json.dumps(values.tolist())


@pytest.mark.parametrize("shape", [(2560,), (2561,), (3, 2000), (2, 3, 1001), (5, 2, 1, 700)])
def test_json_number_text_is_json_dumps_across_blocks(shape):
    # elements are written a block at a time; axes end inside blocks and at their edges
    values = np.random.default_rng(7).normal(size=shape) * np.resize(10.0 ** np.arange(-6, 17), shape)
    values.flat[::97] = 0.0
    assert json_number_text(values) == json.dumps(values.tolist())


def _around(value: float, ulps: int) -> np.ndarray:
    """The doubles within ``ulps`` steps of the positive double ``value``, and their negatives."""
    steps = (np.float64(value).view(np.int64) + np.arange(-ulps, ulps + 1)).view(np.float64)
    return np.concatenate((steps, -steps))


def _sweep_values() -> np.ndarray:
    """2.2 M doubles: the writer's fast range [1e-4, 1e15) and both its edges, each power
    of ten, the powers of two, exact short decimals, and random values and bit patterns."""
    rng = np.random.default_rng(2023)
    n = 200_000
    sign = rng.choice([-1.0, 1.0], 4 * n)
    powers_of_two = np.ldexp(1.0, np.arange(-20, 60))
    return np.concatenate([
        np.exp(rng.uniform(np.log(1e-4), np.log(1e15), 4 * n)) * sign,
        rng.normal(size=n), rng.normal(size=n) * 1e-3, rng.normal(size=n) * 1e7,
        rng.integers(-10**7, 10**7, 2 * n) / 10.0 ** rng.integers(0, 12, 2 * n),  # short decimals
        rng.integers(-2**40, 2**40, n) / 2.0 ** rng.integers(0, 60, n),  # dyadic rationals
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        *(_around(edge, 5_000) for edge in (1e-4, 1e15)),
        *(_around(float(f"1e{k}"), 50) for k in range(-6, 18)),
        *(_around(power, 2) for power in powers_of_two),
    ])


def test_json_number_text_spells_each_value_as_repr_does():
    values = _sweep_values()
    assert values.size >= 2_000_000
    text = json_number_text(values)
    if text != json.dumps(values.tolist()):
        spelled = text[1:-1].split(", ")
        wrong = [(value.hex(), got) for value, got in zip(values.tolist(), spelled) if got != repr(value)]
        pytest.fail(f"{len(wrong)} values spelled unlike repr, first {wrong[:5]}")
