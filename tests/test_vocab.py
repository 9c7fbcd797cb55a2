import hashlib
import json
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import seqpost.vocab
from seqpost.cooc import corpus_fingerprint
from seqpost.ensemble import LogitsTensor, iter_logits
from seqpost.refine import PredictionSet
from seqpost.vocab import (
    JSON_SPACE, LINE_BLOCK_BYTES, Action, ActionSequence, Vocabulary, iter_numbered_records, iter_records,
    json_float_rows, json_number_text, json_numbers, validate_sequence,
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


@pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\u0085", "\x0c", "\x1c"],
                         ids=["nbsp", "line_separator", "next_line", "form_feed", "file_separator"])
def test_reader_strips_only_json_whitespace(tmp_path, space):
    # str.strip() would strip these too: a record line ending in one, which json.loads
    # refuses, would be read, and a line of one alone would be skipped as blank
    path = tmp_path / "records.jsonl"
    for text in ('{"n": 1}' + space, space):
        path.write_text('{"n": 0}\n' + text + "\n", encoding="utf-8")
        records = iter_numbered_records(str(path), lambda obj: obj["n"], "test")
        assert next(records) == (1, 0)
        with pytest.raises(ValueError, match=f"^{path}:2: invalid JSON: "):
            next(records)
    path.write_text(' \t{"n": 0}\r\n\t\r \n', encoding="utf-8")
    assert list(iter_numbered_records(str(path), lambda obj: obj["n"], "test")) == [(1, 0)]


def _recording(seen):
    def parse_lines(lines):
        seen.append(list(lines))
        return [len(line) for line in lines]
    return parse_lines


def test_reader_hands_parse_lines_a_long_line_alone_stripped_of_json_whitespace(tmp_path):
    path = tmp_path / "records.jsonl"
    record = json.dumps({"x": list(range(LINE_BLOCK_BYTES // 4))}).encode()
    assert len(record) > LINE_BLOCK_BYTES
    path.write_bytes(b"{}\n \t " + record + b"\r\n")
    seen = []
    assert list(iter_numbered_records(str(path), len, "test", _recording(seen))) == [(1, 2), (2, len(record))]
    assert seen == [[b"{}"], [record]]


def test_reader_skips_a_long_line_of_spaces_without_handing_it_to_parse_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b" " * (LINE_BLOCK_BYTES + 1) + b"\r\n{}\n")
    seen = []
    assert list(iter_numbered_records(str(path), len, "test", _recording(seen))) == [(2, 2)]
    assert seen == [[b"{}"]]


def _assert_reader_holds_only_the_record(path, line, records, count):
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for lineno in (1, 2):
            assert next(records) == (lineno, count)
            held = tracemalloc.get_traced_memory()[0] - baseline
            assert held < 0.1 * len(line), f"line {lineno}: {held} bytes held"
    finally:
        tracemalloc.stop()
        records.close()


def test_reader_holds_only_the_record_while_the_caller_has_it(tmp_path):
    """While the caller has a record, the suspended reader keeps neither the
    line's bytes, nor its text, nor its parsed object: an ``enumerate`` tuple
    or a name bound to any of them would keep about a line's worth or more."""
    path = tmp_path / "wide.jsonl"
    line = json.dumps({"x": np.random.default_rng(0).normal(size=50_000).tolist()}) + "\n"
    path.write_text(line * 2)
    assert len(line) > 1_000_000
    records = iter_numbered_records(str(path), lambda obj: len(obj["x"]), "wide")
    _assert_reader_holds_only_the_record(path, line, records, 50_000)


def test_reader_holds_only_the_record_read_by_parse_lines(tmp_path):
    # a long logits line goes alone to LogitsTensor.from_lines, which must drop the
    # line's bytes and every array it made but the record's before the reader yields
    path = tmp_path / "wide.jsonl"
    rng = np.random.default_rng(0)
    line = LogitsTensor("e0", rng.normal(size=(20, 1250)), rng.normal(size=(20, 1250))).to_json() + "\n"
    path.write_text(line * 2)
    assert len(line) > 1_000_000

    def json_path(obj):
        raise AssertionError("the line went to json.loads")

    records = iter_numbered_records(str(path), json_path, "logits",
                                    lambda lines: [t.num_steps for t in LogitsTensor.from_lines(lines)])
    _assert_reader_holds_only_the_record(path, line, records, 20)


SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)


@pytest.mark.bits
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


@pytest.mark.bits
def test_json_number_text_spells_each_value_as_repr_does():
    values = _sweep_values()
    assert values.size >= 2_000_000
    text = json_number_text(values)
    if text != json.dumps(values.tolist()):
        spelled = text[1:-1].split(", ")
        wrong = [(value.hex(), got) for value, got in zip(values.tolist(), spelled) if got != repr(value)]
        pytest.fail(f"{len(wrong)} values spelled unlike repr, first {wrong[:5]}")


# ---------------------------------------------------------------------------
# json_float_rows: the same bits as json.loads, or None


def _bits(values) -> list[int]:
    return np.asarray(values, np.float64).view(np.int64).ravel().tolist()


def _rows_line(text: str) -> tuple[bytes, int, int]:
    """A line holding the JSON text of a 2-D array, and where its rows start and stop."""
    head = '{"example_id": "e0", "verb_logits": '
    return (head + text + "}").encode(), len(head) + 2, len(head) + len(text) - 2


ROW_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8)


@pytest.mark.bits
@settings(max_examples=300, deadline=None)
@given(st.one_of(
    hnp.arrays(np.uint64, ROW_SHAPES).map(lambda bits: bits.view(np.float64)),  # any bit pattern
    hnp.arrays(np.float64, ROW_SHAPES),
    hnp.arrays(np.float64, ROW_SHAPES, elements=st.floats(1e-7, 1e17) | st.floats(-1e17, -1e-7)),
))
def test_json_float_rows_reads_the_bits_json_loads_reads(values):
    line, start, stop = _rows_line(json_number_text(values))
    rows = json_float_rows(line, start, stop)
    expected = np.array(json.loads(line[start - 2:stop + 2]))
    assert rows.shape == expected.shape and _bits(rows) == _bits(expected)


def _needs_a_neighbour(count: int) -> list[str]:
    """17-digit spellings whose quotient float(w) / 10**p misses the double
    they name by an ulp, so that the exact check must step to its neighbour."""
    values = np.random.default_rng(23).uniform(1.0, 10.0, 40 * count)
    spelled = [repr(value) for value in values.tolist() if len(repr(value)) == 18]
    whole = np.array([int(text.replace(".", "")) for text in spelled], np.int64)
    named = np.array([float(text) for text in spelled])
    missed = whole.astype(np.float64) / 1e16 != named
    return [text for text, miss in zip(spelled, missed.tolist()) if miss][:count]


def _ties() -> list[str]:
    """Points halfway between two doubles, which float() rounds to the even
    one, spelled with a fraction: from 2**53 on they are whole numbers."""
    halves = [2**e + k * 2**(e - 53) for e in range(53, 62) for k in range(1, 80, 2)]
    return [f"{half}.{zeros}" for half in halves for zeros in ("0", "00") if half * 100 < 9 * 10**18]


def _around_powers_of_two() -> list[str]:
    steps = np.ldexp(1.0, np.arange(-14, 54))[:, None].view(np.int64) + np.arange(-2, 3)
    return [repr(value) for value in steps.view(np.float64).ravel().tolist()]


HAND_PICKED = [
    "0.1", "0.2", "0.30000000000000004", "-0.0", "0.0", "1.0", "-1.5", "2.5", "1e-05", "1E+16", "1.5e-07",
    "9007199254740993.0",  # a tie: 2**53 + 1 reads as the even 2**53
    "9007199254740995.0",  # a tie: reads as 2**53 + 4
    "9007199254740993.0000001", "4503599627370497.5", "1.7976931348623157e+308", "2.2250738585072014e-308",
    "5e-324", "0.0000000000000000000001",  # 23 digits: 1e-22
    "0.00000000000000000000001",  # 24 digits, left to float()
    "0.1000000000000000055511151231257827021181583404541015625",  # 0.1 exactly
    "8999999999999999999.0", "9999999999999999999.5",  # digits at and past 9 * 10**18
    "0.0012345678901234567", "123456789012345.67", "1234567890123456.8",
]


@pytest.mark.bits
def test_json_float_rows_reads_hand_picked_tokens_as_float_does():
    neighbours = _needs_a_neighbour(200)
    assert len(neighbours) == 200
    tokens = HAND_PICKED + neighbours + _ties() + _around_powers_of_two()
    tokens += ["-" + token for token in tokens if not token.startswith("-")]
    line, start, stop = _rows_line("[[" + ", ".join(tokens) + "]]")
    rows = json_float_rows(line, start, stop)
    assert rows.shape == (1, len(tokens))
    assert [value.hex() for value in rows[0].tolist()] == [float(token).hex() for token in tokens]


@pytest.mark.bits
def test_json_float_rows_reads_every_tenth_sweep_value_back():
    values = _sweep_values()[::10]
    values = values[np.isfinite(values)]
    values = values[:values.size // 1000 * 1000].reshape(-1, 1000)
    line, start, stop = _rows_line(json_number_text(values))
    rows = json_float_rows(line, start, stop)
    if _bits(rows) != _bits(values):
        texts = line[start:stop].decode().replace("], [", ", ").split(", ")
        wrong = [(text, got.hex()) for text, got in zip(texts, rows.ravel().tolist()) if float(text) != got]
        pytest.fail(f"{len(wrong)} values read unlike float(), first {wrong[:5]}")


@pytest.mark.bits
@pytest.mark.parametrize("seed", [0, 1])
def test_logits_lines_read_every_lta_value_as_json_loads_does(tmp_path, seed):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    files = workloads.make_inputs(workloads.WORKLOADS["lta"], seed, tmp_path)
    for name in ("logits_a", "logits_b"):
        with open(files[name], "rb") as handle:
            for raw in handle:
                assert len(raw) > LINE_BLOCK_BYTES  # so the reader hands each line over alone
                (read,) = LogitsTensor.from_lines([raw.strip(JSON_SPACE)])
                expected = LogitsTensor.from_obj(json.loads(raw))
                assert read.example_id == expected.example_id
                for axis in ("verb_logits", "noun_logits"):
                    assert getattr(read, axis).shape == getattr(expected, axis).shape
                    assert _bits(getattr(read, axis)) == _bits(getattr(expected, axis))


def _outcome(records):
    """Each record read, with its arrays' bits, until the first fault; and that fault's text."""
    read = []
    try:
        for t in records:
            read.append((t.example_id, t.verb_logits.shape, t.noun_logits.shape, _bits(t.verb_logits),
                         _bits(t.noun_logits)))
    except ValueError as exc:
        return read, str(exc)
    return read, None


def _variants(line: str) -> dict[str, str]:
    """The logits line ``line``, of id "ex0" and 3 verb rows, and lines that
    each differ from it in one way, by name."""
    verbs_at = line.index("[[") + 2
    verb_rows = line[verbs_at:line.index("]]", verbs_at)].split("], [")
    first_token = verb_rows[0].split(", ")[0]
    second_row = verb_rows[1].split(", ")
    cut = len(second_row) * 3 // 4

    def variant(old: str, new: str, count: int = 1) -> str:
        assert old and old in line
        return line.replace(old, new, count)

    return {
        **{f"token_{token}": variant(first_token, token) for token in (
            "1", "1.", ".5", "01.5", "-01.5", "-", "+1.5", "1.5.5", "1e400", "-1e400", "NaN", "-Infinity",
            "true", "null", '"1.5"', "1e5", "-0", "00", "1.5e", "0x10", "1_0.5", " 1.5", "1.5 ", "[1.5]", "")},
        "as_written": line,
        "spaced": " \t" + line + "\r ",
        "ragged": variant(first_token + ", ", ""),
        "ragged_rows": variant("], [", ", ", 1),
        "uneven_rows": variant("], [".join(verb_rows), "], [".join(  # WIDE_LINE: rows of 400, 300, 500
            [verb_rows[0], ", ".join(second_row[:cut]), ", ".join(second_row[cut:] + [verb_rows[2]])])),
        "unspaced": variant(", -", ",-"),
        "row_without_bracket": variant("], [" + verb_rows[1], "], -" + verb_rows[1]),
        "empty_row": variant("[[", "[[], ["),
        "nested": variant("[[", "[[["),
        "extra_key": line[:-1] + ', "x": 1}',
        "reordered": '{"verb_logits": [[1.5]], ' + line[1:].replace('"verb_logits"', '"x"', 1),
        "duplicate_key": variant('"noun_logits": ', '"noun_logits": [[1.5]], "noun_logits": '),
        "compact": line.replace(", ", ","),
        "escaped_id": variant('"ex0"', '"ex\\u0030"'),
        "unicode_id": variant('"ex0"', '"\u00e9x0"'),
        "numeric_id": variant('"ex0"', "7"),
        "quote_in_id": variant('"ex0"', '"e\\"x0"'),
        "steps_differ": variant("]], \"noun_logits\"", "], [" + verb_rows[0] + "]], \"noun_logits\""),
        "trailing": line + " x",
    }


WIDE_LINE = LogitsTensor("ex0", np.random.default_rng(5).normal(size=(3, 400)) * 3,
                         np.random.default_rng(6).normal(size=(3, 500)) * 3).to_json()
VARIANTS = _variants(WIDE_LINE)
# the same variants of a line a few tokens wide, read among other lines in one block
SHORT_VARIANTS = _variants(LogitsTensor("ex0", np.random.default_rng(5).normal(size=(3, 4)) * 3,
                                        np.random.default_rng(6).normal(size=(3, 5)) * 3).to_json())


@pytest.mark.parametrize("name", list(VARIANTS))
def test_a_long_logits_line_reads_as_json_loads_reads_it(tmp_path, name):
    """Each line the kernel refuses goes to json.loads, so every long logits
    line gives the record or the error message that json.loads gives."""
    path = tmp_path / "logits.jsonl"
    path.write_text(VARIANTS[name] + "\n", encoding="utf-8")
    expected = _outcome(iter_records(str(path), LogitsTensor.from_obj, "logits"))
    assert _outcome(iter_logits(str(path))) == expected
    taken = LogitsTensor.from_lines([VARIANTS[name].encode().strip(JSON_SPACE)]) != [None]
    assert taken == (name in TAKEN_BY_THE_KERNEL)


# the lines above whose records the kernel reads itself; it leaves every other one, and each
# one the record's own checks refuse, to json.loads whole
TAKEN_BY_THE_KERNEL = {"as_written", "spaced", "token_1e5", "token_ 1.5", "token_1.5 "}


@pytest.mark.parametrize("line, message", [
    (VARIANTS["token_NaN"].encode(), "bad logits record: logits must be finite"),  # read by the kernel first
    (WIDE_LINE[:-1].encode(), "invalid JSON: "),
    (WIDE_LINE.encode().replace(b'"ex0"', b'"\xe9x0"'), "not UTF-8: "),
    (WIDE_LINE.replace(", ", ",").replace('"noun_logits"', '"nouns"').encode(),
     "bad logits record: 'noun_logits'"),  # read by json.loads, refused by parse
], ids=["kernel", "json_loads", "utf8", "parse"])
def test_a_bad_long_line_is_named_by_its_line_on_each_path(tmp_path, line, message):
    path = tmp_path / "logits.jsonl"
    path.write_bytes(WIDE_LINE.encode() + b"\n\n " + line + b"\r\n")
    records = iter_logits(str(path))
    assert next(records).example_id == "ex0"
    with pytest.raises(ValueError) as excinfo:
        next(records)
    assert str(excinfo.value).startswith(f"{path}:3: {message}")


LONG_LINE = LogitsTensor("long", np.random.default_rng(8).normal(size=(2, 900)),
                         np.random.default_rng(9).normal(size=(2, 900))).to_json()


@st.composite
def _logits_lines(draw):
    """The lines of a logits file: short ones as ``to_json`` writes them, of one
    step and class count or of several, with blank and whitespace-only lines
    among them; perhaps one line longer than a block, and perhaps one short
    variant of a line, placed first, mid-file or last."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps, classes = draw(st.just((3, (4, 5))) |  # the short variants' counts
                          st.tuples(st.integers(1, 4), st.tuples(st.integers(1, 6), st.integers(1, 6))))
    vary_steps, vary_classes = draw(st.booleans()), draw(st.booleans())
    lines = []
    for i in range(draw(st.integers(0, 16))):
        z = draw(st.integers(1, 4)) if vary_steps else steps
        c_verb, c_noun = draw(st.tuples(st.integers(1, 6), st.integers(1, 6))) if vary_classes else classes
        scale = 10.0 ** draw(st.integers(-3, 3))
        lines.append(LogitsTensor(f"e{i}", rng.normal(size=(z, c_verb)) * scale,
                                  rng.normal(size=(z, c_noun)) * scale).to_json())
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "\t\r", "  \t "])))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), LONG_LINE)
    name = draw(st.none() | st.sampled_from(sorted(SHORT_VARIANTS)))
    if name is not None:
        lines.insert(draw(st.sampled_from([0, len(lines) // 2, len(lines)])), SHORT_VARIANTS[name])
    return lines


def _in_blocks_of(size):
    """``LogitsTensor.from_lines`` over each run of ``size`` lines of a block."""
    def parse_lines(lines):
        return [record for start in range(0, len(lines), size)
                for record in LogitsTensor.from_lines(lines[start:start + size])]
    return parse_lines


@pytest.mark.bits
@settings(max_examples=200, deadline=None)
@given(_logits_lines())
def test_logits_read_in_blocks_read_as_json_loads_reads_each_line(lines):
    assert len(LONG_LINE) >= LINE_BLOCK_BYTES
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "logits.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
        expected = _outcome(iter_records(path, LogitsTensor.from_obj, "logits"))
        assert _outcome(iter_logits(path)) == expected
        # one block of the whole file, read in runs of one line, of 7 and of all
        with mock.patch.object(seqpost.vocab, "LINE_BLOCK_BYTES", 1 << 62):
            for size in (1, 7, max(len(lines), 1)):
                records = iter_records(path, LogitsTensor.from_obj, "logits", _in_blocks_of(size))
                assert _outcome(records) == expected, size


@pytest.mark.parametrize("where", [0, 3, 6], ids=["first", "mid", "last"])
@pytest.mark.parametrize("name", list(SHORT_VARIANTS))
def test_a_short_logits_line_in_a_block_reads_as_json_loads_reads_it(tmp_path, name, where):
    """Among six lines of its step and class counts, a short variant gives the
    records and the fault that json.loads gives, and the kernel reads the
    same variants in a block as it reads alone."""
    rng = np.random.default_rng(3)
    lines = [LogitsTensor(f"e{i}", rng.normal(size=(3, 4)), rng.normal(size=(3, 5))).to_json() for i in range(6)]
    lines.insert(where, SHORT_VARIANTS[name])
    path = tmp_path / "logits.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert _outcome(iter_logits(str(path))) == _outcome(iter_records(str(path), LogitsTensor.from_obj, "logits"))
    read = LogitsTensor.from_lines([line.encode().strip(JSON_SPACE) for line in lines])
    assert (read[where] is not None) == (name in TAKEN_BY_THE_KERNEL)


def test_reader_holds_less_than_a_block_while_the_caller_has_a_short_line_record(tmp_path):
    """Short lines are parsed a block at a time, and a line is dropped once it
    is parsed: while the caller has a record, the suspended reader holds the
    rest of its block's records, and none of the lines it read."""
    path = tmp_path / "desk.jsonl"
    rng = np.random.default_rng(0)
    lines = [LogitsTensor(f"e{i}", rng.normal(size=(20, 6)), rng.normal(size=(20, 8))).to_json() + "\n"
             for i in range(60)]
    path.write_text("".join(lines))
    assert len(lines[0]) < LINE_BLOCK_BYTES / 10 and path.stat().st_size > 4 * LINE_BLOCK_BYTES
    records = iter_logits(str(path))
    held = []
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for record in records:
            held.append(tracemalloc.get_traced_memory()[0] - baseline)
    finally:
        tracemalloc.stop()
    assert len(held) == 60 and record.example_id == "e59"
    assert max(held) < LINE_BLOCK_BYTES, held
