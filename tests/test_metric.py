import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpost.metric import EvalReport, ed_at_k, edit_distance, evaluate_corpus
from seqpost.refine import PredictionSet
from seqpost.rng import CounterRng
from seqpost.vocab import Action, ActionSequence

from oracles import all_sequences, recursive_edit_distance


def test_identical_sequences():
    assert edit_distance(["x", "y", "z"], ["x", "y", "z"]) == 0


def test_disjoint_alphabets():
    assert edit_distance(["x", "y", "z"], ["p", "q", "r"]) == 3


def test_transposition_flag():
    assert edit_distance(["x", "y"], ["y", "x"], allow_transposition=True) == 1
    assert edit_distance(["x", "y"], ["y", "x"], allow_transposition=False) == 2


@pytest.mark.parametrize("allow_transposition", [False, True])
def test_dp_equals_recursive_oracle_exhaustive(allow_transposition):
    seqs = all_sequences(3, 4)
    for a in seqs:
        for b in seqs:
            assert edit_distance(a, b, allow_transposition) == recursive_edit_distance(
                a, b, allow_transposition
            )


def test_symmetry_exhaustive():
    seqs = all_sequences(3, 3)
    for a, b in itertools.combinations(seqs, 2):
        for flag in (False, True):
            assert edit_distance(a, b, flag) == edit_distance(b, a, flag)


def test_triangle_inequality_levenshtein():
    # plain Levenshtein is a metric; the transposition variant (restricted
    # Damerau-Levenshtein) is known not to be, so only the False flag is
    # checked here
    seqs = all_sequences(2, 3)
    for a in seqs:
        for b in seqs:
            for c in seqs:
                assert edit_distance(a, c, False) <= edit_distance(a, b, False) + edit_distance(b, c, False)


def test_zero_iff_equal():
    seqs = all_sequences(3, 3)
    for a in seqs:
        for b in seqs:
            for flag in (False, True):
                assert (edit_distance(a, b, flag) == 0) == (a == b)


def _pattern(pairs):
    return tuple(Action(v, n) for v, n in pairs)


def _truth(pairs, episode_id="e0"):
    return ActionSequence(episode_id, _pattern(pairs))


def test_ed_at_k_perfect_pattern_wins():
    truth = _truth([(0, 0), (1, 1), (2, 2)])
    preds = PredictionSet(
        "e0",
        patterns=(
            _pattern([(2, 2), (2, 2), (2, 2)]),
            _pattern([(0, 0), (1, 1), (2, 2)]),
        ),
        tiers=("raw_argmax", "refined_argmax"),
    )
    for axis in ("verb", "noun", "action"):
        assert ed_at_k(preds, truth, axis) == 0.0


def test_ed_at_k_all_wrong_is_one():
    truth = _truth([(0, 0), (0, 0)])
    preds = PredictionSet("e0", (_pattern([(1, 1), (1, 1)]),), ("raw_argmax",))
    assert ed_at_k(preds, truth, "verb") == 1.0
    assert ed_at_k(preds, truth, "action") == 1.0


def test_ed_at_k_matches_oracle_min():
    rng = CounterRng(8)
    for _ in range(50):
        z = 2 + rng.randint(5)  # lengths <= 6
        truth = _truth([(rng.randint(3), rng.randint(3)) for _ in range(z)])
        patterns = tuple(
            _pattern([(rng.randint(3), rng.randint(3)) for _ in range(z)]) for _ in range(4)
        )
        preds = PredictionSet("e0", patterns, ("raw_argmax",) * 4)
        for axis, proj in (
            ("verb", lambda a: a.verb_id),
            ("noun", lambda a: a.noun_id),
            ("action", lambda a: (a.verb_id, a.noun_id)),
        ):
            expected = min(
                recursive_edit_distance(
                    [proj(a) for a in p], [proj(a) for a in truth.actions], True
                )
                for p in patterns
            ) / z
            assert ed_at_k(preds, truth, axis) == expected


def test_ed_at_k_length_mismatch():
    truth = _truth([(0, 0), (1, 1)])
    preds = PredictionSet("e0", (_pattern([(0, 0)]),), ("raw_argmax",))
    with pytest.raises(ValueError, match="length"):
        ed_at_k(preds, truth, "verb")


def test_per_pattern_action_dominates_components():
    """For a single pattern (before the min), action distance >= both the
    verb and noun distances."""
    rng = CounterRng(9)
    for _ in range(300):
        z = 2 + rng.randint(5)
        truth = _truth([(rng.randint(3), rng.randint(3)) for _ in range(z)])
        pattern = _pattern([(rng.randint(3), rng.randint(3)) for _ in range(z)])
        preds = PredictionSet("e0", (pattern,), ("raw_argmax",))
        action = ed_at_k(preds, truth, "action")
        assert action >= ed_at_k(preds, truth, "verb")
        assert action >= ed_at_k(preds, truth, "noun")


def test_ed_at_k_monotone_in_k():
    rng = CounterRng(10)
    for _ in range(200):
        z = 3 + rng.randint(4)
        truth = _truth([(rng.randint(3), rng.randint(3)) for _ in range(z)])
        patterns = [
            _pattern([(rng.randint(3), rng.randint(3)) for _ in range(z)])
            for _ in range(5)
        ]
        prev = None
        for k in range(1, 6):
            preds = PredictionSet("e0", tuple(patterns[:k]), ("raw_argmax",) * k)
            value = ed_at_k(preds, truth, "action")
            if prev is not None:
                assert value <= prev
            prev = value


def test_evaluate_corpus_perfect():
    truth = _truth([(0, 0), (1, 1)])
    preds = PredictionSet("e0", (truth.actions,), ("raw_argmax",))
    report = evaluate_corpus([preds], [truth])
    assert (report.ed_verb, report.ed_noun, report.ed_action) == (0.0, 0.0, 0.0)
    assert report.n_examples == 1


def test_evaluate_corpus_single_example_equals_triple():
    truth = _truth([(0, 0), (1, 1), (2, 0)])
    preds = PredictionSet("e0", (_pattern([(0, 1), (1, 1), (0, 0)]),), ("raw_argmax",))
    report = evaluate_corpus([preds], [truth])
    assert report.ed_verb == ed_at_k(preds, truth, "verb")
    assert report.ed_noun == ed_at_k(preds, truth, "noun")
    assert report.ed_action == ed_at_k(preds, truth, "action")


def test_evaluate_corpus_means_match_per_example():
    rng = CounterRng(11)
    truths, preds = [], []
    for i in range(10):
        z = 4
        truth = _truth([(rng.randint(3), rng.randint(3)) for _ in range(z)], f"e{i}")
        truths.append(truth)
        patterns = tuple(
            _pattern([(rng.randint(3), rng.randint(3)) for _ in range(z)]) for _ in range(3)
        )
        preds.append(PredictionSet(f"e{i}", patterns, ("raw_argmax",) * 3))
    report = evaluate_corpus(preds, truths, keep_per_example=True)
    for axis, value in (("verb", report.ed_verb), ("noun", report.ed_noun), ("action", report.ed_action)):
        mean = sum(entry[axis] for entry in report.per_example) / len(report.per_example)
        assert value == pytest.approx(mean, abs=1e-12)


def test_evaluate_corpus_unmatched_excluded():
    truth = _truth([(0, 0)], "known")
    matched = PredictionSet("known", (_pattern([(0, 0)]),), ("raw_argmax",))
    unknown = PredictionSet("unknown", (_pattern([(0, 0)]),), ("raw_argmax",))
    report = evaluate_corpus([matched, unknown], [truth])
    assert report.n_examples == 1
    assert report.unmatched == 1


def test_evaluate_corpus_zero_matched_errors():
    preds = PredictionSet("ghost", (_pattern([(0, 0)]),), ("raw_argmax",))
    with pytest.raises(ValueError, match="zero matched"):
        evaluate_corpus([preds], [_truth([(0, 0)], "other")])


def test_report_json_fields():
    report = EvalReport(0.1, 0.2, 0.3, n_examples=4, unmatched=1)
    obj = __import__("json").loads(report.to_json())
    assert obj == {"ed_verb": 0.1, "ed_noun": 0.2, "ed_action": 0.3,
                   "n_examples": 4, "unmatched": 1}


def test_evaluate_corpus_duplicate_prediction_id_errors():
    truth = _truth([(0, 0)], "twice")
    preds = PredictionSet("twice", (_pattern([(0, 0)]),), ("raw_argmax",))
    with pytest.raises(ValueError, match="duplicate example_id 'twice' in the predictions"):
        evaluate_corpus([preds, preds], [truth])


def test_evaluate_corpus_duplicate_truth_id_errors():
    preds = PredictionSet("twice", (_pattern([(0, 0)]),), ("raw_argmax",))
    truths = [_truth([(0, 0)], "twice"), _truth([(1, 1)], "twice")]
    with pytest.raises(ValueError, match="duplicate example_id 'twice' in the truth"):
        evaluate_corpus([preds], truths)


def test_prediction_set_needs_a_pattern():
    with pytest.raises(ValueError, match="^example 'e': prediction has no patterns$"):
        PredictionSet("e", (), ())


@pytest.mark.parametrize("truths, message", [
    ([ActionSequence("e", ())], "example 'e': truth has no actions"),
    ([ActionSequence("e", (Action(0, 0),)), ActionSequence("e", (Action(0, 0),))],
     "duplicate example_id 'e' in the truth"),
], ids=["empty", "duplicate"])
def test_evaluate_corpus_checks_the_truths_before_reading_a_prediction(truths, message):
    """An empty truth is refused even when no prediction is matched with it."""
    def unread():
        raise AssertionError("a prediction was read")
        yield

    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate_corpus(unread(), truths)


# -- the bit-parallel edit distance against the scalar oracle ---------------


@st.composite
def _token_pair(draw):
    alphabet = st.integers(min_value=0, max_value=draw(st.integers(1, 4)) - 1)
    return (
        draw(st.lists(alphabet, max_size=12)),
        draw(st.lists(alphabet, max_size=12)),
    )


@settings(max_examples=400, deadline=None)
@given(_token_pair(), st.booleans())
def test_bit_parallel_equals_recursive_oracle(pair, flag):
    a, b = pair
    assert edit_distance(a, b, flag) == recursive_edit_distance(a, b, flag)


def _swapped(seq, positions):
    out = list(seq)
    for i in positions:
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


# lengths 70-130 need more than one 64-bit word; swaps and edits sit on
# both sides of bit 63
LONG_CASES = [
    ([i % 7 for i in range(130)], _swapped([i % 7 for i in range(130)], (10, 63, 120)), 3, 6),
    (list(range(100)), [-1] + list(range(64)) + list(range(65, 100)), 2, 2),
    ([0] * 70, [1] * 130, 130, 130),
    ([i % 5 for i in range(90)], [(i * 3) % 5 for i in range(75)], 69, 69),
]


@pytest.mark.parametrize("a, b, restricted, plain", LONG_CASES)
def test_bit_parallel_multiword_cases(a, b, restricted, plain):
    for x, y in ((a, b), (b, a)):
        assert edit_distance(x, y, True) == restricted == recursive_edit_distance(x, y, True)
        assert edit_distance(x, y, False) == plain == recursive_edit_distance(x, y, False)


def test_bit_parallel_tuple_tokens():
    a = [(0, 1), (1, 2), (2, 3)]
    assert edit_distance(a, [(1, 2), (0, 1), (2, 3)], True) == 1
    assert edit_distance(a, [(1, 2), (0, 1), (2, 3)], False) == 2
    assert edit_distance(a, [(0, 1), (1, 3), (2, 3)]) == 1  # one component differs
    assert edit_distance(a, a) == 0


@pytest.mark.parametrize("flag", [False, True])
def test_bit_parallel_empty_sides(flag):
    assert edit_distance([], [], flag) == 0
    assert edit_distance([], [(0, 1)] * 3, flag) == 3
    assert edit_distance([(0, 1)] * 3, [], flag) == 3
    assert edit_distance("abc", "", flag) == 3
