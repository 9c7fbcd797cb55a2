import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqpost.cooc
from seqpost.cooc import (
    CoocStats,
    IndicatorMode,
    SmoothingConfig,
    build_stats,
    transition_score,
    transition_score_row,
    verb_given_noun,
)
from seqpost.rng import CounterRng
from seqpost.vocab import Action, ActionSequence, Vocabulary

from oracles import count_stats, score_table, stats_from_whole_text, stats_json_dumps

VV2 = Vocabulary("verb", ("v0", "v1"))
NV1 = Vocabulary("noun", ("n0",))
ONE_SEQ = [ActionSequence("e0", (Action(0, 0), Action(1, 0)))]


def test_hand_counted_corpus_add_k_zero():
    stats = build_stats(ONE_SEQ, VV2, NV1, SmoothingConfig(add_k=0.0))
    assert np.allclose(stats.verb_marginal, [0.5, 0.5])
    assert np.allclose(stats.verb_transition[0], [0.0, 1.0])
    assert np.allclose(stats.verb_given_noun[0], [0.5, 0.5])


def test_hand_counted_corpus_add_k_one():
    stats = build_stats(ONE_SEQ, VV2, NV1, SmoothingConfig(add_k=1.0))
    assert np.allclose(stats.verb_transition[0], [1 / 3, 2 / 3])


def test_single_symbol_corpus_point_mass():
    corpus = [ActionSequence("e", (Action(0, 0),) * 5)]
    stats = build_stats(corpus, VV2, NV1, SmoothingConfig(add_k=0.0))
    assert np.allclose(stats.verb_marginal, [1.0, 0.0])
    assert np.allclose(stats.verb_transition[0], [1.0, 0.0])


def test_empty_corpus_errors():
    with pytest.raises(ValueError, match="empty corpus"):
        build_stats([], VV2, NV1, SmoothingConfig())


def test_invalid_sequence_errors():
    bad = [ActionSequence("bad-ep", (Action(7, 0),))]
    with pytest.raises(ValueError, match="bad-ep"):
        build_stats(bad, VV2, NV1, SmoothingConfig())


def test_deterministic_co_occurrence_g():
    # noun 0 only ever pairs with verb 1
    corpus = [ActionSequence("e", (Action(1, 0), Action(1, 0)))]
    stats = build_stats(corpus, VV2, NV1, SmoothingConfig(add_k=0.0))
    assert verb_given_noun(stats, 1, 0) == 1.0


def test_g_from_hand_counts():
    stats = build_stats(ONE_SEQ, VV2, NV1, SmoothingConfig(add_k=0.0))
    assert verb_given_noun(stats, 0, 0) == 0.5


def _random_corpus(seed, n_seqs=50, length=8, c_verb=3, c_noun=4):
    rng = CounterRng(seed)
    corpus = []
    for i in range(n_seqs):
        actions = tuple(
            Action(rng.randint(c_verb), rng.randint(c_noun)) for _ in range(length)
        )
        corpus.append(ActionSequence(f"e{i}", actions))
    return corpus


def _stats_for(corpus, c_verb=3, c_noun=4, add_k=1.0):
    vv = Vocabulary("verb", tuple(f"v{i}" for i in range(c_verb)))
    nv = Vocabulary("noun", tuple(f"n{i}" for i in range(c_noun)))
    return build_stats(corpus, vv, nv, SmoothingConfig(add_k=add_k))


def test_rows_sum_to_one():
    stats = _stats_for(_random_corpus(1))
    assert abs(stats.verb_marginal.sum() - 1) < 1e-9
    assert abs(stats.noun_marginal.sum() - 1) < 1e-9
    for matrix in (stats.verb_transition, stats.noun_transition, stats.verb_given_noun):
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)


def test_corpus_order_invariance():
    corpus = _random_corpus(2)
    a = _stats_for(corpus)
    b = _stats_for(list(reversed(corpus)))
    assert np.array_equal(a.verb_transition, b.verb_transition)
    assert np.array_equal(a.noun_transition, b.noun_transition)
    assert np.array_equal(a.verb_given_noun, b.verb_given_noun)
    assert np.array_equal(a.verb_marginal, b.verb_marginal)


def test_determinism_bit_identical():
    a = _stats_for(_random_corpus(3))
    b = _stats_for(_random_corpus(3))
    assert a.to_json() == b.to_json()


def test_bigrams_do_not_cross_episodes():
    first = ActionSequence("a", (Action(0, 0), Action(0, 0)))
    second = ActionSequence("b", (Action(1, 0), Action(1, 0)))
    stats = build_stats([first, second], VV2, NV1, SmoothingConfig(add_k=0.0))
    # no (0 -> 1) or (1 -> 0) verb bigram exists
    assert stats.verb_transition[0][1] == 0.0
    assert stats.verb_transition[1][0] == 0.0


def test_transition_score_against_raw_count_oracle():
    """Recompute the indicator from raw counts with plain Python floats."""
    corpus = _random_corpus(4, n_seqs=1000, length=6, c_verb=3, c_noun=3)
    cfg = SmoothingConfig(add_k=1.0)
    stats = _stats_for(corpus, c_verb=3, c_noun=3)
    verb_uni, _, verb_bi, _, _ = count_stats(corpus, 3, 3)

    lo, hi = cfg.prob_clamp_min, cfg.prob_clamp_max
    clamp = lambda p: min(max(p, lo), hi)
    total_uni = sum(verb_uni) + 3 * cfg.add_k
    for prev in range(3):
        row_total = sum(verb_bi[prev]) + 3 * cfg.add_k
        for nxt in range(3):
            cond = clamp((verb_bi[prev][nxt] + cfg.add_k) / row_total)
            m_prev = clamp((verb_uni[prev] + cfg.add_k) / total_uni)
            m_next = clamp((verb_uni[nxt] + cfg.add_k) / total_uni)
            expected = math.log(cond / (m_prev * m_next)) / -math.log(cond)
            got = transition_score(stats, prev, nxt, "verb", IndicatorMode.AS_WRITTEN)
            assert got == pytest.approx(expected, abs=1e-12)


def _constructed_stats(marginal, transition):
    marginal = np.asarray(marginal, dtype=np.float64)
    transition = np.asarray(transition, dtype=np.float64)
    c = marginal.shape[0]
    return CoocStats(
        verb_marginal=marginal,
        noun_marginal=marginal,
        verb_transition=transition,
        noun_transition=transition,
        verb_given_noun=np.full((c, c), 1.0 / c),
        smoothing=SmoothingConfig(),
        corpus_fingerprint="constructed",
    )


def test_as_written_zero_at_constructed_independence():
    marginal = np.array([0.3, 0.7])
    transition = np.outer(marginal, marginal)  # p(next|prev) = p(prev) p(next)
    stats = _constructed_stats(marginal, transition)
    for prev in range(2):
        for nxt in range(2):
            assert transition_score(stats, prev, nxt, "verb", IndicatorMode.AS_WRITTEN) == 0.0


def test_as_written_analytic_value():
    # p(prev) = p(next) = 0.5, p(next|prev) = 0.5 -> ln(2)/ln(2) = 1
    stats = _constructed_stats([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
    assert transition_score(stats, 0, 1, "verb", IndicatorMode.AS_WRITTEN) == pytest.approx(1.0)


def test_scores_finite_all_pairs_all_modes():
    corpus = [ActionSequence("e", (Action(0, 0),) * 3)]
    stats = build_stats(corpus, VV2, NV1, SmoothingConfig(add_k=0.0))
    for mode in IndicatorMode:
        for prev in range(2):
            for nxt in range(2):
                assert math.isfinite(transition_score(stats, prev, nxt, "verb", mode))


def test_standard_npmi_range_on_random_stats():
    # 1000 random corpus draws; the joint stays below both marginals for
    # count-derived stats, keeping the normalized score inside [-1, 1]
    for seed in range(1000):
        stats = _stats_for(
            _random_corpus(seed, n_seqs=5, length=4, c_verb=3, c_noun=3),
            c_verb=3, c_noun=3,
        )
        for prev in range(3):
            for nxt in range(3):
                score = transition_score(stats, prev, nxt, "verb", IndicatorMode.STANDARD_NPMI)
                assert -1.0 - 1e-9 <= score <= 1.0 + 1e-9


def test_stats_json_roundtrip_exact():
    stats = _stats_for(_random_corpus(5))
    back = CoocStats.from_json(stats.to_json())
    assert np.array_equal(stats.verb_transition, back.verb_transition)
    assert np.array_equal(stats.noun_transition, back.noun_transition)
    assert np.array_equal(stats.verb_given_noun, back.verb_given_noun)
    assert np.array_equal(stats.verb_marginal, back.verb_marginal)
    assert np.array_equal(stats.noun_marginal, back.noun_marginal)
    assert stats.corpus_fingerprint == back.corpus_fingerprint
    assert stats.smoothing == back.smoothing


TABLES = ("verb_marginal", "noun_marginal", "verb_transition", "noun_transition", "verb_given_noun")

# -0.0 beside 0.0, the smallest subnormal, and repr's switches to and from
# exponent notation (1e-05 vs 0.0001, 1e+16 vs 9999999999999998.0)
EDGE_VALUES = (0.0, -0.0, 5e-324, 1e-05, 0.0001, 1e16, 9999999999999998.0, 0.5, 1.0)


def _stats_holding(table):
    """Stats whose verb_given_noun (a 2-D ``table``) or verb_marginal (a 1-D
    one) is ``table``; every other table is uniform."""
    table = np.asarray(table, dtype=np.float64)
    c_noun, c_verb = table.shape if table.ndim == 2 else (2, table.shape[0])

    def uniform(*shape):
        return np.full(shape, 1.0 / shape[-1])

    return CoocStats(
        verb_marginal=table if table.ndim == 1 else uniform(c_verb),
        noun_marginal=uniform(c_noun),
        verb_transition=uniform(c_verb, c_verb),
        noun_transition=uniform(c_noun, c_noun),
        verb_given_noun=table if table.ndim == 2 else uniform(c_noun, c_verb),
        smoothing=SmoothingConfig(),
        corpus_fingerprint="holding",
    )


def _first_difference(text, expected):
    """None for equal texts, else both texts around their first difference
    (pytest's own diff of two 6 MB strings would take minutes)."""
    if text == expected:
        return None
    at = next((i for i, pair in enumerate(zip(text, expected)) if pair[0] != pair[1]),
              min(len(text), len(expected)))
    return text[at - 40:at + 40], expected[at - 40:at + 40]


class _PieceLog(io.StringIO):
    """A text handle that also keeps the length of its longest write."""

    longest = 0

    def write(self, piece):
        self.longest = max(self.longest, len(piece))
        return super().write(piece)


def _assert_writes_json_dumps_and_reads_back(stats):
    text = stats.to_json()
    assert _first_difference(text, stats_json_dumps(stats)) is None
    streamed = _PieceLog()
    assert stats.to_json(streamed) is None
    assert _first_difference(streamed.getvalue(), text) is None
    back = CoocStats.from_json(text)
    plain = json.loads(text)
    for name in TABLES:
        assert getattr(back, name).tobytes() == getattr(stats, name).tobytes()
        assert getattr(back, name).tobytes() == np.array(plain[name], dtype=np.float64).tobytes()


@settings(max_examples=200)
@given(st.data())
def test_stats_json_equals_json_dumps_property(data):
    entries = st.one_of(
        st.sampled_from(EDGE_VALUES),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    )
    c_verb = data.draw(st.integers(1, 5))
    c_noun = data.draw(st.integers(1, 5))
    shapes = ((c_verb,), (c_noun,), (c_verb, c_verb), (c_noun, c_noun), (c_noun, c_verb))
    tables = {
        name: np.array(data.draw(st.lists(entries, min_size=math.prod(shape),
                                          max_size=math.prod(shape)))).reshape(shape)
        for name, shape in zip(TABLES, shapes)
    }
    add_k = data.draw(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    stats = CoocStats(**tables, smoothing=SmoothingConfig(add_k=add_k),
                      corpus_fingerprint=data.draw(st.text(max_size=8)))
    _assert_writes_json_dumps_and_reads_back(stats)


@pytest.mark.parametrize("table", [
    pytest.param([[0.0, -0.0, 0.5], [-0.0, 0.0, 0.5]], id="signed_zeros"),
    pytest.param([-0.0, 0.0, -0.0], id="signed_zeros_1d"),
    pytest.param([[5e-324, 1e-310], [2.225073858507201e-308, 2.2250738585072014e-308]],
                 id="subnormals"),
    pytest.param([[1e16, 9999999999999998.0, 1e15], [1e-05, 0.0001, 9.999999999999999e-06]],
                 id="repr_exponent_switches"),
    pytest.param([[0.25]], id="1x1"),
    pytest.param(np.full((4, 7), 1.0 / 7), id="all_equal"),
    pytest.param(np.arange(1, 29, dtype=np.float64).reshape(4, 7) / 29.0, id="all_distinct"),
])
def test_stats_json_equals_json_dumps_on_edge_tables(table):
    _assert_writes_json_dumps_and_reads_back(_stats_holding(table))


def _lta_corpus():
    gen = np.random.default_rng(3)
    return [
        ActionSequence(f"e{i}", tuple(
            Action(int(v), int(n)) for v, n in zip(gen.integers(115, size=20), gen.integers(478, size=20))
        ))
        for i in range(200)
    ]


def test_stats_json_equals_json_dumps_at_lta_size():
    stats = _stats_for(_lta_corpus(), c_verb=115, c_noun=478)
    assert stats.noun_transition.shape == (478, 478)
    _assert_writes_json_dumps_and_reads_back(stats)
    # a handle gets the text a row at a time, never the 6 MB whole
    streamed = _PieceLog()
    stats.to_json(streamed)
    longest_row = max(len(json.dumps(row)) for row in stats.noun_transition.tolist())
    assert streamed.longest <= longest_row


def test_stats_build_makes_no_table_sized_temporary():
    """At lta size, building the stats allocates less than one more table
    beyond the tables it returns: the count tables are smoothed in place."""
    corpus = _lta_corpus()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stats = _stats_for(corpus, c_verb=115, c_noun=478)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    held = sum(getattr(stats, name).nbytes for name in TABLES)
    assert peak - held < stats.noun_transition.nbytes


def test_stats_json_integer_entries_load():
    text = json.dumps({
        "c_verb": 1, "c_noun": 2,
        "verb_marginal": [1], "noun_marginal": [0, 1],
        "verb_transition": [[1]], "noun_transition": [[1, 0], [0.5, 0.5]],
        "verb_given_noun": [[1], [1]],
        "smoothing": {"add_k": 1, "prob_clamp_min": 1e-06, "prob_clamp_max": 0.999999},
        "corpus_fingerprint": "ints",
    })
    stats = CoocStats.from_json(text)
    assert stats.verb_marginal.dtype == np.float64
    assert stats.noun_marginal.tolist() == [0.0, 1.0]
    assert stats.noun_transition.tolist() == [[1.0, 0.0], [0.5, 0.5]]
    assert stats.verb_given_noun.tolist() == [[1.0], [1.0]]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5, -5e-324])
@pytest.mark.parametrize("name", TABLES)
def test_stats_reject_entries_not_finite_or_negative(name, value):
    stats = _stats_for(_random_corpus(2))
    table = getattr(stats, name).copy()
    table.flat[-1] = value
    with pytest.raises(ValueError, match=f"^{name} holds {value!r}, expected finite entries >= 0$"):
        dataclasses.replace(stats, **{name: table})


def test_smoothing_config_validation():
    with pytest.raises(ValueError):
        SmoothingConfig(add_k=-1)
    with pytest.raises(ValueError):
        SmoothingConfig(prob_clamp_min=0.6)
    with pytest.raises(ValueError):
        SmoothingConfig(prob_clamp_max=0.4)


def _fresh_score_row(stats, prev, axis, mode):
    """The indicator row computed from scratch, with no cache involved."""
    lo, hi = stats.smoothing.prob_clamp_min, stats.smoothing.prob_clamp_max
    marginal = stats.marginal(axis)
    cond = stats.transition(axis)[prev]
    m_prev = min(max(float(marginal[prev]), lo), hi)
    m_next = np.clip(marginal, lo, hi)
    if mode is IndicatorMode.AS_WRITTEN:
        num = np.clip(cond, lo, hi)
    else:
        num = np.clip(cond * float(marginal[prev]), lo, hi)
    log_num = np.log(num)
    return (log_num - np.log(m_prev * m_next)) / -log_num


def _lta_sized_stats(c_verb=115, c_noun=478):
    """Stats at the Ego4D-LTA vocabulary sizes whose tables hold zeros and
    entries below prob_clamp_min and above prob_clamp_max."""
    gen = np.random.default_rng(11)

    def table(rows, cols):
        t = gen.random((rows, cols)) ** 4
        t[gen.random((rows, cols)) < 0.2] = 0.0
        t[::7] = 0.0
        t[::7, 3] = 1.0  # point-mass rows: 1.0 and 0.0 clamp at both ends
        return t / t.sum(axis=1, keepdims=True)

    def marginal(c):
        m = gen.random(c) * 1e-3
        m[:3] = (0.0, 1e-9, 1.0)
        return m

    return CoocStats(
        verb_marginal=marginal(c_verb),
        noun_marginal=marginal(c_noun),
        verb_transition=table(c_verb, c_verb),
        noun_transition=table(c_noun, c_noun),
        verb_given_noun=table(c_noun, c_verb),
        smoothing=SmoothingConfig(),
        corpus_fingerprint="lta-sized",
    )


@pytest.mark.parametrize("mode, lta_sized", [
    *(pytest.param(mode, False, id=str(mode)) for mode in IndicatorMode),
    *(pytest.param(mode, True, id=f"115x478-{mode}") for mode in IndicatorMode),
])
def test_memoised_score_rows_equal_fresh_rows_bytewise(mode, lta_sized):
    stats = _lta_sized_stats() if lta_sized else _stats_for(_random_corpus(3))
    if lta_sized:
        lo, hi = stats.smoothing.prob_clamp_min, stats.smoothing.prob_clamp_max
        for axis in ("verb", "noun"):
            for t in (stats.marginal(axis), stats.transition(axis)):
                assert (t == 0.0).any() and (t < lo).any() and (t > hi).any()
    for axis, classes in (("verb", stats.c_verb), ("noun", stats.c_noun)):
        for prev in range(classes):
            first = transition_score_row(stats, prev, axis, mode)
            again = transition_score_row(stats, prev, axis, mode)
            assert again is first
            assert first.tobytes() == _fresh_score_row(stats, prev, axis, mode).tobytes()


def test_memoised_score_row_is_read_only():
    stats = _stats_for(_random_corpus(4))
    row = transition_score_row(stats, 0, "noun", IndicatorMode.AS_WRITTEN)
    with pytest.raises(ValueError):
        row[0] = 1.0
    assert transition_score_row(stats, 0, "noun", IndicatorMode.AS_WRITTEN).tobytes() == (
        _fresh_score_row(stats, 0, "noun", IndicatorMode.AS_WRITTEN).tobytes()
    )


def test_replaced_stats_start_with_empty_cache():
    stats = _stats_for(_random_corpus(6))
    old_row = transition_score_row(stats, 1, "verb", IndicatorMode.AS_WRITTEN)
    flat = np.full_like(stats.verb_transition, 1.0 / stats.c_verb)
    changed = dataclasses.replace(stats, verb_transition=flat)
    new_row = transition_score_row(changed, 1, "verb", IndicatorMode.AS_WRITTEN)
    assert new_row is not old_row
    assert new_row.tobytes() == _fresh_score_row(changed, 1, "verb", IndicatorMode.AS_WRITTEN).tobytes()
    assert new_row.tobytes() != old_row.tobytes()


def _assert_same_stats(got, expected):
    for name in TABLES:
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    assert got.smoothing == expected.smoothing
    assert got.corpus_fingerprint == expected.corpus_fingerprint


def _indent2(text):
    return json.dumps(json.loads(text), indent=2)


def _reordered(text):
    return json.dumps(dict(reversed(json.loads(text).items())))


def _duplicate_keys(text):
    """The text with a first, different copy of three members, which the
    later ones override."""
    return text.replace("{", '{"noun_transition": [[0.5, 0.5]], "smoothing": 1, '
                             '"c_noun": [[-1]], ', 1)


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("variant", [str, _indent2], ids=["writer", "indent2"])
def test_streamed_read_equals_whole_text_parse_at_lta_size(
        lta_stats_text, monkeypatch, variant, chunk):
    if chunk:
        monkeypatch.setattr(seqpost.cooc, "_CHUNK", chunk)
    text = variant(lta_stats_text)
    expected = stats_from_whole_text(text)
    assert expected.noun_transition.shape == (478, 478)
    _assert_same_stats(CoocStats.from_json(io.StringIO(text)), expected)


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("variant", [str, _indent2, _reordered, _duplicate_keys],
                         ids=["writer", "indent2", "reordered", "duplicate_keys"])
def test_streamed_read_equals_whole_text_parse_across_chunk_boundaries(monkeypatch, variant, chunk):
    """Chunks of 1 and 7 characters end inside numbers, keys and rows."""
    if chunk:
        monkeypatch.setattr(seqpost.cooc, "_CHUNK", chunk)
    stats = _stats_for(_random_corpus(7))
    text = variant(stats.to_json())
    expected = stats_from_whole_text(text)
    _assert_same_stats(expected, stats)
    _assert_same_stats(CoocStats.from_json(text), expected)
    _assert_same_stats(CoocStats.from_json(io.StringIO(text)), expected)


class _Pipe(io.StringIO):
    """A text stream that cannot seek, as a pipe is."""

    def seekable(self):
        return False


def test_stream_that_cannot_seek_reads_and_fails_plainly():
    stats = _stats_for(_random_corpus(8))
    text = stats.to_json()
    _assert_same_stats(CoocStats.from_json(_Pipe(text)), stats)
    with pytest.raises(ValueError, match="^not a well-formed JSON object; read it from a file"):
        CoocStats.from_json(_Pipe(text[:-1]))


@pytest.mark.parametrize("mode", IndicatorMode)
def test_score_table_equals_whole_expression_bytewise(mode):
    stats = _lta_sized_stats()
    lo, hi = stats.smoothing.prob_clamp_min, stats.smoothing.prob_clamp_max
    for axis, classes in (("verb", stats.c_verb), ("noun", stats.c_noun)):
        expected = score_table(stats, axis, mode)
        # entries clamped at both ends take part
        for probs in (stats.marginal(axis), stats.transition(axis)):
            assert (np.clip(probs, lo, hi) == lo).any() and (np.clip(probs, lo, hi) == hi).any()
        table = np.stack([transition_score_row(stats, prev, axis, mode) for prev in range(classes)])
        assert table.tobytes() == expected.tobytes()


def test_stats_load_peak_is_the_tables_not_the_text(tmp_path, lta_stats_text):
    """Loading a 478-noun stats file from a handle holds neither its text
    nor more than two tables beyond the arrays it returns."""
    path = tmp_path / "stats.json"
    path.write_text(lta_stats_text)
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            before = tracemalloc.get_traced_memory()[0]
            stats = CoocStats.from_json(handle)
            peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    held = sum(getattr(stats, name).nbytes for name in TABLES)
    assert peak <= held + 2 * stats.noun_transition.nbytes + 2**20


@pytest.mark.parametrize("mode", IndicatorMode)
def test_first_score_row_call_peaks_at_two_tables(lta_stats_text, mode):
    """The first call on an axis builds its table in place: one table-sized
    temporary beside the table."""
    stats = CoocStats.from_json(lta_stats_text)
    for axis in ("noun", "verb"):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            transition_score_row(stats, 0, axis, mode)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2 * stats.transition(axis).nbytes + 2**19, axis
