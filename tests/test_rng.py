import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpost.rng import NORMAL_BOUND, CounterRng

from oracles import choice_from_cdf_walk, gauss_draws


def test_known_values_frozen():
    # frozen so any change to the generator is caught as a break in
    # cross-platform reproducibility
    rng = CounterRng(0)
    assert [rng.next_u64() for _ in range(3)] == [
        1151600336674127405,
        7971970674885184466,
        6901222231710189872,
    ]


def test_streams_independent():
    a = CounterRng(1, stream=0)
    b = CounterRng(1, stream=1)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_uniform_range_and_mean():
    rng = CounterRng(2)
    draws = [rng.uniform() for _ in range(10000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    mean = sum(draws) / len(draws)
    assert abs(mean - 0.5) < 0.02


def test_gauss_moments():
    draws = CounterRng(3).normals(20000)
    mean = draws.mean()
    var = ((draws - mean) ** 2).mean()
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05


def test_choice_from_cdf_deterministic_extremes():
    rng = CounterRng(4)
    assert rng.choice_from_cdf([1.0, 0.0, 0.0]) == 0
    assert rng.choice_from_cdf([0.0, 0.0, 1.0]) == 2


def test_choice_from_cdf_frequencies():
    rng = CounterRng(5)
    counts = [0, 0]
    for _ in range(10000):
        counts[rng.choice_from_cdf([0.3, 0.7])] += 1
    assert abs(counts[0] / 10000 - 0.3) < 0.02


def test_shuffle_deterministic():
    a = list(range(10))
    b = list(range(10))
    CounterRng(6).shuffle(a)
    CounterRng(6).shuffle(b)
    assert a == b
    assert sorted(a) == list(range(10))


def test_choice_from_cdf_never_returns_zero_mass_class():
    # the float CDF of ten 0.1s ends at 0.9999999999999999, so the largest
    # uniform draw walks past it
    rng = CounterRng(0)
    rng.uniform = lambda: 1.0 - 2.0 ** -53
    assert rng.choice_from_cdf([0.1] * 10 + [0.0]) == 9


def test_block_u64_matches_frozen_values():
    rng = CounterRng(0)
    assert rng._next_u64_block(3).tolist() == [
        1151600336674127405,
        7971970674885184466,
        6901222231710189872,
    ]
    assert rng._counter == 3


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(0, 40), st.integers(0, 300))
def test_block_uniforms_equal_scalar_uniforms(seed, stream, skip, m):
    block, scalar = CounterRng(seed, stream), CounterRng(seed, stream)
    for rng in (block, scalar):
        for _ in range(skip):
            rng.next_u64()
    expected = [scalar.uniform() for _ in range(m)]
    assert ((block._next_u64_block(m) >> np.uint64(11)) * 2.0 ** -53).tolist() == expected
    assert block.next_u64() == scalar.next_u64()


def _oracle(rng, n):
    return np.array(list(itertools.islice(gauss_draws(rng), n)), dtype=np.float64)


def test_normals_equal_the_box_muller_oracle_for_every_n_up_to_257():
    expected = _oracle(CounterRng(8, stream=3), 257)
    for n in range(258):
        rng = CounterRng(8, stream=3)
        values = rng.normals(n)
        assert values.dtype == np.float64 and values.shape == (n,)
        assert values.tobytes() == expected[:n].tobytes(), n
        assert rng._counter == 2 * ((n + 1) // 2), n


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**32), st.integers(0, 40), st.integers(0, 257),
       st.integers(0, 257))
def test_normals_equal_the_box_muller_oracle(seed, stream, skip, m, n):
    """After ``skip`` outputs and a first call of any size, odd ones included,
    a second call reads on from the counter alone."""
    block, scalar = CounterRng(seed, stream), CounterRng(seed, stream)
    for rng in (block, scalar):
        for _ in range(skip):
            rng.next_u64()
    first = block.normals(m)
    assert first.tobytes() == _oracle(scalar, m).tobytes()
    assert block._counter == scalar._counter == skip + 2 * ((m + 1) // 2)
    assert block.normals(n).tobytes() == _oracle(scalar, n).tobytes()
    assert block.uniform().hex() == scalar.uniform().hex()


def test_the_generator_holds_no_state_but_its_counter():
    rng = CounterRng(0)
    assert set(vars(rng)) == {"_base", "_counter"}
    rng.normals(3)
    assert set(vars(rng)) == {"_base", "_counter"}
    assert rng.normals(2).tobytes() == _oracle(CounterRng(0), 6)[4:].tobytes()


class _Scripted(CounterRng):
    """Replays fixed 64-bit outputs through both the scalar and the block path."""

    def __init__(self, outputs):
        super().__init__(0)
        self._outputs = outputs

    def next_u64(self):
        self._counter += 1
        return self._outputs[self._counter - 1]

    def _next_u64_block(self, m):
        self._counter += m
        return np.array(self._outputs[self._counter - m : self._counter], dtype=np.uint64)


def test_normals_keep_the_zero_uniform_nudge():
    # u1 == 0 (an output below 2**11) takes the nudged log(2**-53) on both paths
    outputs = [0, 2**63, 2**11 - 1, 0, 2**64 - 1, 2**64 - 1]
    expected = _oracle(_Scripted(outputs), 5)
    values = _Scripted(outputs).normals(5)
    assert np.isfinite(values).all()
    assert values.tobytes() == expected.tobytes()


# 1 - 2**-53, the largest uniform draw: a float CDF that sums short of 1 ends below it
LARGEST_UNIFORM = 1.0 - 2.0 ** -53


def _row(head, width, weight_seed, zero_tail, normalise):
    """``head``, then ``width`` random weights of which about a third are
    zero, then ``zero_tail`` zeros; scaled to sum to 1 if ``normalise``."""
    wide = np.random.default_rng(weight_seed).random(width)
    wide[wide < 1 / 3] = 0.0
    row = np.concatenate([head, wide, np.zeros(zero_tail)])
    if normalise and row.sum() > 0:
        row = row / row.sum()
    return row


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32),
    st.lists(st.floats(0.0, 1.0), max_size=40),
    st.integers(0, 560),
    st.integers(0, 2**32),
    st.integers(0, 30),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["seeded", "zero", "largest", "a_running_total"]),
)
def test_choice_from_cdf_on_an_array_equals_a_numpy_scalar_walk(seed, head, width, weight_seed,
                                                                zero_tail, normalise, as_list, draw):
    """An array or a list row; the draw seeded, or forced to 0, to the largest
    uniform, or onto the running total at the row's middle class."""
    row = _row(head, width, weight_seed, zero_tail, normalise)
    probs = row.tolist() if as_list else row
    fast, walk = CounterRng(seed), CounterRng(seed)
    if draw != "seeded":
        u = {"zero": 0.0, "largest": LARGEST_UNIFORM,
             "a_running_total": sum(row[: row.size // 2 + 1].tolist())}[draw]
        fast.uniform = walk.uniform = lambda: u
    expected = choice_from_cdf_walk(walk, row)
    assert fast.choice_from_cdf(probs) == expected
    assert fast.uniform() == walk.uniform()
    if row.any():
        assert row[expected] > 0


@pytest.mark.parametrize("width", [0, 1, 8, 600])
@pytest.mark.parametrize("as_list", [False, True])
def test_choice_from_cdf_of_an_all_zero_row_is_zero(width, as_list):
    row = [0.0] * width if as_list else np.zeros(width)
    assert CounterRng(0).choice_from_cdf(row) == 0
    rng = CounterRng(0)
    rng.uniform = lambda: LARGEST_UNIFORM
    assert rng.choice_from_cdf(row) == 0


def test_choice_from_cdf_overshoot_on_a_wide_row_takes_the_last_positive_class():
    # 590 equal weights sum short of 1, so the largest draw passes every
    # class; the zero-mass tail must not be picked
    row = np.full(600, 1 / 590)
    row[590:] = 0.0
    assert np.add.accumulate(row)[-1] <= LARGEST_UNIFORM
    rng = CounterRng(0)
    rng.uniform = lambda: LARGEST_UNIFORM
    assert rng.choice_from_cdf(row) == 589 == choice_from_cdf_walk(rng, row)


def test_normal_bound_is_the_largest_draw(monkeypatch):
    # all-zero outputs give u1 = 0, nudged to 2**-53, and u2 = 0, so cos(theta) = 1
    monkeypatch.setattr(CounterRng, "_next_u64_block", lambda self, m: np.zeros(m, dtype=np.uint64))
    assert CounterRng(0).normals(1)[0] == NORMAL_BOUND == 8.571674348652905
