from seqpost.rng import CounterRng


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
    rng = CounterRng(3)
    draws = [rng.gauss() for _ in range(20000)]
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / len(draws)
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
