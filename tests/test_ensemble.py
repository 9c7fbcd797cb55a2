import hashlib
import json
import warnings

import mpmath
import numpy as np
import pytest

from seqpost.ensemble import (
    EnsembleWeights,
    LogitsTensor,
    _exp,
    combine_logits,
    dump_logits,
    load_logits,
    softmax_rows,
)
from seqpost.rng import CounterRng

from oracles import gauss_draws, softmax_highprec


def _random_tensor(seed, example_id="e0", z=4, c_verb=3, c_noun=5):
    gauss = gauss_draws(CounterRng(seed))
    verb = np.array([[next(gauss) for _ in range(c_verb)] for _ in range(z)])
    noun = np.array([[next(gauss) for _ in range(c_noun)] for _ in range(z)])
    return LogitsTensor(example_id, verb, noun)


def test_identity_weights():
    a = _random_tensor(1)
    b = _random_tensor(2)
    out = combine_logits(a, b, EnsembleWeights(alpha=1.0, beta=0.0))
    assert np.array_equal(out.verb_logits, a.verb_logits)
    assert np.array_equal(out.noun_logits, a.noun_logits)


def test_midpoint():
    a = LogitsTensor("e", np.full((2, 3), 2.0), np.full((2, 2), 2.0))
    b = LogitsTensor("e", np.full((2, 3), 4.0), np.full((2, 2), 4.0))
    out = combine_logits(a, b, EnsembleWeights(0.5, 0.5))
    assert np.all(out.verb_logits == 3.0)
    assert np.all(out.noun_logits == 3.0)


def test_paper_weights_against_scalar_loop():
    a = _random_tensor(3)
    b = _random_tensor(4)
    out = combine_logits(a, b, EnsembleWeights(alpha=0.6, beta=1.4))
    for mat_out, mat_a, mat_b in (
        (out.verb_logits, a.verb_logits, b.verb_logits),
        (out.noun_logits, a.noun_logits, b.noun_logits),
    ):
        for z in range(mat_out.shape[0]):
            for c in range(mat_out.shape[1]):
                expected = 0.6 * mat_a[z][c] + 1.4 * mat_b[z][c]
                assert mat_out[z][c] == pytest.approx(expected, abs=1e-12)


def test_linearity_in_weights():
    a = _random_tensor(5)
    b = _random_tensor(6)
    lhs = (
        combine_logits(a, b, EnsembleWeights(0.3, 0.9)).verb_logits
        + combine_logits(a, b, EnsembleWeights(0.4, 0.2)).verb_logits
    )
    rhs = combine_logits(a, b, EnsembleWeights(0.7, 1.1)).verb_logits
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_shape_mismatch_errors():
    a = _random_tensor(7, z=4)
    b = _random_tensor(8, z=5)
    with pytest.raises(ValueError, match="shape mismatch"):
        combine_logits(a, b, EnsembleWeights())


def test_example_id_mismatch_errors():
    a = _random_tensor(9, example_id="x")
    b = _random_tensor(10, example_id="y")
    with pytest.raises(ValueError, match="example_id mismatch"):
        combine_logits(a, b, EnsembleWeights())


def test_softmax_uniform_row():
    dists = softmax_rows(LogitsTensor("e", np.zeros((1, 3)), np.zeros((1, 2))))
    assert np.allclose(dists.verb_probs[0], [1 / 3, 1 / 3, 1 / 3])


def test_softmax_large_logit_no_overflow():
    dists = softmax_rows(LogitsTensor("e", np.array([[1000.0, 0.0]]), np.zeros((1, 2))))
    assert np.all(np.isfinite(dists.verb_probs))
    assert dists.verb_probs[0][0] == pytest.approx(1.0, abs=1e-12)
    assert dists.verb_probs[0][1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_against_high_precision_oracle():
    row = [1.0, 2.0, 3.0]
    dists = softmax_rows(LogitsTensor("e", np.array([row]), np.zeros((1, 2))))
    expected = softmax_highprec(row)
    assert np.allclose(dists.verb_probs[0], expected, atol=1e-12)


def test_softmax_rows_sum_to_one_and_keep_argmax():
    tensor = _random_tensor(11, z=6)
    dists = softmax_rows(tensor)
    assert np.allclose(dists.verb_probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(dists.noun_probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.array_equal(
        np.argmax(dists.verb_probs, axis=1), np.argmax(tensor.verb_logits, axis=1)
    )


def test_softmax_extreme_magnitudes_finite():
    verb = np.array([[1e6, -1e6, 0.0], [-1e6, -1e6, -1e6]])
    dists = softmax_rows(LogitsTensor("e", verb, np.zeros((2, 2))))
    assert np.all(np.isfinite(dists.verb_probs))
    assert np.allclose(dists.verb_probs.sum(axis=1), 1.0)


def test_nonfinite_logits_rejected():
    with pytest.raises(ValueError, match="finite"):
        LogitsTensor("e", np.array([[np.inf, 0.0]]), np.zeros((1, 2)))


def test_logits_jsonl_roundtrip(tmp_path):
    tensors = [_random_tensor(12, example_id="a"), _random_tensor(13, example_id="b")]
    path = str(tmp_path / "logits.jsonl")
    dump_logits(tensors, path)
    back = load_logits(path)
    assert [t.example_id for t in back] == ["a", "b"]
    for orig, loaded in zip(tensors, back):
        assert np.array_equal(orig.verb_logits, loaded.verb_logits)
        assert np.array_equal(orig.noun_logits, loaded.noun_logits)


def test_logits_json_is_json_dumps_of_the_record():
    verb = np.array([[0.0, -0.0, 1e-7, -2.5], [1e17, 0.1, -1e-4, 123456.789]])
    tensor = LogitsTensor('ex "7"\n\u00e9', verb, _random_tensor(3).noun_logits[:2])
    assert tensor.to_json() == json.dumps({"example_id": tensor.example_id, "verb_logits": verb.tolist(),
                                           "noun_logits": tensor.noun_logits.tolist()})


@pytest.mark.parametrize("b, weights, message", [
    (1e308, EnsembleWeights(), "alpha=0.6, beta=1.4"),
    (-1e308, EnsembleWeights(alpha=2.0, beta=2.0), "alpha=2.0, beta=2.0"),  # inf + -inf is NaN
], ids=["overflow", "inf_minus_inf"])
def test_combine_overflow_is_an_error_naming_the_example_and_no_warning(b, weights, message):
    a = LogitsTensor("big", np.array([[1e308, 2.0]]), np.array([[1.0]]))
    other = LogitsTensor("big", np.array([[b, 2.0]]), np.array([[1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            combine_logits(a, other, weights)
    assert str(excinfo.value) == f"example 'big': weighted logits must be finite ({message})"


# ---------------------------------------------------------------------------
# the exp kernel softmax uses


def _exp_no_warning(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _exp(np.array(x, dtype=np.float64))


def _ulps_from_exact(got, xs):
    """How many doubles lie between each ``got`` and exp(x) rounded from 60 digits."""
    with mpmath.workdps(60):
        exact = np.array([float(mpmath.exp(mpmath.mpf(x))) for x in xs])
    return np.abs(got.view(np.int64) - exact.view(np.int64))


def test_exp_kernel_is_within_one_ulp_of_mpmath():
    gen = np.random.default_rng(16)
    xs = np.concatenate([
        gen.uniform(-745.2, 0.0, 3000),
        gen.uniform(-1.0, 0.0, 1000),  # the reduction's k = 0 and k = -1 steps
        -np.ldexp(1.0, gen.integers(-80, 10, 200)) * gen.uniform(1.0, 2.0, 200),
        np.linspace(-745.13, -708.4, 400),  # results in the subnormal range
    ])
    got = _exp_no_warning(xs)
    assert _ulps_from_exact(got, xs).max() <= 1
    assert (got[xs < -708.4] < np.finfo(np.float64).tiny).all()


def test_exp_kernel_edges():
    xs = [0.0, -0.0, -2.0 ** -60, -745.13, -745.1332191019411, -745.14, -746.0, -1e300, -np.inf, np.nan]
    got = _exp_no_warning(xs)
    assert got[:3].tolist() == [1.0, 1.0, 1.0]
    assert got[3:5].tolist() == [5e-324, 5e-324]  # the smallest subnormal
    assert got[5:9].tolist() == [0.0] * 4 and not np.signbit(got[5:9]).any()
    assert np.isnan(got[9])


def test_exp_kernel_keeps_its_input_and_shape():
    x = np.array([[-1.0, -np.inf], [np.nan, -800.0]])
    kept = x.copy()
    assert _exp_no_warning(x).shape == (2, 2)
    assert np.array_equal(x, kept, equal_nan=True)


@pytest.mark.bits
def test_exp_kernel_bits_pinned():
    """The kernel's bits over a fixed grid, whichever SIMD kernels numpy
    dispatches; CI runs this with numpy's AVX-512 kernels off too."""
    grid = np.concatenate([np.linspace(-746.0, 0.0, 200_001), [-0.0, -2.0 ** -60, -np.inf]])
    digest = hashlib.sha256(_exp_no_warning(grid).tobytes()).hexdigest()
    assert digest == "dbfa6dc387cf489bf83b7af1c03fd042e6c8d05d23b6c6043cba3afed2f8622a"
