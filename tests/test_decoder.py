import hashlib
import json
import math
import re

import numpy as np
import pytest

from seqpost.decoder import (
    MultiHeadDecoder,
    TrainConfig,
    cross_entropy,
    decoder_forward,
    loss_and_grad,
    smooth_labels,
    train,
)
from seqpost.ensemble import softmax
from seqpost.rng import CounterRng
from seqpost.vocab import Action, ActionSequence

from oracles import cross_entropy_highprec, gauss_draws


def _onehot(i, c):
    row = np.zeros(c)
    row[i] = 1.0
    return row


# ---------------------------------------------------------------------------
# smooth_labels


def test_smooth_two_steps():
    out = smooth_labels(np.stack([_onehot(0, 2), _onehot(1, 2)]))
    assert np.allclose(out, [[0.75, 0.25], [0.25, 0.75]])


def test_smooth_constant_sequence_fixed_point():
    rows = np.stack([_onehot(2, 4)] * 5)
    assert np.array_equal(smooth_labels(rows), rows)


def test_smooth_against_scalar_oracle():
    rng = CounterRng(1)
    z, c = 4, 6
    rows = np.stack([_onehot(rng.randint(c), c) for _ in range(z)])
    out = smooth_labels(rows)
    mean = [sum(rows[t][k] for t in range(z)) / z for k in range(c)]
    for step in range(z):
        for k in range(c):
            assert out[step][k] == pytest.approx((rows[step][k] + mean[k]) / 2, abs=1e-12)


def test_smooth_rejects_non_onehot():
    with pytest.raises(ValueError, match="row 1"):
        smooth_labels(np.array([[1.0, 0.0], [0.5, 0.5]]))
    stack = np.stack([np.eye(2), np.eye(2)])
    stack[1, 0] = [0.5, 0.5]
    with pytest.raises(ValueError, match="row 1, 0 is not one-hot"):
        smooth_labels(stack)


def test_smooth_rows_sum_and_argmax_preserved():
    rng = CounterRng(2)
    for _ in range(200):
        z = 1 + rng.randint(20)
        c = 2 + rng.randint(49)
        ids = [rng.randint(c) for _ in range(z)]
        rows = np.stack([_onehot(i, c) for i in ids])
        out = smooth_labels(rows)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert [int(np.argmax(row)) for row in out] == ids


# ---------------------------------------------------------------------------
# cross_entropy


def test_ce_perfect_prediction():
    p = _onehot(1, 3)
    assert cross_entropy(p, p) <= 1e-9


def test_ce_uniform_vs_onehot():
    assert cross_entropy(np.full(4, 0.25), _onehot(2, 4)) == pytest.approx(math.log(4))


def test_ce_against_high_precision_oracle():
    rng = CounterRng(3)
    pred = np.array([rng.uniform() + 1e-3 for _ in range(5)])
    pred /= pred.sum()
    target = np.array([rng.uniform() for _ in range(5)])
    target /= target.sum()
    assert cross_entropy(pred, target) == pytest.approx(
        cross_entropy_highprec(pred, target), abs=1e-10
    )


def test_ce_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        cross_entropy(np.ones(3) / 3, np.ones(4) / 4)


def test_ce_gibbs_inequality():
    rng = CounterRng(4)
    for _ in range(200):
        c = 2 + rng.randint(6)
        t = np.array([rng.uniform() + 1e-3 for _ in range(c)])
        t /= t.sum()
        p = np.array([rng.uniform() + 1e-3 for _ in range(c)])
        p /= p.sum()
        assert cross_entropy(p, t) >= cross_entropy(t, t) - 1e-9


# ---------------------------------------------------------------------------
# decoder forward / train


def test_forward_zero_decoder():
    dec = MultiHeadDecoder(
        verb_weights=np.zeros((2, 3, 4)),
        verb_biases=np.zeros((2, 4)),
        noun_weights=np.zeros((2, 3, 5)),
        noun_biases=np.zeros((2, 5)),
    )
    verb_logits, noun_logits = decoder_forward(dec, np.array([1.0, 2.0, 3.0]))
    assert verb_logits.shape == (2, 4) and noun_logits.shape == (2, 5)
    assert np.all(verb_logits == 0.0)
    assert np.all(noun_logits == 0.0)


def test_forward_identity_weights():
    eye = np.stack([np.eye(3)] * 2)
    dec = MultiHeadDecoder(eye, np.zeros((2, 3)), eye, np.zeros((2, 3)))
    features = np.array([0.1, -2.0, 5.0])
    verb_logits, _ = decoder_forward(dec, features)
    for z in range(2):
        assert np.allclose(verb_logits[z], features)


def test_forward_against_scalar_loop():
    dec = MultiHeadDecoder.init(4, 3, 3, 5, seed=9, init_scale=0.5)
    gauss = gauss_draws(CounterRng(10))
    features = np.array([next(gauss) for _ in range(4)])
    verb_logits, _ = decoder_forward(dec, features)
    for z in range(3):
        for c in range(3):
            expected = sum(dec.verb_weights[z][d][c] * features[d] for d in range(4))
            expected += dec.verb_biases[z][c]
            assert verb_logits[z][c] == pytest.approx(expected, abs=1e-12)


def test_forward_dimension_mismatch():
    dec = MultiHeadDecoder.init(4, 2, 3, 3)
    with pytest.raises(ValueError, match="feature"):
        decoder_forward(dec, np.zeros(5))
    with pytest.raises(ValueError, match="feature"):
        decoder_forward(dec, np.zeros((2, 2, 4)))


def _toy_dataset(n, feature_dim, z, c_verb, c_noun, seed):
    rng = CounterRng(seed)
    gauss = gauss_draws(rng)
    dataset = []
    for i in range(n):
        features = np.array([next(gauss) for _ in range(feature_dim)])
        actions = tuple(Action(rng.randint(c_verb), rng.randint(c_noun)) for _ in range(z))
        dataset.append((features, ActionSequence(f"e{i}", actions)))
    return dataset


def test_single_example_overfit_reduces_loss():
    dataset = _toy_dataset(1, 4, 3, 3, 4, seed=5)
    dec = MultiHeadDecoder.init(4, 3, 3, 4, seed=5)
    _, history = train(dec, dataset, TrainConfig(learning_rate=0.5, epochs=200, batch_size=1))
    assert history[-1] < history[0]


def test_gradients_match_finite_differences():
    dataset = _toy_dataset(3, 3, 2, 3, 4, seed=6)
    h = 1e-5
    for point in range(5):
        for smoothing in (False, True):
            dec = MultiHeadDecoder.init(3, 2, 3, 4, seed=100 + point, init_scale=0.4)
            _, grads = loss_and_grad(dec, dataset, smoothing)
            for key in ("verb_weights", "noun_biases"):
                param = getattr(dec, key)
                grad = grads[key]
                it = np.nditer(param, flags=["multi_index"])
                fd = np.zeros_like(param)
                for _ in it:
                    idx = it.multi_index
                    orig = param[idx]
                    param[idx] = orig + h
                    up, _ = loss_and_grad(dec, dataset, smoothing)
                    param[idx] = orig - h
                    down, _ = loss_and_grad(dec, dataset, smoothing)
                    param[idx] = orig
                    fd[idx] = (up - down) / (2 * h)
                rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(fd), 1e-12)
                assert rel <= 1e-4


def test_train_deterministic():
    dataset = _toy_dataset(6, 4, 3, 3, 3, seed=7)
    cfg = TrainConfig(learning_rate=0.1, epochs=20, batch_size=2, rng_seed=11)
    dec = MultiHeadDecoder.init(4, 3, 3, 3, seed=8)
    a, hist_a = train(dec, dataset, cfg)
    b, hist_b = train(dec, dataset, cfg)
    assert hist_a == hist_b
    assert np.array_equal(a.verb_weights, b.verb_weights)
    assert np.array_equal(a.noun_weights, b.noun_weights)


def test_smoothing_preserves_converged_argmax():
    """On a separable toy set both target styles should settle on the same
    per-step predicted classes."""
    feature_dim, z, c_verb, c_noun = 6, 3, 3, 3
    gauss = gauss_draws(CounterRng(12))
    dataset = []
    # class pattern is a deterministic function of a cluster id baked into
    # the features, so the problem is linearly separable
    for i in range(12):
        cluster = i % 3
        features = np.array(
            [3.0 if d == cluster else 0.0 for d in range(3)]
            + [0.2 * next(gauss) for _ in range(feature_dim - 3)]
        )
        actions = tuple(Action((cluster + t) % c_verb, (cluster + 2 * t) % c_noun) for t in range(z))
        dataset.append((features, ActionSequence(f"e{i}", actions)))

    results = {}
    for smoothing in (False, True):
        dec = MultiHeadDecoder.init(feature_dim, z, c_verb, c_noun, seed=13)
        cfg = TrainConfig(learning_rate=0.5, epochs=300, batch_size=4,
                          use_label_smoothing=smoothing, rng_seed=3)
        trained, _ = train(dec, dataset, cfg)
        preds = []
        for features, _seq in dataset:
            verb_logits, noun_logits = decoder_forward(trained, features)
            preds.append(
                (
                    tuple(int(np.argmax(verb_logits[t])) for t in range(z)),
                    tuple(int(np.argmax(noun_logits[t])) for t in range(z)),
                )
            )
        results[smoothing] = preds
    assert results[False] == results[True]
    # and both match the ground truth
    for (features, seq), (verbs, nouns) in zip(dataset, results[True]):
        assert verbs == tuple(a.verb_id for a in seq.actions)
        assert nouns == tuple(a.noun_id for a in seq.actions)


def test_empty_dataset_errors():
    dec = MultiHeadDecoder.init(3, 2, 2, 2)
    with pytest.raises(ValueError, match="empty dataset"):
        train(dec, [], TrainConfig())


def test_wrong_sequence_length_errors():
    dec = MultiHeadDecoder.init(3, 2, 2, 2)
    dataset = _toy_dataset(1, 3, 5, 2, 2, seed=1)
    with pytest.raises(ValueError, match="length"):
        train(dec, dataset, TrainConfig())


@pytest.mark.parametrize("lr", [0.0, -1.0, math.inf, math.nan])
def test_learning_rate_must_be_positive_and_finite(lr):
    with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
        TrainConfig(learning_rate=lr)


def test_checkpoint_roundtrip():
    dec = MultiHeadDecoder.init(4, 3, 2, 5, seed=14)
    text = dec.to_json()
    assert text == json.dumps({"feature_dim": 4, "num_steps": 3,
                               **{name: getattr(dec, name).tolist() for name in
                                  ("verb_weights", "verb_biases", "noun_weights", "noun_biases")}})
    back = MultiHeadDecoder.from_json(text)
    assert back.feature_dim == 4
    assert np.array_equal(dec.verb_weights, back.verb_weights)
    assert np.array_equal(dec.noun_biases, back.noun_biases)


@pytest.mark.parametrize("key, value, message", [
    ("feature_dim", 3, "verb_weights has shape (3, 4, 2), expected (3, 3, 2)"),
    ("num_steps", 2, "verb_weights has shape (3, 4, 2), expected (2, 4, 2)"),
    ("noun_biases", [[0.0] * 4] * 3, "noun_weights has shape (3, 4, 5), expected (3, 4, 4)"),
    ("verb_biases", [0.0] * 2, "verb_biases has shape (2,), expected (3, 2)"),
], ids=["feature_dim", "num_steps", "noun_classes", "flat_biases"])
def test_checkpoint_whose_arrays_disagree_is_rejected(key, value, message):
    obj = json.loads(MultiHeadDecoder.init(4, 3, 2, 5, seed=14).to_json())
    obj[key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)} "):
        MultiHeadDecoder.from_json(json.dumps(obj))


@pytest.mark.parametrize("value", [[["0.5", 0.0]] * 3, [[True, False]] * 3, [[None, 0.0]] * 3,
                                   [[0.0, 0.0], [0.0, 0.0], [0.0, True]]],
                         ids=["string", "booleans", "null", "boolean_among_numbers"])
def test_checkpoint_arrays_must_be_json_numbers(value):
    obj = json.loads(MultiHeadDecoder.init(4, 3, 2, 5, seed=14).to_json())
    obj["verb_biases"] = value
    with pytest.raises(ValueError, match="^verb_biases must be JSON numbers$"):
        MultiHeadDecoder.from_json(json.dumps(obj))


def test_checkpoint_without_features_is_rejected_not_misread():
    # a (Z, 0, C) weight array is written as Z empty lists, which reads back 2-D
    weights, biases = np.zeros((2, 0, 2)), np.zeros((2, 2))
    text = MultiHeadDecoder(weights, biases, weights, biases).to_json()
    with pytest.raises(ValueError, match=re.escape("verb_weights has shape (2, 0), expected (2, 0, 2)")):
        MultiHeadDecoder.from_json(text)


@pytest.mark.parametrize("sizes, name", [
    ((0, 2, 2, 2), "feature_dim"), ((3, 0, 2, 2), "num_steps"),
    ((3, 2, 0, 2), "c_verb"), ((3, 2, 2, -1), "c_noun"),
])
def test_init_rejects_an_empty_dimension(sizes, name):
    # such a decoder would write a checkpoint that from_json cannot read back
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {min(sizes)}$"):
        MultiHeadDecoder.init(*sizes)


@pytest.mark.parametrize("feature_dim, num_steps, c_verb, c_noun", [(3, 1, 3, 5), (5, 3, 7, 3), (1, 1, 1, 1)])
def test_init_weights_equal_scalar_gauss_reference(feature_dim, num_steps, c_verb, c_noun):
    # odd tensor sizes: the noun tensor starts with the sine of the verb
    # tensor's last Box-Muller pair
    decoder = MultiHeadDecoder.init(feature_dim, num_steps, c_verb, c_noun, seed=4, init_scale=0.05)
    gauss = gauss_draws(CounterRng(4, stream=0xDEC0DE))
    for weights, c in ((decoder.verb_weights, c_verb), (decoder.noun_weights, c_noun)):
        shape = (num_steps, feature_dim, c)
        flat = np.array([next(gauss) for _ in range(int(np.prod(shape)))])
        assert weights.tobytes() == (0.05 * flat.reshape(shape)).tobytes()


# ---------------------------------------------------------------------------
# pinned training run: 7 examples in batches of 3, so the last batch is uneven


def pinned_train_rows(n=7, feature_dim=5, z=3):
    """Training rows with dyadic features; verb ids < 4, noun ids < 9."""
    return [
        {
            "features": [((i * 7 + d * 3) % 11 - 5) / 4 for d in range(feature_dim)],
            "actions": [[(i + t) % 4, (2 * i + 3 * t) % 9] for t in range(z)],
        }
        for i in range(n)
    ]


PINNED_TRAIN = {
    False: (
        "2f943c600661ebd135254765ce36d5749a3985222c746bc799f9581f9e41e4e1",
        ["0x1.60d33904888b0p+3", "0x1.1b459415354ebp+3", "0x1.ca29793e861d9p+2",
         "0x1.832535104c3eep+2", "0x1.52f4be8936289p+2", "0x1.323234c34b64ep+2"],
    ),
    True: (
        "2d0a0cccaf169630084cc536ba5a5c16414e5c6aa7aafc443f53b2b994231da0",
        ["0x1.5888261a5172dp+3", "0x1.3526e2eda1edbp+3", "0x1.193c46dea27bfp+3",
         "0x1.07175739b9b48p+3", "0x1.f30d75d7be395p+2", "0x1.e13b28cd1e81dp+2"],
    ),
}


@pytest.mark.bits
@pytest.mark.parametrize("smoothing", [False, True], ids=["onehot", "smoothed"])
def test_train_checkpoint_and_history_pinned(smoothing):
    dataset = [
        (np.array(row["features"]), ActionSequence(f"line{i + 1}", tuple(Action(*a) for a in row["actions"])))
        for i, row in enumerate(pinned_train_rows())
    ]
    cfg = TrainConfig(learning_rate=0.4, epochs=6, batch_size=3,
                      use_label_smoothing=smoothing, rng_seed=2)
    trained, history = train(MultiHeadDecoder.init(5, 3, 4, 9, seed=2), dataset, cfg)
    digest, hexes = PINNED_TRAIN[smoothing]
    assert hashlib.sha256(trained.to_json().encode()).hexdigest() == digest
    assert [h.hex() for h in history] == hexes


# ---------------------------------------------------------------------------
# batched forms equal their one-row forms bit for bit


def _loss_and_grad_per_example(dec, batch, use_smoothing):
    """Reference: one forward pass per example, one cross-entropy per row."""
    grads = {key: np.zeros_like(getattr(dec, key))
             for key in ("verb_weights", "verb_biases", "noun_weights", "noun_biases")}
    total_loss = 0.0
    for features, seq in batch:
        for axis, logits in zip(("verb", "noun"), decoder_forward(dec, features)):
            probs = softmax(logits)
            targets = np.eye(probs.shape[1])[[getattr(a, f"{axis}_id") for a in seq.actions]]
            if use_smoothing:
                targets = smooth_labels(targets)
            for z in range(dec.num_steps):
                total_loss += cross_entropy(probs[z], targets[z])
            delta = probs - targets
            grads[f"{axis}_weights"] += np.einsum("d,zc->zdc", features, delta)
            grads[f"{axis}_biases"] += delta
    scale = 1.0 / len(batch)
    return total_loss * scale, {key: grad * scale for key, grad in grads.items()}


@pytest.mark.parametrize("smoothing", [False, True], ids=["onehot", "smoothed"])
def test_batched_loss_and_grad_equals_per_example_loop(smoothing):
    rng = CounterRng(16)
    for _ in range(40):
        b, d, z = 1 + rng.randint(9), 1 + rng.randint(9), 1 + rng.randint(8)
        c_verb, c_noun = 1 + rng.randint(12), 1 + rng.randint(20)
        dec = MultiHeadDecoder.init(d, z, c_verb, c_noun, seed=rng.randint(1000), init_scale=0.5)
        batch = _toy_dataset(b, d, z, c_verb, c_noun, seed=rng.randint(1000))
        loss, grads = loss_and_grad(dec, batch, smoothing)
        ref_loss, ref_grads = _loss_and_grad_per_example(dec, batch, smoothing)
        assert loss.hex() == ref_loss.hex()
        assert grads.keys() == ref_grads.keys()
        for key, grad in grads.items():
            assert grad.tobytes() == ref_grads[key].tobytes()


def test_batched_forms_equal_row_forms():
    rng = CounterRng(15)
    for _ in range(100):
        b, d, z = 1 + rng.randint(6), 1 + rng.randint(9), 1 + rng.randint(8)
        c_verb, c_noun = 1 + rng.randint(12), 1 + rng.randint(12)
        dec = MultiHeadDecoder.init(d, z, c_verb, c_noun, seed=rng.randint(1000), init_scale=0.5)
        features = rng.normals(b * d).reshape(b, d)
        batched = decoder_forward(dec, features)
        assert [logits.shape for logits in batched] == [(b, z, c_verb), (b, z, c_noun)]
        for i in range(b):
            one = decoder_forward(dec, features[i])
            for batched_logits, one_logits in zip(batched, one):
                assert batched_logits[i].tobytes() == one_logits.tobytes()

        onehots = np.eye(c_noun)[[[rng.randint(c_noun) for _ in range(z)] for _ in range(b)]]
        smoothed = smooth_labels(onehots)
        pred = np.abs(rng.normals(b * z * c_noun)).reshape(b, z, c_noun)
        losses = cross_entropy(pred, smoothed)
        assert losses.shape == (b, z)
        for i in range(b):
            assert smoothed[i].tobytes() == smooth_labels(onehots[i]).tobytes()
            for t in range(z):
                assert losses[i, t].tobytes() == np.float64(cross_entropy(pred[i, t], smoothed[i, t])).tobytes()
