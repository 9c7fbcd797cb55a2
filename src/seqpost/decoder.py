"""Label-smoothing targets and a toy multi-head linear softmax decoder.

The decoder has one independent linear head per future step and per axis
(verb, noun); each head maps a shared feature vector to class logits.
Training is plain minibatch gradient descent on the summed per-head
softmax cross-entropy, with targets that are either one-hot rows or the
smoothed mix of each row with the sequence-mean label distribution:

    y'_z = (y_z + mean_t y_t) / 2

Gradients are the analytic softmax cross-entropy gradients, which keeps the
whole optimizer checkable by finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .ensemble import softmax
from .rng import CounterRng
from .vocab import (
    ActionSequence, iter_numbered_records, json_number_text, json_numbers, parse_actions, validate_sequence,
)

_LOG_FLOOR = 1e-12


def smooth_labels(onehots: np.ndarray) -> np.ndarray:
    """Average each one-hot row with the mean of the rows of its sequence.

    The steps are the second-to-last axis, so a (B, Z, C) stack smooths each
    of its B sequences on its own. Rows stay valid distributions and keep
    their argmax; constant-class inputs are exact fixed points.
    """
    onehots = np.asarray(onehots, dtype=np.float64)
    if onehots.ndim < 2:
        raise ValueError("expected a (..., steps x classes) array")
    onehot = (np.count_nonzero(onehots == 1.0, axis=-1) == 1) & (
        np.count_nonzero(onehots, axis=-1) == 1
    )
    if not onehot.all():
        first_bad = np.argwhere(~onehot)[0].tolist()
        raise ValueError(f"row {', '.join(map(str, first_bad))} is not one-hot")
    return (onehots + onehots.mean(axis=-2, keepdims=True)) / 2.0


def cross_entropy(pred: np.ndarray, target: np.ndarray) -> float | np.ndarray:
    """-sum(target * ln(pred)) over the last axis, with pred floored at 1e-12
    before the log: a float for one row, one value per row for a stack."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {target.shape}")
    loss = -(target * np.log(np.maximum(pred, _LOG_FLOOR))).sum(axis=-1)
    return float(loss) if loss.ndim == 0 else loss


@dataclass
class MultiHeadDecoder:
    """Per-step linear heads; weights have shape (Z, feature_dim, C)."""

    verb_weights: np.ndarray  # (Z, D, C_verb)
    verb_biases: np.ndarray  # (Z, C_verb)
    noun_weights: np.ndarray  # (Z, D, C_noun)
    noun_biases: np.ndarray  # (Z, C_noun)

    @property
    def num_steps(self) -> int:
        return self.verb_weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.verb_weights.shape[1]

    @classmethod
    def init(
        cls, feature_dim: int, num_steps: int, c_verb: int, c_noun: int,
        seed: int = 0, init_scale: float = 0.01,
    ) -> "MultiHeadDecoder":
        sizes = {"feature_dim": feature_dim, "num_steps": num_steps, "c_verb": c_verb, "c_noun": c_noun}
        for name, size in sizes.items():
            if size < 1:
                raise ValueError(f"{name} must be >= 1, got {size}")
        # one block of draws, verb weights first: checkpoint bytes depend on the order
        weights = init_scale * CounterRng(seed, stream=0xDEC0DE).normals(
            num_steps * feature_dim * (c_verb + c_noun)
        )
        verb_weights, noun_weights = np.split(weights, [num_steps * feature_dim * c_verb])
        return cls(
            verb_weights=verb_weights.reshape(num_steps, feature_dim, c_verb),
            verb_biases=np.zeros((num_steps, c_verb)),
            noun_weights=noun_weights.reshape(num_steps, feature_dim, c_noun),
            noun_biases=np.zeros((num_steps, c_noun)),
        )

    def copy(self) -> "MultiHeadDecoder":
        return MultiHeadDecoder(**{f.name: getattr(self, f.name).copy() for f in fields(self)})

    def to_json(self) -> str:
        """``json.dumps`` of the checkpoint as a dict, byte for byte; the
        arrays are spelled by ``json_number_text``."""
        arrays = (f'"{f.name}": {json_number_text(getattr(self, f.name))}' for f in fields(self))
        return (f'{{"feature_dim": {self.feature_dim}, "num_steps": {self.num_steps}, '
                f'{", ".join(arrays)}}}')

    @classmethod
    def from_json(cls, text: str) -> "MultiHeadDecoder":
        """A checkpoint whose arrays disagree with its num_steps, its
        feature_dim or each other raises ValueError."""
        obj = json.loads(text)
        arrays = {f.name: json_numbers(obj, f.name) for f in fields(cls)}
        z, d = obj["num_steps"], obj["feature_dim"]
        for axis in ("verb", "noun"):
            classes = arrays[f"{axis}_biases"].shape[-1:]  # () for a scalar
            expected = {f"{axis}_weights": (z, d, *classes), f"{axis}_biases": (z, *classes)}
            for key, shape in expected.items():
                if arrays[key].shape != shape:
                    raise ValueError(f"{key} has shape {arrays[key].shape}, expected {shape} "
                                     f"(num_steps {z}, feature_dim {d})")
        return cls(**arrays)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 8
    use_label_smoothing: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf or self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("learning_rate must be positive and finite, "
                             "epochs and batch_size positive")


def decoder_forward(dec: MultiHeadDecoder, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(verb_logits, noun_logits) of one (D,) feature vector, each (Z, C), or
    of a (B, D) batch, each (B, Z, C)."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim not in (1, 2) or features.shape[-1] != dec.feature_dim:
        raise ValueError(
            f"feature vector has shape {features.shape}, expected ({dec.feature_dim},) "
            f"or (batch, {dec.feature_dim})"
        )
    return (np.einsum("...d,zdc->...zc", features, dec.verb_weights) + dec.verb_biases,
            np.einsum("...d,zdc->...zc", features, dec.noun_weights) + dec.noun_biases)


def loss_and_grad(
    dec: MultiHeadDecoder,
    batch: list[tuple[np.ndarray, ActionSequence]],
    use_smoothing: bool,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean over the batch of the per-example summed cross-entropy, plus
    analytic gradients in the same layout as the decoder parameters."""
    features = np.array([f for f, _ in batch], dtype=np.float64)  # (B, D)
    ids = np.array([seq.actions for _, seq in batch])
    logits = decoder_forward(dec, features)
    scale = 1.0 / len(batch)
    grads: dict[str, np.ndarray] = {}
    row_losses = []
    for axis, axis_logits, class_ids in zip(("verb", "noun"), logits, np.moveaxis(ids, -1, 0)):
        probs = softmax(axis_logits)  # (B, Z, C)
        targets = np.eye(probs.shape[-1])[class_ids]  # one-hot rows
        if use_smoothing:
            targets = smooth_labels(targets)
        row_losses.append(cross_entropy(probs, targets))  # (B, Z)
        delta = probs - targets  # d loss / d logits
        grads[f"{axis}_weights"] = np.einsum("bd,bzc->zdc", features, delta) * scale
        grads[f"{axis}_biases"] = delta.sum(axis=0) * scale
    # 0.0 plus each row loss in turn, example by example, verb steps before
    # noun steps: cumsum adds sequentially, where np.sum adds pairwise
    total_loss = float(np.cumsum(np.append(0.0, np.hstack(row_losses)))[-1])
    return total_loss * scale, grads


def train(
    dec: MultiHeadDecoder,
    dataset: list[tuple[np.ndarray, ActionSequence]],
    cfg: TrainConfig,
) -> tuple[MultiHeadDecoder, list[float]]:
    """Seeded minibatch gradient descent; returns the trained decoder and the
    mean per-example loss for each epoch. A parameter that ends non-finite
    raises ValueError, so no diverged decoder is returned."""
    if not dataset:
        raise ValueError("empty dataset")
    c_verb, c_noun = dec.verb_weights.shape[2], dec.noun_weights.shape[2]
    for features, seq in dataset:
        features = np.asarray(features)
        if features.shape != (dec.feature_dim,):
            raise ValueError(
                f"episode {seq.episode_id!r}: feature vector has shape "
                f"{features.shape}, expected ({dec.feature_dim},)"
            )
        if len(seq.actions) != dec.num_steps:
            raise ValueError(
                f"episode {seq.episode_id!r}: sequence length {len(seq.actions)} "
                f"!= decoder steps {dec.num_steps}"
            )
        validate_sequence(seq, c_verb, c_noun)

    dec = dec.copy()
    rng = CounterRng(cfg.rng_seed, stream=0x7E41)
    order = list(range(len(dataset)))
    history: list[float] = []
    with np.errstate(all="ignore"):  # divergence is reported below, not warned of
        for _ in range(cfg.epochs):
            rng.shuffle(order)
            epoch_loss = 0.0
            for start in range(0, len(order), cfg.batch_size):
                batch = [dataset[i] for i in order[start : start + cfg.batch_size]]
                loss, grads = loss_and_grad(dec, batch, cfg.use_label_smoothing)
                epoch_loss += loss * len(batch)
                for key, grad in grads.items():
                    getattr(dec, key)[...] -= cfg.learning_rate * grad
            history.append(epoch_loss / len(order))
    for field in fields(dec):
        bad = np.argwhere(~np.isfinite(getattr(dec, field.name)))
        if len(bad):
            raise ValueError(f"training diverged: {field.name}{bad[0].tolist()} is not finite; "
                             f"lower the learning rate")
    return dec, history


def _training_record(obj: dict) -> tuple[np.ndarray, tuple]:
    """A training line's (features, actions)."""
    try:
        features = json_numbers(obj, "features")
    except ValueError:  # a non-number, or lists of unequal lengths
        features = None
    if features is None or features.ndim != 1 or not np.isfinite(features).all():
        raise ValueError("features must be a 1-D list of finite numbers")
    if not features.size:
        raise ValueError("features must not be empty")
    actions = parse_actions(obj["actions"])
    if not actions:
        raise ValueError("actions must not be empty")
    return features, actions


def load_train_dataset(path: str) -> list[tuple[np.ndarray, ActionSequence]]:
    """JSONL rows {"features": [...], "actions": [[v, n], ...]}; each row's
    episode id is ``line<lineno>``."""
    return [(features, ActionSequence(episode_id=f"line{lineno}", actions=actions))
            for lineno, (features, actions) in iter_numbered_records(path, _training_record, "training")]
