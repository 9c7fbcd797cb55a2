"""Weighted combination of two models' logits and conversion to distributions.

Two models sharing the same vocabularies are combined in logit space by a
weighted sum, then a single numerically-stable softmax turns each per-step
row into a probability distribution.

The softmax's ``exp`` is this module's own kernel, a fixed sequence of numpy
``maximum``/``multiply``/``add``/``subtract``/``divide``/``rint``/``ldexp``
calls. Each of those is one correctly rounded IEEE operation in a ufunc of its
own, so no step can be fused or reassociated: the probabilities, and the
decoder's checkpoints, carry the same bits whichever SIMD kernels numpy
dispatches and whichever C library the host has.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .vocab import JSON_SPACE, iter_records, json_float_rows, json_number_text, json_numbers, record_id

# A logits line as json.dumps lays it out, with the id's text between the first two parts
_HEAD, _VERB, _NOUN, _TAIL = b'{"example_id": "', b'", "verb_logits": [[', b']], "noun_logits": [[', b"]]}"
_JSON_SPACE = JSON_SPACE.encode()


@dataclass(frozen=True)
class LogitsTensor:
    example_id: str
    verb_logits: np.ndarray  # (Z, C_verb)
    noun_logits: np.ndarray  # (Z, C_noun)

    def __post_init__(self):
        vl = np.asarray(self.verb_logits, dtype=np.float64)
        nl = np.asarray(self.noun_logits, dtype=np.float64)
        if vl.ndim != 2 or nl.ndim != 2:
            raise ValueError("logits must be 2-D (steps x classes)")
        if vl.shape[0] != nl.shape[0]:
            raise ValueError(
                f"verb and noun logits disagree on step count: {vl.shape} vs {nl.shape}"
            )
        if 0 in (vl.shape[1], nl.shape[1]):
            raise ValueError(f"logits need at least one class per axis, got {vl.shape} and {nl.shape}")
        if not (np.isfinite(vl).all() and np.isfinite(nl).all()):
            raise ValueError("logits must be finite")
        object.__setattr__(self, "verb_logits", vl)
        object.__setattr__(self, "noun_logits", nl)

    @property
    def num_steps(self) -> int:
        return self.verb_logits.shape[0]

    def to_json(self) -> str:
        """``json.dumps`` of the record as a dict, byte for byte; the arrays
        are spelled by ``json_number_text``, one after the other."""
        return (f'{{"example_id": {json.dumps(self.example_id)}, '
                f'"verb_logits": {json_number_text(self.verb_logits)}, '
                f'"noun_logits": {json_number_text(self.noun_logits)}}}')

    @classmethod
    def from_obj(cls, obj: dict) -> "LogitsTensor":
        return cls(
            example_id=record_id(obj, "example_id"),
            verb_logits=json_numbers(obj, "verb_logits"),
            noun_logits=json_numbers(obj, "noun_logits"),
        )

    @classmethod
    def from_line(cls, line: bytes) -> "LogitsTensor | None":
        """The record of a line laid out as ``to_json`` writes it, with JSON
        whitespace around it and an id of printable ASCII with no escapes, its
        arrays read by ``json_float_rows``: the record, or the ValueError, that
        ``from_obj`` gives for ``json.loads`` of the line. None for any other
        line, which ``json.loads`` must read."""
        start, stop = 0, len(line)
        while start < stop and line[start] in _JSON_SPACE:
            start += 1
        while stop > start and line[stop - 1] in _JSON_SPACE:
            stop -= 1
        if not (line.startswith(_HEAD, start) and line.endswith(_TAIL, start, stop)):
            return None
        quote = line.find(b'"', start + len(_HEAD), stop)
        example_id = line[start + len(_HEAD):quote]
        verb = quote + len(_VERB)
        noun = line.find(_NOUN, verb, stop)
        if (quote < 0 or noun < 0 or not line.startswith(_VERB, quote) or not example_id.isascii()
                or b"\\" in example_id or not example_id.decode("ascii").isprintable()):
            return None
        verb_logits = json_float_rows(line, verb, noun)
        noun_logits = json_float_rows(line, noun + len(_NOUN), stop - len(_TAIL))
        if verb_logits is None or noun_logits is None:
            return None
        return cls(example_id.decode("ascii"), verb_logits, noun_logits)


@dataclass(frozen=True)
class EnsembleWeights:
    alpha: float = 0.6
    beta: float = 1.4

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("ensemble weights must be finite")


@dataclass(frozen=True)
class StepDistributions:
    example_id: str
    verb_probs: np.ndarray  # (Z, C_verb), rows sum to 1
    noun_probs: np.ndarray  # (Z, C_noun), rows sum to 1

    @property
    def num_steps(self) -> int:
        return self.verb_probs.shape[0]


def check_pair(a: LogitsTensor, b: LogitsTensor) -> None:
    """A ValueError unless ``a`` and ``b`` are one example's logits of the
    same shapes, so that they can be combined."""
    if a.example_id != b.example_id:
        raise ValueError(f"example_id mismatch: {a.example_id!r} vs {b.example_id!r}")
    if a.verb_logits.shape != b.verb_logits.shape or a.noun_logits.shape != b.noun_logits.shape:
        raise ValueError(
            "shape mismatch: "
            f"a=(verb {a.verb_logits.shape}, noun {a.noun_logits.shape}) vs "
            f"b=(verb {b.verb_logits.shape}, noun {b.noun_logits.shape})"
        )


def weighted_sum(a: np.ndarray, b: np.ndarray, alpha, beta) -> np.ndarray:
    """alpha * a + beta * b, elementwise and broadcast; an overflow gives inf
    or NaN, not a numpy warning, for the caller to report."""
    with np.errstate(over="ignore", invalid="ignore"):
        return alpha * a + beta * b


def combine_logits(a: LogitsTensor, b: LogitsTensor, w: EnsembleWeights) -> LogitsTensor:
    """Elementwise alpha * a + beta * b on both axes; a sum that overflows is
    a ValueError naming the example."""
    check_pair(a, b)
    verb = weighted_sum(a.verb_logits, b.verb_logits, w.alpha, w.beta)
    noun = weighted_sum(a.noun_logits, b.noun_logits, w.alpha, w.beta)
    try:
        return LogitsTensor(example_id=a.example_id, verb_logits=verb, noun_logits=noun)
    except ValueError as exc:
        raise ValueError(f"example {a.example_id!r}: weighted {exc} "
                         f"(alpha={w.alpha}, beta={w.beta})") from exc


# fdlibm's e_exp.c: ln 2 split so that k * _LN2_HI is exact for |k| < 2**11,
# 1 / ln 2, and the Remez coefficients of its polynomial on [-ln2/2, ln2/2].
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e+00
_P5, _P4, _P3, _P2, _P1 = (4.13813679705723846039e-08, -1.65339022054652515390e-06,
                           6.61375632143793436117e-05, -2.77777777770155933842e-03,
                           1.66666666666666019037e-01)
# exp(x) rounds to +0.0 below -745.1332...; clamping there keeps k finite
_EXP_FLOOR = -746.0


def _exp(x: np.ndarray) -> np.ndarray:
    """``exp`` of a float64 array whose entries are <= 0, -inf or NaN, within
    1 ulp; -inf and anything below -745.14 give +0.0, NaN gives NaN, and no
    numpy warning is raised. ``x`` itself is left as it was.

    fdlibm's ``e_exp.c`` (after Tang 1989), one ufunc per rounded operation:
    with k = rint(x / ln2), hi = x - k*ln2_hi, lo = k*ln2_lo and r = hi - lo,
    c = r - r²(P1 + r²(P2 + … + r²P5)) and exp(x) = 2^k (1 - ((lo - rc/(2 - c)) - hi)).
    Every step writes into one of five float buffers of ``x``'s shape."""
    r = np.maximum(x, _EXP_FLOOR)  # -inf -> the floor; NaN stays NaN
    k = np.multiply(r, _INV_LN2)
    np.rint(k, out=k)
    # the exponent as an integer; k >= -1076, so this fmax only turns a NaN k,
    # whose result is NaN whatever its exponent, into one that casts cleanly
    k_int = np.fmax(k, -2048.0, out=np.empty(k.shape, np.int32), casting="unsafe")
    hi = np.multiply(k, _LN2_HI)
    np.subtract(r, hi, out=hi)
    lo = np.multiply(k, _LN2_LO, out=k)
    np.subtract(hi, lo, out=r)
    t = np.multiply(r, r)
    c = np.multiply(t, _P5)
    for coefficient in (_P4, _P3, _P2, _P1):
        np.add(c, coefficient, out=c)
        np.multiply(c, t, out=c)
    np.subtract(r, c, out=c)
    y = np.multiply(r, c, out=t)
    np.subtract(2.0, c, out=c)
    np.divide(y, c, out=y)
    np.subtract(lo, y, out=y)
    np.subtract(y, hi, out=y)
    np.subtract(1.0, y, out=y)
    return np.ldexp(y, k_int, out=y)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis, of one row or of any stack.
    Its ``exp`` is ``_exp``, so the bits depend neither on numpy's SIMD level
    nor on the C library."""
    exp = _exp(logits - logits.max(axis=-1, keepdims=True))
    exp /= exp.sum(axis=-1, keepdims=True)
    return exp


def softmax_rows(logits: LogitsTensor) -> StepDistributions:
    """``softmax`` of each step's row, on both axes."""
    return StepDistributions(
        example_id=logits.example_id,
        verb_probs=softmax(logits.verb_logits),
        noun_probs=softmax(logits.noun_logits),
    )


def iter_logits(path: str) -> Iterator[LogitsTensor]:
    """The records of a logits file, parsed one at a time as they are read;
    ``LogitsTensor.from_line`` reads the long lines it can."""
    return iter_records(path, LogitsTensor.from_obj, "logits", LogitsTensor.from_line)


def load_logits(path: str) -> list[LogitsTensor]:
    return list(iter_logits(path))


def dump_logits(tensors: Iterable[LogitsTensor], path: str) -> None:
    with open(path, "w") as handle:
        for tensor in tensors:
            handle.write(tensor.to_json() + "\n")
