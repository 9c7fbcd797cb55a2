"""Co-occurrence statistics over a label corpus.

Builds unigram marginals, per-axis bigram transition conditionals and the
verb-given-noun conditional from a corpus of (verb, noun) sequences, and
evaluates the transition indicator used by the refinement stage:

    f(prev, next) = ln( p(next|prev) / (p(prev) * p(next)) ) / -ln( p(next|prev) )

Two indicator modes are provided.  ``as_written`` keeps the conditional
probability in the numerator of the PMI ratio; ``standard_npmi`` substitutes
the joint p(prev, next) in both the ratio and the normalizer, which is the
classical normalized pointwise mutual information.  All probabilities are
clamped into [prob_clamp_min, prob_clamp_max] before taking logs, so the
score is finite for every index pair.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from itertools import islice
from numbers import Real
from typing import TextIO

import numpy as np

from .vocab import JSON_SPACE, ActionSequence, Vocabulary, json_numbers, record_id, validate_sequence


class IndicatorMode(Enum):
    AS_WRITTEN = "as_written"
    STANDARD_NPMI = "standard_npmi"


@dataclass(frozen=True)
class SmoothingConfig:
    add_k: float = 1.0
    prob_clamp_min: float = 1e-6
    prob_clamp_max: float = 1.0 - 1e-6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise TypeError(f"{f.name} must be a number, got {value!r}")
        if not 0 <= self.add_k < math.inf:
            raise ValueError(f"add_k must be nonnegative and finite, got {self.add_k}")
        if not (0.0 < self.prob_clamp_min < 0.5):
            raise ValueError("prob_clamp_min must lie in (0, 0.5)")
        if not (0.5 < self.prob_clamp_max < 1.0):
            raise ValueError("prob_clamp_max must lie in (0.5, 1)")


@dataclass(frozen=True)
class CoocStats:
    verb_marginal: np.ndarray  # (C_verb,)
    noun_marginal: np.ndarray  # (C_noun,)
    verb_transition: np.ndarray  # (C_verb, C_verb), row-stochastic
    noun_transition: np.ndarray  # (C_noun, C_noun), row-stochastic
    verb_given_noun: np.ndarray  # (C_noun, C_verb), row-stochastic
    smoothing: SmoothingConfig
    corpus_fingerprint: str
    # transition_score_row's memo: (axis, mode is AS_WRITTEN) -> the row views of
    # that pair's read-only (C, C) score table, built whole on first use; a bool,
    # as an Enum's hash is Python code. replace() starts with an empty memo.
    _score_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("verb_marginal", "noun_marginal"):
            shape = getattr(self, name).shape
            if len(shape) != 1:
                raise ValueError(f"{name} has shape {shape}, expected one entry per class")
        c_verb, c_noun = self.c_verb, self.c_noun
        for name, shape in (
            ("verb_transition", (c_verb, c_verb)),
            ("noun_transition", (c_noun, c_noun)),
            ("verb_given_noun", (c_noun, c_verb)),
        ):
            actual = getattr(self, name).shape
            if actual != shape:
                raise ValueError(f"{name} has shape {actual}, expected {shape}")
        for name in _TABLES:
            table = getattr(self, name)
            bad = ~((table >= 0) & (table < math.inf))
            if bad.any():
                raise ValueError(
                    f"{name} holds {float(table[bad][0])!r}, expected finite entries >= 0"
                )

    @property
    def c_verb(self) -> int:
        return self.verb_marginal.shape[0]

    @property
    def c_noun(self) -> int:
        return self.noun_marginal.shape[0]

    def marginal(self, axis: str) -> np.ndarray:
        return self.verb_marginal if axis == "verb" else self.noun_marginal

    def transition(self, axis: str) -> np.ndarray:
        return self.verb_transition if axis == "verb" else self.noun_transition

    def to_json(self, handle: TextIO | None = None) -> str | None:
        """``json.dumps`` of the stats as a dict, byte for byte, with each
        distinct table entry spelled by ``repr`` once. Given a text
        ``handle``, write that text to it piece by piece, at most one table
        row at a time, and return None: the stats file is never held whole,
        neither as text nor encoded."""
        pieces = self._json_pieces()
        if handle is None:
            return "".join(pieces)
        handle.writelines(pieces)
        return None

    def _json_pieces(self) -> Iterator[str]:
        yield f'{{"c_verb": {self.c_verb}, "c_noun": {self.c_noun}'
        for name in _TABLES:
            yield f', "{name}": '
            yield from _table_json(getattr(self, name))
        yield ', "smoothing": '
        yield json.dumps(asdict(self.smoothing))
        yield ', "corpus_fingerprint": '
        yield json.dumps(self.corpus_fingerprint)
        yield "}"

    @classmethod
    def from_json(cls, source: str | TextIO) -> "CoocStats":
        """Stats from the text of a stats file, or from a text handle, which
        is read a chunk at a time (see ``_StatsReader``)."""
        obj = _StatsReader(io.StringIO(source) if isinstance(source, str) else source).read()
        missing = [f.name for f in fields(SmoothingConfig) if f.name not in obj["smoothing"]]
        if missing:
            raise ValueError(f"smoothing lacks {', '.join(missing)}")
        stats = cls(
            **{name: json_numbers(obj, name) for name in _TABLES},
            smoothing=SmoothingConfig(**obj["smoothing"]),
            corpus_fingerprint=record_id(obj, "corpus_fingerprint"),
        )
        for key in ("c_verb", "c_noun"):
            if type(obj[key]) is not int:
                raise ValueError(f"{key} {obj[key]!r} is not an integer")
        if (obj["c_verb"], obj["c_noun"]) != (stats.c_verb, stats.c_noun):
            raise ValueError(
                f"c_verb {obj['c_verb']!r} and c_noun {obj['c_noun']!r} do not match the "
                f"{stats.c_verb} verb and {stats.c_noun} noun marginal entries"
            )
        return stats


# The array fields of CoocStats, in the order the stats file lists them.
_TABLES = ("verb_marginal", "noun_marginal", "verb_transition", "noun_transition", "verb_given_noun")
# Rows of a table that the stats writer and the score-table build take at a
# time, so that neither makes a table-sized temporary.
_BLOCK_ROWS = 64
# Float spellings that the stats writer and reader each keep at a time: a
# map that is full is cleared, so neither grows with a dense table.
_MEMO_ENTRIES = 4096


def _table_json(table: np.ndarray) -> Iterator[str]:
    """The JSON text of a 1-D or 2-D float table, as
    ``json.dumps(table.tolist())`` spells it, in pieces of at most one row.
    A block of ``_BLOCK_ROWS`` rows at a time, each row is split into runs of
    entries with equal bits, and each run is spelled from one ``repr``."""
    rows = np.atleast_2d(np.ascontiguousarray(table, dtype=np.float64))
    # a 1-D table is one row, with no brackets of its own
    opening, closing = ("[", "]") if table.ndim == 2 else ("", "")
    # Keyed by value, not bits, so a block's runs need no list of bit
    # patterns: of the finite floats only -0.0 and 0.0 are equal with
    # different spellings, and zeros are spelled without the map.
    texts: dict[float, str] = {}
    yield "["
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        bits = block.view(np.uint64)
        # a run starts at each row's first entry and wherever the bits change
        new = np.ones(bits.shape, dtype=bool)
        np.not_equal(bits[:, 1:], bits[:, :-1], out=new[:, 1:])
        firsts = np.flatnonzero(new)
        # a row's last run ends where the next row's first run starts
        runs = zip(block.ravel()[firsts].tolist(), np.diff(firsts, append=bits.size).tolist())
        for i, count in enumerate(np.count_nonzero(new, axis=1).tolist(), start):
            spelled = []
            for value, n in islice(runs, count):
                text = texts.get(value) if value else repr(value)
                if text is None:
                    if len(texts) >= _MEMO_ENTRIES:
                        texts.clear()
                    text = texts[value] = repr(value)
                spelled.append(text if n == 1 else (text + ", ") * (n - 1) + text)
            yield ", " + opening if i else opening
            yield ", ".join(spelled)
            yield closing
        del runs  # this block's run lists, before the next block makes its own
    yield "]"


class _FloatMemo(dict):
    """Float text -> float, converting each distinct text once until
    ``_MEMO_ENTRIES`` are kept and the memo is cleared, so that equal entries
    of a parsed stats file mostly share one float object."""

    def __missing__(self, text):
        if len(self) >= _MEMO_ENTRIES:
            self.clear()
        value = self[text] = float(text)
        return value


# Characters a stats file is read in at a time.
_CHUNK = 1 << 16
_WHITESPACE = re.compile(f"[{JSON_SPACE}]*")
# What may follow a whole JSON value: one that ends the text read so far, or
# that something else follows ("1.5" of "1.5e3"), may go on.
_AFTER_VALUE = frozenset(JSON_SPACE + ",:]}")


class _StatsReader:
    """``json.loads`` of a text handle's text, read ``_CHUNK`` characters at a
    time and never held whole: a top-level object is walked member by member,
    and an array member one element (a table row) at a time, with every float
    parsed through one ``_FloatMemo``. Any other text (malformed, or not an
    object) is read again whole from the start of the handle and left to
    ``json.loads``, so it gives the value or the error, with line, column and
    char, that ``json.loads`` gives; a handle that cannot seek, such as a
    pipe, gives one plain error instead.
    """

    def __init__(self, handle: TextIO):
        self.handle = handle
        self.decoder = json.JSONDecoder(parse_float=_FloatMemo().__getitem__)
        self.buf, self.pos = "", 0

    def read(self):
        try:
            if self._skip_ws() == "{":
                obj = dict(self._members("}", self._member))
                if not self._skip_ws():
                    return obj
        except json.JSONDecodeError:
            pass
        if not self.handle.seekable():
            raise ValueError("not a well-formed JSON object; read it from a file to locate the fault")
        self.handle.seek(0)
        return json.loads(self.handle.read(), parse_float=self.decoder.parse_float)

    def _member(self) -> tuple:
        key = self._value()
        if not isinstance(key, str):
            raise json.JSONDecodeError("Expecting a key", self.buf, self.pos)
        self._expect(":")
        if self._skip_ws() == "[":
            return key, list(self._members("]", self._value))
        return key, self._value()

    def _members(self, close: str, decode) -> Iterator:
        """Decode the object or array whose bracket is at pos one member at a
        time with ``decode``, and move past it."""
        self.pos += 1
        if self._skip_ws() == close:
            self.pos += 1
            return
        while True:
            yield decode()
            if self._expect("," + close) == close:
                return

    def _expect(self, chars: str) -> str:
        """Move past whitespace and then the next character, which must be one of ``chars``."""
        char = self._skip_ws()
        if not char or char not in chars:
            raise json.JSONDecodeError(f"Expecting one of {chars!r}", self.buf, self.pos)
        self.pos += 1
        return char

    def _skip_ws(self) -> str:
        """Move past whitespace; the next character, or '' at the end."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self._more():
                return self.buf[self.pos:self.pos + 1]

    def _value(self):
        """Move past whitespace and the value after it; that value."""
        self._skip_ws()
        while True:
            try:
                value, end = self.decoder.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError:
                if self._more():
                    continue
                raise
            if (end < len(self.buf) and self.buf[end] in _AFTER_VALUE) or not self._more():
                self.pos = end
                return value

    def _more(self) -> bool:
        """Drop the text before pos and read at least a chunk more, and as much
        as is kept, so that a long value takes few reads; False at the end."""
        text = self.handle.read(max(_CHUNK, len(self.buf) - self.pos))
        if text:
            self.buf, self.pos = self.buf[self.pos:] + text, 0
        return bool(text)


def corpus_fingerprint(corpus: list[ActionSequence]) -> str:
    digest = hashlib.sha256()
    for seq in corpus:
        digest.update(seq.to_json().encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _normalize_rows(counts: np.ndarray, add_k: float) -> np.ndarray:
    """Smoothed rows of ``counts``, which are overwritten and returned, so
    that no table-sized temporary is made."""
    counts += add_k
    totals = counts.sum(axis=1, keepdims=True)
    seen = totals > 0
    counts /= np.where(seen, totals, 1.0)
    # A class that never appears as a context with add_k == 0 has no evidence
    # either way, so its row falls back to uniform rather than refusing to build.
    counts[~seen[:, 0]] = 1.0 / counts.shape[1]
    return counts


def build_stats(
    corpus: list[ActionSequence],
    verb_vocab: Vocabulary,
    noun_vocab: Vocabulary,
    cfg: SmoothingConfig,
) -> CoocStats:
    """Count unigrams, within-sequence bigrams and (noun, verb) pairs.

    Marginals pool all positions of all sequences; bigrams never cross
    episode boundaries.  All counts receive add_k before normalization.
    """
    if not corpus:
        raise ValueError("empty corpus")
    c_verb, c_noun = len(verb_vocab), len(noun_vocab)

    verb_uni = np.zeros(c_verb)
    noun_uni = np.zeros(c_noun)
    verb_bi = np.zeros((c_verb, c_verb))
    noun_bi = np.zeros((c_noun, c_noun))
    vn_pair = np.zeros((c_noun, c_verb))

    pairs, starts = [], []
    for seq in corpus:
        validate_sequence(seq, c_verb, c_noun)
        starts.append(len(pairs))
        pairs.extend(seq.actions)
    verbs, nouns = np.array(pairs, dtype=np.intp).T
    # every position but a sequence's first ends a bigram
    later = np.delete(np.arange(len(pairs)), starts)
    np.add.at(verb_uni, verbs, 1.0)
    np.add.at(noun_uni, nouns, 1.0)
    np.add.at(vn_pair, (nouns, verbs), 1.0)
    np.add.at(verb_bi, (verbs[later - 1], verbs[later]), 1.0)
    np.add.at(noun_bi, (nouns[later - 1], nouns[later]), 1.0)

    verb_marginal = (verb_uni + cfg.add_k) / (verb_uni.sum() + cfg.add_k * c_verb)
    noun_marginal = (noun_uni + cfg.add_k) / (noun_uni.sum() + cfg.add_k * c_noun)

    return CoocStats(
        verb_marginal=verb_marginal,
        noun_marginal=noun_marginal,
        verb_transition=_normalize_rows(verb_bi, cfg.add_k),
        noun_transition=_normalize_rows(noun_bi, cfg.add_k),
        verb_given_noun=_normalize_rows(vn_pair, cfg.add_k),
        smoothing=cfg,
        corpus_fingerprint=corpus_fingerprint(corpus),
    )


def transition_score_row(
    stats: CoocStats, prev: int, axis: str, mode: IndicatorMode
) -> np.ndarray:
    """Indicator scores for all successor classes of ``prev`` on one axis.

    The first call for an ``(axis, mode)`` computes that pair's whole (C, C)
    table, ``_BLOCK_ROWS`` rows at a time; every call returns a read-only row
    view of it."""
    as_written = mode is IndicatorMode.AS_WRITTEN
    rows = stats._score_rows.get((axis, as_written))
    if rows is None:
        lo, hi = stats.smoothing.prob_clamp_min, stats.smoothing.prob_clamp_max
        marginal = stats.marginal(axis)
        transition = stats.transition(axis)
        clamped = np.clip(marginal, lo, hi)
        table = np.empty(transition.shape)
        for start in range(0, len(table), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            out = table[block]
            if as_written:
                log_num = np.clip(transition[block], lo, hi)
            else:
                log_num = transition[block] * marginal[block, None]
                np.clip(log_num, lo, hi, out=log_num)
            np.log(log_num, out=log_num)
            np.multiply.outer(clamped[block], clamped, out=out)
            np.log(out, out=out)
            np.subtract(log_num, out, out=out)
            np.divide(out, np.negative(log_num, out=log_num), out=out)
        table.flags.writeable = False
        rows = stats._score_rows[(axis, as_written)] = list(table)
    return rows[prev]
