"""Vocabularies, actions, action sequences and the JSON readers every module shares.

Class ids are dense array indices: id i is the i-th name in the vocabulary,
so ids line up with logit-array columns with no remapping.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

import numpy as np

T = TypeVar("T")


@dataclass(frozen=True)
class Vocabulary:
    """Dense id <-> name map for one class axis (verb or noun)."""

    kind: str  # "verb" | "noun"
    names: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in ("verb", "noun"):
            raise ValueError(f"vocabulary kind must be 'verb' or 'noun', got {self.kind!r}")
        if len(self.names) < 1:
            raise ValueError("vocabulary must contain at least one name")
        if len(set(self.names)) != len(self.names):
            raise ValueError("vocabulary names must be unique")
        object.__setattr__(self, "names", tuple(self.names))

    def __len__(self) -> int:
        return len(self.names)

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "names": list(self.names)})

    @classmethod
    def from_json(cls, text: str, kind: str) -> "Vocabulary":
        """The vocabulary in ``text``, which must be of kind ``kind``."""
        obj = json.loads(text)
        if obj["kind"] != kind:
            raise ValueError(f"kind is {obj['kind']!r}, expected {kind!r}")
        names = obj["names"]
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise ValueError("names must be a list of strings")
        return cls(kind=obj["kind"], names=tuple(names))


class Action(NamedTuple):
    """One step's class ids. A tuple, so files spell it ``[verb_id, noun_id]``
    and it hashes and compares as the pair ``(verb_id, noun_id)``."""

    verb_id: int
    noun_id: int


def parse_actions(pairs) -> tuple[Action, ...]:
    """``[[verb_id, noun_id], ...]`` as Actions; it must be a JSON list and
    each id a JSON integer, so a bool, float or string raises ValueError."""
    if not isinstance(pairs, list):
        raise ValueError(f"actions {pairs!r} are not a list of [verb_id, noun_id] pairs")
    actions = []
    for pair in pairs:
        if not (
            isinstance(pair, list) and len(pair) == 2
            and type(pair[0]) is int and type(pair[1]) is int
        ):
            raise ValueError(f"action {pair!r} is not a [verb_id, noun_id] pair of integers")
        actions.append(Action(pair[0], pair[1]))
    return tuple(actions)


def json_numbers(obj: dict, key: str) -> np.ndarray:
    """``obj[key]`` as a float64 array of JSON numbers. The array is first
    built without a dtype, so a string (``"1.5"``), a null, a boolean or an
    integer literal too large for 64 bits is refused rather than converted."""
    raw = obj[key]
    values = np.array(raw)
    if values.dtype.kind not in "fi":
        raise ValueError(f"{key} must be JSON numbers")
    # numpy reads true and false among numbers as 1 and 0, so the innermost lists that
    # hold a 0 or a 1 have the types of their entries scanned in C
    if values.ndim:
        rows = [functools.reduce(operator.getitem, index, raw)
                for index in np.argwhere(((values == 0) | (values == 1)).any(axis=-1)).tolist()]
        if bool in set(map(type, itertools.chain.from_iterable(rows))):
            raise ValueError(f"{key} must be JSON numbers")
    return values.astype(np.float64, copy=False)


# ---------------------------------------------------------------------------
# Float arrays as JSON text
#
# json.dumps spells a float by repr: the fewest significant digits that read
# back as the same double, and of those the closest, in fixed notation when
# 1e-4 <= |x| < 1e16. For |x| in [1e-4, 1e15), json_number_text finds those
# digits for a whole array with numpy (Steele & White 1990; Adams 2018, "Ryu"):
# - y = |x| * 10**p = hi + lo, with p = 16 - floor(log10 |x|) <= 20, is exact
#   (_times_pow10). log10 is not trusted: y must land in [1e16, 1e17).
# - The nearest decimal of n digits, D_n, reads back as x iff
#   |D_n - y| < ulp(x) * 10**p / 2. 17 digits always read back; 16 replace
#   them where D_16 reads back, and 15 replace those where D_15 does, less
#   their trailing zeros. Each test is exact: its one rounding keeps the sign
#   of the exact difference, and the two sides are equal or further apart
#   than that rounding (a point halfway between two doubles in this range has
#   at least 19 significant digits, so no D_n lies on one).
# - A tie in rounding to 16 digits, or a misjudged exponent, flags the element,
#   and repr spells the flagged ones and everything outside the range. A tie at
#   17 digits occurs only where 16 digits read back, and one at 15 never reads
#   back. The powers of two in the range have exact decimals of at most 15
#   digits, so the narrower interval below them never decides a choice.

_POW10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))  # 10**0 .. 10**22, exact
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two halves of 26 bits
_EXPONENT_BITS = np.int64(0x7FF0_0000_0000_0000)
_EXPONENTS = 19  # decimal exponents -4 .. 14, indexed by exponent + 4
_E16, _E17 = 10**16, 10**17


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = a * _VELTKAMP
    high = c - (c - a)
    return high, a - high


_P_HIGH, _P_LOW = _split(_POW10)


def _times_pow10(x: np.ndarray, p: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hi, lo, half_ulp) for float64 ``x``, indices ``p`` of ``_POW10`` clipped
    to 0 .. 22 and ``scale``, the caller's ``_POW10.take(p, mode="clip")``; the
    one exact step of both float kernels (Dekker 1971): the four products of
    the 26-bit halves of x and of 10**p are exact, so x * 10**p == hi + lo, hi
    the rounded product, unless it overflows or underflows. half_ulp = 2**E *
    10**p * 2**-53, E the binary exponent of x, is half an ulp of a normal x
    times 10**p, and exact too."""
    scale_high = _P_HIGH.take(p, mode="clip")
    scale_low = _P_LOW.take(p, mode="clip")
    x_high, x_low = _split(x)
    hi = x * scale
    lo = x_high * scale_high
    lo -= hi
    lo += np.multiply(x_high, scale_low, out=x_high)
    lo += np.multiply(x_low, scale_high, out=scale_high)
    lo += np.multiply(x_low, scale_low, out=x_low)
    half_ulp = np.bitwise_and(x.view(np.int64), _EXPONENT_BITS, out=x_low.view(np.int64)).view(np.float64)
    half_ulp *= scale
    half_ulp *= 2.0 ** -53
    return hi, lo, half_ulp


def _shortest_digits(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, exponent index, fallback) for a 1-D float64 array: the digits
    of ``repr(abs(x))`` as a 17-digit integer padded with zeros on the right,
    and its decimal exponent plus 4; where ``fallback`` is set, both are
    undefined and ``repr`` must spell the value. No numpy warning is raised."""
    ax = np.abs(flat)
    fallback = ax < 1e-4
    fallback |= ~(ax < 1e15)  # NaN too
    np.fmax(ax, 1e-4, out=ax)  # NaN -> 1e-4, and inf -> 1e15 next, so all below is finite
    np.fmin(ax, 1e15, out=ax)
    t = np.log10(ax)
    np.floor(t, out=t)
    np.clip(t, -4.0, 14.0, out=t)
    t += 4.0
    index = t.astype(np.intp)
    p = 20 - index  # 10**(16 - e)
    hi, lo, bound = _times_pow10(ax, p, _POW10.take(p, mode="clip"))
    # y = whole + rest exactly, whole the int64 nearest y and |rest| <= 0.5 a double;
    # hi >= 2**53 is an integer, |lo| <= 8, and lo - rint(lo) is exact
    nearest = np.rint(lo, out=t)
    whole = hi.astype(np.int64)
    whole += nearest.astype(np.int64)
    rest = np.subtract(lo, nearest, out=lo)
    fallback |= whole < _E16  # a misjudged exponent
    fallback |= whole >= _E17
    # whole mod 100 and whole mod 10, as exact floats
    hundreds = whole // 100
    hundreds *= 100
    mod_100 = np.subtract(whole, hundreds, out=hundreds).astype(np.float64)
    mod_10 = np.multiply(mod_100, 0.1, out=ax)
    np.floor(mod_10, out=mod_10)
    mod_10 *= -10.0
    mod_10 += mod_100
    # the offset from whole of the decimal chosen, an exact small float: 17 digits
    # first, then the nearest 16 and then 15-digit decimal wherever it reads back as x
    offset = np.zeros_like(rest)
    for q, mod in ((10, mod_10), (100, mod_100)):
        past_half = np.subtract(mod, q / 2, out=hi)
        past_half += rest  # one rounding, so its sign is exact
        up = past_half > 0
        if q == 10:
            fallback |= past_half == 0  # a tie at 16 digits; one at 15 never reads back
        candidate = np.multiply(up, float(q), out=t)
        candidate -= mod
        distance = np.subtract(candidate, rest, out=past_half)
        np.abs(distance, out=distance)
        candidate -= offset
        candidate *= distance < bound
        offset += candidate
    digits = whole
    digits += offset.astype(np.int64)
    return digits, index, fallback


# The text of each element is laid out in a row of 8-byte units, and a keep
# mask picks its characters. Unit 0 is "-0.000" (the sign, and "0." and the
# leading zeros of a value below 1), the first digit and a point; units 1 to 4
# hold four digits each, each digit followed by a point; the last units hold a
# separator, "]" * b + ", " + "[" * b, b >= ndim. Kept are the sign of a
# negative value, one point (the one after the units digit), the digits through
# the last significant one or the first fraction digit, whichever is later,
# ", " but after the last element, and a "]" and a "[" for each axis that ends
# at the element (only "]" for the outermost).
_NUMBER_BYTES = 40


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit 0 by first digit, units 1 .. 4 by chunk 0000 .. 9999, and, by
    unit and chunk, the index of the chunk's last nonzero digit among the 17
    (0 for a zero chunk); built at the first write, not at import."""
    head = np.frombuffer(b"-0.0000." * 10, np.uint8).reshape(10, 8).copy()
    head[:, 6] = np.arange(10) + ord("0")
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    chunk = np.full((10_000, 8), ord("."), np.uint8)
    chunk[:, ::2] = digits.T + ord("0")
    zero = digits == 0
    significant = 4 - zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0].astype(np.int8))))
    last_nonzero = (4 * np.arange(4, dtype=np.int8)[:, None] + significant) * (significant != 0)
    return head.view(np.uint64).ravel(), chunk.view(np.uint64).ravel(), last_nonzero


# Elements written at a time, and rows compressed at a time: every temporary,
# compress's index array included, stays below the 128 KiB above which the C
# allocator maps fresh pages for each call.
_BLOCK = 2560
_COMPRESS_ROWS = 512


@functools.cache
def _keep_table(brackets: int) -> np.ndarray:
    """The keep masks of a row, as uint64 units, indexed by (negative,
    exponent index, index of the last nonzero digit); of the separator
    "]" * brackets + ", " + "[" * brackets, only ", " is kept."""
    negative, exponent, last_nonzero, col = np.ix_(
        np.arange(2), np.arange(-4, 15), np.arange(17), np.arange(_NUMBER_BYTES + 2 * brackets + 2)
    )
    digit = (col - 6) // 2
    mask = np.select(
        [col == 0, col < 3, col < 6, col >= _NUMBER_BYTES, col % 2 == 0],
        [negative == 1, exponent < 0, exponent <= 1 - col, (col - _NUMBER_BYTES - brackets) // 2 == 0,
         digit <= np.maximum(last_nonzero, exponent + 1)],
        digit == exponent,
    )
    return mask.astype(np.uint8).reshape(2 * _EXPONENTS * 17, -1).view(np.uint64)


def json_number_text(values: np.ndarray) -> str:
    """``json.dumps(values.tolist())``, byte for byte, for an array of any
    shape. A float64 array is spelled with numpy operations over blocks of
    elements; ``repr`` spells only the elements outside [1e-4, 1e15) in size,
    such as 0.0, NaN and infinities, and the rare ones whose digits cannot be
    decided exactly (see ``_shortest_digits``). An empty array, or one of
    another dtype, is left to ``json.dumps``."""
    values = np.asarray(values)
    if values.dtype != np.float64 or values.size == 0:
        return json.dumps(values.tolist())
    flat = values.ravel()
    # element g ends the last j axes iff (g + 1) % periods[j - 1] == 0
    periods = np.cumprod(values.shape[::-1], dtype=np.int64).tolist()
    brackets = 3 + 4 * -(-max(values.ndim - 3, 0) // 4)  # so that the separator fills whole units
    pieces = ["[" * values.ndim]
    for start in range(0, flat.size, _BLOCK):
        pieces += _block_text(flat[start:start + _BLOCK], start, periods, brackets)
    return "".join(pieces)


def _block_text(flat: np.ndarray, start: int, periods: list[int], brackets: int) -> list[str]:
    """Pieces of the text of ``flat``, the elements of an array from flat
    index ``start`` on, each element followed by its separator."""
    n = flat.size
    digits, index, fallback = _shortest_digits(flat)
    digits[fallback] = _E16  # any valid digits: repr spells these elements
    # the 17 digits: one, then four chunks of four
    low = digits // 100_000_000
    high = low // 100_000_000
    low *= 100_000_000
    np.subtract(digits, low, out=low)  # the last 8 digits
    middle = np.subtract(digits // 100_000_000, high * 100_000_000, out=digits)
    chunks = []
    for part in (middle, low):
        upper = part // 10_000
        chunks += [upper, part - upper * 10_000]
    head_text, chunk_text, last_nonzero_table = _digit_tables()
    separator = b"]" * brackets + b", " + b"[" * brackets
    text = np.empty((n, _NUMBER_BYTES // 8 + len(separator) // 8), np.uint64)
    text[:, 0] = head_text.take(high)
    for unit, chunk in enumerate(chunks, 1):
        text[:, unit] = chunk_text.take(chunk)
    text[:, _NUMBER_BYTES // 8:] = np.frombuffer(separator, np.uint64)
    last_nonzero = last_nonzero_table[0].take(chunks[0])
    for j in (1, 2, 3):
        np.maximum(last_nonzero, last_nonzero_table[j].take(chunks[j]), out=last_nonzero)
    code = index * 17
    code += np.signbit(flat) * (_EXPONENTS * 17)
    code += last_nonzero
    keep = _keep_table(brackets).take(code, axis=0).view(np.uint8).reshape(n, -1)
    text = text.view(np.uint8).reshape(n, -1)
    for j, period in enumerate(periods, 1):
        ends = keep[(-1 - start) % period::period]
        ends[:, _NUMBER_BYTES + brackets - j] = 1  # "]"
        if j < len(periods):
            ends[:, _NUMBER_BYTES + brackets + 1 + j] = 1  # "["
    if start + n == (periods[-1] if periods else 1):
        keep[-1, _NUMBER_BYTES + brackets:] = 0  # after the last element, only the "]"s
    for i in np.flatnonzero(fallback).tolist():
        spelled = np.frombuffer(json.dumps(float(flat[i])).encode(), np.uint8)
        keep[i, :_NUMBER_BYTES] = 0
        keep[i, :spelled.size] = 1
        text[i, :spelled.size] = spelled
    keep = keep.view(bool)
    return [np.compress(keep[row:row + _COMPRESS_ROWS].ravel(), text[row:row + _COMPRESS_ROWS].ravel())
            .tobytes().decode("ascii") for row in range(0, n, _COMPRESS_ROWS)]


# ---------------------------------------------------------------------------
# Float arrays from JSON text
#
# json.loads reads a float token with float(), the correctly rounded double of
# its decimal value. json_float_rows reads the same doubles for a whole 2-D
# array with numpy, a block of tokens at a time (Clinger 1990, "How to Read
# Floating Point Numbers Accurately"; Lemire 2021, "Number Parsing at a
# Gigabyte per Second"):
# - One scan finds the commas. Each is followed by a space, and one that ends
#   a row sits in "], [", at the same token count in every row.
# - The last 24 bytes of a token are read as three little-endian words. The
#   point is taken out (the integer digits move up a byte) and the bytes before
#   the first digit cleared; SWAR arithmetic checks that each byte left is a
#   digit and reads them into an integer w, with p fraction digits. The first
#   point is found by one look one byte past the first digit, then a byte at a
#   time for the few tokens with more integer digits.
# - If w <= 2**53, w / 10**p is one correctly rounded division of exact
#   doubles. Otherwise q = float(w) / 10**p is within an ulp or two of w / 10**p,
#   and D = w - q * 10**p, an exact product (_times_pow10) less one rounding,
#   decides: |D| < B = ulp(q) * 10**p / 2 keeps q, and B < |D| < 3B takes q's
#   neighbour on D's side. B and 3B are exact doubles and rounding is
#   monotone, so a comparison may refuse a right value but never accepts a
#   wrong one. A tie, and a q at or just above a power of two (where the
#   spacing halves), are left undecided.
# - json.loads reads each token that is undecided, in exponent form, of more
#   than 23 digits, or whose w would reach 9 * 10**18. Any token it reads as
#   other than a float (an integer, true, a stray byte) leaves the whole array
#   to json.loads.

_MANTISSA_BITS = np.int64(0x000F_FFFF_FFFF_FFFF)
_MINUS, _POINT, _ZERO, _COMMA, _SPACE, _OPEN, _CLOSE = b"-.0, []"
# The words of a token's 24-byte tail are int64, whose shifts and products wrap
# silently; a right shift copies the sign bit, which no byte of a token sets
_DIGITS = np.int64(0x3030_3030_3030_3030)  # "00000000"
_TOP_BITS = np.int64(-0x7F7F_7F7F_7F7F_7F80)  # 0x8080_8080_8080_8080
_WINDOW = np.dtype("V24")  # a token's last 24 bytes
_WORD_TOPS = np.array([[192], [128], [64]])  # by word, the window's bits from the word's start on
# Tokens read at a time, and bytes scanned at a time, so that each block's
# temporaries stay below the 128 KiB above which the C allocator maps fresh
# pages for each call
_READ_BLOCK = 4096
_SCAN_BYTES = 65536


def json_float_rows(line: bytes, start: int, stop: int) -> np.ndarray | None:
    """The (R, C) float64 array whose JSON text is ``line[start:stop]`` between
    its outer "[[" and "]]" as ``json.dumps`` spaces it: tokens ", " apart and
    rows "], [" apart, each row of C >= 1 tokens. Every value has the bits
    ``json.loads`` gives. None where ``json.loads`` must read the text: any
    other spacing, ragged rows, nested or empty lists, an integer or any token
    that is not a JSON float, or a byte out of place, and an array that starts
    within a line's first 24 bytes."""
    if start < 24 or line[start - 2:start] != b"[[" or line[stop:stop + 2] != b"]]":
        return None
    buf = np.frombuffer(line, np.uint8)
    # the byte before each comma, after a stand-in for one before the first token and before
    # one after the last; the bytes after each are views of buf from one byte on and further
    before = [np.array([start - 3])]
    for at in range(start, stop, _SCAN_BYTES):
        found = np.flatnonzero(buf[at:min(at + _SCAN_BYTES, stop)] == _COMMA)
        found += at - 1
        before.append(found)
    before.append(np.array([stop - 1]))
    before = np.concatenate(before)
    n = before.size - 1
    if not (buf[2:].take(before[1:-1]) == _SPACE).all():
        return None
    row_ends = buf.take(before) == _CLOSE
    row_ends[[0, -1]] = False
    rows = np.flatnonzero(row_ends)  # each, the index of the token that starts a row
    columns = int(rows[0]) if rows.size else n
    if n % columns or not np.array_equal(rows, np.arange(columns, n, columns)):
        return None
    if not (buf[3:].take(before.take(rows)) == _OPEN).all():
        return None
    windows = np.ndarray((len(line) - 23,), _WINDOW, buffer=line, strides=(1,))
    values = np.empty(n)
    for i in range(0, n, _READ_BLOCK):
        j = min(i + _READ_BLOCK, n)
        begin = before[i:j] + 3
        begin += row_ends[i:j]
        end = before[i + 1:j + 1] + 1
        end -= row_ends[i + 1:j + 1]
        whole, fraction, first, undecided = _token_digits(buf, windows, begin, end)
        block = _quotients(whole, fraction, undecided, values[i:j])
        bits = block.view(np.int64)
        bits ^= np.left_shift(first == _MINUS, 63, dtype=np.int64)  # the sign bit, -0.0 too
        for k in np.flatnonzero(undecided).tolist():
            try:  # as ASCII, so that json.loads takes no UTF-16 or UTF-32 for it
                value = json.loads(line[begin[k]:end[k]].decode("ascii"))
            except ValueError:
                return None
            if type(value) is not float:
                return None
            block[k] = value
    return values.reshape(-1, columns)


def _token_digits(buf: np.ndarray, windows: np.ndarray, begin: np.ndarray,
                  end: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(whole, fraction, first, undecided) for the tokens ``buf[begin:end]``:
    each token -?[0-9]+.[0-9]+ with no leading zero, at most 23 digits, and
    digits that read below 9 * 10**18 is whole / 10**fraction, and its first
    byte says its sign; the rest are undecided, with whole 0."""
    first = buf.take(begin)
    digit0 = begin + (first == _MINUS)
    point = digit0 + 1
    todo = np.flatnonzero(buf.take(point) != _POINT)
    undecided = np.zeros(begin.size, bool)
    undecided[todo] = buf.take(digit0.take(todo)) == _ZERO  # a leading zero
    while todo.size:  # the first point of a token with more than one integer digit, or none
        at = point.take(todo) + 1
        point[todo] = at
        todo = todo[(at < end.take(todo)) & (buf.take(at, mode="clip") != _POINT)]
    fraction = end - point
    fraction -= 1
    digits = end - digit0
    digits -= 1
    undecided |= fraction < 1
    undecided |= digits > 23
    # the window's three words, digits as byte values 0 .. 9, with the integer
    # digits moved up a byte over the point and the bytes before the first cleared
    w = windows[end - 24].view(np.int64).reshape(-1, 3).T.copy()
    w ^= _DIGITS
    shifted = w << 8
    shifted[1:] |= w[:-1] >> 56  # a byte >= 0x80, never in a token, smears its sign
    w ^= shifted
    w &= _last_bits(fraction << 3)
    w ^= shifted
    w &= _last_bits(digits << 3)
    # a byte outside 0 .. 9 sets its top bit here
    np.add(w, 0x7676_7676_7676_7676, out=shifted)
    shifted |= w
    bad = shifted[0] | shifted[1]
    bad |= shifted[2]
    bad &= _TOP_BITS
    undecided |= bad != 0
    # pairs, quads and octets of digits, first digit highest (Lemire 2021); no
    # product of digits reaches the sign bit, so each right shift is a logical one
    w *= 2561
    w >>= 8
    for mask, factor, shift in ((0x00FF_00FF_00FF_00FF, 6553601, 16),
                                (0x0000_FFFF_0000_FFFF, 42949672960001, 32)):
        w &= mask
        w *= factor
        w >>= shift
    undecided |= w[0] >= 900  # whole below 9 * 10**18 < 2**63
    whole = w[0] * 10**8
    whole += w[1]
    whole *= 10**8
    whole += w[2]
    whole[undecided] = 0  # any value would do; 0 keeps every cast in _quotients in range
    return whole, fraction, first, undecided


def _quotients(whole: np.ndarray, fraction: np.ndarray, undecided: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """``out``, set to the doubles nearest whole / 10**fraction: exact up to
    2**53, else checked against a Dekker product. Where that decides no value,
    ``undecided`` is set and the value is any."""
    scale = _POW10.take(fraction, mode="clip")
    x = np.divide(whole, scale, out=out)
    exact = whole <= 2**53
    hi, lo, bound = _times_pow10(x, fraction, scale)
    # hi is within a few ulps of whole > 2**53, so it is a whole number and whole - hi is exact
    diff = np.subtract(whole, hi.astype(np.int64), out=whole).astype(np.float64)
    diff -= lo
    size = np.abs(diff, out=lo)
    decided = size < bound
    step = size > bound
    bound *= 3.0
    step &= size < bound
    decided |= step
    bits = x.view(np.int64)
    decided &= (bits & _MANTISSA_BITS) > 1  # q is no power of two, nor just above one
    decided |= exact
    step &= ~exact
    undecided |= ~decided
    bits += step
    step &= diff < 0
    bits -= step
    bits -= step
    return x


def _last_bits(count: np.ndarray) -> np.ndarray:
    """The words of masks of the last ``count`` bits of a 24-byte window, (3, n)
    for n counts; a count below 0 is 0, and one above 192 is 192."""
    shift = np.subtract(_WORD_TOPS, count)
    np.maximum(shift, 0, out=shift)  # numpy shifts a whole word or more to 0
    return np.left_shift(-1, shift, out=shift)


def record_id(obj: dict, key: str) -> str:
    """``obj[key]``, which must be a JSON string: a numeric id such as ``7``
    would never match the same id spelled ``"7"`` in another file."""
    value = obj[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} {value!r} is not a string")
    return value


@dataclass(frozen=True)
class ActionSequence:
    episode_id: str
    actions: tuple[Action, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))

    def to_json(self) -> str:
        return json.dumps({"episode_id": self.episode_id, "actions": self.actions})

    @classmethod
    def from_obj(cls, obj: dict) -> "ActionSequence":
        return cls(
            episode_id=record_id(obj, "episode_id"),
            actions=parse_actions(obj["actions"]),
        )


def validate_sequence(seq: ActionSequence, c_verb: int, c_noun: int) -> None:
    """Raise ValueError at the first fault of ``seq``: an empty sequence, or a
    class id outside [0, C) of its axis, in step order and verb before noun."""
    if not seq.actions:
        raise ValueError(f"episode {seq.episode_id!r}: empty sequence")
    for action in seq.actions:
        for axis, class_id, classes in (
            ("verb", action.verb_id, c_verb), ("noun", action.noun_id, c_noun)
        ):
            if not 0 <= class_id < classes:
                raise ValueError(f"episode {seq.episode_id!r}: {axis}_id {class_id} "
                                 f"out of range [0, {classes})")


def load_corpus(path: str) -> list[ActionSequence]:
    """Read a JSON Lines corpus file, one ActionSequence per line."""
    return list(iter_records(path, ActionSequence.from_obj, "sequence"))


def dump_records(records: Iterable, path: str) -> None:
    """Write each record's ``to_json()`` on a line of its own."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(record.to_json() + "\n")


dump_corpus = dump_records


# Stripped lines go to an iter_numbered_records caller's parse_lines in blocks of this many
# bytes or more, so that a block's fixed cost is paid once for many short lines
LINE_BLOCK_BYTES = 1 << 16
JSON_SPACE = b" \t\n\r"  # what JSON allows around a value; bytes.strip() also strips \x0b and \x0c


def _line_blocks(handle) -> Iterator[tuple[list[int], list[bytes]]]:
    """(line numbers, lines) of a binary handle's non-empty lines stripped of JSON whitespace, in
    blocks of ``LINE_BLOCK_BYTES`` or more but the last; a line that long goes alone."""
    numbers, lines, size, lineno = [], [], 0, 0
    for line in handle:
        lineno += 1
        if not (line := line.strip(JSON_SPACE)):
            continue
        if len(line) >= LINE_BLOCK_BYTES and lines:
            yield numbers, lines
            numbers, lines, size = [], [], 0
        numbers.append(lineno)
        lines.append(line)
        size += len(line)
        del line
        if size >= LINE_BLOCK_BYTES:
            yield numbers, lines
            numbers, lines, size = [], [], 0
    if lines:
        yield numbers, lines


def iter_numbered_records(path: str, parse: Callable[[dict], T], kind: str,
                          parse_lines: Callable[[list[bytes]], list] | None = None) -> Iterator[tuple[int, T]]:
    """(lineno, ``parse`` of the record) for each line of a JSONL file, stripped of JSON whitespace
    once, that is not empty; a fault names ``path:lineno``. ``parse_lines``, if given, gets each of
    ``_line_blocks`` and gives each line's record, or None to leave it to ``json.loads`` and
    ``parse``; it raises nothing. Each line is dropped once parsed, and each record once handed
    over, so the suspended reader holds at most the rest of its block."""
    with open(path, "rb") as handle:
        for numbers, lines in _line_blocks(handle):
            records = [None] * len(lines) if parse_lines is None else parse_lines(lines)
            lines[:] = [line if record is None else None for line, record in zip(lines, records)]
            for i, lineno in enumerate(numbers):  # not over the lines: its reused tuple would keep one
                try:  # both decode errors are ValueErrors, so they are caught first
                    if records[i] is None:
                        records[i] = parse(json.loads(lines[i].decode()))
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{lineno}: bad {kind} record: {exc}") from exc
                lines[i] = None
                yield lineno, records[i]
                records[i] = None


def iter_records(path: str, parse: Callable[[dict], T], kind: str,
                 parse_lines: Callable[[list[bytes]], list] | None = None) -> Iterator[T]:
    """The records of :func:`iter_numbered_records`, without their line numbers;
    a ``map``, which, unlike a generator's loop variable, keeps no record it gave."""
    return map(operator.itemgetter(1), iter_numbered_records(path, parse, kind, parse_lines))
