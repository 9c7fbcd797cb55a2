"""Deterministic counter-based pseudo-random generator.

All randomness in this package flows through :class:`CounterRng` so that a
(seed, stream) pair reproduces the same byte-identical outputs on any
platform.  The generator is the splitmix64 finalizer applied to a 64-bit
counter:

    state_0 = finalize(seed ^ finalize(stream))
    out_i   = finalize(state_0 + i * 0x9E3779B97F4A7C15)

finalize(x) is the standard splitmix64 output mix (xor-shift / multiply).
Every operation is exact 64-bit integer arithmetic, so results do not depend
on C library or hardware details.

Because output ``i`` depends on the counter alone, a block of outputs is one
vectorised finalize over ``arange(i0, i1)`` in numpy ``uint64`` (which wraps
mod 2**64 exactly as the masked scalar code does), and the generator's whole
state is ``_base`` and ``_counter``. :meth:`CounterRng.normals` draws its
Gaussians from such a block: the integer work, ``sqrt`` and the multiplies are
numpy (all correctly rounded), while ``log``, ``cos`` and ``sin`` stay with the
``math`` module, mapped by :func:`libm_map`, because numpy's SIMD
transcendentals do not always round like libm (its AVX-512 ``exp`` differs from
its AVX2 one in the last bit on some inputs). Softmax has an ``exp`` of its own
built from correctly rounded numpy operations (``seqpost.ensemble``); moving
``normals`` off libm too would change the synthetic logits' bits.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# The largest magnitude normals returns: the Box-Muller radius at the
# smallest draw u1 = 2**-53, times a cosine or sine of magnitude at most 1.
NORMAL_BOUND = math.sqrt(-2.0 * math.log(2.0 ** -53))


def libm_map(fn, values: np.ndarray) -> np.ndarray:
    """``fn``, a ``math`` function, of each element of ``values``, in its shape:
    the same bits whichever SIMD kernels numpy dispatches on this host. Only
    :meth:`CounterRng.normals` uses it."""
    values = np.asarray(values)
    return np.fromiter(map(fn, values.ravel().tolist()), np.float64, values.size).reshape(values.shape)


def _finalize(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class CounterRng:
    """Counter-based generator; independent streams via the ``stream`` id."""

    def __init__(self, seed: int, stream: int = 0):
        # offsets keep seed 0 / stream 0 away from the finalizer's zero fixed point
        self._base = _finalize(((seed + _GOLDEN) & _MASK64) ^ _finalize((stream + 1) & _MASK64))
        self._counter = 0

    def next_u64(self) -> int:
        value = _finalize(self._base + self._counter * _GOLDEN)
        self._counter += 1
        return value

    def _next_u64_block(self, m: int) -> np.ndarray:
        """The next ``m`` :meth:`next_u64` values as one ``uint64`` array."""
        counters = np.arange(self._counter, self._counter + m, dtype=np.uint64)
        self._counter += m
        x = np.uint64(self._base) + counters * np.uint64(_GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo bias is negligible for n << 2^64."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        return self.next_u64() % n

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals by Box-Muller from the next 2*ceil(n/2) outputs:
        pair k reads outputs 2k, 2k+1 as uniforms u1 (0 nudged to 2**-53), u2 and
        gives r cos(theta), r sin(theta) with r = sqrt(-2 ln u1), theta = 2 pi u2.
        An odd ``n`` drops the last sine, so no value depends on an earlier call."""
        u = (self._next_u64_block(2 * ((n + 1) // 2)) >> np.uint64(11)) * (1.0 / (1 << 53))
        u1, u2 = u[0::2], u[1::2]
        u1[u1 == 0.0] = 2.0 ** -53
        radius = np.sqrt(-2.0 * libm_map(math.log, u1))
        theta = 2.0 * math.pi * u2
        values = np.empty(u.size)
        values[0::2] = radius * libm_map(math.cos, theta)
        values[1::2] = radius * libm_map(math.sin, theta)
        return values[:n]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def choice_from_cdf(self, probs) -> int:
        """Inverse-CDF draw over class index order (lowest index on ties).
        ``probs`` must be finite weights >= 0, so that their running totals,
        summed left to right, never fall: the first class whose total
        exceeds the draw is then one binary search away."""
        u = self.uniform()
        probs = np.asarray(probs, dtype=np.float64)
        i = int(np.add.accumulate(probs).searchsorted(u, "right"))
        if i < probs.size:
            return i
        # the float CDF summed short of u: take the last class with positive
        # mass, never a zero-mass one
        positive = np.flatnonzero(probs > 0)
        return int(positive[-1]) if positive.size else 0
