"""A fixed reference task that every timing is calibrated against.

The machines this benchmark runs on are shares of busy hosts, and their speed
changes by up to about 1.7x for seconds to minutes at a time; process CPU
time changes with it, so it is not steal time that a CPU clock would leave
out. A timing taken alone therefore tells the host's level as much as the
program's speed. So the benchmark runs this task right before and right after
each thing it times, and reports

    calibrated seconds = measured seconds * REF_S / (mean of the two reference times)

that is, the time the thing would take on a host where this task takes
``REF_S``. The task is benchmark code, never ``seqpost`` code, so no change
to the program moves it, and it mixes the kinds of work the program does
(JSON decode and encode of float rows, a pure-Python 20x20 edit-distance DP,
numpy reductions over 478-wide rows, and writing and reading a file), so
that a change in host speed moves it as it moves the program. The raw seconds are
kept beside the calibrated ones in every results file.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import numpy as np

# The reference task's median duration on a 2-vCPU Xeon (Sapphire Rapids)
# guest; any fixed value would do, this one keeps calibrated seconds close to
# the raw seconds measured there.
REF_S = 0.020

# Start-up is process creation, loading shared libraries and reading
# bytecode, which the task above does not follow well. ``startup_s`` is
# calibrated instead by a fresh interpreter running this code, the part of
# ``import seqpost.cli`` that is not seqpost code, whose median on the same
# host is this.
REF_START_CODE = "import numpy"
REF_START_S = 0.170


class Reference:
    """The reference task with its inputs, built once; ``seconds()`` times it.
    The task writes and reads back ``path``, which it owns.

    Its parts take about these shares of its time: JSON decode 0.2, JSON
    encode 0.3, the edit-distance DP 0.3, numpy row reductions 0.1, and file
    write and read 0.1. Pure-Python and JSON work alone move more than the
    program when the host changes phase, numpy and file work less; this mix
    followed the seqpost stages most closely in a two-minute trial on the
    host ``REF_S`` comes from."""

    def __init__(self, path: Path) -> None:
        rng = np.random.default_rng(20230704)
        self._path = path
        self._rows = rng.normal(size=(200, 478))
        self._blob = json.dumps({"noun_logits": self._rows[:20].tolist()})
        self._pairs = [(rng.integers(0, 8, 20).tolist(), rng.integers(0, 8, 20).tolist())
                       for _ in range(24)]

    def _run(self) -> float:
        decoded = json.loads(self._blob)["noun_logits"]
        encoded = json.dumps(self._rows[:12].tolist())
        total = float(len(decoded) + len(encoded))
        for a, b in self._pairs:
            prev = list(range(len(b) + 1))
            for i, x in enumerate(a, 1):
                cur = [i]
                for j, y in enumerate(b, 1):
                    cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
                prev = cur
            total += prev[-1]
        for row in self._rows:
            weights = np.exp(row - row.max())
            total += float(np.searchsorted(np.cumsum(weights / weights.sum()), 0.5))
        for _ in range(8):
            self._path.write_text(self._blob)
            total += len(self._path.read_bytes())
        return total

    def seconds(self) -> float:
        """The median of three runs, with the garbage collector off, so that
        neither a stray interrupt nor the size of the caller's heap moves it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(3):
                start = time.perf_counter()
                self._run()
                times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return sorted(times)[1]


def calibrate(seconds: float, ref_before: float, ref_after: float, nominal: float = REF_S) -> float:
    """``seconds`` as it would read on a host where the reference takes ``nominal``."""
    return seconds * nominal / ((ref_before + ref_after) / 2)
