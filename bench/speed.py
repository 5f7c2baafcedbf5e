"""Machine-speed probe: scales measured times to one reference speed.

On a shared host the same code runs up to about 1.6 times slower for
stretches of seconds to minutes, and the slowdown is uniform across the code
(Fraction arithmetic, numpy root solving and interpreter start-up alike).  The
benchmark therefore times a fixed pure-Python workload, independent of vw3d,
at least once a second, and multiplies every measured time by
`REFERENCE_S / latest reading`: its timing metrics read in seconds at the
speed where the probe takes `REFERENCE_S`.  The run record keeps the raw
times and every probe reading.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.0006     # best-of-2 probe time on the host's fast speed (Python 3.11)
EVERY_S = 0.2
_A = [Fraction(i + 1, 2 * i + 3) for i in range(12)]
_B = [Fraction(3 * i + 1, i + 7) for i in range(12)]


def _work():
    """A dense product of two Fraction polynomials, like the series kernel."""
    out = {}
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] = out.get(i + j, 0) + x * y
    return out


class SpeedProbe:
    def __init__(self):
        self.readings = []      # (perf_counter at reading, best-of-2 seconds)

    def read(self):
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            _work()
            best = min(best, time.perf_counter() - start)
        self.readings.append((time.perf_counter(), best))

    def refresh(self):
        """Read again if the last reading is older than EVERY_S."""
        if not self.readings or time.perf_counter() - self.readings[-1][0] >= EVERY_S:
            self.read()
