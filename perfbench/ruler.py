"""A fixed yardstick for the machine's speed while a run is measured.

The machine the benchmark runs on is shared: the same work can take from
1.0 to 1.8 times as long depending on when it runs, in phases of a few
seconds to minutes.  The ruler is a small fixed kernel of the same kind of
work as pcgl's (sparse polynomials with Fraction coefficients in dicts
keyed by exponent tuples, built through small objects).  It never changes
with the program.  Samples are taken between operations, about every
`INTERVAL` seconds of measured work, with the garbage collector off so that a
collection of the program's heap does not land in a sample.  Each
sample is smoothed with its neighbours (median of three), and each
operation's latency is scaled by REFERENCE_S over the smoothed ruler
time interpolated at its end:

    scaled = measured * REFERENCE_S / ruler(t)

so a scaled time is the time the operation would take on a machine where
the ruler takes REFERENCE_S.  Program changes scale the time in full; the
machine's drift cancels to the extent that it slows the ruler and the
program alike.  Ruler time is never part of a measured latency.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.02  # the ruler's time on the reference machine
INTERVAL = 0.4  # seconds of measured work between samples
clock = time.perf_counter


class _Poly:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {m: Fraction(c) for m, c in terms.items() if c}

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return _Poly(out)

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return _Poly(out)


def kernel(rounds: int = 30) -> int:
    p = _Poly({(i % 3, i % 4, i % 5, i % 2): Fraction(i + 1, i + 3) for i in range(9)})
    q = _Poly({(i % 2, i % 5, i % 3, i % 4): Fraction(2 * i - 5, i + 2) for i in range(7)})
    acc = _Poly({})
    for _ in range(rounds):
        acc = acc + p * q
    return len(acc.terms)


class Ruler:
    """Ruler samples of one run, and the time they took out of the run."""

    def __init__(self):
        self.times: list[float] = []  # clock() at the middle of each sample
        self.durations: list[float] = []
        self.paused = 0.0  # total time spent in samples
        self._last = clock()

    def sample(self) -> None:
        gc.disable()
        try:
            t0 = clock()
            kernel()
            t1 = clock()
        finally:
            gc.enable()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self.paused += t1 - t0
        self._last = t1

    def tick(self) -> None:
        """Take a sample when INTERVAL seconds have passed since the last one."""
        if clock() - self._last >= INTERVAL:
            self.sample()

    def factors(self, ts) -> list[float]:
        """REFERENCE_S over the smoothed ruler time at each clock() value in
        `ts`, interpolated between neighbouring samples (flat beyond the ends)."""
        times, raw = self.times, self.durations
        durs = [statistics.median(raw[max(0, k - 1):k + 2]) for k in range(len(raw))]
        out = []
        for t in ts:
            k = bisect.bisect_left(times, t)
            if k == 0:
                d = durs[0]
            elif k == len(times):
                d = durs[-1]
            else:
                w = (t - times[k - 1]) / (times[k] - times[k - 1])
                d = durs[k - 1] * (1 - w) + durs[k] * w
            out.append(REFERENCE_S / d)
        return out
