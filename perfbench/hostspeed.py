"""Host-speed calibration, so that end-to-end times survive a shared host.

On a host shared with other machines the speed of one CPU-bound Python
process drifts: on the 2-core host this benchmark was written on, a fixed
loop ran up to twice as slow within half a minute. Every timing the
benchmark reports is therefore scaled to a reference host speed:

    reported = measured * REFERENCE_S / calibration

where `calibration` is the time of a fixed piece of pure-Python work (sparse
polynomial products with tuple monomials mod p, and Fraction arithmetic, the
operation mix of mcalc's engines) measured next to the timed work: before a
job whenever EVERY_S has passed since the last sample, and after every pass.
Each job is scaled by the median of the samples around it.
The calibration code is the benchmark's own and must never change: the
reported numbers of every commit are in the same unit only while it stays
fixed. Program changes move the measured time, not the calibration, so they
show in the reported time in full.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.015
EVERY_S = 0.2
WINDOW_S = 1.0
_P = 32003


class _Monomial:
    __slots__ = ("exps", "degree")

    def __init__(self, exps):
        self.exps = exps
        self.degree = sum(exps)

    def mul(self, other):
        return _Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __eq__(self, other):
        return self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)


_F = {_Monomial((a, b, c)): 7 * a + 3 * b + c + 1
      for a in range(5) for b in range(5 - a) for c in range(5 - a - b)}
_G = {_Monomial((a, b, c)): 5 * a + b + 2 * c + 3
      for a in range(4) for b in range(4 - a) for c in range(4 - a - b)}
_Q = [Fraction(i, i + 7) for i in range(1, 60)]


def _work():
    for _ in range(6):
        out = {}
        for m1, c1 in _F.items():
            for m2, c2 in _G.items():
                m = m1.mul(m2)
                s = out.get(m)
                out[m] = c1 * c2 % _P if s is None else (s + c1 * c2) % _P
        top = max(out, key=lambda m: (m.degree, m.exps))
        acc = Fraction(0)
        for q in _Q:
            acc = acc + q * q - q / 3
    return top, acc


def sample() -> float:
    """Seconds the fixed calibration work takes right now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration samples interleaved with a stream of timed jobs."""

    def __init__(self):
        sample()  # warm the interpreter's specialized bytecode
        self.samples = []  # (start time, seconds)
        self.jobs = []     # (start, end) of each timed job

    def before_job(self):
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.end_pass()

    def job_done(self, start, end):
        self.jobs.append((start, end))

    def end_pass(self):
        self.samples.append((time.perf_counter(), sample()))

    def scaled(self):
        """Every recorded job time at the reference speed, in order.

        A job is scaled by the median of the samples taken within WINDOW_S of
        it, always including the last one before it and the first after it.
        """
        times = [t for t, _ in self.samples]
        out = []
        for start, end in self.jobs:
            before = bisect.bisect_right(times, start) - 1
            lo = min(bisect.bisect_left(times, start - WINDOW_S), before)
            hi = max(bisect.bisect_right(times, end + WINDOW_S), before + 2)
            window = statistics.median(d for _, d in self.samples[lo:hi])
            out.append((end - start) * REFERENCE_S / window)
        return out

    def factor(self):
        """Median host slowdown against the reference speed."""
        return statistics.median(d for _, d in self.samples) / REFERENCE_S
