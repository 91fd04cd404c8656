"""CPU-speed probe: times to the reference speed of the benchmark.

The box the benchmark was defined on switches between full speed and about
half speed, in spells of seconds to minutes, with no steal time to show it.
A spell can cover a whole run, so no statistic taken within the run filters
it out.  The probe measures the speed the run actually got instead.

A fixed kernel, written with the standard library only, multiplies two small
sparse polynomials with `Fraction` coefficients the way `SuperPoly` does
(dicts keyed by exponent tuples).  A SIGALRM timer runs it every
`INTERVAL_S` while an op runs, and the worker also runs it just before and
just after each op.  An op's time is scaled by
`REFERENCE_SAMPLE_S / mean(samples taken across the op)`: its time at the
speed at which one sample takes `REFERENCE_SAMPLE_S`.  The time the probe
itself spends inside an op is subtracted first.

The kernel shares no code with `superimm`, so no change to the program can
speed it up, and it runs with the garbage collector off, so it does not pay
for the program's live objects.  Each sample is the shorter of two kernel
runs back to back, so the second runs with the kernel's data in cache.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# One sample's time at the reference speed: about full speed of the 2-core
# x86 box the benchmark was defined on.  It only fixes the unit; changing it
# rescales every normalized time by the same factor.
REFERENCE_SAMPLE_S = 0.0004

_TERMS = {
    ((i, j), (k,) if k else ()): Fraction(i + 2 * j + 1, k + 2)
    for i in range(3) for j in range(2) for k in range(2)
}


def _kernel() -> float:
    t0 = time.perf_counter()
    out: dict = {}
    for (ea, oa), ca in _TERMS.items():
        for (eb, ob), cb in _TERMS.items():
            if oa and ob:
                continue
            key = ((ea[0] + eb[0], ea[1] + eb[1]), oa + ob)
            s = out.get(key, Fraction(0)) + ca * cb
            if s:
                out[key] = s
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the CPU speed on a timer and on demand.

    `overhead_s` is the total time spent taking samples; a caller subtracts
    its growth over an interval from that interval's length.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self._sampling = False

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # the timer fired during a sample taken on demand
            return
        self._sampling = True
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(min(_kernel(), _kernel()))
        finally:
            if enabled:
                gc.enable()
            self.overhead_s += time.perf_counter() - t0
            self._sampling = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first: int) -> float:
        """Factor from measured time to reference time, over samples[first:]."""
        return REFERENCE_SAMPLE_S / statistics.fmean(self.samples[first:])
