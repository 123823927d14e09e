"""Times a stretch of work and rescales it to a fixed reference machine speed.

A shared host changes speed by a fifth or more in spells of seconds to
minutes, so two wall times of the same work can differ more than a real
change would.  While the work runs, a SIGALRM timer interrupts it every
``INTERVAL_S``; the handler times one run of a fixed calibration kernel on
the same thread, with the garbage collector paused.  The kernel does the kind
of arithmetic the program does (``Fraction`` products and sums, dict stores),
so its duration ``c`` follows the speed the work itself gets right then.

Each stretch ``dt`` of work between two samples counts as
``dt * REFERENCE_KERNEL_S / c`` reference seconds, with ``1 / c`` averaged
over the samples at both ends of the stretch.  The sum is the time the work
would take on a machine where the kernel takes ``REFERENCE_KERNEL_S``.  The
handler's own time is in neither figure.  Work too short to interrupt, such
as a process's set-up, is rescaled by kernel timings taken just before and
just after it (``median_kernel``, ``rescale``).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.04
# The kernel took 135 to 250 us on the 2-vCPU x86-64 host the benchmark was
# written on, as the host's speed changed; reference seconds read within a
# fifth or so of its wall seconds.
REFERENCE_KERNEL_S = 250e-6

_X, _Y = Fraction(123456789, 98765), Fraction(-5551, 7777)
# coefficients of 100 to 200 bits, the size the taus of dense frames reach
_P = [Fraction(3**40 + i, 7**20 + 2 * i) for i in range(4)]
_Q = [Fraction(-(5**30) + i, 11**15 + i) for i in range(4)]


def kernel() -> dict:
    """The calibration kernel, 0.15 to 0.25 ms of fixed work: small Fraction
    arithmetic, then a product of two polynomials with big Fraction
    coefficients, both stored in dicts."""
    out = {}
    for i in range(20):
        z = _X * _Y + Fraction(i, 7)
        out[i] = z.numerator * 3 % 1000003
    for i, a in enumerate(_P):
        for j, b in enumerate(_Q):
            out[-1 - i - j] = out.get(-1 - i - j, 0) + a * b
    return out


def time_kernel() -> float:
    """Seconds one run of the kernel takes right now, with its caches warm
    and the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def median_kernel() -> float:
    """Median of nine kernel timings: the speed right now, for work too short
    to sample while it runs."""
    return statistics.median(time_kernel() for _ in range(9))


def rescale(seconds: float, c_a: float, c_b: float) -> float:
    """Reference seconds of `seconds` of work between two kernel timings."""
    return seconds * REFERENCE_KERNEL_S * (1.0 / c_a + 1.0 / c_b) / 2.0


def reference_seconds(samples) -> tuple[float, float]:
    """(wall seconds, reference seconds) of the work between `samples`.

    Each sample is (start, end, kernel seconds); the work ran in the gaps
    between one sample's end and the next one's start.
    """
    wall = ref = 0.0
    for (_, end, c_a), (start, _, c_b) in zip(samples, samples[1:]):
        wall += start - end
        ref += rescale(start - end, c_a, c_b)
    return wall, ref


class Ruler:
    """``with Ruler() as r: work()``; then ``r.wall_s`` and ``r.ref_s``."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False
        self._previous = None

    def _sample(self, *_):
        if self._busy:  # a timer signal that arrived while sampling
            return
        self._busy = True
        try:
            start = time.perf_counter()
            c = time_kernel()
            self.samples.append((start, time.perf_counter(), c))
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.wall_s, self.ref_s = reference_seconds(self.samples)
