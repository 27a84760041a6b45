"""Host-speed probe: times a section of code at a fixed reference speed.

The benchmark's host is a shared virtual machine whose vCPUs run the same
Python code up to 2x slower or faster from one minute to the next, with the
load of other tenants.  Wall time alone then spreads past any useful bound.
So while a section runs, an interval timer interrupts it every PERIOD_S
seconds and a fixed pure-Python reference loop, which calls nothing of
gradecat, is timed in the signal handler on the same vCPU.  The section's
scaled time is its wall time (minus the handler's own time) weighted by the
speed those samples show:

    scaled_s = wall_s * mean(NOMINAL_S / reference_s)

that is, the time the section would take with the reference loop running in
NOMINAL_S.  A change to gradecat moves the scaled time as it moves the wall
time; a change of host speed moves both the section and the reference, and
mostly cancels.

Only modules a fresh interpreter has loaded anyway, or that gradecat never
loads, are imported here, so that the probe can be set up before the timed
import of gradecat without taking part of that import's cost.
"""

import gc
import math
import signal
import time

# Time between two samples.  One sample takes about 0.2 ms, so the handler
# takes about 2 % of a section; that time is taken out of the wall time.
PERIOD_S = 0.01
# Steps of the reference loop per sample.
REFERENCE_STEPS = 40
# The reference loop's time at the speed scaled times are given at: its
# typical time on the 2-vCPU Xeon host the baseline was measured on.
NOMINAL_S = 0.00018


class _Ratio:
    """A reduced fraction: allocation, method calls and integer arithmetic
    with growing integers, the mix of work gradecat's exact arithmetic does.
    (fractions.Fraction itself is not used: gradecat imports it, and the
    probe is loaded before the timed import of gradecat.)"""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        g = math.gcd(num, den)
        self.num = num // g
        self.den = den // g

    def __add__(self, other):
        return _Ratio(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _Ratio(self.num * other.num, self.den * other.den)


def reference() -> _Ratio:
    """The work one sample times."""
    acc = _Ratio(0, 1)
    for i in range(REFERENCE_STEPS):
        acc = acc + _Ratio(i, 7 + i % 13)
        acc = acc * _Ratio(3, 5 + (i & 7))
    return acc


class Probe:
    """Times sections of code, sampling the host's speed while they run."""

    def __init__(self):
        self._speeds: list[float] = []
        self._spent = 0.0  # time taken by samples, including the handler's own
        for _ in range(3):  # let the interpreter specialise the loop first
            reference()

    def _sample(self, signum=None, frame=None):
        # no collection inside a sample: its time would grow with gradecat's heap
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference()
        seconds = time.perf_counter() - start
        if collecting:
            gc.enable()
        self._speeds.append(NOMINAL_S / seconds)
        self._spent += time.perf_counter() - entered

    def time(self, fn, *args):
        """Call fn(*args) while sampling; returns (result, wall_s, scaled_s).

        wall_s excludes the samples taken during the call.  If fn raises, the
        timer is stopped and the exception propagates."""
        self._speeds = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        spent = self._spent
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        wall = elapsed - (self._spent - spent)
        self._sample()
        speed = sum(self._speeds) / len(self._speeds)
        return result, wall, wall * speed
