"""A fixed reference computation that measures how fast the host runs right
now.

On a shared 2-core host the speed of a core flips between two states about
1.5-1.8x apart (apparently its hyperthread sibling busy or idle) and stays
in each for seconds to tens of seconds, which moves every timing of a run
together. The benchmark runs the probe just before each CLI invocation and
after the last and, from a timer signal, every ``SAMPLE_INTERVAL_S`` during
each one, and scales the invocation's time by ``REFERENCE_S`` over the
harmonic mean of the probe durations taken during it (or, for a call too
short for that, near it). Probes taken at even time steps weight each state
by the time spent in it, and their harmonic mean is the slowdown averaged
over the work done, which is what scales the call. The probe uses only the
standard library and numpy, never the program, so a change to the program
cannot move it. Corrected times are comparable only between runs of the
same probe.
"""

from __future__ import annotations

import math
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# Corrected times read as the seconds the run would have taken on a host
# where one probe takes this long (about its duration on an idle core of a
# 2-core Xeon VM).
REFERENCE_S = 0.002
SAMPLE_INTERVAL_S = 0.1
# probes during a call (most of a second of it) that suffice on their own
MIN_DURING = 8
# a shorter call also uses the bursts of this many calls on either side
NEIGHBOURS = 2


def probe():
    """The same mix of work the program does: Fraction sums, scalar float
    math and arithmetic on small numpy arrays."""
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i * i + 1)
    x = np.linspace(0.1, 2.0, 64)
    for _ in range(150):
        x = np.sqrt(x * x + 0.5) - 0.1
    acc = 0.0
    for i in range(7500):
        acc += math.exp(-i * 1e-4)
    return total, x, acc


def timed_probe() -> float:
    start = perf_counter()
    probe()
    return perf_counter() - start


def burst(count: int = 3) -> list[float]:
    return [timed_probe() for _ in range(count)]


def correction(samples: list[float]) -> float:
    """Multiply a time measured alongside these probes by this factor."""
    return REFERENCE_S / statistics.harmonic_mean(samples)


def call_correction(bursts: list[list[float]], i: int, during: list[float]) -> float:
    """The factor for call ``i`` of a pass whose ``bursts[i]`` ran just
    before it: from the probes taken during the call when there are enough
    to follow the speed through it, else also from the nearby bursts."""
    if len(during) >= MIN_DURING:
        return correction(during)
    nearby = bursts[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 2]
    return correction([s for b in nearby for s in b] + during)


class Sampler:
    """Probes from a SIGALRM handler every ``SAMPLE_INTERVAL_S`` while
    active. ``stolen`` is the time the handler took, to be subtracted from
    the interval it interrupted. ``run`` runs one probe and returns its
    duration; a traced pass passes one that also records a span, so that
    the probe is not counted in the self time of the span it interrupted."""

    def __init__(self, run=timed_probe):
        self.run = run

    def __enter__(self) -> "Sampler":
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def _handler(self, _signum, _frame):
        start = perf_counter()
        self.samples.append(self.run())
        self.stolen += perf_counter() - start

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
