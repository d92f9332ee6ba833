"""How fast the machine runs right now, from a fixed reference kernel.

The reference machine is a share of a host that other tenants use too.
Their load slows CPU-bound code by up to 2x, in CPU time as much as in
wall time, in phases that last from seconds to minutes.  A least time or
a median over one run cannot remove a phase that covers the whole run.

So the benchmark runs a fixed kernel between operations, and on a timer
during them, and scales each operation's time by the kernel's speed
around and during it.  The kernel imports
nothing from ckn_lab and does the same kinds of work the package does:
term algebra on exact fractions held in dicts (as the profile algebra
does), numpy exp/log over a few hundred quadrature nodes, and small
dense eigenproblems (as a Ritz solve does).  Over windows of about 15 s,
the ratio of a scan cell's time to the kernel's time next to it varied
by 2 % (standard deviation of the log) while the raw time varied by 13 %.

A change to the program cannot change the kernel's time; garbage
collection is off while the kernel runs, so the size of the program's
heap does not reach it either.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

import numpy as np

#: kernel time that defines the reference speed; scaled times are what the
#: operation takes when the kernel takes this long.  On the reference
#: machine, a 2-vCPU Xeon VM, the kernel takes 4.5-5 ms when the host is
#: calm and 8-8.5 ms when it is busy.
REFERENCE_KERNEL_S = 0.005
#: period of the timer that samples the kernel while an operation runs:
#: a locate takes seconds, and the host's phase can change within it
TIMER_S = 0.25

_NODES = np.linspace(0.01, 20.0, 300)
_MATRIX = np.random.default_rng(0).standard_normal((16, 16))
_MATRIX = _MATRIX @ _MATRIX.T + 16.0 * np.eye(16)


def _term_algebra() -> int:
    half = Fraction(1, 2)
    terms = [(1.0 + i, Fraction(i, 3), Fraction(-i, 2)) for i in range(12)]
    for _ in range(3):
        merged: dict[tuple[Fraction, Fraction], float] = {}
        for c, p, e in terms:
            for key, value in (((p - 1, e), c * float(p)), ((p + half - 1, e - 1), c * float(e * half))):
                if value != 0.0:
                    merged[key] = merged.get(key, 0.0) + value
        terms = [(c, p, e) for (p, e), c in sorted(merged.items())][:24]
    return len(terms)


def _node_sums() -> float:
    total = 0.0
    log_r = np.log(_NODES)
    for i in range(120):
        log_peak = np.logaddexp(0.0, 2.0 * log_r)
        total += float(np.sum(np.exp(-0.5 * i * log_r + (1.0 - 0.1 * i) * log_peak)[:10]))
    return total


def _eigenproblems() -> float:
    x = np.zeros(16)
    for _ in range(40):
        w = np.linalg.eigh(_MATRIX)[0]
        x = np.linalg.solve(_MATRIX, w)
    return float(x[0])


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _term_algebra()
        _node_sums()
        _eigenproblems()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Kernel times sampled between operations and, on a timer, during them.

    While the meter is entered, SIGALRM runs the kernel every `TIMER_S`.
    The wall time those samples take is added to `stolen_s`, so that a
    caller can take it out of the operation it interrupted.
    """

    def __init__(self, interval_s: float = TIMER_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.stolen_s = 0.0
        self._previous = None

    def sample(self) -> None:
        self.samples.append(kernel_s())

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.stolen_s += time.perf_counter() - start

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale_since(self, first: int) -> float:
        """Factor from wall time to reference time, from the samples since index `first`."""
        recent = self.samples[first:]
        return REFERENCE_KERNEL_S * len(recent) / sum(recent)
