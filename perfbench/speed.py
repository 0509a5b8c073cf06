"""Machine-speed correction for op latencies.

The benchmark shares a few cores of a host with other tenants, and the
speed of those cores drifts: on a 2-vCPU VM a fixed pure-Python loop ran
from 0.67 to 1.4 ms within an hour, and the same ``verify`` op took 2.7 s
in one run and 4.6 s in another.  Wall-clock latencies therefore measure
the neighbours as much as the program.

While ops are timed, a ``SIGALRM`` handler runs a fixed reference chunk
every ``PERIOD_S`` seconds and records how long it took.  The chunk is
pure Python (see ``reference_chunk``), touches no state of the program
and runs with the cycle collector off, so the program's garbage is never
charged to it.  An op's time in *reference seconds* is its wall time,
minus the handler time that fell inside it, divided by the median chunk
time around it, times the chunk's nominal time ``REF_CHUNK_S``: the op's
latency on a machine that runs the chunk in exactly ``REF_CHUNK_S``.
Drift slows the chunk and the op alike and mostly cancels, while a
faster program still reads faster.  On that VM the spread of the median
op latency over five seeds (quartile distance over median) fell from
11-30% in wall seconds to 3-6% in reference seconds.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
from time import perf_counter

REF_CHUNK_S = 1e-3  # nominal chunk time; about the measured one on 2 vCPUs
PERIOD_S = 0.05  # one chunk per 50 ms of timed work: 2-3% of the time
WINDOW_S = 0.5  # chunks this far around an op gauge its speed
COMPUTE_LOOPS = 1500
MEMORY_LOOPS = 750
MEMORY_SLOTS = 1 << 18  # ~9 MB of list and int objects, past the L2 cache
_TABLE = {(i, i % 7): i for i in range(256)}
_CYCLE = []  # a random cyclic permutation of range(MEMORY_SLOTS), built lazily


def _step(acc: int, i: int) -> int:
    return (acc * 31 + i) & 0xFFFFFF


def _build_cycle():
    order = list(range(MEMORY_SLOTS))
    random.Random(0).shuffle(order)
    cycle = [0] * MEMORY_SLOTS
    for a, b in zip(order, order[1:] + order[:1]):
        cycle[a] = b
    _CYCLE[:] = cycle


def reference_chunk() -> int:
    """A fixed amount of interpreter work, about 1 ms on 2 vCPUs.

    The compute half stays in the L1 cache; the memory half chases a
    random cycle through ``_CYCLE`` and allocates a tuple and a string per
    step, as the symbolic layers and the JSON writer do.  On this host the
    two halves drift differently, and an op latency divided by their sum
    varied less from run to run than one divided by either half.
    """
    if not _CYCLE:
        _build_cycle()
    table, cycle = _TABLE, _CYCLE
    acc = 0
    for i in range(COMPUTE_LOOPS):
        j = i & 255
        acc = _step(acc, table[(j, j % 7)])
    items = []
    j = 0
    for i in range(MEMORY_LOOPS):
        j = cycle[j]
        items.append((j, acc, str(i)))
    return len(items)


class SpeedSampler:
    """Reference-chunk times, sampled by a timer signal while ops run."""

    def __init__(self):
        self.stamps = []  # chunk start times, perf_counter seconds
        self.times = []  # chunk durations, seconds
        self._previous = None

    def _sample(self):
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference_chunk()
        took = perf_counter() - start
        if enabled:
            gc.enable()
        self.stamps.append(start)
        self.times.append(took)

    def _handler(self, signum, frame):
        self._sample()

    def start(self):
        for _ in range(20):  # warm the chunk's code and data
            reference_chunk()
        for _ in range(5):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(5):
            self._sample()

    def inside(self, t0: float, t1: float) -> float:
        """Handler time spent between ``t0`` and ``t1``."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_left(self.stamps, t1)
        return sum(self.times[lo:hi])

    def chunk_s(self, t0: float, t1: float) -> float:
        """Median chunk time within ``WINDOW_S`` of the interval."""
        lo = bisect.bisect_left(self.stamps, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + WINDOW_S)
        if hi - lo < 3:  # the run's edges: take the nearest samples
            mid = bisect.bisect_left(self.stamps, t0)
            lo, hi = max(0, mid - 3), min(len(self.stamps), mid + 3)
        return statistics.median(self.times[lo:hi])

    def reference_s(self, t0: float, t1: float) -> float:
        """Wall interval ``t0``..``t1`` as program time in reference seconds."""
        busy = t1 - t0 - self.inside(t0, t1)
        return busy * REF_CHUNK_S / self.chunk_s(t0, t1)

    def median_chunk_s(self) -> float:
        return statistics.median(self.times)
