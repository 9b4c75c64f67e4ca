"""Host-speed probe: rescales host times measured on a shared machine.

On a shared 2-core virtual machine the host's speed drifts by up to 1.9x on
time scales from milliseconds to about a minute (a neighbour contending for
the same physical core), and CPU time drifts with it. A timing taken raw
then says more about the neighbour than about the program.

The probe runs a small fixed piece of interpreter work (small-object
allocation and heap operations, as in the simulator's event loop; about
0.1 ms) at the start of the process and then every INTERVAL_S on SIGALRM, in
the process being measured: no thread and no second process. Between two
probes the host is taken to run at the speed the probe saw (median of it and
its neighbours, to drop probes hit by an interrupt). `scaled(a, b)` is the
time from a to b, minus the probes' own time, at the reference speed: the
speed at which one probe takes REFERENCE_S, a fixed constant near the
fastest probe time seen on the machine the benchmark was written on.
Probing every 10 ms rather than every 50 ms halved the spread that remained
after rescaling.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

INTERVAL_S = 0.01
REFERENCE_S = 8e-5


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _work() -> int:
    # The items point back at the heap, so each probe leaves a reference
    # cycle and cyclic garbage collection is part of the work it samples, as
    # it is of the simulator's. In a trial, rescaled medians on `reference`
    # ranged over 12% across six seeds with a cycle-free probe, and over 3%
    # across ten seeds with this one.
    heap: list = []
    for i in range(100):
        heapq.heappush(heap, (i * 7 % 13, i, _Item(i, heap)))
    while heap:
        heapq.heappop(heap)
    return i


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time.monotonic(), duration)

    def _probe(self, signum=None, frame=None) -> None:
        t = time.monotonic()
        _work()
        self.samples.append((t, time.monotonic() - t))

    def start(self) -> None:
        _work()  # the first run is slower (cold code and allocator) and not a speed
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, a: float, b: float) -> float:
        """Seconds from a to b (time.monotonic()), without probe time, at the
        reference speed."""
        times = [t for t, _ in self.samples]
        durations = [d for _, d in self.samples]
        smooth = [statistics.median(durations[max(0, i - 1):i + 2])
                  for i in range(len(durations))]
        total = 0.0
        start, speed_of = a, 0  # speed of [start, next probe) is smooth[speed_of]
        for i, t in enumerate(times):
            if t <= a:
                speed_of = i
                continue
            if t >= b:
                break
            total += (t - start) * REFERENCE_S / smooth[speed_of]
            start, speed_of = t + durations[i], i
        total += max(0.0, b - start) * REFERENCE_S / smooth[speed_of]
        return total
