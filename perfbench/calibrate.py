"""A fixed reference workload that measures how fast the host runs Python now.

A shared host's cores do not run at one speed: other tenants' load on the
same physical cores, caches and memory slows every instruction of a
process, by up to half and from one second to the next on the 2-core KVM
guest this benchmark was tuned on, and CPU time does not see it.
``reference_work`` is a fixed piece of work that exercises what the
simulator's hot path does (a heap of timestamped events, dictionary
counters, slotted objects, float arithmetic, short-lived allocations) and
touches nothing under ``src/``, so no change to the simulator moves it.
``HostSpeedSampler`` times small slices of it all through a run; timings
divided by the slowdown they show are in *reference seconds* (see
``SLICE_REFERENCE_S``): they keep what the simulator costs and drop how
busy the host was.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from typing import List, Tuple

#: CPU seconds between two host-speed samples.
SAMPLE_INTERVAL_S = 0.01
#: Events of the reference work in one host-speed sample.
SLICE_EVENTS = 250
#: CPU seconds one sample takes on the reference host: the speed that
#: normalised figures are quoted at.  A constant near the typical slice time of
#: the 2-core Xeon KVM guest the benchmark was tuned on, so that normalised
#: figures stay comparable across runs.
SLICE_REFERENCE_S = 0.4e-3


class _Job:
    __slots__ = ("key", "size", "served")

    def __init__(self, key: int, size: float) -> None:
        self.key = key
        self.size = size
        self.served = 0.0


def reference_work(events: int) -> float:
    """A small discrete-event queueing loop; returns a checksum of its state."""
    heap = []
    push, pop = heapq.heappush, heapq.heappop
    counts = {}
    busy = {}
    done = []
    state = 12345
    for key in range(64):
        push(heap, (key * 0.01, key, _Job(key, 1.0)))
    seq = 64
    total = 0.0
    for _ in range(events):
        now, _, job = pop(heap)
        counts[job.key] = counts.get(job.key, 0) + 1
        job.served += job.size
        busy[job.key] = busy.get(job.key, 0.0) + job.size * 0.5
        # A linear congruential generator: the same stream on every host.
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        gap = (state % 1000 + 1) * 1e-3
        seq += 1
        if state & 7:
            push(heap, (now + gap, seq, job))
        else:
            done.append((job.key, job.served, now))
            push(heap, (now + gap, seq, _Job(job.key, gap * 2.0)))
            if len(done) > 256:
                total += sum(served for _, served, _ in done)
                done.clear()
    return total + sum(busy.values()) + len(counts)


class HostSpeedSampler:
    """Samples the host's speed all through a run, from a CPU-time timer.

    Every ``SAMPLE_INTERVAL_S`` of the process's CPU time a ``SIGPROF`` handler
    times one slice of the reference work (``SLICE_EVENTS`` events, with
    the garbage collector held off so that a collection of the simulator's
    objects is never charged to the slice).  The host's speed changes
    within a second, so sampling it through the whole timed region tracks
    it far better than timing the reference work before and after.
    """

    def __init__(self) -> None:
        #: (process CPU time at the slice's start, its CPU seconds), in order.
        self.slices: List[Tuple[float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.thread_time()
        reference_work(SLICE_EVENTS)
        self.slices.append((start, time.thread_time() - start))
        if collecting:
            gc.enable()

    def window(self, start_s: float, end_s: float) -> Tuple[int, float]:
        """(slices, their CPU seconds) that started in ``[start_s, end_s)``."""
        inside = [spent for at, spent in self.slices if start_s <= at < end_s]
        return len(inside), sum(inside)

    def normalised_s(self, start_s: float, end_s: float) -> float:
        """CPU seconds ``[start_s, end_s)`` spent outside the slices, in reference seconds.

        Divided by the window's mean slice time over ``SLICE_REFERENCE_S``:
        what the window would have cost on a host that runs a slice in
        ``SLICE_REFERENCE_S`` CPU seconds.
        """
        count, spent = self.window(start_s, end_s)
        if count == 0:
            raise ValueError("no host-speed sample in the window: it is too short")
        slowdown = spent / count / SLICE_REFERENCE_S
        return (end_s - start_s - spent) / slowdown
