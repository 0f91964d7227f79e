"""Concurrency/CPU-target autoscaler with a metric aggregation window (paper §3.1).

Platforms with the multi-concurrency serving model scale the number of
sandboxes based on aggregated metrics (Knative's default stable window is
60 s; GCP Cloud Run targets 60% CPU utilisation and per-instance concurrency).
Because metrics are aggregated over a window, scaling "does not begin until
about 40 s" into a traffic burst in the paper's measurement -- the aggregation
lag is the mechanism behind Figure 6 (right).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Deque, Optional, Tuple

from repro.sim.kernel import PeriodicProcess

__all__ = ["AutoscalerConfig", "Autoscaler", "AutoscalerProcess"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Scaling policy parameters.

    Attributes:
        target_cpu_utilization: desired average CPU utilisation per sandbox
            (GCP default 0.6).
        target_concurrency_fraction: desired fraction of the per-sandbox
            concurrency limit in use (Knative's default target utilisation).
        metric_window_s: aggregation window over which metrics are averaged
            before a scaling decision (Knative stable window: 60 s).
        evaluation_interval_s: how often the autoscaler re-evaluates.
        min_instances: lower bound on instance count (0 allows scale-to-zero).
        max_instances: upper bound on instance count.
        scale_down_delay_s: how long low utilisation must persist before
            scaling in (also acts as the keep-alive scale-down delay).
        panic_window_s: short window used to detect sudden load spikes
            (Knative's panic window, default 6 s).
        panic_threshold: when the short-window demand exceeds this multiple of
            the current capacity, the autoscaler scales on the short window
            immediately instead of the stable window (Knative default 2.0).
            Set to 0 to disable panic mode.
        admission_queue_weight: how many active requests one sandbox stuck in
            the fleet's *admission queue* counts as in the scale-up signal.
            Requires a feedback channel (the queue depth is read from it);
            ``0`` (the default) ignores admission backpressure entirely.
            Scale-down keeps its hysteresis: a drained queue only shrinks the
            pool after ``scale_down_delay_s`` of sustained low demand.
    """

    target_cpu_utilization: float = 0.6
    target_concurrency_fraction: float = 0.7
    metric_window_s: float = 60.0
    evaluation_interval_s: float = 2.0
    min_instances: int = 0
    max_instances: int = 1000
    scale_down_delay_s: float = 60.0
    panic_window_s: float = 6.0
    panic_threshold: float = 2.0
    admission_queue_weight: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.target_cpu_utilization <= 1:
            raise ValueError("target_cpu_utilization must be in (0, 1]")
        if not 0 < self.target_concurrency_fraction <= 1:
            raise ValueError("target_concurrency_fraction must be in (0, 1]")
        if self.metric_window_s <= 0 or self.evaluation_interval_s <= 0:
            raise ValueError("window and evaluation interval must be positive")
        if self.min_instances < 0 or self.max_instances < max(self.min_instances, 1):
            raise ValueError("invalid instance bounds")
        if self.panic_window_s < 0 or self.panic_threshold < 0:
            raise ValueError("panic parameters must be >= 0")
        if self.admission_queue_weight < 0:
            raise ValueError("admission_queue_weight must be >= 0")


class Autoscaler:
    """Window-averaged metric autoscaler used by the platform simulator."""

    def __init__(self, config: AutoscalerConfig, max_concurrency: int, alloc_vcpus: float) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if alloc_vcpus <= 0:
            raise ValueError("alloc_vcpus must be positive")
        self.config = config
        self.max_concurrency = max_concurrency
        self.alloc_vcpus = alloc_vcpus
        #: The metric window as three parallel columns, oldest sample first:
        #: sample time, total active requests and total busy vCPUs.  Every
        #: average is the builtin ``sum`` over a column in time order, so it
        #: rounds exactly like a fold over the samples.
        self._times: Deque[float] = deque()
        self._active: Deque[float] = deque()
        self._busy: Deque[float] = deque()
        #: ``(sum(active), sum(busy))`` over the whole window, or ``None``
        #: once a non-zero sample has entered or left it since the sums were
        #: taken.  Idle stretches feed zero samples, and adding a zero
        #: changes neither a plain float fold nor Python 3.12's compensated
        #: ``sum``, so the cached totals stay exact while only zeros move.
        self._sums: Optional[Tuple[float, float]] = None
        self._last_scale_down_candidate: float = 0.0
        # See zero_samples_cannot_scale_up.  The grid starts at 0, which is
        # a multiple of every power of two.
        unit = min(
            _power_of_two_divisor(value)
            for value in (config.evaluation_interval_s, config.metric_window_s, config.panic_window_s)
            if value > 0
        )
        self._steady_window_before_s = (
            2.0**53 * unit - config.metric_window_s - config.evaluation_interval_s
        )

    def observe(self, now_s: float, active_requests: float, busy_vcpus: float) -> None:
        """Record one metric sample (the simulator calls this every evaluation tick).

        Sample times must not decrease (they are the simulation clock):
        the window is then always a time-ordered suffix of the samples.
        """
        times = self._times
        times.append(now_s)
        self._active.append(float(active_requests))
        self._busy.append(busy_vcpus)
        if active_requests or busy_vcpus:
            self._sums = None
        cutoff = now_s - self.config.metric_window_s
        # The new sample is never before the cutoff, so this stops on it.
        while times[0] < cutoff:
            times.popleft()
            left_active = self._active.popleft()
            if self._busy.popleft() or left_active:
                self._sums = None

    def desired_instances(self, now_s: float, current_instances: int) -> int:
        """Compute the desired instance count from window-averaged metrics."""
        cfg = self.config
        times = self._times
        n = len(times)
        # observe() already trimmed the window to its own clock; only a later
        # ``now_s`` leaves leading samples to skip (without dropping them).
        # The sample times are sorted, so every window is a suffix.
        start = bisect_left(times, now_s - cfg.metric_window_s)
        size = n - start
        if not size:
            return max(current_instances, cfg.min_instances)
        # Every simulator tick decides at its own sample's time, so nothing
        # is skipped and the whole-window totals (cached across zero
        # samples) serve.
        if start:
            active_total = sum(islice(self._active, start, None))
            busy_total = sum(islice(self._busy, start, None))
        else:
            sums = self._sums
            if sums is None:
                sums = self._sums = (sum(self._active), sum(self._busy))
            active_total, busy_total = sums
        avg_active = active_total / size
        avg_busy_vcpus = busy_total / size

        # Concurrency-based desired count: keep per-instance concurrency below
        # target_concurrency_fraction * max_concurrency.
        per_instance_target = cfg.target_concurrency_fraction * self.max_concurrency
        desired_by_concurrency = avg_active / per_instance_target if per_instance_target > 0 else 0.0

        # CPU-based desired count: keep per-instance CPU utilisation below target.
        per_instance_cpu_target = cfg.target_cpu_utilization * self.alloc_vcpus
        desired_by_cpu = avg_busy_vcpus / per_instance_cpu_target if per_instance_cpu_target > 0 else 0.0

        desired = max(desired_by_concurrency, desired_by_cpu)

        # Panic mode (Knative-style): a sudden spike measured over the short
        # window overrides the stable-window decision, so the platform reacts
        # within seconds rather than a full aggregation window.  CPU-target
        # scaling alone reacts slowly under overload because per-instance CPU
        # saturates at the allocation -- exactly the lag Figure 6 measures.
        # Samples are non-negative, so a zero window total means a zero
        # panic suffix, which can never trip the threshold.
        if cfg.panic_threshold > 0 and cfg.panic_window_s > 0 and active_total:
            panic_start = bisect_left(times, now_s - cfg.panic_window_s, start)
            if panic_start < n:
                panic_active = sum(islice(self._active, panic_start, None)) / (n - panic_start)
                capacity = max(current_instances, 1) * per_instance_target
                if capacity > 0 and panic_active > cfg.panic_threshold * capacity:
                    desired = max(desired, panic_active / per_instance_target)

        desired_count = max(int(-(-desired // 1)), cfg.min_instances)  # ceil
        desired_count = min(desired_count, cfg.max_instances)

        if desired_count < current_instances:
            # Scale-in is damped by the scale-down delay: remember when the
            # desire to shrink first appeared and only act after the delay.
            if self._last_scale_down_candidate == 0.0:
                self._last_scale_down_candidate = now_s
                return current_instances
            if now_s - self._last_scale_down_candidate < cfg.scale_down_delay_s:
                return current_instances
        else:
            self._last_scale_down_candidate = 0.0
        return desired_count

    def zero_samples_cannot_scale_up(self, now_s: float) -> bool:
        """Whether zero samples from the grid tick ``now_s`` on only lower the averages.

        The owner evaluates on the grid stepped ``+= evaluation_interval_s``
        from 0.  While only zero samples arrive, the window totals can only
        shrink as older samples leave; the averages shrink with them unless
        the window also loses a sample, and inexact grid steps can make it
        lose one.  On a 0.3 s grid with a 3 s window, the window holds 11
        samples but only 10 at t = 8.7, because the rounded step changes
        across t = 8.  The same totals then average 10 % higher, which can
        ask for one more instance.  When the interval and both windows are
        whole multiples of one power of two ``u``, every grid time and cutoff
        below ``2**53 * u`` is exact, so a full window always holds the same
        number of samples.  The samples in the window at ``now_s`` have all
        left it by ``now_s + metric_window_s``.  After that the totals are
        zero and the window size no longer matters.
        """
        return now_s < self._steady_window_before_s

    def next_scale_down_tick(
        self, first_s: float, interval_s: float, instances: int
    ) -> Optional[float]:
        """The earliest grid tick from ``first_s`` on at which idle ticks could scale in.

        The grid is ``first_s``, ``first_s + interval_s``, ... stepped with
        ``+=`` as :class:`~repro.sim.kernel.PeriodicProcess` steps it, and
        ``instances`` is the pool size.  At ``min_instances`` or below no
        scale-down can happen, so the answer is ``None``.  Otherwise it is
        the first tick ``t`` with ``t - base >= scale_down_delay_s``.  Here
        ``base`` is the time the pending wish to scale in first appeared or,
        when none is pending (``0.0``), ``first_s``: no later wish can let a
        scale-down fire sooner.
        """
        cfg = self.config
        if instances <= cfg.min_instances:
            return None
        base = self._last_scale_down_candidate or first_s
        tick = first_s
        while tick - base < cfg.scale_down_delay_s:
            tick += interval_s
        return tick


def _power_of_two_divisor(value: float) -> float:
    """The largest power of two that divides ``value`` (every float is dyadic)."""
    numerator, denominator = value.as_integer_ratio()
    return (numerator & -numerator) / denominator


class AutoscalerProcess(PeriodicProcess):
    """The autoscaler as a polled kernel process.

    Instead of the simulator pre-scheduling one heap event per evaluation tick
    over the whole horizon, the process computes its own next evaluation time
    (a fixed evaluation-interval grid, see
    :class:`repro.sim.kernel.PeriodicProcess`) and the kernel interleaves it
    with heap events.  The callback is called once per tick with the
    simulation time; the owning simulator supplies it and reads its own pool
    state there.  The same instance works in a standalone simulation and in
    an open-ended cluster co-simulation.

    **Sleeping through idle stretches.**  A tick that finds its function idle
    may call :meth:`sleep`: the process stops ticking and remembers the first
    grid tick it skips.  Until demand returns, every skipped tick would
    observe a zero sample and keep the instance count, except that a
    scale-down may come due; so the owner passes a timer for the earliest
    grid tick at which one could fire
    (:meth:`Autoscaler.next_scale_down_tick`).  The owner wakes it on demand
    with :meth:`wake`, which first hands every skipped tick before ``now`` to
    ``replay`` (in grid order, stepping the grid exactly as ticking would)
    and then re-arms the process on the kernel; :meth:`replay_through`
    replays the skipped ticks up to the end of a run.  A timer wake replays
    the skipped ticks before the timer's tick, then ticks as usual.
    """

    def __init__(
        self,
        interval_s: float,
        callback: Callable[[float], None],
        start_s: float = 0.0,
        *,
        replay: Optional[Callable[[float], None]] = None,
    ) -> None:
        super().__init__(interval_s, callback, start_s)
        #: Evaluates one skipped tick; a process without it never sleeps.
        self._replay = replay
        #: While asleep: the first grid tick not evaluated yet.  ``None``
        #: while awake.  (Asleep, ``_next_tick_s`` is the timer, or ``None``.)
        self._skipped_s: Optional[float] = None

    def handle(self, now: float) -> None:
        if self._skipped_s is not None:
            # Woken by its own timer: catch up on the ticks slept through.
            self._replay_before(now)
            self._skipped_s = None
        self._next_tick_s += self.interval_s
        self._callback(now)

    def sleep(self, timer_s: Optional[float]) -> None:
        """Stop ticking after the current tick; call it from the tick callback.

        ``timer_s`` is the grid tick at which the process wakes by itself
        (``None``: only :meth:`wake` wakes it).
        """
        if self._replay is None:
            raise RuntimeError("an AutoscalerProcess without replay cannot sleep")
        self._skipped_s = self._next_tick_s
        self._next_tick_s = timer_s

    def wake(self, now: float, kernel) -> None:
        """Replay the ticks slept through strictly before ``now`` and tick on.

        The next skipped tick becomes the next wakeup (through
        :meth:`~repro.sim.kernel.SimulationKernel.rearm`); one at ``now``
        itself fires after the heap events of this instant, as it would have.
        """
        self._replay_before(now)
        self._next_tick_s = self._skipped_s
        self._skipped_s = None
        kernel.rearm(self)

    def replay_through(self, until_s: float) -> None:
        """Replay the ticks slept through up to and including ``until_s``; stay asleep."""
        if self._skipped_s is not None:
            self._replay_before(math.nextafter(until_s, math.inf))

    def last_skipped_tick(self, until_s: float) -> Optional[float]:
        """The last skipped tick at or before ``until_s`` (``None``: none)."""
        tick = self._skipped_s
        if tick is None or tick > until_s:
            return None
        while tick + self.interval_s <= until_s:
            tick += self.interval_s
        return tick

    def _replay_before(self, end_s: float) -> None:
        tick = self._skipped_s
        replay = self._replay
        interval = self.interval_s
        while tick < end_s:
            replay(tick)
            tick += interval
        self._skipped_s = tick
