"""The columnar autoscaler window decides exactly like the tuple window it replaced.

``TupleWindowAutoscaler`` below is the earlier implementation, kept verbatim
as the reference: one deque of ``(time, active, busy, instances)`` samples,
re-filtered into a window list and folded with generator sums on every
decision.  Both are driven with the same random metric streams and must
return the same desired count at every step -- including the awkward
corners: repeated timestamps, fractional vCPU sums, panic mode on and off,
``panic_window_s`` of zero or wider than the stable window, instance bounds,
the scale-down delay, and decisions taken later than the last sample.
"""

from collections import deque
from typing import Deque, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.autoscaler import Autoscaler, AutoscalerConfig


class TupleWindowAutoscaler:
    """Window-averaged metric autoscaler used by the platform simulator."""

    def __init__(self, config: AutoscalerConfig, max_concurrency: int, alloc_vcpus: float) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if alloc_vcpus <= 0:
            raise ValueError("alloc_vcpus must be positive")
        self.config = config
        self.max_concurrency = max_concurrency
        self.alloc_vcpus = alloc_vcpus
        #: (timestamp, total active requests, total cpu demand rate, instance count) samples.
        self._samples: Deque[Tuple[float, float, float, int]] = deque()
        self._last_scale_down_candidate: float = 0.0

    def observe(self, now_s: float, active_requests: float, busy_vcpus: float, instances: int) -> None:
        """Record one metric sample (the simulator calls this every evaluation tick)."""
        self._samples.append((now_s, float(active_requests), busy_vcpus, max(instances, 0)))
        cutoff = now_s - self.config.metric_window_s
        while self._samples and self._samples[0][0] < cutoff:
            self._samples.popleft()

    def desired_instances(self, now_s: float, current_instances: int) -> int:
        """Compute the desired instance count from window-averaged metrics."""
        cfg = self.config
        if not self._samples:
            return max(current_instances, cfg.min_instances)
        window = [s for s in self._samples if s[0] >= now_s - cfg.metric_window_s]
        if not window:
            return max(current_instances, cfg.min_instances)
        avg_active = sum(s[1] for s in window) / len(window)
        avg_busy_vcpus = sum(s[2] for s in window) / len(window)

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
        if cfg.panic_threshold > 0 and cfg.panic_window_s > 0:
            panic_samples = [s for s in window if s[0] >= now_s - cfg.panic_window_s]
            if panic_samples:
                panic_active = sum(s[1] for s in panic_samples) / len(panic_samples)
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


#: Whether the builtin ``sum`` compensates float rounding (Python >= 3.12).
COMPENSATED_SUM = sum([0.1, 0.2, 0.3]) == 0.6

#: Sandbox allocations whose sums round (1/6 has no exact binary form).
ALLOCATIONS = (1 / 6, 1 / 3, 0.5, 1.0, 1.7, 2.0)

configs = st.builds(
    AutoscalerConfig,
    target_cpu_utilization=st.sampled_from([0.6, 0.7, 1 / 3, 1.0]),
    target_concurrency_fraction=st.sampled_from([0.7, 0.1, 1.0]),
    metric_window_s=st.sampled_from([60.0, 6.0, 10.0, 7.3, 2.0]),
    evaluation_interval_s=st.sampled_from([2.0, 0.1, 1.5]),
    min_instances=st.integers(0, 3),
    max_instances=st.sampled_from([3, 10, 1000]),
    scale_down_delay_s=st.sampled_from([0.0, 4.0, 60.0]),
    panic_window_s=st.sampled_from([6.0, 0.0, 2.0, 6.5, 100.0]),
    panic_threshold=st.sampled_from([2.0, 0.0, 0.5]),
)

#: One busy sandbox: (admitted requests, vCPU allocation).
busy_sandboxes = st.lists(
    st.tuples(st.integers(1, 8), st.sampled_from(ALLOCATIONS)), max_size=6
)

steps = st.lists(
    st.fixed_dictionaries({
        # Irregular gaps, including 0 (a repeated timestamp) and gaps wider
        # than any window (which empty it).
        "gap_s": st.one_of(st.sampled_from([0.0, 0.5, 2.0, 3.0, 70.0]),
                           st.floats(0.0, 12.0, allow_nan=False)),
        # Runs of zero samples (idle ticks) exercise the cached window sums.
        "active": st.one_of(st.just(0), st.integers(0, 2000)),
        "busy": st.one_of(st.just([]), busy_sandboxes),
        "current": st.integers(0, 40),
        # Decide later than the sample (0 = at the sample time).
        "decide_after_s": st.sampled_from([0.0, 0.0, 1.0, 5.9, 6.0, 59.0, 61.0]),
    }),
    max_size=60,
)


def _busy_vcpus(busy):
    """Busy vCPUs exactly as the platform simulator totals them."""
    return sum(min(float(concurrency), alloc) for concurrency, alloc in busy)


def _pair(config, max_concurrency, alloc_vcpus):
    return (Autoscaler(config, max_concurrency, alloc_vcpus),
            TupleWindowAutoscaler(config, max_concurrency, alloc_vcpus))


class TestColumnarWindowMatchesTupleWindow:
    @settings(max_examples=300, deadline=None)
    @given(
        config=configs,
        max_concurrency=st.integers(1, 100),
        alloc_vcpus=st.sampled_from(ALLOCATIONS),
        grid=st.booleans(),
        stream=steps,
    )
    def test_every_decision_is_equal(self, config, max_concurrency, alloc_vcpus, grid, stream):
        columnar, reference = _pair(config, max_concurrency, alloc_vcpus)
        assert columnar.desired_instances(0.0, 2) == reference.desired_instances(0.0, 2)
        now = 0.0
        for step in stream:
            busy = _busy_vcpus(step["busy"])
            columnar.observe(now, step["active"], busy)
            reference.observe(now, step["active"], busy, step["current"])
            decide_s = now + step["decide_after_s"]
            current = step["current"]
            assert columnar.desired_instances(decide_s, current) == \
                reference.desired_instances(decide_s, current), (now, decide_s)
            # The evaluation grid accumulates like the kernel's periodic
            # process; irregular streams use the drawn gap.
            now += config.evaluation_interval_s if grid else step["gap_s"]

    def test_late_decision_keeps_the_samples(self):
        """A decision past the window skips old samples without dropping them."""
        config = AutoscalerConfig(metric_window_s=10.0, panic_threshold=0.0)
        columnar, reference = _pair(config, 10, 1.0)
        for t in range(0, 10, 2):
            columnar.observe(float(t), 10 * t, 1 / 6)
            reference.observe(float(t), 10 * t, 1 / 6, 1)
        for decide_s in (30.0, 14.0, 8.0):
            assert columnar.desired_instances(decide_s, 1) == reference.desired_instances(decide_s, 1)
        # At 30 s the window is empty; at 14 s it holds the samples from 4 s
        # on (mean 60 active); at 8 s all five are back (mean 40).
        assert columnar.desired_instances(30.0, 1) == 1
        assert columnar.desired_instances(14.0, 1) == 9
        assert columnar.desired_instances(8.0, 1) == 6

    def test_averages_round_in_time_order(self):
        """The desired count sees the last-ulp rounding of a time-ordered sum.

        The builtin ``sum`` of floats is a plain left fold before Python 3.12
        and compensated (Neumaier) from 3.12 on.  A compensated sum depends
        on order only when its compensation term itself rounds, which takes
        cancelling magnitudes, hence the +-2**53 samples.  Under either rule
        this stream sums to a different value forwards, backwards and with
        ``math.fsum`` (0.1): a fold gives -1.0 / 1.0, the compensated sum
        0.10000000000000009 / 0.09999999999999998.  Three idle samples make
        the count 8, so the mean is exact, and the CPU target of exactly
        ``0.1 / 8`` vCPU turns each sum into a different decision (``fsum``
        would decide 1 under both rules).
        """
        forward = (2.0 ** 53, 1.0, 0.1, -2.0 ** 53, -1.0, 0.0, 0.0, 0.0)
        if COMPENSATED_SUM:
            expected = {forward: 2, forward[::-1]: 1}
        else:
            expected = {forward: 0, forward[::-1]: 10}
        config = AutoscalerConfig(target_cpu_utilization=0.1 / 8, panic_threshold=0.0)
        for busy_stream, decision in expected.items():
            columnar, reference = _pair(config, 80, 1.0)
            for index, busy in enumerate(busy_stream):
                columnar.observe(2.0 * index, 0, busy)
                reference.observe(2.0 * index, 0, busy, 1)
            # No sandboxes yet, so a zero decision is not damped by the
            # scale-down delay.
            now = 2.0 * (len(busy_stream) - 1)
            assert columnar.desired_instances(now, 0) == reference.desired_instances(now, 0) == decision
